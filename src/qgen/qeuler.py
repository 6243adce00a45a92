"""Higher-order, twisted, and multiple twisted q-Euler families: closed
forms (exact at a rational q, or symbolic in the rational-function field),
boundary series evaluators, and generating-function comparators.

The closed form for the order-k family with weight h, twist w, and shift x is

    [2]_q^k (1-q)^{-m} sum_{j=0}^{m} C(m,j) (-1)^j q^{xj}
                              / prod_{l=0}^{k-1} (1 + w q^{h+j-l}),

which the fermionic level sums of `padic` approximate p-adically and the
series below approximate for 0 < q < 1.  This is the only closed-form code
path: the twisted q-Euler number and every q-Genocchi value (`qgenocchi`)
are this sum at fixed parameters times an integer scale."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .padic import DivergenceError, SeriesParams, cesaro1_value
from .qcore import (
    DomainError,
    Poly,
    QRat,
    falling,
    is_zero_scalar,
    q as _qgen,
    q_int,
    q_power,
    to_frac,
)


@dataclass(frozen=True)
class QEulerSpec:
    """Parameters: degree m, integer weight h, order k, integer shift x,
    and rational twist w (w = 1 recovers the untwisted family)."""

    m: int
    h: int
    k: int = 1
    x: int = 0
    w: Fraction = Fraction(1)

    def __post_init__(self):
        if self.m < 0 or self.k < 1 or self.x < 0:
            raise DomainError("need m >= 0, k >= 1, x >= 0")


def _normalize_q(qv):
    """The evaluation domain: QRat for symbolic q (omitted, a Poly or a
    QRat), otherwise an exact rational outside {0, 1, -1}."""
    if qv is None:
        return QRat(_qgen)
    if isinstance(qv, Poly):
        return QRat(qv)
    if isinstance(qv, QRat):
        return qv
    qf = to_frac(qv)
    if qf in (0, 1, -1):
        raise DomainError("exact mode needs q outside {0, 1, -1}")
    return qf


def _denominator_product(qv, w: Fraction, h: int, j: int, k: int):
    """prod_{l=0}^{k-1} (1 + w q^{h+j-l}), guarding vanishing factors."""
    acc = qv ** 0
    for l in range(k):
        factor = w * q_power(qv, h + j - l) + 1
        if is_zero_scalar(factor):
            raise DomainError(
                f"vanishing denominator factor 1 + w q^({h + j - l}) at j={j}, l={l}")
        acc = acc * factor
    return acc


def _euler_sum(m: int, h: int, k: int, x: int, w, qv, scale: int = 1):
    """The one closed form, times an integer scale:
    scale [2]_q^k (1-q)^{-m} sum_j C(m,j) (-1)^j q^{xj} / prod_l (1 + w q^{h+j-l}).

    The scale joins the prefactor before the final product, so a scaled
    family costs no extra full-degree reduction."""
    qv = _normalize_q(qv)
    w = to_frac(w)
    acc = qv * 0
    for j in range(m + 1):
        den = _denominator_product(qv, w, h, j, k)
        acc = acc + math.comb(m, j) * (-1) ** j * q_power(qv, x * j) / den
    pref = scale * q_int(2, qv) ** k
    if m:
        pref = pref * q_power(1 - qv, -m)
    return pref * acc


def qeuler_hk(spec: QEulerSpec, qv=None):
    """Closed form of the order-k q-Euler value E_m^{(h,k)}(x; w).

    Pass a Fraction q for an exact value, or omit q (or pass the symbolic
    generator) for the reduced rational function in q."""
    return _euler_sum(spec.m, spec.h, spec.k, spec.x, spec.w, qv)


def qeuler_twisted(n: int, w, qv=None):
    """Twisted q-Euler number:
    [2]_q (1-q)^{-n} sum_j C(n,j) (-1)^j / (1 + q^{j+1} w).

    Coincides with the order-1, weight-1 family at x = 0."""
    if n < 0:
        raise DomainError("need n >= 0")
    return _euler_sum(n, 1, 1, 0, w, qv)


def _series_mode(w: Fraction, sp: SeriesParams):
    if abs(w) > 1:
        raise DivergenceError("series diverges for |w| > 1")
    if w == -1:
        raise DivergenceError("positively divergent series (twist w = -1)")
    boundary = w == 1
    if boundary and sp.mode == "direct":
        raise DivergenceError("boundary alternating series: use cesaro1")
    return boundary


def _gauss_weight_terms(k: int, x: int, w: Fraction, qf: Fraction, M: int):
    """Yields (C(k+n-1, n)_q (-w)^n, [n+x]_q) for n = 0..M-1, with the
    signed Gaussian weight and the bracket updated incrementally."""
    c = Fraction(1)
    br = (1 - qf ** x) / (1 - qf)
    qpow = qf ** x
    for n in range(M):
        if n > 0:
            c *= -w * (1 - qf ** (k + n - 1)) / (1 - qf ** n)
            br += qpow
            qpow *= qf
        yield c, br


def _gauss_weight_bound(k: int, qf: Fraction) -> Fraction:
    """C(k+n-1, n)_q increases in n to 1/prod_{i=1}^{k-1}(1 - q^i)."""
    out = Fraction(1)
    for i in range(1, k):
        out /= 1 - qf ** i
    return out


def qeuler_hk_series(spec: QEulerSpec, qv, sp: SeriesParams) -> tuple[Fraction, Fraction]:
    """Series route for the weight h = k - 1 family:
    [2]_q^k sum_n C(k+n-1, n)_q (-w)^n [n+x]_q^m.

    Direct mode needs |w| < 1 and returns an exact geometric tail bound;
    |w| = 1 is the boundary case and needs cesaro1.  Returns (value, bound)."""
    if spec.h != spec.k - 1:
        raise DomainError("the series expansion exists only for h = k - 1")
    qf = to_frac(qv)
    if not 0 < qf < 1:
        raise DomainError("series mode needs 0 < q < 1")
    w = to_frac(spec.w)
    boundary = _series_mode(w, sp)
    pref = (1 + qf) ** spec.k
    partials = []
    s = Fraction(0)
    for c, br in _gauss_weight_terms(spec.k, spec.x, w, qf, sp.M):
        s += c * br ** spec.m
        partials.append(s)
    if boundary or sp.mode == "cesaro1":
        value, gap = cesaro1_value(partials)
        return pref * value, pref * gap
    aw = abs(w)
    tail = (_gauss_weight_bound(spec.k, qf) * q_power(1 - qf, -spec.m)
            * aw ** sp.M / (1 - aw))
    return pref * s, pref * tail


def _truncated_exp(a: Fraction, t: Fraction, terms: int, inv_fact) -> Fraction:
    acc = Fraction(0)
    pw = Fraction(1)
    for j in range(terms):
        acc += inv_fact[j] * pw
        pw *= a * t
    return acc


def gf_eval(kind: str, k: int, x: int, w, qv, t, sp: SeriesParams,
            t_terms: int = 8) -> tuple[Fraction, Fraction]:
    """Compare the two faces of a generating function at a rational point t.

    kind "fqk":  lhs = [2]_q^k sum_n C(k+n-1,n)_q (-w)^n e^{[n+x]_q t}
                 rhs = sum_{m<T} E-closed-form * t^m/m!
    kind "hqk"/"hqkw": the order-k Genocchi generating function, with its
                 t^k prefactor and vanishing low coefficients (x must be 0;
                 "hqk" forces w = 1).

    Exponentials are truncated exact series in t; the boundary n-sum is
    evaluated with the cesaro1 smoothing.  Returns (lhs, rhs)."""
    if kind not in ("fqk", "hqk", "hqkw"):
        raise DomainError(f"unknown generating function kind {kind!r}")
    qf = to_frac(qv)
    if not 0 < qf < 1:
        raise DomainError("generating functions are evaluated for 0 < q < 1")
    t = to_frac(t)
    w = Fraction(1) if kind == "hqk" else to_frac(w)
    if kind in ("hqk", "hqkw"):
        if x != 0:
            raise DomainError("the Genocchi generating functions have no shift")
    _series_mode(w, SeriesParams(sp.M, "cesaro1"))
    if k < 1 or x < 0:
        raise DomainError("need k >= 1, x >= 0")
    inv_fact = [Fraction(1, math.factorial(j)) for j in range(t_terms + k + 1)]

    partials = []
    s = Fraction(0)
    for c, br in _gauss_weight_terms(k, x, w, qf, sp.M):
        s += c * _truncated_exp(br, t, t_terms, inv_fact)
        partials.append(s)
    core, _ = cesaro1_value(partials)
    pref = (1 + qf) ** k

    if kind == "fqk":
        lhs = pref * core
        coeffs = [_euler_sum(m, k - 1, k, x, w, qf) for m in range(t_terms)]
    else:
        lhs = pref * t ** k * core
        coeffs = [0] * k + [_euler_sum(n - k, k - 1, k, 0, w, qf, falling(n, k))
                            for n in range(k, k + t_terms)]
    rhs = sum((c * t ** n * inv_fact[n] for n, c in enumerate(coeffs)), Fraction(0))
    return lhs, rhs
