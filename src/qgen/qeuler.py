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

import functools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .padic import (
    BudgetExceeded,
    QBracketMonomial,
    SeriesParams,
    _distribution,
    _last_three,
    _prefix_sums,
    _ratios,
    _series_regime,
    _sum_table,
    cesaro1_value,
)
from .qcore import (
    DomainError,
    Poly,
    QRat,
    falling,
    is_zero_scalar,
    poly_gcd,
    q as _qgen,
    q_int,
    q_power,
    q_sym,
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

    def kernel(self) -> tuple[QEulerSpec, int]:
        """The q-Euler parameters and integer scale of this value: itself, 1."""
        return self, 1

    def integrand(self) -> QBracketMonomial:
        """The k-variable integrand whose fermionic level sums and real
        series approximate this closed form."""
        return QBracketMonomial(m=self.m, k=self.k, h=self.h, w=self.w, x=self.x)


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


def _divisors(n: int) -> list[int]:
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def _totient(n: int) -> int:
    out, p = n, 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            out -= out // p
        p += 1
    return out - out // n if n > 1 else out


@functools.lru_cache(maxsize=256)
def _cyclotomic(d: int) -> Poly:
    """The cyclotomic polynomial Phi_d: q^d - 1 divided by Phi_e for the
    proper divisors e of d (exact integer division by monic divisors)."""
    acc = Poly((-1,) + (0,) * (d - 1) + (1,))
    for e in _divisors(d)[:-1]:
        acc = acc.exact_div(_cyclotomic(e))
    return acc


_PHI1, _PHI2 = ("phi", 1), ("phi", 2)


class _Factor(NamedTuple):
    """1 + w q^e = content * q^(-shift) * P, where the integer polynomial
    P is the product of the known factors named by `keys`: ("phi", d) is
    Phi_d, ("w", e) is b + a q^e for e > 0 and a + b q^|e| for e < 0,
    with w = a/b in lowest terms."""

    content: Fraction
    shift: int
    keys: tuple
    degree: int


def _split_factor(w: Fraction, e: int) -> _Factor:
    n = abs(e)
    if w == 0 or e == 0:
        return _Factor(1 + w, 0, (), 0)
    shift = n if e < 0 else 0
    if w == 1:  # 1 + q^n = prod_{d | 2n, d does not divide n} Phi_d
        return _Factor(Fraction(1), shift,
                       tuple(("phi", d) for d in _divisors(2 * n) if n % d), n)
    if w == -1:  # q^n - 1 = prod_{d | n} Phi_d, and 1 - q^n is its negative
        return _Factor(Fraction(1 if e < 0 else -1), shift,
                       tuple(("phi", d) for d in _divisors(n)), n)
    return _Factor(Fraction(1, w.denominator), shift, (("w", e),), n)


def _factor_poly(key, w: Fraction) -> Poly:
    kind, e = key
    if kind == "phi":
        return _cyclotomic(e)
    a, b = w.numerator, w.denominator
    lo, hi = (b, a) if e > 0 else (a, b)
    return Poly((lo,) + (0,) * (abs(e) - 1) + (hi,))


def _binomial_poly(w: Fraction, e: int) -> Poly:
    """The integer polynomial P of `_split_factor(w, e)`, for e != 0."""
    if abs(w) == 1:
        return Poly((w,) + (0,) * (abs(e) - 1) + (1,))
    return _factor_poly(("w", e), w)


class _KnownDenominator(NamedTuple):
    """The closed form over its known denominator.  Row j of the sum
    divides by the factors of the exponents h + j - l, l < k; `powers`
    gives each known factor's exponent in the rows' common denominator D,
    and `cancel` the powers of Phi_2 = 1 + q that [2]_q^k cancels from
    it.  `degree` bounds the degree of the result: it is the larger degree
    of the unreduced numerator and denominator."""

    factors: dict
    powers: dict
    cancel: int
    degree: int


def _known_denominator(m: int, h: int, k: int, x: int, w: Fraction,
                       budget: int | None = None) -> _KnownDenominator:
    """Plan the symbolic closed form in O(m + k) steps without a product.
    With a budget, raise BudgetExceeded when the result's degree bound
    exceeds it; two lower bounds reject a huge request before the loops."""
    if budget is not None:
        # (1 - q)^m stays in the denominator; with w = 0 the numerator
        # keeps (1 + q)^k; otherwise row 0 divides by factors of total
        # degree sum_l |h - l|, of which [2]_q^k cancels at most k
        low = max(m, k) if w == 0 else m + _abs_sum(h - k + 1, h) - k
        if low > budget:
            raise BudgetExceeded(
                f"symbolic degree of at least {low} exceeds the budget of {budget}")
    if w == -1:  # the first (j, l) in loop order with h + j - l = 0
        j = max(0, -h)
        if j <= m and h + j < k:
            raise DomainError(f"vanishing denominator factor 1 + w q^(0) at j={j}, l={h + j}")
    lo = h - k + 1
    factors = {e: _split_factor(w, e) for e in range(lo, h + m + 1)}
    # slide a window of k exponents: at e >= h it holds row j = e - h; the
    # windows before are prefixes of row 0, so their counts raise no power
    live: Counter = Counter()
    powers: dict = {}
    shift = degree = 0
    rows = []
    for e in range(lo, h + m + 1):
        new = factors[e]
        live.update(new.keys)
        shift += new.shift
        degree += new.degree
        if e - k >= lo:
            old = factors[e - k]
            live.subtract(old.keys)
            shift -= old.shift
            degree -= old.degree
        for key in new.keys:
            powers[key] = max(powers.get(key, 0), live[key])
        if e >= h:
            rows.append(x * (e - h) + shift - degree)
    cancel = min(k, powers.get(_PHI2, 0))
    den_degree = sum(_factor_degree(key) * e for key, e in powers.items())
    total = max(m + den_degree - cancel, k - cancel + den_degree + max(rows))
    if budget is not None and total > budget:
        raise BudgetExceeded(f"symbolic degree {total} exceeds the budget of {budget}")
    return _KnownDenominator(factors, powers, cancel, total)


def _abs_sum(lo: int, hi: int) -> int:
    """sum |v| over lo <= v <= hi."""
    def tri(n):
        return n * (n + 1) // 2
    if lo >= 0:
        return tri(hi) - tri(lo - 1)
    if hi <= 0:
        return tri(-lo) - tri(-hi - 1)
    return tri(-lo) + tri(hi)


def _factor_degree(key) -> int:
    kind, e = key
    return _totient(e) if kind == "phi" else abs(e)


def check_symbolic_budget(spec: QEulerSpec, budget: int) -> None:
    """Raise BudgetExceeded when the symbolic closed form of `spec` may
    have a degree above `budget`, before any polynomial work."""
    _known_denominator(spec.m, spec.h, spec.k, spec.x, to_frac(spec.w), budget)


def _euler_sum_symbolic(m: int, h: int, k: int, x: int, w: Fraction, scale: int) -> QRat:
    """The closed form at the symbolic generator, over its known
    denominator: one integer numerator N and one rational content C, so
    that the value is C (1 + q)^(k - t) N / (Phi_1^m D / Phi_2^t).

    The known factors are pairwise coprime.  Distinct Phi_d are, and a
    common root of two twist factors, or of a twist factor and some Phi_d,
    would need |q| = 1, which forces |w| = 1 (q^e = -1/w and q^e' = -1/w
    give q^(e-e') = 1; q^e = -1/w and q^e' = -w with e, e' > 0 put |q|^e
    and |q|^e' on opposite sides of 1; the roots of Phi_d have |q| = 1).
    So gcd(N, denominator) is the product of gcd(N, P) over the factor
    powers P, each found at a degree below deg P, and dividing each P by
    its own GCD leaves a denominator coprime to the numerator: the pair is
    reduced without a second full-degree GCD."""
    plan = _known_denominator(m, h, k, x, w)
    polys = {key: _factor_poly(key, w) for key in (*plan.powers, _PHI1, _PHI2)}
    common = Poly((1,))
    for key, e in plan.powers.items():
        common = common * polys[key] ** e
    binomials = {e: _binomial_poly(w, e) for e, f in plan.factors.items() if f.keys}
    rows = []
    for j in range(m + 1):
        exps = range(h + j - k + 1, h + j + 1)
        coef = Fraction(math.comb(m, j) * (-1) ** j)
        for e in exps:
            coef /= plan.factors[e].content
        rows.append((coef, exps))
    lcm = math.lcm(*(coef.denominator for coef, _ in rows))
    num = Poly()
    for j, (coef, exps) in enumerate(rows):
        cof = common
        shift = x * j
        for e in exps:
            shift += plan.factors[e].shift
            if e in binomials:
                cof = cof.exact_div(binomials[e])
        num = num + Poly((0,) * shift + (int(coef * lcm),)) * cof
    if num.is_zero or not scale:
        return QRat._from_reduced(Poly(), Poly((1,)))
    num = num * Poly((1, 1)) ** (k - plan.cancel)
    powers = Counter(plan.powers)
    powers[_PHI1] += m
    powers[_PHI2] -= plan.cancel
    den = Poly((1,))
    for key, e in powers.items():
        if e > 0:
            power = polys[key] ** e
            g = poly_gcd(num, power)
            if g.degree > 0:
                num = num.exact_div(g)
                power = power.exact_div(g)
            den = den * power
    lead = den.coeffs[-1]
    # reduced by the per-factor GCDs above (pairwise-coprime factors)
    return QRat._from_reduced(num * Fraction(scale * (-1) ** m, lcm * lead), den.monic())


def _euler_sum(m: int, h: int, k: int, x: int, w, qv, scale: int = 1):
    """The one closed form, times an integer scale:
    scale [2]_q^k (1-q)^{-m} sum_j C(m,j) (-1)^j q^{xj} / prod_l (1 + w q^{h+j-l}).

    At the symbolic generator the value is built over its known
    denominator (`_euler_sum_symbolic`), and at a rational q as one integer
    numerator over one denominator (`_euler_sum_exact`); other symbolic
    arguments take the general loop (`_euler_sum_loop`)."""
    qv = _normalize_q(qv)
    w = to_frac(w)
    if isinstance(qv, Fraction):
        return _euler_sum_exact(m, h, k, x, w, qv, scale)
    if qv == q_sym and qv.num.var == _qgen.var:
        return _euler_sum_symbolic(m, h, k, x, w, scale)
    return _euler_sum_loop(m, h, k, x, w, qv, scale)


def _euler_sum_exact(m: int, h: int, k: int, x: int, w: Fraction, qf: Fraction,
                     scale: int) -> Fraction:
    """The closed form at q = a/c in integers.  With w = u/v, each factor
    is 1 + w q^e = n_e / d_e: n_e = v c^e + u a^e, d_e = v c^e for e >= 0,
    and n_e = v a^|e| + u c^|e|, d_e = v a^|e| for e < 0.  Over the common
    denominator c^(xm) prod_e n_e (e = h-k+1 .. h+m), row j's numerator is
    T_j prod_{e outside its window} n_e, with
    T_j = C(m,j) (-1)^j a^(xj) c^(x(m-j)) prod_{window} d_e.  One pass
    accumulates A_j = A_{j-1} n_{h+j} + T_j P_j, where P_j is the running
    product of the n_e below row j's window, and the prefactor
    [2]_q^k (1-q)^-m = (c+a)^k c^(m-k) / (c-a)^m joins A_m in one Fraction."""
    a, c = qf.numerator, qf.denominator
    u, v = w.numerator, w.denominator
    lo = h - k + 1
    nums, dens = {}, {}
    for e in range(lo, h + m + 1):
        d = v * c ** e if e >= 0 else v * a ** -e
        nums[e] = d + (u * a ** e if e >= 0 else u * c ** -e)
        dens[e] = d
    # the first vanishing factor in the loop's (j, l) order: row 0 from
    # l = 0, then the one new exponent h + j (l = 0) of each later row
    for e in [*range(h, lo - 1, -1), *range(h + 1, h + m + 1)]:
        if nums[e] == 0:
            j = max(e - h, 0)
            raise DomainError(
                f"vanishing denominator factor 1 + w q^({e}) at j={j}, l={h + j - e}")
    acc, below = 0, 1
    for j in range(m + 1):
        if j:
            below *= nums[h + j - k]
            acc *= nums[h + j]
        window = math.prod(dens[e] for e in range(h + j - k + 1, h + j + 1))
        acc += (-1) ** j * math.comb(m, j) * a ** (x * j) * c ** (x * (m - j)) * window * below
    num = scale * (c + a) ** k * acc
    den = (c - a) ** m * below * math.prod(nums[e] for e in range(h + m - k + 1, h + m + 1))
    c_exp = m - k - x * m
    if c_exp >= 0:
        num *= c ** c_exp
    else:
        den *= c ** -c_exp
    return Fraction(num, den)


def _euler_sum_loop(m: int, h: int, k: int, x: int, w: Fraction, qv, scale: int):
    """The closed form term by term in the domain of qv (a Fraction or a
    QRat).  The scale joins the prefactor before the final product, so a
    scaled family costs no extra full-degree reduction."""
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
    f = spec.integrand()
    bases = _ratios(f, qf)
    _series_regime(f, bases, sp)
    pref = (1 + qf) ** spec.k
    dist, E = _distribution(bases, sp.M, size=sp.M)
    # [n+x]_q^m as integers; the series take no term budget (the CLI checks
    # the q exponent before it calls them)
    table = _sum_table(f, qf, sp.M, math.inf)
    if sp.mode == "cesaro1":
        value, gap = cesaro1_value(_prefix_sums(dist, E, table, _last_three(sp.M)))
        return pref * value, pref * gap
    aw = abs(to_frac(spec.w))
    tail = (_gauss_weight_bound(spec.k, qf) * q_power(1 - qf, -spec.m)
            * aw ** sp.M / (1 - aw))
    return pref * _prefix_sums(dist, E, table, [sp.M - 1])[0], pref * tail


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
    f = QBracketMonomial(m=1, k=k, h=k - 1, w=w, x=x)
    bases = _ratios(f, qf)
    _series_regime(f, bases, SeriesParams(sp.M, "cesaro1"))
    if k < 1 or x < 0:
        raise DomainError("need k >= 1, x >= 0")
    inv_fact = [Fraction(1, math.factorial(j)) for j in range(t_terms + k + 1)]

    # lhs core: sum_{j<T} t^j/j! S_j, with S_j the m = j series; the three
    # partial sums that cesaro1 reads are linear in the S_j
    dist, E = _distribution(bases, sp.M, size=sp.M)
    U, R, C = _sum_table(f, qf, sp.M, math.inf)
    partials = [Fraction(0)] * min(3, sp.M)
    power = [1] * sp.M
    for j in range(t_terms):
        if j:
            power = [a * u for a, u in zip(power, U)]
        coef = t ** j * inv_fact[j]
        for i, p in enumerate(_prefix_sums(dist, E, (power, R ** j, C ** j),
                                           _last_three(sp.M))):
            partials[i] += coef * p
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
