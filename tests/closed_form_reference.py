"""The q-Euler closed form summed term by term: the tests' reference for
every route of `qeuler._euler_sum`,

    scale [2]_q^k (1-q)^{-m} sum_j C(m,j) (-1)^j q^{xj} / prod_l (1 + w q^{h+j-l}),

in the domain of its argument (a Fraction or a QRat), with no shared
kernel beyond the scan that names the first vanishing factor; and the
degree bound of the symbolic plan by a window loop over the factors'
records (`window_degree`), the reference for `qeuler._twist_degree`."""

import math

from qgen.qcore import is_zero_scalar, q_int, q_power
from qgen.qeuler import _check_factors, _split_factor


def euler_sum_loop(m: int, h: int, k: int, x: int, w, qv, scale: int):
    """The closed form term by term at qv.  Each factor 1 + w q^e is built
    once, in the order of `_check_factors`' scan, which raises DomainError
    at the first one that vanishes.  At a removable singularity of the sum
    (the constant 1 with m >= 1) the prefactor's (1 - q)^-m raises
    ZeroDivisionError."""
    factors = {}
    _check_factors(m, h, k, lambda e: is_zero_scalar(
        factors.setdefault(e, w * q_power(qv, e) + 1)))
    acc = qv * 0
    for j in range(m + 1):
        den = math.prod(map(factors.get, range(h + j, h + j - k, -1)), start=qv ** 0)
        acc = acc + math.comb(m, j) * (-1) ** j * q_power(qv, x * j) / den
    pref = scale * q_int(2, qv) ** k
    if m:
        pref = pref / (1 - qv) ** m
    return pref * acc


def window_degree(m: int, h: int, k: int, x: int, w) -> int:
    """The symbolic closed form's degree bound by sliding a window of k
    exponents over the factors 1 + w q^e, e = h-k+1 .. h+m: each known
    factor's power in the common denominator D is its largest count in a
    window, [2]_q^k cancels up to k powers of Phi_2, and row j's numerator
    has degree x j plus its window's q-shift less its window's degree.
    The bound is the larger degree of the unreduced numerator and
    denominator."""
    lo = h - k + 1
    factors = {e: _split_factor(w.numerator, w.denominator, e) for e in range(lo, h + m + 1)}
    live, powers, degrees = {}, {}, {}
    shift = degree = 0
    rows = []
    for e in range(lo, h + m + 1):
        new = factors[e]
        for key in new.keys:
            live[key] = live.get(key, 0) + 1
        shift += new.shift
        degree += new.degree
        if e - k >= lo:
            old = factors[e - k]
            for key in old.keys:
                live[key] -= 1
            shift -= old.shift
            degree -= old.degree
        for key, d in zip(new.keys, new.degrees):
            if live[key] > powers.get(key, 0):
                powers[key] = live[key]
                degrees[key] = d
        if e >= h:
            rows.append(x * (e - h) + shift - degree)
    cancel = min(k, powers.get(("phi", 2), 0))
    den_degree = sum(degrees[key] * n for key, n in powers.items())
    return max(m + den_degree - cancel, k - cancel + den_degree + max(rows))
