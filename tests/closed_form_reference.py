"""The q-Euler closed form summed term by term: the tests' reference for
every route of `qeuler._euler_sum`,

    scale [2]_q^k (1-q)^{-m} sum_j C(m,j) (-1)^j q^{xj} / prod_l (1 + w q^{h+j-l}),

in the domain of its argument (a Fraction or a QRat), with no shared
kernel beyond the scan that names the first vanishing factor."""

import math

from qgen.qcore import is_zero_scalar, q_int, q_power
from qgen.qeuler import _check_factors


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
