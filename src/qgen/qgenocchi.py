"""Classical-order and q-extended Genocchi families: the base q-Genocchi
numbers, the higher-order values with weight h and order k, their twisted
versions, and the boundary series route.

Every q-Genocchi value is an integer scale times the q-Euler closed form
of `qeuler`; the closed form and the Gaussian-weight series are written
only there.  The order-k closed form reports the index-shifted value: the
number of index n + k is

    k! C(n+k, k) [2]_q^k (1-q)^{-n} sum_{l=0}^{n} C(n,l) (-1)^l
                        / prod_{i=0}^{k-1} (1 + w q^{h+l-i}),

that is k! C(n+k, k) times the q-Euler value of degree n, weight h, order
k, shift 0 and twist w.  The indices 0 .. k-1 vanish identically (the t^k
prefactor of the generating function)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .padic import DEFAULT_TERM_BUDGET, SeriesParams
from .qcore import DomainError
from .qeuler import QEulerSpec, _euler_sum, _normalize_q, qeuler_hk_series


@dataclass(frozen=True)
class QGenocchiSpec:
    """Parameters: shifted index n (the reported value has index n + k),
    integer weight h, order k, and rational twist w."""

    n: int
    h: int
    k: int = 1
    w: Fraction = Fraction(1)

    def __post_init__(self):
        if self.n < 0 or self.k < 1:
            raise DomainError("need n >= 0, k >= 1")

    def kernel(self) -> tuple[QEulerSpec, int]:
        """The q-Euler parameters this value scales (degree n, shift 0) and
        the integer scale k! C(n+k, k)."""
        return (QEulerSpec(m=self.n, h=self.h, k=self.k, w=self.w),
                math.factorial(self.k) * math.comb(self.n + self.k, self.k))


def qgenocchi(n: int, qv=None):
    """Base q-Genocchi number
    n [2]_q (1-q)^{-(n-1)} sum_{l<n} C(n-1,l) (-1)^l / (1 + q^{l+1});
    the index-0 value is 0 and the index-1 value is 1 for every q."""
    return qgenocchi_twisted(n, qv)


def qgenocchi_twisted(n: int, qv=None, w=Fraction(1)):
    """Twisted q-Genocchi number; the denominators carry the twist:
    1 + q^{l+1} w.  w = 1 recovers the untwisted value."""
    return qgenocchi_hk_at_index(n, 1, 1, qv, w)


def qgenocchi_hk(spec: QGenocchiSpec, qv=None):
    """Order-k q-Genocchi value of shifted index n (reported index n + k)."""
    espec, scale = spec.kernel()
    return _euler_sum(espec.m, espec.h, espec.k, espec.x, espec.w, qv, scale)


def qgenocchi_hk_at_index(index: int, h: int, k: int, qv=None, w=Fraction(1)):
    """Order-k value addressed by its absolute index: indices below k are
    identically zero (structural, no computation); index j >= k maps to
    the shifted spec n = j - k."""
    if index < 0:
        raise DomainError("need index >= 0")
    if index < k:
        return _normalize_q(qv) * 0
    return qgenocchi_hk(QGenocchiSpec(n=index - k, h=h, k=k, w=w), qv)


def qgenocchi_hk_series(spec: QGenocchiSpec, qv, sp: SeriesParams,
                        term_budget: int = DEFAULT_TERM_BUDGET) -> tuple[Fraction, Fraction]:
    """Series route for the weight h = k - 1 family:
    k! C(n+k, k) [2]_q^k sum_m C(m+k-1, m)_q (-w)^m [m]_q^n.

    Direct mode needs |w| < 1; |w| = 1 is the boundary case (cesaro1).
    The budget is checked as in `qeuler_hk_series`.  Returns (value, bound)."""
    espec, scale = spec.kernel()
    return qeuler_hk_series(espec, qv, sp, term_budget, scale=scale)
