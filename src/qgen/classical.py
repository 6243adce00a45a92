"""Classical (q = 1) sequences via exact truncated exponential generating
functions: Euler, Genocchi, Bernoulli, Frobenius-Euler, twisted variants,
and their higher-order versions.

Every sequence here is extracted from its generating function by exact
truncated-series algebra in integers.  Each base generating function is a
reciprocal 1/a(t) of a series with integer coefficients a_i; with c = a_0
its coefficient of t^n/n! is I_n / c^(n+1), where I_0 = 1 and

    I_n = -sum_{i>=1} C(n, i) a_i I_(n-i) c^(i-1)

(the per-index denominator of `padic`'s kernel).  A series whose
coefficients are N_n / c^n is an integer series in t/c, so its powers are
integer binomial convolutions, and a Fraction is built only for the value
that is returned.  The x-polynomials are Appell sums
P_n(x) = sum_j C(n, j) a_(n-j) x^j.  `ExpSeries` is the same algebra over
Fraction (or Poly) coefficients, kept as the reference route; closed-form
literature values appear only in the tests."""

from __future__ import annotations

import math
from fractions import Fraction

from .qcore import DomainError, Poly, falling, to_frac

#: the polynomial argument of the x-polynomials
x = Poly((0, 1), "x")


def _power(base, e: int, mul, one):
    """base ** e by repeated squaring: e's bit length + popcount - 2
    products, none by `one` and no squaring after the top bit."""
    if e < 0:
        raise DomainError("negative series power; use reciprocal first")
    result = None
    while e:
        if e & 1:
            result = base if result is None else mul(result, base)
        e >>= 1
        if e:
            base = mul(base, base)
    return one if result is None else result


class ExpSeries:
    """Truncated exponential generating function sum c[n] t^n / n!.

    Coefficients are stored in the factorial-normalized form, so coeff(n)
    returns c[n] directly.  Coefficients may be Fractions or Polys (for
    the e^{xt}-weighted polynomial families); multiplication is the exact
    binomial convolution and everything is exact up to the order."""

    __slots__ = ("order", "c")

    def __init__(self, coeffs, order: int):
        c = list(coeffs)[: order + 1]
        c += [Fraction(0)] * (order + 1 - len(c))
        self.order = order
        self.c = c

    @classmethod
    def exp_linear(cls, a, order: int) -> "ExpSeries":
        """Series of e^{a t}: coefficients a^n."""
        out = []
        pw = a * 0 + 1 if isinstance(a, Poly) else Fraction(1)
        for _ in range(order + 1):
            out.append(pw)
            pw = pw * a
        return cls(out, order)

    def coeff(self, n: int):
        return self.c[n]

    def __mul__(self, other: "ExpSeries") -> "ExpSeries":
        order = min(self.order, other.order)
        out = []
        for n in range(order + 1):
            acc = self.c[0] * other.c[n]
            for i in range(1, n + 1):
                acc = acc + math.comb(n, i) * self.c[i] * other.c[n - i]
            out.append(acc)
        return ExpSeries(out, order)

    def __pow__(self, e: int) -> "ExpSeries":
        return _power(self, e, ExpSeries.__mul__, ExpSeries([Fraction(1)], self.order))

    def reciprocal(self) -> "ExpSeries":
        a0 = self.c[0]
        if a0 == 0:
            raise DomainError("series reciprocal needs a nonzero constant term")
        inv = [1 / a0]
        for n in range(1, self.order + 1):
            acc = Fraction(0)
            for i in range(1, n + 1):
                acc += math.comb(n, i) * self.c[i] * inv[n - i]
            inv.append(-acc / a0)
        return ExpSeries(inv, self.order)

    def scale(self, s) -> "ExpSeries":
        return ExpSeries([s * c for c in self.c], self.order)

    def shift_t(self) -> "ExpSeries":
        """Multiply by t: the coefficient of t^n/n! becomes n * c[n-1]."""
        out = [Fraction(0)]
        for n in range(1, self.order + 1):
            out.append(n * self.c[n - 1])
        return ExpSeries(out, self.order)


# ------------------------------------------------------ the integer kernel

def _reciprocal(a: list[int]) -> list[int]:
    """I_0..I_n, n = len(a) - 1, with 1/a(t) = sum I_j / a_0^(j+1) t^j/j!."""
    c = a[0]
    b, cp = [0], 1  # b_i = a_i c^(i-1)
    for ai in a[1:]:
        b.append(ai * cp)
        cp *= c
    inv = [1]
    for n in range(1, len(a)):
        inv.append(-sum(math.comb(n, i) * b[i] * inv[n - i] for i in range(1, n + 1)))
    return inv


def _product(a: list[int], b: list[int]) -> list[int]:
    """Binomial convolution of two integer series of the same length."""
    return [sum(math.comb(n, i) * a[i] * b[n - i] for i in range(n + 1))
            for n in range(len(a))]


def _euler_nums(order: int) -> list[int]:
    """N_0..N_order with E_n = N_n / 2^n: 2/(e^t + 1) is 2 I_n / 2^(n+1)."""
    return _reciprocal([2] + [1] * order)


def _frobenius_nums(u, order: int) -> tuple[list[int], int]:
    """(N, c) with H_n(u) = N_n / c^n: for u = p/d, (1 - u)/(e^t - u) is
    (d - p)/(d e^t - p), the reciprocal of [d - p, d, d, ...] times d - p."""
    u = to_frac(u)
    if u == 1:
        raise DomainError("Frobenius-Euler numbers are undefined at u = 1")
    c = u.denominator - u.numerator
    return _reciprocal([c] + [u.denominator] * order), c


def _appell(nums: list[int], c: int) -> Poly:
    """P_n(x) = sum_j C(n, j) a_(n-j) x^j with a_i = nums[i] / c^i."""
    n = len(nums) - 1
    return Poly((Fraction(math.comb(n, j) * nums[n - j], c ** (n - j))
                 for j in range(n + 1)), "x")


def _higher_euler_nums(n: int, r: int) -> list[int]:
    """Numerators of (2/(e^t + 1))^r to order n, over 2^j at index j."""
    return _power(_euler_nums(n), r, _product, [1] + [0] * n)


# ------------------------------------------------------- the public families

def euler_number(n: int) -> Fraction:
    """E_n, the coefficient of t^n/n! in 2/(e^t + 1)."""
    return Fraction(_euler_nums(n)[n], 2 ** n)


def euler_poly(n: int) -> Poly:
    """E_n(x) from the generating function 2 e^{xt}/(e^t + 1)."""
    return _appell(_euler_nums(n), 2)


def higher_euler_number(n: int, r: int = 1) -> Fraction:
    """E_n^{(r)} = E_n^{(r)}(0), from (2/(e^t + 1))^r."""
    return Fraction(_higher_euler_nums(n, r)[n], 2 ** n)


def higher_euler_poly(n: int, r: int = 1) -> Poly:
    """E_n^{(r)}(x), from (2/(e^t + 1))^r e^{xt}."""
    return _appell(_higher_euler_nums(n, r), 2)


def genocchi(n: int) -> Fraction:
    """G_n, the coefficient of t^n/n! in 2t/(e^t + 1): n E_(n-1)."""
    if n == 0:
        return Fraction(0)
    return n * Fraction(_euler_nums(n - 1)[n - 1], 2 ** (n - 1))


def genocchi_poly(n: int) -> Poly:
    """G_n(x), from 2t e^{xt}/(e^t + 1); G_j = j E_(j-1) = 2j N_(j-1) / 2^j."""
    nums = _euler_nums(n - 1)
    return _appell([0] + [2 * j * nums[j - 1] for j in range(1, n + 1)], 2)


def higher_genocchi(n: int, r: int = 1) -> Fraction:
    """G_n^{(r)}, from (2t/(e^t + 1))^r = t^r (2/(e^t + 1))^r: zero below
    index r, and n!/(n-r)! E_(n-r)^{(r)} from index r on."""
    if n < r:
        return Fraction(0)
    return falling(n, r) * Fraction(_higher_euler_nums(n - r, r)[n - r], 2 ** (n - r))


def bernoulli(n: int) -> Fraction:
    """B_n, the coefficient of t^n/n! in t/(e^t - 1), the reciprocal of
    sum t^k/(k+1)!; over D = lcm(1..n+1) that series has integer
    coefficients D/(k+1), so B_n = D I_n / D^(n+1)."""
    d = math.lcm(*range(1, n + 2))
    return Fraction(_reciprocal([d // (k + 1) for k in range(n + 1)])[n], d ** n)


def frobenius_euler(n: int, u) -> Fraction:
    """H_n(u), the coefficient of t^n/n! in (1 - u)/(e^t - u)."""
    nums, c = _frobenius_nums(u, n)
    return Fraction(nums[n], c ** n)


def frobenius_euler_poly(n: int, u) -> Poly:
    """H_n(u, x), from the e^{xt}-weighted generating function."""
    return _appell(*_frobenius_nums(u, n))


def twisted_euler_classical(n: int, w) -> Fraction:
    """Twisted Euler number E_n(w), the coefficient of t^n/n! in
    2/(w e^t + 1), which equals 2/(w + 1) * H_n(-1/w).  With w = a/b it
    is 2b times the reciprocal of a e^t + b, whose integer coefficients
    are [a + b, a, a, ...].

    w = 1 recovers the plain Euler numbers; the alternating series
    2 sum (-w)^m m^n provides the independent oracle for |w| < 1."""
    w = to_frac(w)
    if w == 0 or w == -1:
        raise DomainError("twisted Euler numbers need w not in {0, -1}")
    a, b = w.numerator, w.denominator
    return Fraction(2 * b * _reciprocal([a + b] + [a] * n)[n], (a + b) ** (n + 1))


def twisted_genocchi_classical(n: int, w) -> Fraction:
    """Twisted Genocchi number from 2t/(w e^t + 1); the t factor shifts the
    index: the value is n times the twisted Euler number of index n - 1."""
    if n == 0:
        return Fraction(0)
    return n * twisted_euler_classical(n - 1, w)
