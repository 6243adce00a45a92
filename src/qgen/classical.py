"""Classical (q = 1) sequences via exact truncated exponential generating
functions: Euler, Genocchi, Bernoulli, Frobenius-Euler, twisted variants,
and their higher-order versions.

Every sequence here is extracted from its generating function by exact
truncated-series algebra in integers.  Each base generating function is a
reciprocal 1/a(t) of a series with integer coefficients a = [c, d, d, ...]
(Euler [2, 1, 1, ...], Frobenius-Euler at u = p/d [d - p, d, ...], twisted
at w = a/b [a + b, a, ...]); its coefficient of t^n/n! is I_n / c^(n+1),
where I_0 = 1 and

    I_n = -sum_{i>=1} C(n, i) a_i I_(n-i) c^(i-1)

(the per-index denominator of `padic`'s kernel).  A series whose
coefficients are N_n / c^n is an integer series in t/c, so its powers are
integer binomial convolutions, and a Fraction is built only for the value
that is returned.  The x-polynomials are Appell sums
P_n(x) = sum_j C(n, j) a_(n-j) x^j.

I_n reads a only up to a_n, and coefficient n of a binomial convolution
reads its factors only up to index n.  So each base's table, and each
order of the Euler power's squaring chain, is kept in `qcore`'s table memo
by its base (or order) alone: a call reads a prefix of the kept table, a
longer order extends it in place and replaces it, and a sweep over n costs
one build to the largest n.  The Bernoulli numbers are the one family not
read from a reciprocal: their recurrence runs in integers, B_k over the
product of the primes up to k + 1 (`_bernoulli_nums`), in a memo table
of their own, so they stay independent of the Euler table that the
Genocchi numbers come from.
`table_products` counts the binomial products of a value, for a budget
that is checked before any table is read.  `ExpSeries` is the same
algebra over Fraction (or Poly) coefficients, kept as the reference route;
closed-form literature values appear only in the tests."""

from __future__ import annotations

import math
from fractions import Fraction

from .qcore import _MEMO, DomainError, Poly, _power, falling, to_frac

#: the polynomial argument of the x-polynomials
x = Poly((0, 1), "x")


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
        if e < 0:
            raise DomainError("negative series power; use reciprocal first")
        return _power(self, e, ExpSeries([Fraction(1)], self.order))

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

def _reciprocal(kept: tuple, c: int, d: int, size: int) -> list[int]:
    """I_0..I_(size-1) with 1/a(t) = sum I_j / c^(j+1) t^j/j! for the base
    a = [c, d, d, ...], continued from the kept prefix: I_n reads a only up
    to a_n, so a longer table starts with a shorter one."""
    inv = list(kept) or [1]
    b, cp = [0], d  # b_i = a_i c^(i-1)
    for _ in range(1, size):
        b.append(cp)
        cp *= c
    for n in range(len(inv), size):
        inv.append(-sum(math.comb(n, i) * b[i] * inv[n - i] for i in range(1, n + 1)))
    return inv


def _base_nums(c: int, d: int, order: int) -> tuple:
    """I_0..I_order of the base [c, d, d, ...], one table per base in the
    memo, extended when a longer order is asked for; an order below 0
    reads the order-0 table, (1,)."""
    return _MEMO.prefix(("reciprocal", c, d), max(order, 0) + 1,
                        lambda kept, size: _reciprocal(kept, c, d, size))


def _product(a, b, start: int, size: int) -> list[int]:
    """Coefficients start..size-1 of the binomial convolution of two
    integer series; coefficient n reads both only up to index n."""
    return [sum(math.comb(n, i) * a[i] * b[n - i] for i in range(n + 1))
            for n in range(start, size)]


def _euler_power(r: int, size: int) -> tuple:
    """Numerators of (2/(e^t + 1))^r for indices below `size`, r >= 2, over
    2^j at index j.  The squaring chain of `_power` splits r into its top
    power of 2 and the rest (or two halves of a power of 2); each order on
    the chain is a memo table, so extending one extends its factors and
    convolves only the new indices: bit length + popcount - 2 products per
    index, as `_power` takes."""
    top = 1 << (r.bit_length() - 1)
    lo, hi = (top >> 1, top >> 1) if r == top else (r - top, top)

    def extend(kept, size):
        a = _base_nums(2, 1, size - 1) if lo == 1 else _euler_power(lo, size)
        b = a if hi == lo else _euler_power(hi, size)
        return kept + tuple(_product(a, b, len(kept), size))

    return _MEMO.prefix(("euler-power", r), size, extend)


def _euler_nums(order: int) -> list[int]:
    """N_0..N_order with E_n = N_n / 2^n: 2/(e^t + 1) is 2 I_n / 2^(n+1)."""
    return list(_base_nums(2, 1, order))


def _frobenius_nums(u, order: int) -> tuple[list[int], int]:
    """(N, c) with H_n(u) = N_n / c^n: for u = p/d, (1 - u)/(e^t - u) is
    (d - p)/(d e^t - p), the reciprocal of [d - p, d, d, ...] times d - p."""
    u = to_frac(u)
    if u == 1:
        raise DomainError("Frobenius-Euler numbers are undefined at u = 1")
    c = u.denominator - u.numerator
    return list(_base_nums(c, u.denominator, order)), c


def _appell(nums: list[int], c: int) -> Poly:
    """P_n(x) = sum_j C(n, j) a_(n-j) x^j with a_i = nums[i] / c^i."""
    n = len(nums) - 1
    return Poly((Fraction(math.comb(n, j) * nums[n - j], c ** (n - j))
                 for j in range(n + 1)), "x")


def _higher_euler_nums(n: int, r: int) -> list[int]:
    """Numerators of (2/(e^t + 1))^r to order n, over 2^j at index j."""
    if r < 0:
        raise DomainError("negative series power; use reciprocal first")
    size = max(n, 0) + 1
    if r == 0:
        return [1] + [0] * (size - 1)
    if r == 1:
        return _euler_nums(n)
    return list(_euler_power(r, size))


def _primes(top: int) -> list[int]:
    """The primes up to `top` >= 1, by the sieve of Eratosthenes."""
    sieve = bytearray([0, 0]) + bytearray([1]) * (top - 1)
    for p in range(2, math.isqrt(top) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, top + 1, p)))
    return [p for p, flag in enumerate(sieve) if flag]


def _bernoulli_nums(kept: tuple, size: int) -> list[int]:
    """beta_0..beta_(size-1) with B_k = beta_k / P_k, P_k the product of
    the primes up to k + 1, continued from the kept prefix, by
    B_m = -(1/(m+1)) sum_(k<m) C(m+1, k) B_k.  By von Staudt-Clausen the
    denominator of B_k is the product of the primes p with p - 1 dividing
    k, so it divides P_k; over P_m every term is an integer and the
    division by m + 1 is exact."""
    primes = set(_primes(size))
    beta = list(kept) or [1]
    for m in range(len(beta), size):
        acc, w = 0, 1  # w = P_m / P_k, one more prime factor at each prime k + 2
        for k in range(m - 1, -1, -1):
            if k + 2 in primes:
                w *= k + 2
            if beta[k]:  # B_k = 0 at every odd k >= 3
                acc += math.comb(m + 1, k) * beta[k] * w
        beta.append(-acc // (m + 1))
    return beta


def table_products(order: int, power: int = 1) -> int:
    """The binomial products of the tables behind a classical value: a
    base table (or the Bernoulli recurrence) to index `order` takes
    order(order + 1)/2, each product of an order-`power` squaring chain as
    many again, and order 0 or power 0 none.  Callers check it against
    their budget before the work starts, whatever the memo holds."""
    if order <= 0 or power == 0:
        return 0
    chain = power.bit_length() + bin(power).count("1") - 2 if power > 1 else 0
    return order * (order + 1) // 2 * (1 + chain)


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
    """B_n, the coefficient of t^n/n! in t/(e^t - 1), from the memo's table
    of its integer recurrence (`_bernoulli_nums`) over the product of the
    primes up to n + 1."""
    beta = list(_MEMO.prefix(("bernoulli",), max(n + 1, 0), _bernoulli_nums))
    return Fraction(beta[n], math.prod(_primes(n + 1)))


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
    return Fraction(2 * b * list(_base_nums(a + b, a, n))[n], (a + b) ** (n + 1))


def twisted_genocchi_classical(n: int, w) -> Fraction:
    """Twisted Genocchi number from 2t/(w e^t + 1); the t factor shifts the
    index: the value is n times the twisted Euler number of index n - 1."""
    if n == 0:
        return Fraction(0)
    return n * twisted_euler_classical(n - 1, w)
