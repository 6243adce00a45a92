"""Fermionic integral machinery: measure values, level-N Riemann sums
(single and multivariate), p-adic valuation convergence reports, the
shift identity residual, and the real 0 < q <= 1 series evaluator with
regularization for boundary alternating series.

This module is the universal brute-force oracle: every closed form in
qeuler/qgenocchi is validated against these level sums (p-adically, via
valuation growth of exact residuals) and against the real series (via
exact tail bounds or the smoothed boundary value).

Every sum here is a box sum: an integrand times prod_j (-q)^{x_j}
equals prod_j b_j^{x_j} g[x1 + ... + xk] for per-variable ratios b_j and
a table g over s = x1 + ... + xk, so `_box_sums` convolves the k geometric
weight tables into one weight per s (`_distribution`) and never enumerates
the box, then sums the weights against g.  Exactly, that pass (`_horner`)
is Horner's rule on integers over one common denominator and returns the
numerators of the prefix sums it reads; `_prefix_sums` divides them out
into Fractions, and `_cesaro1_sums` combines the last three into the
cesaro1 value and gap while they are still integers.  Modulo p^L every
table holds residues of the terms themselves (the brackets, the weights,
b^s for k = 1), so the common denominators are 1 and `_prefix_sums` is one
running sum of products, built from whole-list operations: geometric
tables (`qcore._geometric_table`) by doubling, the m-th powers by one
`map`, the sum by `itertools.accumulate`.  Boxes of several sides share
one table of g, and for k = 1 one prefix-sum pass.  A constant integrand
(m = 0, or n = 0) has no table: its box sum is the total mass of the box,
the product of its k geometric sums (`_geometric_sum`), so its levels cost
O(k log p^N) on the modular and the exact route alike.  The parts that do
not depend on the degree m (the bracket tables of g and the distributions)
come from one bounded memo.
`padic_limit_check` reads its levels so modulo p^L (`_level_sums`), then
sums exactly the levels whose residue cannot decide the valuation; a
cesaro1 `real_series` reads its last three boxes so.

The simplex sum over x1 + ... + xk < L is the box sum truncated at s < L:
below s = L the two distributions agree.  The Gaussian-weight series and
the generating-function comparator of `qeuler` run through it, with the
ratios, regime (`_series_regime`) and cesaro1 window of their integrand;
they read `_horner` and `_cesaro1_sums` and build one Fraction per value
they return."""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Sequence
from fractions import Fraction

from .qcore import (
    _MEMO,
    DomainError,
    Record,
    _geometric_table,
    q_bracket_neg,
    q_int,
    q_power,
    to_frac,
)

DEFAULT_TERM_BUDGET = 100_000


class DivergenceError(DomainError):
    """A series evaluation was requested outside its convergence regime."""


class BudgetExceeded(RuntimeError):
    """A sum would need more terms than the configured budget."""


# Miller-Rabin with the prime bases up to 41 is deterministic below this
# bound (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases",
# Math. Comp. 2017: psi_13 = 3317044064679887385961981)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def _strong_probable_prime(n: int) -> bool:
    """Odd n > 41 passes Miller-Rabin to every base in `_MR_BASES`."""
    d, s = n - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _is_prime(n: int) -> bool:
    """Primality of n < `_MR_LIMIT`, by deterministic Miller-Rabin."""
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    return _strong_probable_prime(n)


def _check_odd_prime(p: int):
    # a level-1 sum at such p has at least p > 3.3e24 terms, so no
    # computation is lost by refusing them
    if p >= _MR_LIMIT:
        raise DomainError(f"p = {p} is too large: primality cannot be certified "
                          f"deterministically at or above {_MR_LIMIT}")
    if p == 2 or not _is_prime(p):
        raise DomainError(f"p = {p} is not an odd prime")


class PadicParams(Record):
    """Evaluation context for level-N sums: odd prime p and level N."""

    __slots__ = ("p", "N")

    def __init__(self, p: int = 3, N: int = 2):
        _check_odd_prime(p)
        if N < 1:
            raise DomainError("level N must be >= 1")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "N", N)


class ClassicalMonomial(Record):
    """Single-variable integrand f(y) = w^y (y + c)^n."""

    __slots__ = ("n", "w", "c")

    def __init__(self, n: int, w: Fraction = Fraction(1), c: int = 0):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "c", c)

    @property
    def num_vars(self) -> int:
        return 1


class QBracketMonomial(Record):
    """k-variable integrand f(x1..xk) =
    (prod_j w^{x_j} q^{(h-j) x_j}) [x1 + ... + xk + x]_q^m."""

    __slots__ = ("m", "k", "h", "w", "x")

    def __init__(self, m: int, k: int = 1, h: int = 1, w: Fraction = Fraction(1), x: int = 0):
        if k < 1:
            raise DomainError("need k >= 1")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "x", x)

    @property
    def num_vars(self) -> int:
        return self.k


IntegrandFamily = ClassicalMonomial | QBracketMonomial


class SeriesParams(Record):
    """Real-series evaluation context: truncation M and summation mode.

    "direct" truncates an absolutely convergent sum and reports an exact
    tail majorant; "cesaro1" applies one first-order averaging pass over
    the partial sums, which removes the period-two oscillation of
    boundary alternating series and converges to their Abel value."""

    __slots__ = ("M", "mode")

    def __init__(self, M: int = 400, mode: str = "direct"):
        if M < 1:
            raise DomainError("series truncation M must be >= 1")
        if mode not in ("direct", "cesaro1"):
            raise DomainError(f"unknown series mode {mode!r}")
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "mode", mode)


class ValuationReport(Record):
    """Exact p-adic valuations of level-sum residuals, level by level.

    The verdict is true iff the valuations are nondecreasing and the final
    one reaches at least max(levels) - 1.  Valuation of an exact zero
    residual is reported as +infinity."""

    __slots__ = ("levels", "valuations", "verdict")

    def __init__(self, levels: list[int], valuations: list, verdict: bool):
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "valuations", valuations)
        object.__setattr__(self, "verdict", verdict)


def val_p(value: Fraction, p: int):
    """Exact p-adic valuation of a rational; +infinity for 0."""
    value = to_frac(value)
    if value == 0:
        return math.inf
    return _val_int(value.numerator, p) - _val_int(value.denominator, p)


def _val_int(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def measure_value(a: int, params: PadicParams, qv) -> Fraction:
    """Measure of the ball a + p^N Z_p: (-q)^a / [p^N]_{-q}."""
    qf = to_frac(qv)
    if qf == -1:
        raise DomainError("measure undefined at q = -1")
    span = params.p ** params.N
    if not 0 <= a < span:
        raise DomainError(f"residue a = {a} outside [0, {span})")
    return (-qf) ** a / q_bracket_neg(span, qf)


def _ratios(f: IntegrandFamily, qf: Fraction) -> list[Fraction]:
    """Per-variable ratios b_j of the signed integrand: f(x) prod_j (-q)^{x_j}
    = prod_j b_j^{x_j} g[x1 + ... + xk].  Classical: -q w; bracket variable
    j: w q^{h-j} (-q) = -w q^{h-j+1}."""
    w = to_frac(f.w)
    if isinstance(f, ClassicalMonomial):
        return [-qf * w]
    return [-w * q_power(qf, f.h - j + 1) for j in range(1, f.k + 1)]


def _bracket_numerators(qf: Fraction, x: int, size: int,
                        modulus: int | None) -> tuple[tuple[int, ...], int, int]:
    """(U, c, K) with [s + x]_q = U[s] / (K c^s) for s < size.

    Modulo `modulus` (q a unit there) U holds the residues of the brackets
    themselves and c = K = 1: [x]_q plus the running sums of the residues of
    q^x q^s, a geometric table (`_geometric_table`).

    Exactly, with q = a/c and K a common denominator of [x]_q and
    q^x = X / K, the step br_{s+1} = br_s + q^{x+s} is
    U_{s+1} = c (U_s + X a^s)."""
    qpow = q_power(qf, x)
    br = Fraction(x) if qf == 1 else (1 - qpow) / (1 - qf)
    if modulus:
        steps = _geometric_table(_residue(qpow, modulus), _residue(qf, modulus),
                                 size - 1, modulus)
        brackets = itertools.accumulate(steps, initial=_residue(br, modulus))
        return tuple(map(operator.mod, brackets, itertools.repeat(modulus))), 1, 1
    K = math.lcm(br.denominator, qpow.denominator)
    a, c = qf.numerator, qf.denominator
    u = br.numerator * (K // br.denominator)
    t = qpow.numerator * (K // qpow.denominator)
    U = []
    for _ in range(size):
        U.append(u)
        u = c * (u + t)
        t *= a
    return tuple(U), c, K


def _sum_table(f: IntegrandFamily, qf: Fraction, size: int,
               modulus: int | None = None) -> tuple[Sequence[int] | None, int, int]:
    """The factor g[s] of the integrand that depends only on s = x1 + ... + xk,
    for s = 0..size-1: (s + c)^n, or [s + x]_q^m.  Returned as integers
    (G, R, C) with g[s] = G[s] / (R^s C).  Modulo `modulus` G holds the
    residues of g itself and R = C = 1.  The constant g = 1 (n = 0 or
    m = 0) is (None, 1, 1): `_box_sums` sums its boxes as geometric sums,
    and `_horner` reads it as a table of ones.

    For brackets, G[s] = U[s]^m with the table U of `_bracket_numerators`,
    which does not depend on m and is read from the memo, so R = c^m and
    C = K^m (both 1 modulo `modulus`); at m = 1, G is U itself."""
    if isinstance(f, ClassicalMonomial):
        if f.n < 0:
            raise DomainError("integrand exponent n must be >= 0")
        if f.n == 0:
            return None, 1, 1
        return [pow(s + f.c, f.n, modulus) for s in range(size)], 1, 1
    if f.m < 0:
        raise DomainError("integrand exponent m must be >= 0")
    if f.m == 0:
        return None, 1, 1
    U, c, K = _MEMO.get(("bracket", qf, f.x, size, modulus),
                        lambda: _bracket_numerators(qf, f.x, size, modulus))
    G = U if f.m == 1 else list(map(pow, U, itertools.repeat(f.m), itertools.repeat(modulus)))
    return G, c ** f.m, K ** f.m


def _distribution(bases: Sequence[Fraction], L: int, modulus: int | None = None,
                  size: int | None = None) -> tuple[tuple[int, ...], int]:
    """The s-distribution of the k geometric tables (b_j^0, ..., b_j^{L-1}):
    integers D[s] with sum over x1 + ... + xk = s of prod_j b_j^{x_j} equal
    to D[s] / E^s, where E is the common denominator of the bases.  Modulo
    `modulus` (every denominator a unit there) D holds the residues of the
    weights themselves and E = 1; for k = 1 that is the geometric table of
    b^s.  With a `size`, only s < size is kept.  Read from the memo by its
    inputs (`_build_distribution`).  The b^L corrections first act at
    s = L, so below it the distribution is the simplex's: for s < L the
    weight is the complete homogeneous sum h_s(b_1, ..., b_k)."""
    return _MEMO.get(("dist", tuple(bases), L, modulus, size),
                     lambda: _build_distribution(bases, L, modulus, size))


def _build_distribution(bases: Sequence[Fraction], L: int, modulus: int | None,
                        size: int | None) -> tuple[tuple[int, ...], int]:
    """From the first base's geometric table B_1^s, s < L (what the running
    form's first pass over the unit table gives, its b^L term idle below
    s = L), each further base is convolved in by the running form
    d'[s] = d[s] + b d'[s-1] - b^L d[s-L]: O(k^2 L) operations, not L^k."""
    if modulus:
        E, scaled = 1, [_residue(b, modulus) for b in bases]
    else:
        E = math.lcm(*(b.denominator for b in bases))
        scaled = [b.numerator * (E // b.denominator) for b in bases]
    n = L if size is None else min(L, size)
    dist = _geometric_table(1, scaled[0], n, modulus) if scaled else [1]
    for B in scaled[1:]:
        BL = pow(B, L, modulus)
        padded = dist + [0] * (L - 1)
        if size is not None:
            del padded[size:]
        cur = 0
        dist = []
        for s, d in enumerate(padded):
            cur = d + B * cur - (BL * padded[s - L] if s >= L else 0)
            if modulus:
                cur %= modulus
            dist.append(cur)
    return tuple(dist), E


def _horner(dist: Sequence[int], E: int, table: tuple[Sequence[int], int, int],
            reads: Sequence[int]) -> list[int]:
    """The integers A_n = sum_{s<=n} D[s] G[s] (E R)^(n-s) at each n of the
    ascending `reads`, by Horner's rule over one `map` of D[s] G[s].  With
    g[s] = G[s] / (R^s C), the prefix sum sum_{s<=n} (D[s] / E^s) g[s] is
    A_n / (C (E R)^n).  The exact route only: modulo p^L the tables hold
    residues of the terms, E = R = C = 1, and `_prefix_sums` adds them up
    with no Horner step."""
    G, R, _ = table
    ER = E * R
    terms = iter(dist) if G is None else map(operator.mul, dist, G)
    acc, done, accs = 0, 0, []
    for n in reads:
        for t in itertools.islice(terms, n + 1 - done):
            acc = acc * ER + t
        done = n + 1
        accs.append(acc)
    return accs


def _residue(v: Fraction, modulus: int) -> int:
    """The residue of a rational with a unit denominator modulo `modulus`."""
    return v.numerator * pow(v.denominator, -1, modulus) % modulus


def _over(num, den: int, modulus: int | None):
    """num / den for a rational num and an int den: a Fraction, or with a
    `modulus` the residue of that quotient, for an int num and a unit den."""
    if modulus:
        return num * pow(den, -1, modulus) % modulus
    return Fraction(num, den)


def _prefix_sums(dist: Sequence[int], E: int, table: tuple[Sequence[int], int, int],
                 reads: Sequence[int], modulus: int | None = None) -> list:
    """The prefix sums P_n = sum_{s<=n} (D[s] / E^s) g[s] at each n of the
    ascending `reads`: Fractions, or residues when a `modulus` is given.

    Exactly, A_n / (C (E R)^n) from `_horner`.  Modulo `modulus` the
    distribution and the table hold residues of the terms, E = R = C = 1,
    and P_n is one running sum of the products D[s] G[s], unreduced, read
    at each n and reduced once per read."""
    if not modulus:
        _, R, C = table
        accs = _horner(dist, E, table, reads)
        return [Fraction(a, C * (E * R) ** n) for n, a in zip(reads, accs)]
    running = itertools.accumulate(map(operator.mul, dist, table[0]))
    sums, done = [], 0
    for n in reads:
        sums.append(next(itertools.islice(running, n - done, None)) % modulus)
        done = n + 1
    return sums


def _box_sums(bases: Sequence[Fraction], table: tuple[Sequence[int], int, int],
              sides: Sequence[int], modulus: int | None = None) -> list:
    """The sums over x in [0, L)^k of prod_j b_j^{x_j} g[x1 + ... + xk] for
    each L of the ascending `sides`: Fractions, or residues modulo
    `modulus` when one is given (every denominator must then be a unit).
    Only s = x1 + ... + xk reaches g, so each is the full sum over the
    s-distribution of its box; `table` may run past the largest.

    For k = 1 the box [0, L) is a prefix of the largest one, so one
    distribution and one prefix-sum pass read every side at s = L - 1; for
    k >= 2 the box distributions differ, so each side builds its own.

    A constant table (g = 1) needs no distribution: a box's sum is then its
    total mass, the product of its k geometric sums (`_geometric_sum`)."""
    if table[0] is None:
        boxes = [math.prod(_geometric_sum(b, L, modulus) for b in bases) for L in sides]
        return [box % modulus for box in boxes] if modulus else boxes
    if len(bases) == 1:
        dist, E = _distribution(bases, sides[-1], modulus)
        return _prefix_sums(dist, E, table, [L - 1 for L in sides], modulus)
    sums = []
    for L in sides:
        dist, E = _distribution(bases, L, modulus)
        sums += _prefix_sums(dist, E, table, [len(dist) - 1], modulus)
    return sums


def _geometric_sum(b: Fraction, L: int, modulus: int | None = None):
    """sum_{x<L} b^x for L >= 1: the q-integer [L]_b (`q_int`).

    With a `modulus`, its residue (b must be a unit), from the residue r
    of b by binary doubling, S_2n = S_n (1 + r^n) and S_(n+1) = S_n + r^n.
    That divides by nothing: 1 - b may be a non-unit, as when w = -1 and
    q = 1 mod p make 1 + w q^e = 0 mod p."""
    if not modulus:
        return q_int(L, b)
    r = _residue(b, modulus)
    S, rn = 1, r  # S_n and r^n at n = 1
    for bit in bin(L)[3:]:
        S = S * (1 + rn) % modulus
        rn = rn * rn % modulus
        if bit == "1":
            S = (S + rn) % modulus
            rn = rn * r % modulus
    return S


def _power_exceeds(base: int, exp: int, budget: int) -> bool:
    """base^exp > budget for base >= 1 and exp >= 1 (False at exp < 1),
    without forming base^exp: the first power over the budget decides, so at
    base >= 2 it takes O(log budget) products, and base 1 none."""
    if base == 1:
        return exp >= 1 and 1 > budget
    power = 1
    for _ in range(exp):
        power *= base
        if power > budget:
            return True
    return False


def _tri(n: int) -> int:
    """1 + 2 + ... + n, and 0 for n <= 0."""
    return n * (n + 1) // 2 if n > 0 else 0


def _abs_sum(lo: int, hi: int) -> int:
    """sum |v| over lo <= v <= hi, for lo <= hi."""
    return _tri(hi) - _tri(lo - 1) + _tri(-lo) - _tri(-hi - 1)


# The budget rules, one refusal each: every public route calls its rules at
# entry, and the CLI before any value; the summing kernels take no budget.
def check_term_budget(base: int, exp: int, budget: int, terms: str, *parts) -> None:
    """Refuse base^exp terms over the budget, named by `terms.format(*parts)`."""
    if _power_exceeds(base, exp, budget):
        raise BudgetExceeded(f"{terms.format(*parts)} terms exceed the budget of {budget}")


def check_shift_budget(x: int, last: int, term_budget: int) -> None:
    """Raise BudgetExceeded when [s + x]_q for s = 0..last reaches a q
    exponent beyond the budget; an entry then has about that many digits."""
    top = max(abs(x), abs(x + last))
    if top > term_budget:
        raise BudgetExceeded(f"q exponent {top} exceeds the budget of {term_budget}")


def check_level_budget(p: int, N: int, k: int, term_budget: int) -> None:
    """Raise BudgetExceeded when a level-N sum in k variables, (p^N)^k
    terms, exceeds the budget.  Takes O(log term_budget) steps for any p
    and N, so it can run before the primality test of p."""
    if abs(p) >= 2:
        check_term_budget(abs(p), N * k, term_budget, "({}^{})^{}", p, N, k)


def check_box_budget(f: IntegrandFamily, M: int, budget: int) -> None:
    """Budget the box of `real_series`: its M^k terms, then for brackets the
    k ratios' total q exponent sum_j |h - j + 1| (the bit size of the ratios
    and of the tail product prod_j (1 - r_j)) and its table's x + k(M - 1)."""
    check_term_budget(M, f.num_vars, budget, "{}^{}", M, f.num_vars)
    if isinstance(f, QBracketMonomial):
        check_shift_budget(_abs_sum(f.h - f.k + 1, f.h), 0, budget)
        check_shift_budget(f.x, f.k * (M - 1), budget)


def check_degree_budget(degree: int, budget: int, at_least: bool = False) -> None:
    """Raise BudgetExceeded when a symbolic degree, or with `at_least` a lower bound
    on it, exceeds the budget: for the q-Euler closed form, `qnum` and `qbinom`."""
    if degree > budget:
        bound = "of at least " if at_least else ""
        raise BudgetExceeded(f"symbolic degree {bound}{degree} exceeds the budget of {budget}")


def _units_mod_p(f: IntegrandFamily, qf: Fraction, p: int) -> bool:
    """True when q, 1 + q and w are p-adic units.  Then so are the ratios
    b_j and the denominators of every bracket [s + x]_q (products of
    numerators and denominators of q and w), so the tables of `_box_sums`
    can hold residues of the terms, and so is the norm [p^N]_{-q}, which
    is 1 mod p because (-q)^(p^N) = -q mod p; so the level sum is
    p-integral and can be read modulo p^L."""
    # q = a/c in lowest terms, so 1 + q = (a + c)/c is too
    a, c, w = qf.numerator, qf.denominator, to_frac(f.w)
    return all(v % p for v in (a, c, a + c, w.numerator, w.denominator))


def _level_sums(f: IntegrandFamily, qf: Fraction, p: int, levels: Sequence[int],
                modulus: int | None = None) -> dict:
    """The level-N sums of `fermionic_sum` for each N in `levels`, from one
    table of g at the deepest level's size, whose prefixes serve the
    shallower levels, and the level boxes [0, p^N)^k of `_box_sums`."""
    k = f.num_vars
    spans = {N: p ** N for N in sorted(set(levels))}
    bases = _ratios(f, qf)
    table = _sum_table(f, qf, k * (max(spans.values()) - 1) + 1, modulus)
    boxes = _box_sums(bases, table, list(spans.values()), modulus)
    # each box over [p^N]_{-q}^k, where [p^N]_{-q} is
    # (c^span - (-a)^span) / (c^(span-1) (c + a)) with q = a/c
    a, c = qf.numerator, qf.denominator
    return {N: _over(box * pow(pow(c, span - 1, modulus) * (c + a), k, modulus),
                     pow(pow(c, span, modulus) - pow(-a, span, modulus), k, modulus), modulus)
            for (N, span), box in zip(spans.items(), boxes)}


def fermionic_sum(f: IntegrandFamily, qv, params: PadicParams,
                  term_budget: int = DEFAULT_TERM_BUDGET, modulus: int | None = None,
                  *, _sums: dict | None = None):
    """Level-N approximation of the fermionic integral:
    (1/[p^N]_{-q})^k  sum over x in [0, p^N)^k of f(x) prod_j (-q)^{x_j}.

    Exact as a Fraction; with `modulus` a power of p, its residue as an int
    in [0, modulus), which needs q, 1 + q and w to be p-adic units.

    `_sums` maps each level of one check to its sum, or to None before the
    first call: that call checks the budget of the deepest level, the unit
    condition and each level's q exponent, and sums every level in it from
    shared work (`_level_sums`), and each call returns its own level's
    entry."""
    qf = to_frac(qv)
    if qf == -1:
        raise DomainError("fermionic sum undefined at q = -1")
    sums = {params.N: None} if _sums is None else _sums
    if sums[params.N] is None:
        check_level_budget(params.p, max(sums), f.num_vars, term_budget)
        if modulus is not None and not _units_mod_p(f, qf, params.p):
            raise DomainError(f"a level sum modulo {params.p}^L needs q, 1 + q and w "
                              f"to be {params.p}-adic units")
        if isinstance(f, QBracketMonomial):
            for N in sums:
                check_shift_budget(f.x, f.k * (params.p ** N - 1), term_budget)
        sums.update(_level_sums(f, qf, params.p, list(sums), modulus))
    return sums[params.N]


# Residues are read modulo p^(max(levels) + MODULAR_MARGIN); a residue of
# zero there sends the level to the exact route, so the margin moves only
# the speed, never a valuation.
MODULAR_MARGIN = 10


def _residual_valuation(r: int, target: Fraction, p: int, modulus: int):
    """v_p(S - target) for a p-integral S with residue r modulo a power of
    p, or None when the residual is 0 there and only the exact sum can
    tell its valuation."""
    if target.denominator % p == 0:
        return val_p(target, p)
    res = (r - _residue(target, modulus)) % modulus
    return _val_int(res, p) if res else None


def padic_limit_check(f: IntegrandFamily, target, qv, p: int = 3,
                      levels: Sequence[int] = (1, 2, 3),
                      term_budget: int = DEFAULT_TERM_BUDGET) -> ValuationReport:
    """Residual valuations v_p(S_N - target) over the given levels.

    When q, 1 + q and w are p-adic units, S_N is p-integral and is computed
    modulo P = p^L, L = max(levels) + MODULAR_MARGIN: a target with p in
    its denominator has residual valuation v_p(target), and any other
    residual that is nonzero mod P has the valuation of its residue.  A
    level whose residual is 0 mod P, or any level when a unit condition
    fails, is summed exactly, so every valuation equals the exact one.

    The level budget is checked for the deepest level on entry (and again
    only by each route's first, summing, `fermionic_sum` call), and each
    level's `PadicParams` (so the primality test of p) is built once, before
    any sum: a level below 1 stops the check there.  Each route sums all
    its levels from one table and, for k = 1, one prefix-sum pass over the
    deepest box (`_level_sums`), inside its first `fermionic_sum` call; the
    module's `fermionic_sum` is still called once per level and route."""
    if not levels:
        raise DomainError("a limit check needs at least one level")
    target = to_frac(target)
    qf = to_frac(qv)
    check_level_budget(p, max(levels), f.num_vars, term_budget)
    params = {N: PadicParams(p=p, N=N) for N in levels}
    vals = dict.fromkeys(levels)
    if _units_mod_p(f, qf, p):
        modulus = p ** (max(levels) + MODULAR_MARGIN)
        residues = dict.fromkeys(levels)
        for N in levels:
            r = fermionic_sum(f, qf, params[N], term_budget, modulus=modulus, _sums=residues)
            vals[N] = _residual_valuation(r, target, p, modulus)
    inexact = [N for N in levels if vals[N] is None]
    sums = dict.fromkeys(inexact)
    for N in inexact:
        vals[N] = val_p(fermionic_sum(f, qf, params[N], term_budget, _sums=sums) - target, p)
    valuations = [vals[N] for N in levels]
    ok = all(a <= b for a, b in zip(valuations, valuations[1:]))
    ok = ok and valuations[-1] >= max(levels) - 1
    return ValuationReport(list(levels), valuations, ok)


def convergence_envelope_ok(report: ValuationReport) -> bool:
    """Rate-based convergence certificate: every level-N residual has
    valuation at least N - 1 and the final one reaches max(levels) - 1.

    The raw nondecreasing verdict can fail when an early level sum lands
    accidentally close to the target (a spike far above the envelope, at
    probability ~p^-v); such a spike can only ever mean the sum is closer
    than required, so this envelope is the robust form of the check."""
    if any(v < lvl - 1 for lvl, v in zip(report.levels, report.valuations)):
        return False
    return report.valuations[-1] >= max(report.levels) - 1


def cesaro1_value(partials: Sequence[Fraction]) -> tuple[Fraction, Fraction]:
    """First-order averaged value of a boundary alternating series.

    One averaging pass over adjacent partial sums removes the period-two
    oscillation exactly (sum (-1)^n c maps to c/2 at every index), and the
    smoothed sequence converges to the Abel value geometrically for the
    families evaluated here.  Returns the final smoothed value and the
    last smoothing step gap as a convergence indicator."""
    if len(partials) < 3:
        raise DomainError("cesaro1 needs at least 3 partial sums")
    t_last = (partials[-1] + partials[-2]) / 2
    t_prev = (partials[-2] + partials[-3]) / 2
    return t_last, abs(t_last - t_prev)


def _cesaro1_sums(dist: Sequence[int], E: int, table: tuple[Sequence[int], int, int],
                  M: int) -> tuple[int, int, int]:
    """`cesaro1_value` of the last three of M prefix sums, as integers
    (V, W, D): value V / D and gap W / D.

    With P_i = A_i / (C X^i) from `_horner`, X = E R and n = M - 1,
    value = (P_n + P_(n-1)) / 2 = (A_n + X A_(n-1)) / (2 C X^n) and
    gap = |P_n - P_(n-2)| / 2 = |A_n - X^2 A_(n-2)| / (2 C X^n)."""
    if M < 3:
        raise DomainError("cesaro1 needs at least 3 partial sums")
    _, R, C = table
    X = E * R
    a2, a1, a0 = _horner(dist, E, table, _last_three(M))
    return a0 + X * a1, abs(a0 - X * X * a2), 2 * C * X ** (M - 1)


def _last_three(M: int) -> range:
    """The indices of the last three partial sums of M terms, which
    cesaro1 reads; fewer when M < 3, which `cesaro1_value` rejects."""
    return range(max(M - 3, 0), M)


def _series_regime(f: IntegrandFamily, bases: Sequence[Fraction], sp: SeriesParams) -> None:
    """Raise DivergenceError unless the series of f with per-variable ratios
    `bases` is summed by mode `sp.mode`: every |b_j| <= 1 and no b_j = 1;
    a b_j = -1 is the alternating boundary, which only cesaro1 sums, and
    only for bracket integrands or a constant classical one."""
    classical = isinstance(f, ClassicalMonomial)
    if any(abs(b) > 1 for b in bases):
        raise DivergenceError("effective ratio |q w| exceeds 1" if classical
                              else "an effective per-variable ratio exceeds 1")
    if 1 in bases:
        raise DivergenceError("positively divergent series (q w = -1)" if classical
                              else "positively divergent variable (w q^(h-j+1) = -1)")
    boundary = -1 in bases
    if classical and boundary and f.n >= 1:
        raise DivergenceError(
            "alternating series with polynomially growing terms; "
            "first-order averaging does not sum it")
    if sp.mode == "direct" and boundary:
        raise DivergenceError("boundary alternating series: use cesaro1")


def _classical_tail_bound(f: ClassicalMonomial, rho: Fraction, M: int,
                          term_budget: int) -> Fraction:
    """Exact majorant for sum_{y >= M} |y + c|^n rho^y with rho < 1.

    Where y + c >= 1, successive term ratios are at most
    rho ((y0 + 1 + c)/(y0 + c))^n for y >= y0, so from the first
    y0 >= max(M, 1 - c) where that bound r is below 1 the tail is at most
    its first term over 1 - r; the terms for M <= y < y0 are added exactly.
    Raises DivergenceError when those are more than the term budget."""
    if rho == 0:
        return Fraction(0)
    r, d = rho.numerator, rho.denominator

    def ratio_below_one(b):  # rho ((b + 1) / b)^n < 1
        return r * (b + 1) ** f.n < d * b ** f.n

    lo = hi = max(M + f.c, 1)  # the least admissible y0 + c
    while not ratio_below_one(hi):
        lo, hi = hi + 1, 2 * hi
    while lo < hi:  # the ratio bound decreases in b: bisect for the first b
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if ratio_below_one(mid) else (mid + 1, hi)
    y0 = hi - f.c
    if y0 - M > term_budget:
        raise DivergenceError("truncation too small for an exact tail majorant")
    # sum_{M <= y < y0} |y + c|^n r^y d^(y0-1-y), by Horner's rule
    acc, power = 0, r ** M
    for y in range(M, y0):
        acc = acc * d + abs(y + f.c) ** f.n * power
        power *= r
    r_hat = rho * Fraction(hi + 1, hi) ** f.n
    return Fraction(acc, d ** (y0 - 1)) + Fraction(hi) ** f.n * rho ** y0 / (1 - r_hat)


def real_series(f: IntegrandFamily, qv, sp: SeriesParams,
                term_budget: int = DEFAULT_TERM_BUDGET) -> tuple[Fraction, Fraction]:
    """Series value of the fermionic integral in the real regime:
    [2]_q^k sum over x in N^k of f(x) prod_j (-q)^{x_j}, truncated at M
    terms per variable.  Returns (value, bound), where bound is an exact
    geometric/ratio tail majorant in direct mode and the final smoothing
    gap in cesaro1 mode.  The budget (`check_box_budget`) is checked first."""
    check_box_budget(f, sp.M, term_budget)
    qf = to_frac(qv)
    if not 0 < qf <= 1:
        raise DomainError("real series needs 0 < q <= 1")
    k = f.num_vars
    classical = isinstance(f, ClassicalMonomial)
    # bracket integrands: [s + x]_q stays below 1/(1-q) only for q < 1
    if not classical and qf == 1:
        raise DomainError("bracket integrands need 0 < q < 1 in series mode")
    bases = _ratios(f, qf)
    _series_regime(f, bases, sp)
    pref = (1 + qf) ** k
    g = _sum_table(f, qf, k * (sp.M - 1) + 1)
    if sp.mode == "cesaro1":
        # the boxes [0, L)^k of the last three partial sums
        value, gap = cesaro1_value(
            _box_sums(bases, g, [L + 1 for L in _last_three(sp.M)]))
        return pref * value, pref * gap
    if classical:
        tail = _classical_tail_bound(f, abs(bases[0]), sp.M, term_budget)
    else:  # sum_j r_j^M / prod_i (1 - r_i) over the ratios' sizes r
        ratios = [abs(b) for b in bases]
        tail = sum((r ** sp.M for r in ratios), Fraction(0)) / math.prod(1 - r for r in ratios)
        tail *= q_power(1 - qf, -f.m)
    return pref * _box_sums(bases, g, [sp.M])[0], pref * tail


def shift_identity_residual(f: IntegrandFamily, n_shift: int, qv,
                            params: PadicParams,
                            term_budget: int = DEFAULT_TERM_BUDGET) -> Fraction:
    """Level-N residual of the translation identity
    q^n I(f(.+n)) = (-1)^n I(f) + [2]_q sum_{l<n} (-1)^{n-1-l} q^l f(l),
    with both integrals replaced by their level-N sums.

    With f(y) (-q)^y = b^y g[y], the shifted integrand is q^n f(y+n) (-q)^y
    = (-b)^n b^y g[y+n], and the correction is (-1)^{n-1} sum_{l<n} b^l g[l]."""
    if n_shift < 1:
        raise DomainError("shift identity needs n >= 1")
    qf = to_frac(qv)
    if qf == -1:
        raise DomainError("undefined at q = -1")
    check_term_budget(params.p, params.N, term_budget, "{}^{}", params.p, params.N)
    span = params.p ** params.N
    if f.num_vars != 1:
        raise DomainError("single-variable evaluation needs k = 1")
    if isinstance(f, QBracketMonomial):
        check_shift_budget(f.x, span + n_shift - 1, term_budget)
    bases = _ratios(f, qf)
    g = G, R, C = _sum_table(f, qf, span + n_shift)
    norm = q_bracket_neg(span, qf)
    # the table of g[s + n]; a constant one is its own shift
    shifted = None if G is None else G[n_shift:], R, C * R ** n_shift
    lhs = (-bases[0]) ** n_shift * _box_sums(bases, shifted, [span])[0] / norm
    rhs = (-1) ** n_shift * _box_sums(bases, g, [span])[0] / norm
    corr = (-1) ** (n_shift - 1) * _box_sums(bases, g, [n_shift])[0]
    return lhs - rhs - (1 + qf) * corr
