"""Fermionic integral machinery: measure values, level-N Riemann sums
(single and multivariate), p-adic valuation convergence reports, the
shift identity residual, and the real 0 < q <= 1 series evaluator with
regularization for boundary alternating series.

This module is the universal brute-force oracle: every closed form in
qeuler/qgenocchi is validated against these level sums (p-adically, via
valuation growth of exact residuals) and against the real series (via
exact tail bounds or the smoothed boundary value)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence, Union

from .qcore import DomainError, q_bracket_neg, q_power, to_frac

DEFAULT_TERM_BUDGET = 100_000


class DivergenceError(DomainError):
    """A series evaluation was requested outside its convergence regime."""


class BudgetExceeded(RuntimeError):
    """A sum would need more terms than the configured budget."""


def _check_odd_prime(p: int):
    if p < 3 or p % 2 == 0:
        raise DomainError(f"p = {p} is not an odd prime")
    for d in range(3, int(math.isqrt(p)) + 1, 2):
        if p % d == 0:
            raise DomainError(f"p = {p} is not an odd prime")


@dataclass(frozen=True)
class PadicParams:
    """Evaluation context for level-N sums: odd prime p, level N, and the
    conductor d, which this engine fixes to 1."""

    p: int = 3
    N: int = 2
    d: int = 1

    def __post_init__(self):
        _check_odd_prime(self.p)
        if self.N < 1:
            raise DomainError("level N must be >= 1")
        if self.d != 1:
            raise DomainError("only conductor d = 1 is supported")


@dataclass(frozen=True)
class ClassicalMonomial:
    """Single-variable integrand f(y) = w^y (y + c)^n."""

    n: int
    w: Fraction = Fraction(1)
    c: int = 0

    @property
    def num_vars(self) -> int:
        return 1


@dataclass(frozen=True)
class QBracketMonomial:
    """k-variable integrand f(x1..xk) =
    (prod_j w^{x_j} q^{(h-j) x_j}) [x1 + ... + xk + x]_q^m."""

    m: int
    k: int = 1
    h: int = 1
    w: Fraction = Fraction(1)
    x: int = 0

    @property
    def num_vars(self) -> int:
        return self.k


IntegrandFamily = Union[ClassicalMonomial, QBracketMonomial]


@dataclass(frozen=True)
class SeriesParams:
    """Real-series evaluation context: truncation M and summation mode.

    "direct" truncates an absolutely convergent sum and reports an exact
    tail majorant; "cesaro1" applies one first-order averaging pass over
    the partial sums, which removes the period-two oscillation of
    boundary alternating series and converges to their Abel value."""

    M: int = 400
    mode: str = "direct"

    def __post_init__(self):
        if self.M < 1:
            raise DomainError("series truncation M must be >= 1")
        if self.mode not in ("direct", "cesaro1"):
            raise DomainError(f"unknown series mode {self.mode!r}")


@dataclass
class ValuationReport:
    """Exact p-adic valuations of level-sum residuals, level by level.

    The verdict is true iff the valuations are nondecreasing and the final
    one reaches at least max(levels) - 1.  Valuation of an exact zero
    residual is reported as +infinity."""

    levels: list[int]
    valuations: list
    verdict: bool

    def to_json_dict(self) -> dict:
        vals = ["inf" if v == math.inf else v for v in self.valuations]
        return {"levels": list(self.levels), "valuations": vals, "verdict": self.verdict}


def val_p(value: Fraction, p: int):
    """Exact p-adic valuation of a rational; +infinity for 0."""
    value = to_frac(value)
    if value == 0:
        return math.inf

    def vint(n: int) -> int:
        v = 0
        while n % p == 0:
            n //= p
            v += 1
        return v

    return vint(abs(value.numerator)) - vint(value.denominator)


def measure_value(a: int, params: PadicParams, qv) -> Fraction:
    """Measure of the ball a + p^N Z_p: (-q)^a / [p^N]_{-q}."""
    qf = to_frac(qv)
    if qf == -1:
        raise DomainError("measure undefined at q = -1")
    span = params.p ** params.N
    if not 0 <= a < span:
        raise DomainError(f"residue a = {a} outside [0, {span})")
    return (-qf) ** a / q_bracket_neg(span, qf)


def _bracket_powers(qf: Fraction, x0: int, max_s: int, m: int) -> list[Fraction]:
    """Table of [s + x0]_q^m for s = 0..max_s, built incrementally."""
    out = []
    br = Fraction(0)
    qpow = Fraction(1)
    for _ in range(x0):
        br += qpow
        qpow *= qf
    for _ in range(max_s + 1):
        out.append(br ** m)
        br += qpow
        qpow *= qf
    return out


def _signed_weight_table(base: Fraction, length: int) -> list[Fraction]:
    out = []
    cur = Fraction(1)
    for _ in range(length):
        out.append(cur)
        cur *= base
    return out


def _qbracket_tables(f: QBracketMonomial, qf: Fraction, length: int):
    """Per-variable signed weight tables: variable j carries
    (w q^{h-j} * (-q))^{x_j} = (-w q^{h-j+1})^{x_j}."""
    tables = []
    for j in range(1, f.k + 1):
        base = -to_frac(f.w) * q_power(qf, f.h - j + 1)
        tables.append(_signed_weight_table(base, length))
    return tables


def check_level_budget(p: int, N: int, k: int, term_budget: int) -> None:
    """Raise BudgetExceeded when a level-N sum in k variables, (p^N)^k
    terms, exceeds the budget.  Takes O(log term_budget) steps for any p
    and N, so it can run before the primality test of p."""
    if abs(p) < 2:
        return
    terms = 1
    for _ in range(N * k):
        terms *= abs(p)
        if terms > term_budget:
            raise BudgetExceeded(f"({p}^{N})^{k} terms exceed the budget of {term_budget}")


def fermionic_sum(f: IntegrandFamily, qv, params: PadicParams,
                  term_budget: int = DEFAULT_TERM_BUDGET) -> Fraction:
    """Level-N approximation of the fermionic integral:
    (1/[p^N]_{-q})^k  sum over x in [0, p^N)^k of f(x) prod_j (-q)^{x_j}."""
    qf = to_frac(qv)
    if qf == -1:
        raise DomainError("fermionic sum undefined at q = -1")
    k = f.num_vars
    check_level_budget(params.p, params.N, k, term_budget)
    span = params.p ** params.N
    norm = q_bracket_neg(span, qf) ** k

    if isinstance(f, ClassicalMonomial):
        w = to_frac(f.w)
        total = Fraction(0)
        weight = Fraction(1)
        for y in range(span):
            total += weight * Fraction(y + f.c) ** f.n
            weight *= -qf * w
        return total / norm

    tables = _qbracket_tables(f, qf, span)
    brk = _bracket_powers(qf, f.x, k * (span - 1), f.m)
    total = Fraction(0)

    def rec(j: int, weight: Fraction, s: int):
        nonlocal total
        if j == k:
            total += weight * brk[s]
            return
        tab = tables[j]
        for xv in range(span):
            rec(j + 1, weight * tab[xv], s + xv)

    rec(0, Fraction(1), 0)
    return total / norm


def padic_limit_check(f: IntegrandFamily, target, qv, p: int = 3,
                      levels: Sequence[int] = (1, 2, 3),
                      term_budget: int = DEFAULT_TERM_BUDGET) -> ValuationReport:
    """Residual valuations v_p(S_N - target) over the given levels."""
    target = to_frac(target)
    vals = []
    for N in levels:
        s = fermionic_sum(f, qv, PadicParams(p=p, N=N), term_budget)
        vals.append(val_p(s - target, p))
    ok = all(vals[i] <= vals[i + 1] for i in range(len(vals) - 1))
    ok = ok and vals[-1] >= max(levels) - 1
    return ValuationReport(list(levels), vals, ok)


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


def cesaro_mean(partials: Sequence[Fraction]) -> Fraction:
    """Plain running mean of the partial sums (diagnostic; its bias decays
    only like 1/M for boundary alternating series)."""
    return sum(partials, Fraction(0)) / len(partials)


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


def _classical_tail_bound(f: ClassicalMonomial, rho: Fraction, M: int) -> Fraction:
    """Exact ratio majorant for sum_{y >= M} (y + c)^n rho^y with rho < 1:
    successive term ratios are at most rho ((M + 1 + c)/(M + c))^n."""
    if rho == 0:
        return Fraction(0)
    base = M + f.c if M + f.c > 0 else 1
    r_hat = rho * Fraction(base + 1, base) ** f.n
    if r_hat >= 1:
        raise DivergenceError("truncation too small for an exact tail majorant")
    t_M = Fraction(M + f.c) ** f.n * rho ** M
    return t_M / (1 - r_hat)


def _box_partials(tables: list[list[Fraction]], brk: list[Fraction], M: int) -> list[Fraction]:
    """Partial sums over the expanding boxes [0, J]^k, J = 0..M-1."""
    k = len(tables)
    partials = []
    running = Fraction(0)

    def shell(j: int, weight: Fraction, s: int, hit: bool, J: int):
        nonlocal running
        if j == k:
            if hit:
                running += weight * brk[s]
            return
        tab = tables[j]
        for xv in range(J + 1):
            shell(j + 1, weight * tab[xv], s + xv, hit or xv == J, J)

    for J in range(M):
        shell(0, Fraction(1), 0, False, J)
        partials.append(running)
    return partials


def real_series(f: IntegrandFamily, qv, sp: SeriesParams,
                term_budget: int = DEFAULT_TERM_BUDGET) -> tuple[Fraction, Fraction]:
    """Series value of the fermionic integral in the real regime:
    [2]_q^k sum over x in N^k of f(x) prod_j (-q)^{x_j}, truncated at M
    terms per variable.  Returns (value, bound), where bound is an exact
    geometric/ratio tail majorant in direct mode and the final smoothing
    gap in cesaro1 mode."""
    qf = to_frac(qv)
    if not 0 < qf <= 1:
        raise DomainError("real series needs 0 < q <= 1")
    k = f.num_vars
    if sp.M ** k > term_budget:
        raise BudgetExceeded(f"{sp.M}^{k} terms exceed the budget of {term_budget}")
    pref = (1 + qf) ** k

    if isinstance(f, ClassicalMonomial):
        w = to_frac(f.w)
        base = -qf * w
        if abs(base) > 1:
            raise DivergenceError("effective ratio |q w| exceeds 1")
        if base == 1:
            raise DivergenceError("positively divergent series (q w = -1)")
        boundary = base == -1
        if boundary and f.n >= 1:
            raise DivergenceError(
                "alternating series with polynomially growing terms; "
                "first-order averaging does not sum it")
        partials = []
        running = Fraction(0)
        weight = Fraction(1)
        for y in range(sp.M):
            running += weight * Fraction(y + f.c) ** f.n
            weight *= base
            partials.append(running)
        if sp.mode == "direct":
            if boundary:
                raise DivergenceError("boundary alternating series: use cesaro1")
            return pref * running, pref * _classical_tail_bound(f, abs(base), sp.M)
        value, gap = cesaro1_value(partials)
        return pref * value, pref * gap

    # bracket integrands: [s + x]_q stays below 1/(1-q) only for q < 1
    if qf == 1:
        raise DomainError("bracket integrands need 0 < q < 1 in series mode")
    w = to_frac(f.w)
    bases = [-w * q_power(qf, f.h - j + 1) for j in range(1, k + 1)]
    if any(abs(b) > 1 for b in bases):
        raise DivergenceError("an effective per-variable ratio exceeds 1")
    if any(b == 1 for b in bases):
        raise DivergenceError("positively divergent variable (w q^(h-j+1) = -1)")
    boundary = any(b == -1 for b in bases)
    if sp.mode == "direct" and boundary:
        raise DivergenceError("boundary alternating series: use cesaro1")
    tables = _qbracket_tables(f, qf, sp.M)
    brk = _bracket_powers(qf, f.x, k * (sp.M - 1), f.m)
    partials = _box_partials(tables, brk, sp.M)
    if sp.mode == "direct":
        ratios = [abs(b) for b in bases]
        bmax = q_power(1 - qf, -f.m)
        tail = Fraction(0)
        for j, r in enumerate(ratios):
            piece = r ** sp.M / (1 - r)
            for i, ri in enumerate(ratios):
                if i != j:
                    piece *= 1 / (1 - ri)
            tail += piece
        return pref * partials[-1], pref * bmax * tail
    value, gap = cesaro1_value(partials)
    return pref * value, pref * gap


def _eval_single(f: IntegrandFamily, y: int, qf: Fraction) -> Fraction:
    """Evaluate a single-variable integrand at the integer point y."""
    if isinstance(f, ClassicalMonomial):
        return to_frac(f.w) ** y * Fraction(y + f.c) ** f.n
    if f.k != 1:
        raise DomainError("single-variable evaluation needs k = 1")
    bracket = Fraction(y + f.x) if qf == 1 else (1 - qf ** (y + f.x)) / (1 - qf)
    return to_frac(f.w) ** y * q_power(qf, (f.h - 1) * y) * bracket ** f.m


def _level_sum_single(g: Callable[[int], Fraction], qf: Fraction, span: int) -> Fraction:
    total = Fraction(0)
    weight = Fraction(1)
    for y in range(span):
        total += weight * g(y)
        weight *= -qf
    return total / q_bracket_neg(span, qf)


def shift_identity_residual(f: IntegrandFamily, n_shift: int, qv,
                            params: PadicParams,
                            term_budget: int = DEFAULT_TERM_BUDGET) -> Fraction:
    """Level-N residual of the translation identity
    q^n I(f(.+n)) = (-1)^n I(f) + [2]_q sum_{l<n} (-1)^{n-1-l} q^l f(l),
    with both integrals replaced by their level-N sums."""
    if n_shift < 1:
        raise DomainError("shift identity needs n >= 1")
    qf = to_frac(qv)
    if qf == -1:
        raise DomainError("undefined at q = -1")
    span = params.p ** params.N
    if span > term_budget:
        raise BudgetExceeded(f"{span} terms exceed the budget of {term_budget}")
    lhs = qf ** n_shift * _level_sum_single(lambda y: _eval_single(f, y + n_shift, qf), qf, span)
    rhs = Fraction(-1) ** n_shift * _level_sum_single(lambda y: _eval_single(f, y, qf), qf, span)
    corr = Fraction(0)
    for l in range(n_shift):
        corr += Fraction(-1) ** (n_shift - 1 - l) * qf ** l * _eval_single(f, l, qf)
    rhs += (1 + qf) * corr
    return lhs - rhs
