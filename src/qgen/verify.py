"""Verification suites: each module's invariant grid as a runnable check,
with a fixed report order, exact tolerances, and machine-readable results.
These back the `qgen verify` command.  A suite is a generator of its
checks, `(name, points)` in report order; `run_suites` runs each one to
its report row (`_run_grid`) as it is yielded.  Every suite reads the one
`Config` of the command line: N as its p-adic depth, M, cesaro_tol and
term_budget."""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from fractions import Fraction

from . import classical, padic, qcore
from .padic import (
    ClassicalMonomial,
    Config,
    PadicParams,
    QBracketMonomial,
    SeriesParams,
    convergence_envelope_ok,
    padic_limit_check,
    real_series,
    shift_identity_residual,
    val_p,
)
from .qcore import q
from .qeuler import QEulerSpec, qeuler_hk, qeuler_hk_series, qeuler_twisted
from .qgenocchi import QGenocchiSpec, qgenocchi, qgenocchi_hk, qgenocchi_hk_series, qgenocchi_twisted


def _run_grid(name: str, points) -> dict:
    """The report row of check `name`: points yields (label, ok, info),
    and the row stops at the first failure."""
    count = 0
    for label, ok, info in points:
        count += 1
        if not ok:
            return {"name": name, "ok": False, "points": count,
                    "detail": f"failed at {label}: {info}"}
    return {"name": name, "ok": True, "points": count, "detail": ""}


# The q-family grids below are (label, spec) streams over `QEulerSpec` or
# `QGenocchiSpec`.  Each point generator takes the closed form as an
# argument and reads the integrand and the integer scale from the spec's
# `kernel()`: a value is its scale times the kernel's integral.

def _oracle_points(specs, closed, qv, levels, budget):
    """p-adic oracle: the level sums of the kernel's integrand converge to
    the closed form over the kernel scale, by valuation growth at p = 3."""
    for label, spec in specs:
        kernel, scale = spec.kernel()
        target = closed(spec, qv) / scale
        rep = padic_limit_check(kernel.integrand(), target, qv, 3, levels, budget)
        ok = rep.verdict or convergence_envelope_ok(rep)
        yield label, ok, f"valuations {rep.valuations}"


def _series_points(specs, closed, qv, Ms, budget):
    """Direct real series of the kernel's integrand, truncated at each M:
    the closed form over the kernel scale lies within the tail bound, and
    the bound shrinks as M grows.  With several M a label gains M."""
    for label, spec in specs:
        kernel, scale = spec.kernel()
        target = closed(spec, qv) / scale
        f = kernel.integrand()
        prev_bound = None
        for M in Ms:
            v, b = real_series(f, qv, SeriesParams(M, "direct"), budget)
            ok = abs(v - target) <= b and (prev_bound is None or b < prev_bound)
            prev_bound = b
            yield ((*label, M) if len(Ms) > 1 else label), ok, \
                f"|diff|={abs(v - target)} bound={b}"


def _boundary_points(specs, closed, series, qv, sp, cfg):
    """Boundary series within the term budget: the cesaro1 value of `series`
    agrees with the closed form within the tolerance.  Only a failing point
    renders its difference, whose digits grow with M."""
    for label, spec in specs:
        v, _ = series(spec, qv, sp, cfg.term_budget)
        diff = abs(v - closed(spec, qv))
        ok = diff <= cfg.cesaro_tol
        yield label, ok, "" if ok else f"|diff|={qcore.rat_str(diff)}"


def _limit_points(specs, closed, expect, info):
    """q -> 1: the symbolic closed form at q = 1 equals the classical value."""
    for label, spec in specs:
        yield label, closed(spec).at_one() == expect(spec), info


def _euler_limit_specs():
    """The q-Euler q -> 1 grid; `suite_limits` takes its h = k - 1 slice."""
    return (QEulerSpec(m=m, h=h, k=k, x=xx)
            for k in (1, 2, 3) for m in range(5) for h in (k - 1, k, k + 1) for xx in (0, 1, 2))


def _genocchi_limit_specs():
    """The q-Genocchi q -> 1 grid, at the weight h = k - 1."""
    return (QGenocchiSpec(n=n, h=k - 1, k=k) for k in (1, 2, 3) for n in range(5))


def _higher_euler_at_x(spec):
    return classical.higher_euler_poly(spec.m, spec.k)(Fraction(spec.x))


def _higher_genocchi_at_index(spec):
    return classical.higher_genocchi(spec.n + spec.k, spec.k)


# ---------------------------------------------------------------- qcore

def suite_qcore(cfg: Config) -> Iterator[tuple[str, Iterator]]:
    tri = qcore.gauss_binom_triangle(20)
    tri_alt = qcore.gauss_binom_triangle(20, alt=True)

    def recursions():
        for n in range(21):
            for k in range(n + 1):
                yield (n, k), tri[n][k] == tri_alt[n][k], "recursion forms differ"

    yield "gauss-binom-recursion-forms", recursions()

    def quotient():
        for n in range(13):
            for k in range(n + 1):
                b = qcore.gauss_binom_factorial(n, k)
                yield (n, k), tri[n][k] == b, "factorial quotient differs"

    yield "gauss-binom-factorial-quotient", quotient()

    def compositions():
        for n in range(13):
            for k in range(n + 1):
                b = qcore.gauss_binom_compositions(n, k)
                yield (n, k), tri[n][k] == b, "composition enumeration differs"

    yield "gauss-binom-compositions", compositions()

    def symmetry():
        # the mirrored form: the primary one builds columns above n/2 by
        # this symmetry, so only the mirrored form can break it
        for n in range(21):
            for k in range(n + 1):
                yield (n, k), tri_alt[n][k] == tri_alt[n][n - k], "asymmetric"

    yield "gauss-binom-symmetry", symmetry()

    def signed_expansion():
        for n in range(11):
            coeffs = qcore.pochhammer_b_coeffs(n)
            for k in range(n + 1):
                expect = (tri[n][k] * q ** math.comb(k, 2)) * ((-1) ** k)
                yield (n, k), coeffs[k] == expect, "signed Gaussian sum differs"

    yield "pochhammer-signed-expansion", signed_expansion()

    def reciprocal_truncation():
        depth = 12
        for n in range(1, 6):
            prod = qcore.pochhammer_b_coeffs(n)
            inv = [qcore.inv_pochhammer_coeff(n, k) for k in range(depth + 1)]
            for d in range(depth + 1):
                acc = q * 0
                for i in range(min(d, n) + 1):
                    acc = acc + prod[i] * inv[d - i]
                expect = q ** 0 if d == 0 else q * 0
                yield (n, d), acc == expect, "truncated reciprocal fails"

    yield "pochhammer-reciprocal-truncation", reciprocal_truncation()

    def ratio_inversion():
        for j in range(9):
            for k in range(9):
                a = qcore.pochhammer_q(-(qcore.q_sym ** j), k)
                b = qcore.pochhammer_q(-(qcore.q_sym ** (j + k - 1)), k, ratio_exponent=-1) \
                    if j + k - 1 >= 0 else a
                yield (j, k), a == b, "ratio-inverted product differs"

    yield "pochhammer-ratio-inversion", ratio_inversion()

    def homomorphism():
        samples = [Fraction(1, 2), Fraction(2, 3), Fraction(4), Fraction(-2)]
        for q0 in samples:
            # the additive recursion at q0, not the quotient `gauss_binom` takes there
            rows = qcore.gauss_binom_triangle(8, q0)
            for n in range(9):
                sym = qcore.q_int(n)
                yield ("q_int", n, q0), sym(q0) == qcore.q_int(n, q0), "q_int mismatch"
                if q0 != -1:
                    symb = qcore.q_bracket_neg(n)
                    yield ("q_bracket_neg", n, q0), symb(q0) == qcore.q_bracket_neg(n, q0), "bracket mismatch"
                for k in range(n + 1):
                    sg = tri[n][k]
                    yield ("gauss", n, k, q0), sg(q0) == rows[n][k], "gauss mismatch"

    yield "evaluation-homomorphism", homomorphism()


# ------------------------------------------------------------- classical

def _euler_numerators(n: int) -> list[int]:
    """a_0..a_n with E_j = a_j / 2^j, by the binomial recurrence of
    (e^t + 1) A(t) = 2, a_j = [j = 0] - sum_{i<j} C(j, i) 2^(j-i-1) a_i:
    a route apart from `classical`, which inverts the series."""
    a: list[int] = []
    for j in range(n + 1):
        a.append((1 if j == 0 else 0)
                 - sum(math.comb(j, i) * a[i] << (j - i - 1) for i in range(j)))
    return a


def _binomial_convolution(a: list[int], b: list[int]) -> list[int]:
    """Coefficients of the product of two exponential series, to len(a)."""
    return [sum(math.comb(j, i) * a[i] * b[j - i] for i in range(j + 1)) for j in range(len(a))]


def suite_classical(cfg: Config) -> Iterator[tuple[str, Iterator]]:
    xp = classical.x
    # E_j = euler[j] / 2^j; an order-r convolution keeps the scale 2^j
    euler = _euler_numerators(20)

    def euler_number(n):
        return Fraction(euler[n], 2 ** n)

    def complementarity():
        for n in range(16):
            e = classical.euler_poly(n)
            lhs = e.shifted(1) + e
            yield n, lhs == 2 * xp ** n, "E_n(x+1)+E_n(x) != 2x^n"

    yield "euler-complementarity", complementarity()

    def order_coefficients():
        order_r = [1] + [0] * 10
        for r in range(1, 5):
            order_r = _binomial_convolution(order_r, euler[:11])
            for n in range(11):
                lhs = classical.higher_genocchi(n + r, r)
                rhs = qcore.falling(n + r, r) * Fraction(order_r[n], 2 ** n)
                yield (n, r), lhs == rhs, f"{lhs} != {rhs}"

    yield "higher-genocchi-euler-coefficients", order_coefficients()

    def genocchi_identities():
        for n in range(0, 21, 2):
            lhs = classical.genocchi(n)
            rhs = 2 * (1 - Fraction(2) ** n) * classical.bernoulli(n)
            yield ("bernoulli", n), lhs == rhs, f"{lhs} != {rhs}"
        for n in range(1, 21):
            lhs = classical.genocchi(n)
            rhs = n * euler_number(n - 1)
            yield ("euler", n), lhs == rhs, f"{lhs} != {rhs}"
        for n in range(3, 20, 2):
            yield ("odd", n), classical.genocchi(n) == 0, "odd index not zero"

    yield "genocchi-identities", genocchi_identities()

    def order_one():
        for n in range(13):
            # E_n(x) = sum_j C(n, j) E_(n-j) x^j and G_n = n E_(n-1)
            appell = qcore.Poly([math.comb(n, j) * euler_number(n - j) for j in range(n + 1)], "x")
            yield ("euler", n), classical.higher_euler_poly(n, 1) == appell, "order-1 euler"
            genocchi = n * euler_number(n - 1) if n else 0
            yield ("genocchi", n), classical.higher_genocchi(n, 1) == genocchi, "order-1 genocchi"

    yield "order-one-reduction", order_one()

    def frobenius_at_zero():
        for u in (Fraction(2), Fraction(-2), Fraction(1, 3)):
            for n in range(11):
                p = classical.frobenius_euler_poly(n, u)
                yield (n, u), p(Fraction(0)) == classical.frobenius_euler(n, u), "H_n(u,0) != H_n(u)"

    yield "frobenius-poly-at-zero", frobenius_at_zero()


# ----------------------------------------------------------------- padic

def suite_padic(cfg: Config) -> Iterator[tuple[str, Iterator]]:
    def normalization():
        # the constant integrand needs a trivial weight: k = 1 with h = 1,
        # or the degree-0 classical monomial
        for qv in (Fraction(1, 2), Fraction(4), Fraction(1)):
            for N in (1, 2, 3):
                for f in (QBracketMonomial(m=0, k=1, h=1), ClassicalMonomial(n=0)):
                    s = padic.fermionic_sum(f, qv, PadicParams(3, N), cfg.term_budget)
                    yield (qv, type(f).__name__, N), s == 1, f"normalized sum is {s}"

    yield "constant-integrand-normalization", normalization()

    def additivity():
        qv = Fraction(4)
        for N in range(2, 5):
            coarse = PadicParams(3, N - 1)
            fine = PadicParams(3, N)
            for a in range(3 ** (N - 1)):
                lhs = padic.measure_value(a, coarse, qv)
                rhs = sum(padic.measure_value(a + i * 3 ** (N - 1), fine, qv) for i in range(3))
                yield (N, a), lhs == rhs, "refinement sum differs"

    yield "measure-additivity", additivity()

    q4, qh = Fraction(4), Fraction(1, 2)
    levels = list(range(1, cfg.N + 1))
    specs = (((m, k, h, w), QEulerSpec(m=m, h=h, k=k, w=w))
             for k in (1, 2) for m in range(3) for h in (k - 1, k)
             for w in (Fraction(1), Fraction(4)))
    yield ("closed-form-valuation-growth",
           _oracle_points(specs, qeuler_hk, q4, levels, cfg.term_budget))

    specs = (((m, k), QEulerSpec(m=m, h=k, k=k)) for k in (1, 2) for m in range(3))
    yield ("absolute-series-tail-bounds",
           _series_points(specs, qeuler_hk, qh, (10, 20, 40), cfg.term_budget))

    def box_series(spec, qv, sp, budget):
        return real_series(spec.integrand(), qv, sp, budget)

    k1 = ((("k1", m), QEulerSpec(m=m, h=0, k=1)) for m in range(3))
    k2 = [(("k2", 1), QEulerSpec(m=1, h=1, k=2))]
    yield "boundary-series-regularization", itertools.chain(
        _boundary_points(k1, qeuler_hk, box_series, qh, SeriesParams(cfg.M, "cesaro1"), cfg),
        _boundary_points(k2, qeuler_hk, box_series, qh, SeriesParams(60, "cesaro1"), cfg))

    def shifts():
        res = shift_identity_residual(ClassicalMonomial(n=0), 1, Fraction(1), PadicParams(3, 2))
        yield ("constant", 1), res == 0, f"residual {res}"
        for n_shift in (1, 2):
            for f in (ClassicalMonomial(n=1), QBracketMonomial(m=1, k=1, h=1)):
                vals = []
                for N in range(1, 5):
                    r = shift_identity_residual(f, n_shift, Fraction(4), PadicParams(3, N))
                    vals.append(val_p(r, 3))
                ok = all(vals[i] <= vals[i + 1] for i in range(len(vals) - 1))
                yield (type(f).__name__, n_shift), ok, f"valuations {vals}"

    yield "shift-identity-residuals", shifts()


# ---------------------------------------------------------------- qeuler

def suite_qeuler(cfg: Config) -> Iterator[tuple[str, Iterator]]:
    q4, qh = Fraction(4), Fraction(1, 2)

    levels = list(range(1, cfg.N + 1))
    twists = (Fraction(1), Fraction(4))
    specs = (((m, k, h, xx, w), QEulerSpec(m=m, h=h, k=k, x=xx, w=w))
             for k in (1, 2) for m in range(5) for h in (k - 1, k, k + 1)
             for xx in (0, 1, 2) for w in twists)
    k3 = (((m, 3, h, 0, w), QEulerSpec(m=m, h=h, k=3, w=w))
          for m in range(3) for h in (2, 3, 4) for w in twists)
    # the k = 3 oracle sums each level whose (3^N)^3 box `check_level_budget`
    # admits, to level 3 at the default budget
    k3_levels = [N for N in levels if not padic._power_exceeds(3, 3 * N, cfg.term_budget)] \
        or levels[:1]
    yield "integral-oracle-valuations", itertools.chain(
        _oracle_points(specs, qeuler_hk, q4, levels, cfg.term_budget),
        _oracle_points(k3, qeuler_hk, q4, k3_levels, cfg.term_budget))

    # not `twists`: the oracle grid above reads that name when it runs
    series_twists = (Fraction(1), Fraction(1, 2))
    specs = (((m, k, h, w), QEulerSpec(m=m, h=h, k=k, w=w))
             for k in (1, 2) for m in range(4) for h in (k, k + 1) for w in series_twists)
    yield ("real-series-absolute-oracle",
           _series_points(specs, qeuler_hk, qh, (40,), cfg.term_budget))

    specs = (((m, k, xx, w), QEulerSpec(m=m, h=k - 1, k=k, x=xx, w=w))
             for k in (1, 2) for m in range(4) for xx in (0, 1, 2) for w in series_twists)
    yield "boundary-series-closed-agreement", _boundary_points(
        specs, qeuler_hk, qeuler_hk_series, qh, SeriesParams(cfg.M, "cesaro1"), cfg)

    specs = (((s.m, s.k, s.h, s.x), s) for s in _euler_limit_specs())
    yield "classical-limit", _limit_points(
        specs, qeuler_hk, _higher_euler_at_x, "q->1 limit differs")

    def twist_reduction():
        for n in range(9):
            a = qeuler_twisted(n, Fraction(1), qh)
            b = qeuler_hk(QEulerSpec(m=n, h=1, k=1), qh)
            yield ("exact", n), a == b, f"{a} != {b}"
            # the known-denominator route against the integer exact route
            sym = qeuler_twisted(n, Fraction(1))
            yield ("symbolic", n), sym.evaluate(qh) == a, "symbolic twist mismatch"

    yield "twist-reduction", twist_reduction()

    def remark_identity():
        for w in (Fraction(1, 2), Fraction(1, 3), Fraction(2)):
            for n in range(11):
                lhs = classical.twisted_euler_classical(n, w)
                rhs = Fraction(2) / (w + 1) * classical.frobenius_euler(n, -1 / w)
                yield (n, w), lhs == rhs, f"{lhs} != {rhs}"

    yield "twisted-euler-frobenius-identity", remark_identity()


# ------------------------------------------------------------- qgenocchi

def suite_qgenocchi(cfg: Config) -> Iterator[tuple[str, Iterator]]:
    q4, qh = Fraction(4), Fraction(1, 2)

    def moment(spec, qv):
        # the index-shifted number: G_(n+1) / (n + 1) is the n-th moment
        return qgenocchi(spec.n + 1, qv)

    specs = ((n, QGenocchiSpec(n=n, h=1, k=1)) for n in range(6))
    yield "index-shift-moments", _series_points(specs, moment, qh, (60,), cfg.term_budget)

    levels = list(range(1, cfg.N + 1))
    specs = (((n, k, h, w), QGenocchiSpec(n=n, h=h, k=k, w=w))
             for k in (1, 2) for n in range(4) for h in (k - 1, k, k + 1)
             for w in (Fraction(1), Fraction(4)))
    yield ("integral-oracle-valuations",
           _oracle_points(specs, qgenocchi_hk, q4, levels, cfg.term_budget))

    base = ((("base", n), n) for n in range(11))
    order = ((("order", s.n, s.k), s) for s in _genocchi_limit_specs())
    yield "classical-limit", itertools.chain(
        _limit_points(base, qgenocchi, classical.genocchi, "q->1 differs"),
        _limit_points(order, qgenocchi_hk, _higher_genocchi_at_index,
                      "higher-order q->1 differs"))

    def coefficient_consistency():
        for k in range(1, 5):
            for n in range(11):
                a = QGenocchiSpec(n=n, h=0, k=k).kernel()[1]
                b = qcore.falling(n + k, k)
                yield (n, k), a == b, f"{a} != {b}"

    yield "order-coefficient-forms", coefficient_consistency()

    def twist_continuity():
        for n in range(9):
            exact = qgenocchi(n, qh)
            yield ("exact", n), qgenocchi_twisted(n, qh, Fraction(1)) == exact, "w=1 exact"
            # the known-denominator route against the integer exact route
            sym = qgenocchi_twisted(n, w=Fraction(1))
            yield ("symbolic", n), sym.evaluate(qh) == exact, "w=1 symbolic"
        for n in range(4):
            a = qgenocchi_hk(QGenocchiSpec(n=n, h=1, k=2, w=Fraction(1)), qh)
            b = qgenocchi_hk(QGenocchiSpec(n=n, h=1, k=2), qh)
            yield ("hk", n), a == b, "hk twist default mismatch"

    yield "twist-continuity", twist_continuity()

    def g1():
        for qv in (Fraction(1, 2), Fraction(1, 3), Fraction(4)):
            yield qv, qgenocchi(1, qv) == 1, "G_1 != 1"
        yield "symbolic", qgenocchi(1) == 1, "G_1 != 1 symbolically"

    yield "first-value-is-one", g1()

    specs = (((n, k, w), QGenocchiSpec(n=n, h=k - 1, k=k, w=w))
             for k in (1, 2) for n in range(4) for w in (Fraction(1), Fraction(1, 2)))
    yield "boundary-series-closed-agreement", _boundary_points(
        specs, qgenocchi_hk, qgenocchi_hk_series, qh, SeriesParams(cfg.M, "cesaro1"), cfg)


# ---------------------------------------------------------------- limits

def suite_limits(cfg: Config) -> Iterator[tuple[str, Iterator]]:
    qh = Fraction(1, 2)

    specs = (((s.m, s.k, s.x), s) for s in _euler_limit_specs() if s.h == s.k - 1)
    yield "qeuler-classical-limits", _limit_points(
        specs, qeuler_hk, _higher_euler_at_x, "E-limit differs")

    specs = (((s.n, s.k), s) for s in _genocchi_limit_specs())
    yield "qgenocchi-classical-limits", _limit_points(
        specs, qgenocchi_hk, _higher_genocchi_at_index, "G-limit differs")

    def twist_collapse():
        one = Fraction(1)
        tgen = []
        for n in range(8):
            yield ("teuler", n), qeuler_twisted(n, one, qh) == qeuler_hk(QEulerSpec(m=n, h=1, k=1), qh), "twisted euler"
            tgen.append(qgenocchi(n, qh))
            yield ("tgen", n), qgenocchi_twisted(n, qh, one) == tgen[n], "twisted genocchi"
        for m in range(3):
            for k in (1, 2):
                a = qeuler_hk(QEulerSpec(m=m, h=k, k=k, w=one), qh)
                b = qeuler_hk(QEulerSpec(m=m, h=k, k=k), qh)
                yield ("hk", m, k), a == b, "hk twist"
        for n in range(4):
            # the known-denominator route against the integer exact route
            sym = qgenocchi_twisted(n, w=one)
            yield ("tgen-sym", n), sym.evaluate(qh) == tgen[n], "symbolic twisted genocchi"

    yield "twist-unity-collapse", twist_collapse()


SUITES = {
    "qcore": suite_qcore,
    "classical": suite_classical,
    "padic": suite_padic,
    "qeuler": suite_qeuler,
    "qgenocchi": suite_qgenocchi,
    "limits": suite_limits,
}

SUITE_ORDER = list(SUITES)


def run_suites(names, cfg: Config | None = None) -> dict:
    """Run the named suites in fixed order on `cfg`, `Config()` by default,
    whose N is the depth of the p-adic oracles; returns the structured
    report."""
    cfg = cfg or Config()
    if "all" in names:
        names = SUITE_ORDER
    else:
        names = [n for n in SUITE_ORDER if n in names]
    report = {"suites": [], "ok": True}
    for name in names:
        # each check runs to its end before its suite resumes
        checks = [_run_grid(*check) for check in SUITES[name](cfg)]
        ok = all(c["ok"] for c in checks)
        report["ok"] = report["ok"] and ok
        report["suites"].append({"suite": name, "ok": ok, "checks": checks})
    return report
