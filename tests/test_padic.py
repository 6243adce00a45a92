import itertools
import math
import time
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qgen import padic, qcore
from qgen.classical import euler_number, higher_euler_poly
from qgen.qeuler import QEulerSpec, qeuler_hk
from qgen.padic import (
    BudgetExceeded,
    ClassicalMonomial,
    DivergenceError,
    PadicParams,
    QBracketMonomial,
    SeriesParams,
    ValuationReport,
    _MR_LIMIT,
    _cesaro1_sums,
    _distribution,
    _is_prime,
    _prefix_sums,
    _strong_probable_prime,
    _sum_table,
    cesaro1_value,
    convergence_envelope_ok,
    fermionic_sum,
    measure_value,
    padic_limit_check,
    real_series,
    shift_identity_residual,
    val_p,
)
from qgen.qcore import DomainError, q_bracket_neg

F = Fraction


class TestParams:
    def test_prime_validation(self):
        with pytest.raises(DomainError):
            PadicParams(p=4)
        with pytest.raises(DomainError):
            PadicParams(p=2)
        with pytest.raises(DomainError):
            PadicParams(p=9)
        with pytest.raises(DomainError):
            PadicParams(p=3, N=0)

    def test_series_params(self):
        with pytest.raises(DomainError):
            SeriesParams(0)
        with pytest.raises(DomainError):
            SeriesParams(10, "chebyshev")


def _trial_division(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


class TestPrimality:
    def test_matches_trial_division_below_1e5(self):
        assert [n for n in range(10 ** 5) if _is_prime(n)] == \
            [n for n in range(10 ** 5) if _trial_division(n)]

    @pytest.mark.parametrize("n", [
        2047,                 # strong pseudoprime to base 2
        1373653,              # to bases 2 and 3
        3215031751,           # to bases 2, 3, 5 and 7
        3825123056546413051,  # to the nine prime bases up to 23
        318665857834031151167461,  # to the twelve prime bases up to 37
    ])
    def test_strong_pseudoprimes_are_composite(self, n):
        assert not _is_prime(n)
        with pytest.raises(DomainError):
            PadicParams(p=n)

    def test_large_prime_at_once(self):
        t0 = time.perf_counter()
        assert PadicParams(p=10 ** 18 + 3).p == 10 ** 18 + 3
        assert _is_prime(2 ** 61 - 1) and not _is_prime((2 ** 31 - 1) * (10 ** 9 + 7))
        assert time.perf_counter() - t0 < 1

    @pytest.mark.parametrize("p", [_MR_LIMIT, 2 ** 89 - 1, (2 ** 31 - 1) * (2 ** 61 - 1)])
    def test_rejected_above_the_proven_bound(self, p):
        # the bound is the least strong pseudoprime to all thirteen bases,
        # so at and above it no p is certified, prime or not
        assert _strong_probable_prime(_MR_LIMIT)
        assert _MR_LIMIT == 1287836182261 * 2575672364521
        t0 = time.perf_counter()
        with pytest.raises(DomainError, match="cannot be certified deterministically"):
            PadicParams(p=p)
        assert time.perf_counter() - t0 < 1

    def test_small_p_messages_unchanged(self):
        for p in (2, 9, _MR_LIMIT - 2):
            with pytest.raises(DomainError, match=f"^p = {p} is not an odd prime$"):
                PadicParams(p=p)


class TestValuation:
    def test_basic(self):
        assert val_p(F(9, 2), 3) == 2
        assert val_p(F(2, 27), 3) == -3
        assert val_p(F(0), 3) == math.inf


class TestMeasure:
    def test_zero_residue(self):
        from qgen.qcore import q_bracket_neg
        params = PadicParams(3, 2)
        assert measure_value(0, params, F(4)) == 1 / q_bracket_neg(9, F(4))

    def test_q_one_alternates(self):
        params = PadicParams(3, 2)
        assert [measure_value(a, params, F(1)) for a in range(4)] == [1, -1, 1, -1]

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            measure_value(9, PadicParams(3, 2), F(4))

    @pytest.mark.parametrize("qv", [F(4), F(1, 2)])
    def test_distribution_additivity(self, qv):
        for N in (2, 3):
            fine = PadicParams(3, N)
            coarse = PadicParams(3, N - 1)
            for a in range(3 ** (N - 1)):
                parts = sum(measure_value(a + i * 3 ** (N - 1), fine, qv) for i in range(3))
                assert parts == measure_value(a, coarse, qv)


class TestFermionicSum:
    def test_constant_normalizes_to_one(self):
        for qv in (F(1, 2), F(4), F(1)):
            for N in (1, 2, 3):
                assert fermionic_sum(QBracketMonomial(m=0, k=1, h=1), qv, PadicParams(3, N)) == 1
                assert fermionic_sum(ClassicalMonomial(n=0), qv, PadicParams(3, N)) == 1

    def test_euler_level_sum(self):
        s = fermionic_sum(ClassicalMonomial(n=1), F(1), PadicParams(3, 2))
        assert s == 4
        assert val_p(s - euler_number(1), 3) == 2

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            fermionic_sum(QBracketMonomial(m=1, k=3, h=2), F(4), PadicParams(3, 4),
                          term_budget=1000)

    def test_q_minus_one_rejected(self):
        with pytest.raises(DomainError):
            fermionic_sum(ClassicalMonomial(n=1), F(-1), PadicParams(3, 1))

    def test_multivariate_euler_at_q_one(self):
        # k-fold sums of (x1+...+xk+x)^n at q=1 approach the order-k values
        for r in (1, 2):
            for n in (1, 2):
                for xx in (0, 1):
                    target = higher_euler_poly(n, r)(F(xx))
                    f = QBracketMonomial(m=n, k=r, h=0, x=xx)  # weights q^(...)=1 at q=1
                    rep = padic_limit_check(f, target, F(1), 3, [1, 2, 3])
                    assert rep.verdict or convergence_envelope_ok(rep), rep.valuations


class TestLimitCheck:
    def test_exact_target_gives_infinite_valuations(self):
        rep = padic_limit_check(QBracketMonomial(m=0, k=1, h=1), F(1), F(4), 3, [1, 2])
        assert rep.valuations == [math.inf, math.inf]
        assert rep.verdict

    def test_alternating_linear_growth(self):
        rep = padic_limit_check(ClassicalMonomial(n=1), F(-1, 2), F(1), 3, [1, 2, 3, 4, 5])
        assert rep.valuations == [1, 2, 3, 4, 5]
        assert rep.verdict

    def test_bracket_convergence_to_closed_form(self):
        rep = padic_limit_check(QBracketMonomial(m=2, k=1, h=1), F(12, 221), F(4), 3, [1, 2, 3, 4])
        assert rep.verdict
        assert rep.valuations[-1] >= 3

    def test_envelope_accepts_early_spike(self):
        rep = ValuationReport([1, 2, 3], [6, 3, 4], False)
        assert convergence_envelope_ok(rep)
        stalled = ValuationReport([1, 2, 3], [1, 1, 1], False)
        assert not convergence_envelope_ok(stalled)


class TestRealSeries:
    def test_constant_family(self):
        v, bound = real_series(QBracketMonomial(m=0, k=1, h=1), F(1, 2), SeriesParams(30, "direct"))
        assert abs(v - 1) <= bound

    def test_bracket_linear_value(self):
        v, bound = real_series(QBracketMonomial(m=1, k=1, h=1), F(1, 2), SeriesParams(50, "direct"))
        assert abs(v - F(-2, 5)) <= bound

    def test_boundary_needs_cesaro(self):
        with pytest.raises(DivergenceError):
            real_series(QBracketMonomial(m=0, k=1, h=0), F(1, 2), SeriesParams(50, "direct"))

    def test_boundary_value(self):
        v, _ = real_series(QBracketMonomial(m=0, k=1, h=0), F(1, 2), SeriesParams(400, "cesaro1"))
        assert v == F(3, 4)

    def test_divergent_rejected(self):
        with pytest.raises(DivergenceError):
            real_series(QBracketMonomial(m=0, k=1, h=-1), F(1, 2), SeriesParams(50, "direct"))
        with pytest.raises(DivergenceError):
            real_series(ClassicalMonomial(n=1, w=F(3)), F(1), SeriesParams(50, "direct"))

    def test_non_alternating_unit_ratio_rejected(self):
        # a negative twist can make the signed base +1: positively divergent
        with pytest.raises(DivergenceError):
            real_series(ClassicalMonomial(n=1, w=F(-2)), F(1, 2), SeriesParams(50, "cesaro1"))
        with pytest.raises(DivergenceError):
            real_series(QBracketMonomial(m=1, k=1, h=1, w=F(-2)), F(1, 2),
                        SeriesParams(50, "cesaro1"))

    def test_growing_alternating_needs_more_than_first_order(self):
        with pytest.raises(DivergenceError):
            real_series(ClassicalMonomial(n=2, w=F(1)), F(1), SeriesParams(50, "cesaro1"))

    def test_bracket_integrand_needs_q_below_one(self):
        with pytest.raises(DomainError):
            real_series(QBracketMonomial(m=1, k=1, h=1), F(1), SeriesParams(50, "direct"))

    def test_tail_bound_shrinks(self):
        f = QBracketMonomial(m=2, k=2, h=2)
        bounds = []
        for M in (10, 20, 40):
            v, b = real_series(f, F(1, 2), SeriesParams(M, "direct"))
            bounds.append(b)
        assert bounds[0] > bounds[1] > bounds[2]

    def test_classical_twisted_series_at_q_one(self):
        # 2 sum (-w)^y y^n with |w| < 1: the q = 1 regime of the evaluator
        for w in (F(1, 2), F(1, 3)):
            for n in range(5):
                from qgen.classical import twisted_euler_classical
                v, b = real_series(ClassicalMonomial(n=n, w=w), F(1), SeriesParams(80, "direct"))
                assert abs(v - twisted_euler_classical(n, w)) <= b

    def test_q_range_guard(self):
        with pytest.raises(DomainError):
            real_series(ClassicalMonomial(n=0), F(3, 2), SeriesParams(10, "direct"))


class TestCesaroHelpers:
    def test_alternating_unit_series(self):
        partials = []
        s = F(0)
        for n in range(100):
            s += F(-1) ** n
            partials.append(s)
        value, gap = cesaro1_value(partials)
        assert value == F(1, 2) and gap == 0

    def test_needs_three_partials(self):
        with pytest.raises(DomainError):
            cesaro1_value([F(1), F(0)])


class TestShiftIdentity:
    def test_constant_exact_zero(self):
        for n_shift in (1, 2, 3):
            for N in (1, 2, 3):
                res = shift_identity_residual(ClassicalMonomial(n=0), n_shift, F(1),
                                              PadicParams(3, N))
                assert res == 0

    def test_bracket_valuation_growth(self):
        vals = []
        for N in range(1, 6):
            r = shift_identity_residual(QBracketMonomial(m=1, k=1, h=1), 1, F(4),
                                        PadicParams(3, N))
            vals.append(val_p(r, 3))
        assert all(vals[i] <= vals[i + 1] for i in range(len(vals) - 1))
        assert all(v >= N - 1 for N, v in zip(range(1, 6), vals))

    def test_classical_shift_two(self):
        vals = []
        for N in range(1, 6):
            r = shift_identity_residual(ClassicalMonomial(n=1), 2, F(1), PadicParams(3, N))
            vals.append(val_p(r, 3))
        assert all(vals[i] <= vals[i + 1] for i in range(len(vals) - 1))


def _integrand(f, xs, qf):
    """f(x1..xk) evaluated from its definition at one integer point."""
    if isinstance(f, ClassicalMonomial):
        (y,) = xs
        return f.w ** y * F(y + f.c) ** f.n
    s = sum(xs) + f.x
    bracket = F(s) if qf == 1 else (1 - qf ** s) / (1 - qf)
    weight = F(1)
    for j, xj in enumerate(xs, start=1):
        weight *= f.w ** xj * qf ** ((f.h - j) * xj)
    return weight * bracket ** f.m


def _enumerate(f, qf, L):
    """Reference box sum, term by term: sum over x in [0, L)^k of
    f(x) prod_j (-q)^{x_j}."""
    return sum((_integrand(f, xs, qf) * (-qf) ** sum(xs)
                for xs in itertools.product(range(L), repeat=f.num_vars)), F(0))


def _level_reference(f, qf, N, p=3):
    span = p ** N
    return _enumerate(f, qf, span) / q_bracket_neg(span, qf) ** f.num_vars


class TestBoxSumAgainstEnumeration:
    @pytest.mark.parametrize("qv", [F(4), F(1, 4), F(-2)])
    @pytest.mark.parametrize("w", [F(1), F(4), F(1, 3)])
    @pytest.mark.parametrize("N", [1, 2])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_fermionic_bracket(self, k, N, w, qv):
        for m, h, x in ((0, k, 0), (2, k - 2, 1), (2, k, 2), (1, k + 1, -1)):
            f = QBracketMonomial(m=m, k=k, h=h, w=w, x=x)
            assert fermionic_sum(f, qv, PadicParams(3, N)) == _level_reference(f, qv, N)

    @pytest.mark.parametrize("qv", [F(4), F(1, 4), F(-2)])
    @pytest.mark.parametrize("w", [F(1), F(4), F(1, 3)])
    @pytest.mark.parametrize("N", [1, 2])
    def test_fermionic_classical(self, N, w, qv):
        for n, c in itertools.product(range(4), (0, 2)):
            f = ClassicalMonomial(n=n, w=w, c=c)
            assert fermionic_sum(f, qv, PadicParams(3, N)) == _level_reference(f, qv, N)

    @pytest.mark.parametrize("f,qv,boundary", [
        (QBracketMonomial(m=1, k=1, h=1, x=2), F(1, 2), False),
        (QBracketMonomial(m=2, k=2, h=2, w=F(-1, 3), x=1), F(2, 3), False),
        (QBracketMonomial(m=1, k=3, h=3, w=F(1, 2)), F(1, 2), False),
        (QBracketMonomial(m=1, k=2, h=1), F(1, 2), True),
        (ClassicalMonomial(n=2, w=F(1, 3), c=1), F(1), False),
        (ClassicalMonomial(n=0, w=F(1)), F(1), True),
    ])
    @pytest.mark.parametrize("M", [3, 4, 7])
    def test_real_series_both_modes(self, f, qv, boundary, M):
        pref = (1 + qv) ** f.num_vars
        boxes = [_enumerate(f, qv, L) for L in (M - 2, M - 1, M)]
        value, gap = cesaro1_value(boxes)
        assert real_series(f, qv, SeriesParams(M, "cesaro1")) == (pref * value, pref * gap)
        if boundary:
            with pytest.raises(DivergenceError):
                real_series(f, qv, SeriesParams(M, "direct"))
        else:
            assert real_series(f, qv, SeriesParams(M, "direct"))[0] == pref * boxes[-1]

    @pytest.mark.parametrize("L", [1, 2, 3, 6])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_simplex_prefix_sums(self, k, L):
        # the size-capped distribution is the box's below s = L, and its
        # prefix sums are the sums over the simplices x1 + ... + xk <= n
        bases = [F(-1, 2), F(2, 3), F(-3)][:k]
        qf = F(2, 3)
        f = QBracketMonomial(m=2, x=1)
        box, E = _distribution(bases, L)
        simplex, E_simplex = _distribution(bases, L, size=L)
        assert (simplex, E_simplex) == (box[:L], E)
        table = _sum_table(f, qf, L)
        sums = _prefix_sums(simplex, E, table, range(max(L - 3, 0), L))
        assert len(sums) == min(3, L)
        for n, got in zip(range(L - len(sums), L), sums):
            expected = F(0)
            for xs in itertools.product(range(n + 1), repeat=k):
                if sum(xs) <= n:
                    weight = math.prod(b ** xj for b, xj in zip(bases, xs))
                    expected += weight * ((1 - qf ** (sum(xs) + 1)) / (1 - qf)) ** 2
            assert got == expected, n
        # the integer cesaro1 of the same three prefix sums
        if L < 3:
            with pytest.raises(DomainError, match="cesaro1 needs at least 3 partial sums"):
                _cesaro1_sums(simplex, E, table, L)
        else:
            value, gap, den = _cesaro1_sums(simplex, E, table, L)
            assert (F(value, den), F(gap, den)) == cesaro1_value(sums)

    @pytest.mark.parametrize("M", [1, 2])
    @pytest.mark.parametrize("f", [QBracketMonomial(m=1, k=2, h=1), ClassicalMonomial(n=0)])
    def test_cesaro1_needs_three_boxes(self, f, M):
        qv = F(1, 2) if isinstance(f, QBracketMonomial) else F(1)
        with pytest.raises(DomainError):
            real_series(f, qv, SeriesParams(M, "cesaro1"))

    @pytest.mark.parametrize("n_shift", [1, 2, 3])
    @pytest.mark.parametrize("f", [ClassicalMonomial(n=2, w=F(1, 3), c=1),
                                   QBracketMonomial(m=2, k=1, h=0, w=F(4), x=1),
                                   QBracketMonomial(m=0, k=1, h=2, w=F(-2), x=1)])
    @pytest.mark.parametrize("qv", [F(4), F(1, 4), F(1)])
    def test_shift_identity_residual(self, f, n_shift, qv):
        span = 9
        norm = q_bracket_neg(span, qv)

        def level(shift):
            return sum(_integrand(f, (y + shift,), qv) * (-qv) ** y for y in range(span)) / norm

        corr = sum((-1) ** (n_shift - 1 - l) * qv ** l * _integrand(f, (l,), qv)
                   for l in range(n_shift))
        expected = qv ** n_shift * level(n_shift) - (-1) ** n_shift * level(0) - (1 + qv) * corr
        assert shift_identity_residual(f, n_shift, qv, PadicParams(3, 2)) == expected

    @given(st.integers(0, 4), st.integers(1, 3), st.integers(-1, 4), st.integers(0, 3),
           st.sampled_from([F(1), F(-1), F(4), F(1, 3), F(-1, 4), F(2), F(0)]),
           st.sampled_from([F(4), F(1, 4), F(-2), F(1, 2), F(2, 3), F(1), F(3)]))
    @settings(max_examples=60, deadline=None)
    def test_random_specs(self, m, k, h, x, w, qv):
        f = QBracketMonomial(m=m, k=k, h=h, w=w, x=x)
        N = 1 if k == 3 else 2
        assert fermionic_sum(f, qv, PadicParams(3, N)) == _level_reference(f, qv, N)
        if 0 < qv < 1:
            try:
                v, _ = real_series(f, qv, SeriesParams(5, "cesaro1"))
            except DivergenceError:
                return
            boxes = [_enumerate(f, qv, L) for L in (3, 4, 5)]
            assert v == (1 + qv) ** k * cesaro1_value(boxes)[0]


class TestConstantTable:
    """A constant integrand (m = 0, n = 0) has the table g = 1, and
    `_box_sums` sums each of its boxes as the product of k geometric sums;
    that must equal the general route, the box distribution summed against
    an explicit table of ones, exactly and modulo p^L."""

    @given(st.integers(1, 3), st.integers(-1, 3),
           st.sampled_from([F(1), F(-1), F(4), F(-2), F(2), F(1, 3), F(-1, 4), F(7), F(0)]),
           st.sampled_from([F(4), F(7), F(-2), F(1, 4), F(2), F(1, 2), F(1)]),
           st.lists(st.integers(1, 60), min_size=1, max_size=3), st.sampled_from([3, 5, 7]))
    # b_1 = -w q^h = 1
    @example(k=2, h=0, w=F(-1), qv=F(4), sides=[1, 7, 60], p=3)
    @example(k=1, h=1, w=F(-1, 4), qv=F(4), sides=[27], p=3)
    # b_j = -2 * 4^(h - j + 1) = 1 mod 3, so 1 - b_j is not a unit
    @example(k=3, h=2, w=F(2), qv=F(4), sides=[1, 9, 59], p=3)
    @settings(max_examples=100, deadline=None)
    def test_geometric_boxes_equal_distribution_sums(self, k, h, w, qv, sides, p):
        sides = sorted(sides)
        bases = padic._ratios(QBracketMonomial(m=0, k=k, h=h, w=w), qv)
        moduli = [None]
        if all(b.denominator % p for b in bases):
            moduli.append(p ** 12)
        for modulus in moduli:
            expected = []
            for L in sides:
                dist, E = _distribution(bases, L, modulus)
                ones = [1] * len(dist), 1, 1
                expected += _prefix_sums(dist, E, ones, [len(dist) - 1], modulus)
            assert padic._box_sums(bases, (None, 1, 1), sides, modulus) == expected

    def test_constant_table(self):
        for f in (QBracketMonomial(m=0, k=2, h=1, x=3), ClassicalMonomial(n=0, c=2)):
            assert _sum_table(f, F(4), 50) == (None, 1, 1)
        # the route still checks the shift budget of a constant integrand
        with pytest.raises(BudgetExceeded, match="q exponent"):
            fermionic_sum(QBracketMonomial(m=0, x=10 ** 6), F(4), PadicParams(3, 2), 100)

    def test_limit_check_builds_no_distribution(self, monkeypatch):
        # levels 1..9 at q = 4: the level sums are exactly 1, so every level
        # is summed modulo 3^19 and then exactly, each as a geometric sum
        def refused(*args, **kwargs):
            raise AssertionError("a constant table needs no distribution")

        monkeypatch.setattr(padic, "_distribution", refused)
        levels = list(range(1, 10))
        rep = padic_limit_check(QBracketMonomial(m=0, k=1, h=1), F(1), F(4), 3, levels)
        assert rep == ValuationReport(levels, [math.inf] * 9, True)
        rep = padic_limit_check(QBracketMonomial(m=0, k=1, h=1), F(1) + 3 ** 4, F(4), 3, levels)
        assert rep.valuations == [4] * 9 and not rep.verdict


class TestBudgetsBeforeWork:
    def test_limit_check_budget_before_primality(self):
        t0 = time.perf_counter()
        with pytest.raises(BudgetExceeded):
            padic_limit_check(QBracketMonomial(m=1), 1, F(4), p=10 ** 18 + 3, levels=[1])
        assert time.perf_counter() - t0 < 1

    @pytest.mark.parametrize("x", [10 ** 6, -10 ** 6, 99_999])
    def test_shift_budget(self, x):
        f = QBracketMonomial(m=2, k=2, h=2, x=x)
        t0 = time.perf_counter()
        with pytest.raises(BudgetExceeded, match="q exponent"):
            fermionic_sum(f, F(4), PadicParams(3, 2))
        with pytest.raises(BudgetExceeded, match="q exponent"):
            real_series(f, F(1, 2), SeriesParams(20, "direct"))
        with pytest.raises(BudgetExceeded, match="q exponent"):
            shift_identity_residual(QBracketMonomial(m=1, x=x), 2, F(4), PadicParams(3, 2))
        assert time.perf_counter() - t0 < 1

    def test_shift_identity_level_refused_before_its_size(self):
        # 3^100000 has more digits than an int may render: the refusal
        # must come before it is formed
        t0 = time.perf_counter()
        with pytest.raises(BudgetExceeded, match=r"^3\^100000 terms exceed the budget of 100000$"):
            shift_identity_residual(QBracketMonomial(m=1, k=1, h=1), 1, 4, PadicParams(3, 10 ** 5))
        assert time.perf_counter() - t0 < 0.1
        f = QBracketMonomial(m=1, k=1, h=1)
        shift_identity_residual(f, 1, F(4), PadicParams(3, 2), term_budget=9)
        with pytest.raises(BudgetExceeded, match=r"^3\^2 terms exceed the budget of 8$"):
            shift_identity_residual(f, 1, F(4), PadicParams(3, 2), term_budget=8)

    def test_series_terms_refused_without_the_power(self):
        f = QBracketMonomial(m=1, k=10 ** 7, h=1)
        t0 = time.perf_counter()
        with pytest.raises(BudgetExceeded,
                           match=r"^400\^10000000 terms exceed the budget of 100000$"):
            real_series(f, F(1, 2), SeriesParams(400))
        assert time.perf_counter() - t0 < 0.1
        f = QBracketMonomial(m=1, k=2, h=1, w=F(1, 2))
        real_series(f, F(1, 2), SeriesParams(20), term_budget=400)
        with pytest.raises(BudgetExceeded, match=r"^20\^2 terms exceed the budget of 399$"):
            real_series(f, F(1, 2), SeriesParams(20), term_budget=399)

    def test_box_ratio_exponent_budget(self):
        # after its M^k terms, which pass at M = 1 for any k, a box is
        # budgeted by its ratios' total q exponent sum_j |h - j + 1|
        for k, h, total in ((3000, 2999, 4498500), (10 ** 7, 1, 49999985000002)):
            t0 = time.perf_counter()
            with pytest.raises(BudgetExceeded,
                               match=f"^q exponent {total} exceeds the budget of 100000$"):
                real_series(QBracketMonomial(m=1, k=k, h=h, w=F(1, 2)), F(1, 2), SeriesParams(1))
            assert time.perf_counter() - t0 < 0.1
        f = QBracketMonomial(m=1, k=300, h=299, w=F(1, 2))
        value, bound = real_series(f, F(1, 2), SeriesParams(1))  # 44850 is within the budget
        assert value == 0 and bound > 0  # the one-point box holds [0]_q = 0
        with pytest.raises(BudgetExceeded, match=r"^q exponent 44850 exceeds the budget of 44849$"):
            real_series(f, F(1, 2), SeriesParams(1), term_budget=44849)

    @given(st.integers(1, 40), st.integers(-2, 60), st.integers(-3, 10 ** 30))
    @settings(max_examples=200, deadline=None)
    @example(base=1, exp=60, budget=0)
    @example(base=1, exp=60, budget=1)
    def test_power_exceeds(self, base, exp, budget):
        assert padic._power_exceeds(base, exp, budget) == (exp >= 1 and base ** exp > budget)

    def test_shift_budget_is_tight(self):
        # the table of a level-2 sum in two variables reaches q^(x + 2 (9 - 1))
        f = QBracketMonomial(m=1, k=2, h=2, x=84)
        fermionic_sum(f, F(4), PadicParams(3, 2), term_budget=100)
        with pytest.raises(BudgetExceeded, match="q exponent 100 exceeds the budget of 99"):
            fermionic_sum(f, F(4), PadicParams(3, 2), term_budget=99)


class TestModularRoute:
    """`padic_limit_check` reads residuals modulo p^L when q, 1 + q and w
    are p-adic units, and sums exactly otherwise; its reports must equal
    those of the term-by-term enumeration."""

    def test_modular_level_sum_is_the_exact_residue(self):
        P = 3 ** 12
        for f in (QBracketMonomial(m=2, k=2, h=1, w=F(4), x=1), ClassicalMonomial(n=3, c=1)):
            for qv in (F(4), F(1, 4), F(-2)):
                exact = fermionic_sum(f, qv, PadicParams(3, 3))
                residue = exact.numerator * pow(exact.denominator, -1, P) % P
                assert fermionic_sum(f, qv, PadicParams(3, 3), modulus=P) == residue

    @pytest.mark.parametrize("qv,w", [(F(3), F(1)), (F(2), F(1)), (F(4), F(1, 3)), (F(4), F(0))])
    def test_modular_level_sum_needs_units(self, qv, w):
        with pytest.raises(DomainError):
            fermionic_sum(QBracketMonomial(m=1, w=w), qv, PadicParams(3, 2), modulus=3 ** 12)

    @given(st.sampled_from([3, 5, 7]), st.integers(1, 3), st.integers(0, 4),
           st.integers(-1, 3), st.integers(-1, 3),
           st.sampled_from([F(1), F(4), F(-2), F(7), F(1, 4), F(2), F(1, 2), F(3), F(1, 3),
                            F(0), F(6), F(5), F(-1), F(11, 6)]),
           st.sampled_from([F(4), F(7), F(-2), F(1, 4), F(2), F(1, 2), F(3), F(1, 3), F(6),
                            F(5), F(1, 5), F(11), F(-4), F(1), F(8), F(2, 3), F(9, 2)]),
           st.integers(1, 4), st.integers(0, 6), st.integers(0, 3))
    @settings(max_examples=80, deadline=None)
    def test_report_equals_exact_report(self, p, k, m, h, x, w, qv, N, kind, e):
        # at most 7^4 terms per level keeps the enumeration quick
        N = min(N, 5 - k)
        while (p ** N) ** k > 7 ** 4:
            N -= 1
        levels = list(range(1, N + 1))
        f = QBracketMonomial(m=m, k=k, h=h, w=w, x=x)
        try:
            closed = qeuler_hk(QEulerSpec(m=m, h=h, k=k, x=max(x, 0), w=w), qv)
        except DomainError:
            closed = F(2, 7)
        # the closed form, a near miss by p^e, a target with p^e in its
        # denominator, the exact level-1 value (a zero residual), a miss of
        # it by a multiple of p^(N + 10) (0 modulo p^L), and plain rationals
        level1 = _level_reference(f, qv, 1, p)
        target = [closed, closed + p ** e, closed + F(1, p ** (e + 1)), level1,
                  level1 + p ** (N + 10 + e), F(0), F(5, 11)][kind]
        vals = [val_p(_level_reference(f, qv, n, p) - target, p) for n in levels]
        verdict = all(a <= b for a, b in zip(vals, vals[1:])) and vals[-1] >= N - 1
        assert padic_limit_check(f, target, qv, p, levels) == ValuationReport(levels, vals, verdict)


def _residue(v, P):
    v = F(v)
    return v.numerator * pow(v.denominator, -1, P) % P


@st.composite
def _unit_checks(draw):
    """(p, q, w, k, m, h, x, levels): q, 1 + q and w p-adic units, negative
    and fractional ones included, and levels whose boxes have at most 729
    points."""
    p = draw(st.sampled_from([3, 5, 7]))
    unit, sign = st.integers(1, 30).filter(lambda v: v % p), st.sampled_from([1, -1])
    qv, w = [F(draw(sign) * draw(unit), draw(unit)) for _ in range(2)]
    assume((qv.numerator + qv.denominator) % p)
    k = draw(st.integers(1, 3))
    top = 1
    while (p ** (top + 1)) ** k <= 729:
        top += 1
    levels = draw(st.lists(st.integers(1, top), min_size=1, max_size=3))
    return (p, qv, w, k, draw(st.integers(0, 3)), draw(st.integers(-1, k + 1)),
            draw(st.integers(0, 3)), levels)


class TestResidueTables:
    """Modulo p^L the tables hold residues of the terms themselves, with
    E = R = C = 1; each table, prefix sum and level sum must be the
    residue of the exact one, and a check's valuations the exact ones."""

    @given(_unit_checks(), st.integers(0, 2))
    @example((7, F(-2, 3), F(-1, 2), 3, 3, 4, 3, [1]), 0)
    @example((3, F(-2), F(1, 4), 1, 3, -1, 2, [6, 1]), 1)
    @settings(max_examples=100, deadline=None)
    def test_residues_of_the_exact_route(self, check, kind):
        p, qv, w, k, m, h, x, levels = check
        P = p ** (max(levels) + padic.MODULAR_MARGIN)
        f = QBracketMonomial(m=m, k=k, h=h, w=w, x=x)
        size = k * (p ** max(levels) - 1) + 1
        exact = _sum_table(f, qv, size)
        table = _sum_table(f, qv, size, P)
        if m == 0:
            assert exact == table == (None, 1, 1)
        else:
            G, R, C = exact
            assert table[1:] == (1, 1)
            assert list(table[0]) == [_residue(F(g, R ** s * C), P) for s, g in enumerate(G)]
        bases = padic._ratios(f, qv)
        for N in levels:
            dist, E = _distribution(bases, p ** N)
            residues, one = _distribution(bases, p ** N, P)
            assert one == 1
            assert list(residues) == [_residue(F(d, E ** s), P) for s, d in enumerate(dist)]
            reads = range(len(dist))
            if m:  # a constant table is summed as geometric sums instead
                assert _prefix_sums(residues, 1, table, reads, P) == \
                    [_residue(v, P) for v in _prefix_sums(dist, E, exact, reads)]
            level = fermionic_sum(f, qv, PadicParams(p, N))
            assert fermionic_sum(f, qv, PadicParams(p, N), modulus=P) == _residue(level, P)
        # the closed form, the exact lowest level sum (a zero residual
        # there) and a plain rational
        try:
            closed = qeuler_hk(QEulerSpec(m=m, h=h, k=k, x=x, w=w), qv)
        except DomainError:
            closed = F(2, 7)
        target = [closed, fermionic_sum(f, qv, PadicParams(p, min(levels))), F(5, 11)][kind]
        vals = [val_p(fermionic_sum(f, qv, PadicParams(p, N)) - target, p) for N in levels]
        assert padic_limit_check(f, target, qv, p, levels).valuations == vals

    @pytest.mark.parametrize("m", [1, 2])
    def test_limit_check_builds_each_table_once_per_route(self, monkeypatch, m):
        # k = 1, levels 1..3 at q = 4, target the exact level-2 sum: the
        # modular route reads every level, the exact one level 2.  Each
        # route builds one bracket table and one distribution and makes one
        # prefix-sum pass; at m = 1 that pass sums the bracket table itself.
        built, passes = [], []
        brackets, build, prefix_sums = (padic._bracket_numerators,
                                        padic._build_distribution, padic._prefix_sums)

        def bracket(*args):
            built.append(("bracket", args[-1], brackets(*args)))
            return built[-1][2]

        def dist(*args):
            built.append(("dist", args[2], None))
            return build(*args)

        def sums(dist, E, table, reads, modulus=None):
            passes.append((table[0], list(reads), modulus))
            return prefix_sums(dist, E, table, reads, modulus)

        monkeypatch.setattr(padic, "_bracket_numerators", bracket)
        monkeypatch.setattr(padic, "_build_distribution", dist)
        monkeypatch.setattr(padic, "_prefix_sums", sums)
        f = QBracketMonomial(m=m, k=1, h=1)
        target = _level_reference(f, F(4), 2)
        padic._MEMO.clear()
        rep = padic_limit_check(f, target, F(4), 3, [1, 2, 3])
        P = 3 ** (3 + padic.MODULAR_MARGIN)
        assert [(kind, modulus) for kind, modulus, _ in built] == \
            [("bracket", P), ("dist", P), ("bracket", None), ("dist", None)]
        assert [(reads, modulus) for _, reads, modulus in passes] == \
            [([2, 8, 26], P), ([8], None)]
        for (_, _, (U, _, _)), (table, _, _) in zip(built[::2], passes):
            assert (table is U) == (m == 1)
        assert rep == _limit_check_per_level(f, target, F(4), 3, [1, 2, 3])
        assert rep.valuations[1] == math.inf


def _p_adic_one(p, i, j):
    """(1 + p i) / (1 + p j): a rational that is 1 mod p."""
    return F(1 + p * i, 1 + p * j)


class TestClosedFormAgainstValuationFloor:
    """For q = w = 1 mod p the level sums converge p-adically to the
    closed form; beside the fixed grids of the acceptance tests."""

    @given(st.sampled_from([3, 5, 7]), st.integers(1, 3), st.integers(0, 6), st.integers(-1, 4),
           st.integers(0, 3), st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
           st.tuples(st.integers(-2, 2), st.integers(-2, 2)))
    @settings(max_examples=60, deadline=None)
    def test_certifies(self, p, k, m, h, x, qij, wij):
        qv, w = _p_adic_one(p, *qij), _p_adic_one(p, *wij)
        if qv == 1:
            qv = _p_adic_one(p, 1, 0)
        N = {1: 5, 2: 3, 3: 2}[k]
        while (p ** N) ** k > 100_000:
            N -= 1
        levels = list(range(1, N + 1))
        target = qeuler_hk(QEulerSpec(m=m, h=h, k=k, x=x, w=w), qv)
        rep = padic_limit_check(QBracketMonomial(m=m, k=k, h=h, w=w, x=x), target, qv, p, levels)
        assert rep.verdict or convergence_envelope_ok(rep), (rep.valuations, qv, w)


def _limit_check_per_level(f, target, qv, p, levels, term_budget=padic.DEFAULT_TERM_BUDGET):
    """Reference for `padic_limit_check`: each level summed on its own by
    `fermionic_sum`, modulo p^L when q, 1 + q and w are units, and exactly
    when that fails or the residue is 0."""
    target, qf = F(target), F(qv)
    padic.check_level_budget(p, max(levels), f.num_vars, term_budget)
    modulus = (p ** (max(levels) + padic.MODULAR_MARGIN)
               if padic._units_mod_p(f, qf, p) else None)
    vals = []
    for N in levels:
        params = PadicParams(p=p, N=N)
        v = None
        if modulus is not None:
            r = fermionic_sum(f, qf, params, term_budget, modulus=modulus)
            v = padic._residual_valuation(r, target, p, modulus)
        if v is None:
            v = val_p(fermionic_sum(f, qf, params, term_budget) - target, p)
        vals.append(v)
    ok = all(a <= b for a, b in zip(vals, vals[1:])) and vals[-1] >= max(levels) - 1
    return ValuationReport(list(levels), vals, ok)


def _targets(f, qv, p, levels):
    """The closed form, its miss by 1/p (p in the denominator), the exact
    lowest level sum (a zero residual there) and a plain rational."""
    try:
        closed = qeuler_hk(QEulerSpec(m=f.m, h=f.h, k=f.k, x=max(f.x, 0), w=f.w), qv)
    except DomainError:
        closed = F(2, 7)
    low = fermionic_sum(f, qv, PadicParams(p, min(levels)))
    return [closed, closed + F(1, p), low, F(5, 11)]


def _deepest(p, k, span=729):
    """The deepest level N <= 4 with p^N <= span whose (p^N)^k box is
    within the default term budget."""
    N = 1
    while N < 4 and p ** (N + 1) <= span and (p ** (N + 1)) ** k <= padic.DEFAULT_TERM_BUDGET:
        N += 1
    return N


class TestSharedLevels:
    """`padic_limit_check` sums all levels of a check from one table and,
    for k = 1, one prefix-sum pass; its reports must equal the level-by-level
    loop's, valuations included."""

    @pytest.mark.parametrize("p", [3, 5, 7])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_grid(self, p, k):
        top = _deepest(p, k)
        level_sets = [list(range(1, top + 1)), list(range(top, 0, -1)), [top, 1, top],
                      [1, top] if top > 2 else [1, 1]]
        # unit and non-unit twists and q
        for m, w, qv in itertools.product((0, 2), (F(1), F(p), F(1, p + 1)),
                                          (F(1 + p), F(p), F(1, 2))):
            f = QBracketMonomial(m=m, k=k, h=k - 1 + m // 2, w=w, x=m % 3)
            for levels in level_sets:
                for target in _targets(f, qv, p, levels):
                    expected = _limit_check_per_level(f, target, qv, p, levels)
                    assert padic_limit_check(f, target, qv, p, levels) == expected, \
                        (f, qv, target, levels)

    @given(st.sampled_from([3, 5, 7]), st.integers(1, 3), st.integers(0, 4),
           st.integers(-1, 3), st.integers(-1, 3),
           st.sampled_from([F(1), F(-1), F(4), F(-2), F(1, 4), F(3), F(1, 3), F(5), F(7),
                            F(0), F(6), F(11, 6)]),
           st.sampled_from([F(4), F(-2), F(1, 4), F(2), F(3), F(1, 3), F(5), F(1, 5), F(7),
                            F(8), F(1), F(11), F(2, 3)]),
           st.lists(st.integers(1, 6), min_size=1, max_size=5), st.integers(0, 3))
    @settings(max_examples=150, deadline=None)
    def test_reports_equal_per_level_loop(self, p, k, m, h, x, w, qv, levels, kind):
        top = _deepest(p, k, span=125)
        levels = [min(N, top) for N in levels]
        f = QBracketMonomial(m=m, k=k, h=h, w=w, x=x)
        target = _targets(f, qv, p, levels)[kind]
        assert padic_limit_check(f, target, qv, p, levels) == \
            _limit_check_per_level(f, target, qv, p, levels)

    def test_classical_integrand(self):
        for n, w, qv, levels in itertools.product(range(3), (F(1), F(-1, 2), F(3)),
                                                  (F(1), F(4), F(3)), ([1, 2, 3], [3, 1, 1])):
            f = ClassicalMonomial(n=n, w=w, c=1)
            assert padic_limit_check(f, F(1, 2), qv, 3, levels) == \
                _limit_check_per_level(f, F(1, 2), qv, 3, levels)

    @pytest.mark.parametrize("p,k,levels", [
        (3, 1, [4, 1, 3, 3]), (5, 1, [3, 1]), (7, 1, [1, 3, 2]),
        (3, 2, [2, 1, 2]), (5, 2, [2, 1]), (7, 2, [1]), (3, 3, [1, 2]), (5, 3, [1])])
    def test_shared_sums_against_enumeration(self, p, k, levels):
        # every level a shared pass fills, exactly and modulo p^L
        P = p ** (max(levels) + padic.MODULAR_MARGIN)
        # q, 1 + q and w are units at every odd p
        for f, qv in ((QBracketMonomial(m=2, k=k, h=k - 1, w=F(4), x=1), F(1 + p)),
                      (QBracketMonomial(m=0, k=k, h=k, w=F(-2)), F(1, 1 + p)),
                      (QBracketMonomial(m=1, k=k, h=k + 1, w=F(1, 2), x=-1), F(-1, 2))):
            exact, residues = dict.fromkeys(levels), dict.fromkeys(levels)
            for N in levels:
                ref = _level_reference(f, qv, N, p)
                assert fermionic_sum(f, qv, PadicParams(p, N), _sums=exact) == ref
                assert fermionic_sum(f, qv, PadicParams(p, N), modulus=P, _sums=residues) == \
                    ref.numerator * pow(ref.denominator, -1, P) % P
            assert None not in exact.values() and None not in residues.values()

    def test_first_call_sums_every_level(self, monkeypatch):
        # the module's fermionic_sum is still called once per level and
        # route, which the benchmark's tracer counts; only the first call
        # of a route sums
        calls, summed = [], []
        level_sums, level_sum = padic._level_sums, padic.fermionic_sum

        def traced(f, qv, params, *args, **kwargs):
            calls.append((params.N, kwargs.get("modulus") is not None))
            return level_sum(f, qv, params, *args, **kwargs)

        monkeypatch.setattr(padic, "fermionic_sum", traced)
        monkeypatch.setattr(padic, "_level_sums",
                            lambda *args: summed.append(args[3]) or level_sums(*args))
        f = QBracketMonomial(m=2, k=1, h=1)
        rep = padic_limit_check(f, F(12, 221), F(4), 3, [3, 1, 2, 1])
        assert calls == [(3, True), (1, True), (2, True), (1, True)]
        assert summed == [[3, 1, 2]]
        assert rep == _limit_check_per_level(f, F(12, 221), F(4), 3, [3, 1, 2, 1])
        assert rep.valuations == [3, 1, 2, 1]
        calls.clear()
        summed.clear()
        # a zero residual is summed exactly, in a second shared pass
        rep = padic_limit_check(QBracketMonomial(m=0, k=1, h=1), F(1), F(4), 3, [2, 1, 2])
        assert calls == [(2, True), (1, True), (2, True), (2, False), (1, False), (2, False)]
        assert summed == [[2, 1], [2, 1]] and rep.valuations == [math.inf] * 3

    def test_level_below_one_stops_the_check(self):
        # PadicParams refuses it: padic_limit_check builds every level's
        # before any sum, the level-by-level loop after summing those before it
        for x, levels in ((0, [1, 0, 2]), (0, [0, 1]), (0, [2, -1]), (99_995, [1, 0, 3])):
            f = QBracketMonomial(m=1, x=x)
            for check in (padic_limit_check, _limit_check_per_level):
                with pytest.raises(DomainError, match="level N must be >= 1"):
                    check(f, F(1), F(4), 3, levels)

    def test_shift_budget_names_the_first_level_over_it(self):
        # levels 2 and 3 both reach past q^100000; the first in order is named
        f = QBracketMonomial(m=1, x=99_995)
        for levels, top in (([1, 2, 3], 100_003), ([3, 2, 1], 100_021)):
            with pytest.raises(BudgetExceeded, match=f"q exponent {top} exceeds"):
                padic_limit_check(f, F(1), F(4), 3, levels)
            with pytest.raises(BudgetExceeded, match=f"q exponent {top} exceeds"):
                _limit_check_per_level(f, F(1), F(4), 3, levels)


class TestClassicalTailBound:
    """The direct-mode majorant of sum_{y >= M} |y + c|^n rho^y holds for
    every shift c, including y + c <= 0 inside the tail."""

    def test_negative_shift_bounds_the_truncation_error(self):
        # sum_y b^y (y + c) = b / (1 - b)^2 + c / (1 - b), with b = -q w
        qv, c = F(1, 4), -10
        b = -qv
        exact = (1 + qv) * (b / (1 - b) ** 2 + c / (1 - b))
        value, bound = real_series(ClassicalMonomial(n=1, c=c), qv, SeriesParams(10, "direct"))
        assert 0 < abs(value - exact) <= bound

    def test_no_spurious_divergence(self):
        f = ClassicalMonomial(n=2, c=-3)
        value, bound = real_series(f, F(1, 4), SeriesParams(2, "direct"))
        reference, _ = real_series(f, F(1, 4), SeriesParams(200, "direct"))
        assert abs(value - reference) <= bound

    @given(st.integers(-20, 5), st.integers(0, 4), st.integers(1, 30),
           st.integers(1, 3), st.integers(2, 6))
    @settings(max_examples=200, deadline=None)
    def test_majorant(self, c, n, M, num, den):
        rho = F(min(num, den - 1), den)
        bound = padic._classical_tail_bound(ClassicalMonomial(n=n, c=c), rho, M, 10 ** 5)
        assert bound >= sum(abs(y + c) ** n * rho ** y for y in range(M, M + 400))

    def test_long_head_is_refused(self):
        with pytest.raises(DivergenceError, match="truncation too small"):
            padic._classical_tail_bound(ClassicalMonomial(n=1, c=-10 ** 6), F(1, 2), 1, 10 ** 5)


class TestTableMemo:
    """Bracket numerators and weight distributions are read from one bounded
    memo; what it returns does not depend on what it holds."""

    CALLS = (
        lambda: fermionic_sum(QBracketMonomial(m=3, k=2, h=1, w=F(1, 2), x=1), F(4),
                              PadicParams(3, 2)),
        lambda: fermionic_sum(QBracketMonomial(m=1, k=1, h=2, x=2), F(-2, 3),
                              PadicParams(5, 2), modulus=5 ** 12),
        lambda: padic_limit_check(QBracketMonomial(m=2, k=1, h=1), F(1), F(4), 3, [1, 2, 3]),
        lambda: real_series(QBracketMonomial(m=2, k=2, h=1, w=F(1, 3)), F(1, 2),
                            SeriesParams(40, "direct")),
        lambda: real_series(QBracketMonomial(m=1, k=1, h=0), F(1, 2),
                            SeriesParams(40, "cesaro1")),
        lambda: shift_identity_residual(QBracketMonomial(m=2, k=1, h=1), 2, F(4),
                                        PadicParams(3, 2)),
    )

    def test_cold_equals_warm(self):
        cold = []
        for call in self.CALLS:
            padic._MEMO.clear()
            cold.append(call())
        for _ in range(2):
            assert [call() for call in self.CALLS] == cold

    def test_entries_are_immutable(self):
        padic._MEMO.clear()
        for call in self.CALLS:
            call()
        dist, _ = _distribution([F(-1, 2), F(2, 3)], 9, size=10)
        assert isinstance(dist, tuple)
        assert padic._MEMO._entries
        for entry, _ in padic._MEMO._entries.values():
            assert isinstance(entry[0], tuple)

    def test_least_recent_dropped_and_oversized_not_kept(self):
        memo = qcore._TableMemo(2 * qcore._INT_HEADER_BITS + 5)
        for key, value in (("a", 3), ("b", 3), ("a", 9), ("c", 3)):
            memo.get(key, lambda value=value: ((value,), 0))
        assert list(memo._entries) == ["a", "c"] and memo.bits == 2 * qcore._INT_HEADER_BITS + 4
        assert memo.get("a", lambda: ((0,), 0)) == ((3,), 0)  # kept: not rebuilt
        big = ((1 << 2000,), 0)
        assert memo.get("big", lambda: big) is big
        assert "big" not in memo._entries and memo.bits <= memo.budget

    def test_bits_within_budget_after_verify_all(self):
        from qgen.verify import run_suites
        padic._MEMO.clear()
        cold = run_suites(["all"])
        assert 0 < padic._MEMO.bits <= qcore.MEMO_BITS
        assert padic._MEMO.bits == sum(bits for _, bits in padic._MEMO._entries.values())
        assert run_suites(["all"]) == cold

    def test_level_nine_tables_are_not_kept(self):
        # the tables of `qgen qeuler --m 2 --h 1 --q 4 --mode padic --N 9`,
        # about 48 MB of integers each; they do not depend on m, and m = 1
        # skips the squaring of every entry
        padic._MEMO.clear()
        fermionic_sum(QBracketMonomial(m=1, k=1, h=1), F(4), PadicParams(3, 9))
        assert padic._MEMO.bits == 0
