import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qgen import padic, qeuler
from qgen.classical import frobenius_euler, higher_euler_poly, twisted_euler_classical
from qgen.padic import (
    BudgetExceeded,
    DivergenceError,
    QBracketMonomial,
    SeriesParams,
    cesaro1_value,
    convergence_envelope_ok,
    padic_limit_check,
    real_series,
)
from qgen.qcore import DomainError, Poly, QRat, gauss_binom_factorial, gauss_binom_triangle, q_sym
from qgen.qeuler import (
    QEulerSpec,
    gf_eval,
    qeuler_hk,
    qeuler_hk_series,
    qeuler_twisted,
)
from qgen.qgenocchi import QGenocchiSpec, qgenocchi_hk, qgenocchi_hk_series

F = Fraction
QH = F(1, 2)
TOL = F(1, 1000)


class TestClosedForm:
    def test_degree_zero_single_term(self):
        # m = 0 collapses to [2]_q^k / prod(1 + w q^{h-l})
        v = qeuler_hk(QEulerSpec(m=0, h=0, k=1), QH)
        assert v == F(3, 4)

    def test_symbolic_anchor(self):
        v = qeuler_hk(QEulerSpec(m=1, h=1, k=1))
        assert v == QRat(Poly([0, -1]), Poly([1, 0, 1]))

    def test_exact_matches_symbolic(self):
        for m in range(4):
            for h in (0, 1, 2):
                for k in (1, 2):
                    sym = qeuler_hk(QEulerSpec(m=m, h=h, k=k, x=1))
                    ex = qeuler_hk(QEulerSpec(m=m, h=h, k=k, x=1), QH)
                    assert sym.evaluate(QH) == ex

    def test_classical_limit_grid(self):
        for m in range(5):
            for k in (1, 2, 3):
                for h in (k - 1, k, k + 1):
                    for xx in (0, 1, 2):
                        sym = qeuler_hk(QEulerSpec(m=m, h=h, k=k, x=xx))
                        assert sym.at_one() == higher_euler_poly(m, k)(F(xx))

    @given(st.integers(0, 6), st.integers(1, 3), st.integers(-2, 5), st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_classical_limit_random_specs(self, m, k, h, xx):
        sym = qeuler_hk(QEulerSpec(m=m, h=h, k=k, x=xx))
        assert sym.at_one() == higher_euler_poly(m, k)(F(xx))

    def test_exact_mode_guards(self):
        for bad in (F(0), F(1), F(-1)):
            with pytest.raises(DomainError):
                qeuler_hk(QEulerSpec(m=1, h=1, k=1), bad)

    def test_vanishing_denominator_identifies_term(self):
        with pytest.raises(DomainError, match="j=0, l=0"):
            qeuler_hk(QEulerSpec(m=0, h=1, k=1, w=F(-2)), QH)

    def test_negative_h_is_exact(self):
        v = qeuler_hk(QEulerSpec(m=1, h=-2, k=1), QH)
        sym = qeuler_hk(QEulerSpec(m=1, h=-2, k=1))
        assert sym.evaluate(QH) == v


# Twists for the known-denominator route: cyclotomic (1, -1), none (0),
# and coprime twist factors, some reducible over Q (-1/4, -4, 9/4).
ROUTE_TWISTS = tuple(map(F, ("1", "-1", "0", "2", "-2", "1/2", "-1/4", "-4", "9/4", "3/5")))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except DomainError as exc:
        return str(exc)


class TestKnownDenominatorRoute:
    """The symbolic generator takes the known-denominator route; the
    general loop (`_euler_sum_loop`, any other argument) is its reference."""

    @given(st.integers(0, 6), st.integers(-2, 4), st.integers(1, 3), st.integers(0, 5),
           st.sampled_from(ROUTE_TWISTS), st.sampled_from((1, 6, 24)),
           st.fractions(min_value=-3, max_value=3, max_denominator=7))
    @settings(max_examples=40, deadline=None)
    def test_route_matches_general_loop_and_exact_mode(self, m, h, k, x, w, scale, q0):
        routed = _outcome(qeuler._euler_sum, m, h, k, x, w, None, scale)
        general = _outcome(qeuler._euler_sum_loop, m, h, k, x, w, q_sym, scale)
        if isinstance(routed, str):  # a vanishing factor: same message, same (j, l)
            assert routed == general
            return
        assert (routed.num.coeffs, routed.den.coeffs) == (general.num.coeffs, general.den.coeffs)
        plan = qeuler._known_denominator(m, h, k, x, w)
        assert max(routed.num.degree, routed.den.degree) <= plan.degree
        assume(q0 not in (0, 1, -1))
        exact = _outcome(qeuler._euler_sum, m, h, k, x, w, q0, scale)
        assume(not isinstance(exact, str))  # q0 is a pole of an unreduced factor
        assert routed.evaluate(q0) == exact

    def test_order_two_matches_general_loop_to_m_10(self):
        for m in range(11):
            spec = QEulerSpec(m=m, h=2, k=2)
            assert qeuler_hk(spec) == qeuler._euler_sum_loop(m, 2, 2, 0, F(1), q_sym, 1)

    def test_order_two_m_20_has_classical_limit(self):
        assert qeuler_hk(QEulerSpec(m=20, h=2, k=2)).at_one() == higher_euler_poly(20, 2)(F(0))


_EXACT_QS = st.fractions(min_value=-4, max_value=4, max_denominator=6).filter(
    lambda v: v not in (0, 1, -1))


class TestExactRoute:
    """A rational q takes the integer route (`_euler_sum_exact`); the
    general loop (`_euler_sum_loop`) in Fractions is its reference."""

    @given(st.integers(0, 12), st.integers(-3, 6), st.integers(1, 3), st.integers(0, 3),
           _EXACT_QS, st.sampled_from((1, 2, 6)), st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_general_loop(self, m, h, k, x, q0, scale, data):
        if data.draw(st.booleans()):
            # a twist that makes one factor 1 + w q^e vanish
            w = -1 / q0 ** data.draw(st.integers(h - k + 1, h + m))
        else:
            w = data.draw(st.sampled_from(ROUTE_TWISTS + (F(-3, 2), F(-5))))
        exact = _outcome(qeuler._euler_sum, m, h, k, x, w, q0, scale)
        assert exact == _outcome(qeuler._euler_sum_loop, m, h, k, x, w, q0, scale)

    def test_degree_300(self):
        args = (300, 2, 3, 2, F(2, 3), F(-5, 4), 6)
        assert qeuler._euler_sum(*args) == qeuler._euler_sum_loop(*args)

    @pytest.mark.parametrize("qv", [F(1, 2), F(4), F(2, 3), F(-3, 5)])
    @pytest.mark.parametrize("w", [F(1), F(4), F(1, 2), F(-2, 3)])
    def test_translation_recurrence(self, qv, w):
        # the translation identity at f(x) = w^x [x]_q^m:
        # E_m (1 + w q^(m+1)) = [2]_q delta_(m,0) - q w sum_(j<m) C(m,j) q^j E_j
        E = [qeuler_twisted(m, w, qv) for m in range(9)]
        for m, e in enumerate(E):
            rhs = (1 + qv if m == 0 else 0) - qv * w * sum(
                math.comb(m, j) * qv ** j * E[j] for j in range(m))
            assert e * (1 + w * qv ** (m + 1)) == rhs, m


class TestPadicOracle:
    def test_grid(self):
        q4 = F(4)
        fallbacks = 0
        for k in (1, 2):
            for m in range(5):
                for h in (k - 1, k, k + 1):
                    for xx in (0, 1, 2):
                        for w in (F(1), F(4)):
                            cf = qeuler_hk(QEulerSpec(m=m, h=h, k=k, x=xx, w=w), q4)
                            f = QBracketMonomial(m=m, k=k, h=h, w=w, x=xx)
                            rep = padic_limit_check(f, cf, q4, 3, [1, 2, 3])
                            assert rep.verdict or convergence_envelope_ok(rep), \
                                (m, k, h, xx, w, rep.valuations)
                            fallbacks += 0 if rep.verdict else 1
        assert fallbacks <= 4

    def test_order_three(self):
        q4 = F(4)
        for m in range(3):
            for h in (2, 3, 4):
                for w in (F(1), F(4)):
                    cf = qeuler_hk(QEulerSpec(m=m, h=h, k=3, w=w), q4)
                    f = QBracketMonomial(m=m, k=3, h=h, w=w)
                    rep = padic_limit_check(f, cf, q4, 3, [1, 2])
                    assert rep.verdict or convergence_envelope_ok(rep), (m, h, w, rep.valuations)


class TestRealOracle:
    def test_absolute_regime(self):
        for k in (1, 2):
            for m in range(4):
                for h in (k, k + 1):
                    for w in (F(1), F(1, 2)):
                        cf = qeuler_hk(QEulerSpec(m=m, h=h, k=k, w=w), QH)
                        f = QBracketMonomial(m=m, k=k, h=h, w=w)
                        v, bound = real_series(f, QH, SeriesParams(40, "direct"))
                        assert abs(v - cf) <= bound
                        assert bound <= F(1, 2 ** 20)


class TestBoundarySeries:
    def test_requires_boundary_weight(self):
        with pytest.raises(DomainError):
            qeuler_hk_series(QEulerSpec(m=1, h=1, k=1), QH, SeriesParams(50, "cesaro1"))

    def test_direct_rejected_at_boundary(self):
        with pytest.raises(DivergenceError):
            qeuler_hk_series(QEulerSpec(m=1, h=0, k=1), QH, SeriesParams(50, "direct"))

    def test_degree_zero_value(self):
        v, _ = qeuler_hk_series(QEulerSpec(m=0, h=0, k=1), QH, SeriesParams(400, "cesaro1"))
        assert v == F(3, 4)

    def test_linear_matches_closed_form(self):
        spec = QEulerSpec(m=1, h=0, k=1)
        v, _ = qeuler_hk_series(spec, QH, SeriesParams(400, "cesaro1"))
        cf = qeuler_hk(spec, QH)
        assert cf == F(-1, 2)
        assert abs(v - cf) <= TOL

    def test_order_two_shifted(self):
        spec = QEulerSpec(m=2, h=1, k=2, x=1)
        v, _ = qeuler_hk_series(spec, QH, SeriesParams(400, "cesaro1"))
        assert abs(v - qeuler_hk(spec, QH)) <= TOL

    def test_grid_within_tolerance(self):
        for k in (1, 2):
            for m in range(4):
                for xx in (0, 1, 2):
                    for w in (F(1), F(1, 2)):
                        spec = QEulerSpec(m=m, h=k - 1, k=k, x=xx, w=w)
                        v, _ = qeuler_hk_series(spec, QH, SeriesParams(400, "cesaro1"))
                        assert abs(v - qeuler_hk(spec, QH)) <= TOL, (m, k, xx, w)


class TestTwisted:
    def test_single_term(self):
        w = F(1, 3)
        assert qeuler_twisted(0, w, QH) == (1 + QH) / (1 + QH * w)

    def test_w_one_constant(self):
        assert qeuler_twisted(0, F(1), QH) == 1

    def test_linear_anchor(self):
        assert qeuler_twisted(1, F(1, 2), QH) == F(-4, 15)

    def test_reduces_to_hk(self):
        for n in range(9):
            assert qeuler_twisted(n, F(1), QH) == qeuler_hk(QEulerSpec(m=n, h=1, k=1), QH)
            assert qeuler_twisted(n, F(1)) == qeuler_hk(QEulerSpec(m=n, h=1, k=1))

    def test_vanishing_denominator(self):
        with pytest.raises(DomainError):
            qeuler_twisted(1, F(-2), QH)

    def test_classical_limit_matches_remark(self):
        for n in range(7):
            for w in (F(1, 2), F(1, 3), F(2)):
                sym = qeuler_twisted(n, w)
                assert sym.at_one() == twisted_euler_classical(n, w)

    def test_remark_identity_with_frobenius(self):
        for n in range(11):
            for w in (F(1, 2), F(1, 3), F(2)):
                assert twisted_euler_classical(n, w) == 2 / (w + 1) * frobenius_euler(n, -1 / w)


class TestTwistedSeries:
    def test_direct_small_twist(self):
        spec = QEulerSpec(m=1, h=0, k=1, w=F(1, 2))
        v, bound = qeuler_hk_series(spec, QH, SeriesParams(60, "direct"))
        target = qeuler_twisted(1, F(1, 2), QH)
        assert qeuler_hk(spec, QH) != target  # different h; sanity of the fixture
        assert abs(v - qeuler_hk(spec, QH)) <= bound

    def test_unit_twist_is_untwisted_series(self):
        a, _ = qeuler_hk_series(QEulerSpec(m=1, h=0, k=1, w=F(1)), QH,
                                SeriesParams(200, "cesaro1"))
        b, _ = qeuler_hk_series(QEulerSpec(m=1, h=0, k=1), QH, SeriesParams(200, "cesaro1"))
        assert a == b

    def test_order_two_closed_form(self):
        spec = QEulerSpec(m=0, h=1, k=2, w=F(1, 2))
        v, bound = qeuler_hk_series(spec, QH, SeriesParams(60, "direct"))
        assert qeuler_hk(spec, QH) == F(6, 5)
        assert abs(v - F(6, 5)) <= bound

    def test_large_twist_diverges(self):
        with pytest.raises(DivergenceError):
            qeuler_hk_series(QEulerSpec(m=0, h=0, k=1, w=F(2)), QH,
                             SeriesParams(50, "direct"))

    def test_weight_shift_absorbs_into_twist(self):
        # raising h by one multiplies every denominator exponent by one more
        # power of q, so E at (h+1, w) equals E at (h, w q); in particular the
        # twisted numbers (h = 1) are reachable from the h = 0 series
        for n in range(5):
            for w in (F(1, 2), F(1, 3)):
                assert qeuler_twisted(n, w, QH) == \
                    qeuler_hk(QEulerSpec(m=n, h=0, k=1, w=w * QH), QH)
        spec = QEulerSpec(m=1, h=0, k=1, w=QH * F(1, 2))
        v, bound = qeuler_hk_series(spec, QH, SeriesParams(60, "direct"))
        assert qeuler_twisted(1, F(1, 2), QH) == F(-4, 15)
        assert abs(v - F(-4, 15)) <= bound


class TestGeneratingFunction:
    def test_t_zero_collapses(self):
        lhs, rhs = gf_eval("fqk", 1, 0, F(1), QH, F(0), SeriesParams(400, "cesaro1"))
        assert abs(lhs - rhs) <= F(1, 10 ** 20)
        assert abs(lhs - qeuler_hk(QEulerSpec(m=0, h=0, k=1), QH)) <= F(1, 10 ** 20)

    def test_agreement_at_quarter(self):
        lhs, rhs = gf_eval("fqk", 1, 0, F(1), QH, F(1, 4), SeriesParams(400, "cesaro1"),
                           t_terms=8)
        assert abs(lhs - rhs) <= TOL

    def test_twisted_variant(self):
        lhs, rhs = gf_eval("fqk", 2, 1, F(1, 2), QH, F(1, 8), SeriesParams(300, "cesaro1"))
        assert abs(lhs - rhs) <= TOL

    def test_genocchi_low_coefficients_vanish(self):
        # the t^k prefactor wipes powers below k; the comparator must agree
        lhs, rhs = gf_eval("hqk", 2, 0, F(1), QH, F(1, 4), SeriesParams(300, "cesaro1"))
        assert abs(lhs - rhs) <= TOL

    def test_twisted_genocchi_kind(self):
        lhs, rhs = gf_eval("hqkw", 1, 0, F(1, 2), QH, F(1, 4), SeriesParams(200, "cesaro1"))
        assert abs(lhs - rhs) <= TOL

    def test_kind_validation(self):
        with pytest.raises(DomainError):
            gf_eval("nope", 1, 0, F(1), QH, F(0), SeriesParams(50, "cesaro1"))
        with pytest.raises(DomainError):
            gf_eval("hqk", 1, 1, F(1), QH, F(0), SeriesParams(50, "cesaro1"))


# ---------------------------------------------------------------------------
# The Gaussian-weight series summed term by term in Fractions: the reference
# for the integer kernel that `qeuler_hk_series` and `gf_eval` run on.

def _gauss_weight_terms(k, x, w, qf, M):
    """(C(k+n-1, n)_q (-w)^n, [n+x]_q) for n < M, each updated from the last."""
    c = F(1)
    br = (1 - qf ** x) / (1 - qf)
    qpow = qf ** x
    for n in range(M):
        if n > 0:
            c *= -w * (1 - qf ** (k + n - 1)) / (1 - qf ** n)
            br += qpow
            qpow *= qf
        yield c, br


def _truncated_exp(a, t, terms):
    acc, pw = F(0), F(1)
    for j in range(terms):
        acc += pw / math.factorial(j)
        pw *= a * t
    return acc


def _series_reference(spec, qf, sp):
    """`qeuler_hk_series` with one Fraction partial sum per term."""
    w = F(spec.w)
    f = spec.integrand()
    boundary = padic._series_regime(f, padic._ratios(f, qf), sp)
    partials, s = [], F(0)
    for c, br in _gauss_weight_terms(spec.k, spec.x, w, qf, sp.M):
        s += c * br ** spec.m
        partials.append(s)
    pref = (1 + qf) ** spec.k
    if boundary or sp.mode == "cesaro1":
        value, gap = cesaro1_value(partials)
        return pref * value, pref * gap
    aw = abs(w)
    tail = (qeuler._gauss_weight_bound(spec.k, qf) * (1 - qf) ** -spec.m
            * aw ** sp.M / (1 - aw))
    return pref * s, pref * tail


def _gf_reference(kind, k, x, w, qf, t, sp, t_terms=8):
    """`gf_eval` with a truncated exponential per term and the right side
    from the public closed forms."""
    w = F(1) if kind == "hqk" else w
    partials, s = [], F(0)
    for c, br in _gauss_weight_terms(k, x, w, qf, sp.M):
        s += c * _truncated_exp(br, t, t_terms)
        partials.append(s)
    core, _ = cesaro1_value(partials)
    pref = (1 + qf) ** k
    if kind == "fqk":
        lhs = pref * core
        coeffs = [qeuler_hk(QEulerSpec(m, k - 1, k, x, w), qf) for m in range(t_terms)]
    else:
        lhs = pref * t ** k * core
        coeffs = [0] * k + [qgenocchi_hk(QGenocchiSpec(n - k, k - 1, k, w), qf)
                            for n in range(k, k + t_terms)]
    return lhs, sum((c * t ** n / math.factorial(n) for n, c in enumerate(coeffs)), F(0))


SERIES_TWISTS = (F(1), F(0), F(1, 2), F(-1, 2), F(-1, 3))


class TestSeriesAgainstTermByTerm:
    """The integer kernel returns the same Fractions as the term-by-term sum
    (compared by repr, so also their types), errors included: cesaro1 needs
    three partial sums, direct mode |w| < 1."""

    @pytest.mark.parametrize("mode", ["direct", "cesaro1"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_qeuler_and_qgenocchi(self, k, mode):
        for m, x, w, M, qv in itertools.product(range(5), range(3), SERIES_TWISTS,
                                                (1, 2, 3, 4, 25), (QH, F(2, 3))):
            sp = SeriesParams(M, mode)
            spec = QEulerSpec(m=m, h=k - 1, k=k, x=x, w=w)
            got = _outcome(lambda: qeuler_hk_series(spec, qv, sp))
            ref = _outcome(lambda: _series_reference(spec, qv, sp))
            assert repr(got) == repr(ref), (spec, qv, sp)
            if x == 0:
                gspec = QGenocchiSpec(n=m, h=k - 1, k=k, w=w)
                got = _outcome(lambda: qgenocchi_hk_series(gspec, qv, sp))
                scale = math.factorial(k) * math.comb(m + k, k)
                ref = _outcome(lambda: tuple(scale * v
                                             for v in _series_reference(spec, qv, sp)))
                assert repr(got) == repr(ref), (gspec, qv, sp)

    @pytest.mark.parametrize("M", [1, 2])
    def test_short_truncations(self, M):
        spec = QEulerSpec(m=2, h=1, k=2, x=1, w=F(-1, 3))
        with pytest.raises(DomainError, match="cesaro1 needs at least 3 partial sums"):
            qeuler_hk_series(spec, QH, SeriesParams(M, "cesaro1"))
        with pytest.raises(DomainError, match="cesaro1 needs at least 3 partial sums"):
            qeuler_hk_series(QEulerSpec(m=1, h=0, k=1), QH, SeriesParams(M, "cesaro1"))
        got = qeuler_hk_series(spec, QH, SeriesParams(M, "direct"))
        assert repr(got) == repr(_series_reference(spec, QH, SeriesParams(M, "direct")))
        with pytest.raises(DomainError, match="cesaro1 needs at least 3 partial sums"):
            gf_eval("fqk", 1, 0, F(1), QH, F(1, 4), SeriesParams(M, "cesaro1"))

    @pytest.mark.parametrize("kind,twists,shifts", [
        ("fqk", (F(1), F(1, 2)), (0, 1)),
        ("hqk", (F(1),), (0,)),
        ("hqkw", (F(1, 2), F(-1, 3)), (0,)),
    ])
    @pytest.mark.parametrize("k", [1, 2])
    def test_gf_eval(self, kind, twists, shifts, k):
        for w, x, t, t_terms, M in itertools.product(twists, shifts, (F(0), F(1, 4), F(1, 2)),
                                                     (8, 3), (3, 4, 30)):
            sp = SeriesParams(M, "cesaro1")
            got = gf_eval(kind, k, x, w, QH, t, sp, t_terms)
            ref = _gf_reference(kind, k, x, w, QH, t, sp, t_terms)
            assert repr(got) == repr(ref), (w, x, t, t_terms, M)


def _typed_outcome(fn):
    """The result of fn, or the type of the error it raises."""
    try:
        return fn()
    except (DomainError, BudgetExceeded) as exc:
        return type(exc)


CROSS_TWISTS = (F(1), F(0), F(1, 2), F(-1, 3), F(2), F(-1), F(-3, 2))


class TestSeriesCrossRoute:
    """The Gaussian-weight series and the k-box series of `real_series` sum
    the same integrand of the spec.  At k = 1 the simplex and the box
    coincide, so the two routes agree exactly (value, bound and error
    type); at k >= 2 they truncate differently but share the regime rules
    and the cesaro1 window, so they refuse the same inputs, by the same
    error type."""

    @pytest.mark.parametrize("mode", ["direct", "cesaro1"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_routes_agree(self, k, mode):
        for m, x, w, qv, M in itertools.product(range(5), range(3), CROSS_TWISTS,
                                                (F(1, 3), F(3, 4)), (1, 2, 3, 5, 40)):
            sp = SeriesParams(M, mode)
            spec = QEulerSpec(m=m, h=k - 1, k=k, x=x, w=w)
            gauss = _typed_outcome(lambda: qeuler_hk_series(spec, qv, sp))
            box = _typed_outcome(lambda: real_series(spec.integrand(), qv, sp))
            if k == 1:
                assert repr(gauss) == repr(box), (spec, qv, sp)
            else:
                errors = [v if isinstance(v, type) else None for v in (gauss, box)]
                assert errors[0] == errors[1], (spec, qv, sp)


class TestGaussWeights:
    """The kernel's weights D[s] / E^s against two independent routes to the
    Gaussian binomial: the additive triangle and the q-factorial quotient."""

    @pytest.mark.parametrize("qv", [F(1, 3), F(2, 3), F(3, 4)])
    @pytest.mark.parametrize("w", [F(1), F(-1, 2), F(1, 3)])
    def test_weights_are_signed_gaussian_binomials(self, w, qv):
        rows = gauss_binom_triangle(32, qv)
        for k in range(1, 5):
            bases = padic._ratios(QEulerSpec(m=0, h=k - 1, k=k, w=w).integrand(), qv)
            dist, E = padic._distribution(bases, 30, size=30)
            assert len(dist) == 30
            for s, d in enumerate(dist):
                weight = F(d, E ** s)
                assert weight == rows[k + s - 1][s] * (-w) ** s, (k, s)
                assert weight == gauss_binom_factorial(k + s - 1, s, qv) * (-w) ** s, (k, s)


@st.composite
def _fractions(draw, lo, hi, max_den):
    """A fraction strictly inside (lo, hi) with denominator at most max_den."""
    b = draw(st.integers(2, max_den))
    a = draw(st.integers(math.floor(lo * b) + 1, math.ceil(hi * b) - 1))
    return F(a, b)


class TestDirectTailBound:
    """The direct-mode bound is a proven majorant of the truncation error.
    It is attained (m = 0, k = 1: the tail is one geometric series), so the
    comparison is <=."""

    @given(st.integers(0, 5), st.integers(1, 3), st.integers(0, 3),
           _fractions(-1, 1, 5), _fractions(0, 1, 7), st.integers(5, 200))
    @settings(max_examples=200, deadline=None)
    def test_closed_form_within_bound(self, m, k, x, w, qv, M):
        sp = SeriesParams(M, "direct")
        spec = QEulerSpec(m=m, h=k - 1, k=k, x=x, w=w)
        value, bound = qeuler_hk_series(spec, qv, sp)
        assert abs(value - qeuler_hk(spec, qv)) <= bound
        gspec = QGenocchiSpec(n=m, h=k - 1, k=k, w=w)
        value, bound = qgenocchi_hk_series(gspec, qv, sp)
        assert abs(value - qgenocchi_hk(gspec, qv)) <= bound

    def test_bound_is_attained(self):
        spec = QEulerSpec(m=0, h=0, k=1, w=F(-1, 3))
        value, bound = qeuler_hk_series(spec, QH, SeriesParams(7, "direct"))
        assert abs(value - qeuler_hk(spec, QH)) == bound
