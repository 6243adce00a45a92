from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qgen import qeuler
from qgen.classical import frobenius_euler, higher_euler_poly, twisted_euler_classical
from qgen.padic import (
    DivergenceError,
    QBracketMonomial,
    SeriesParams,
    convergence_envelope_ok,
    padic_limit_check,
    real_series,
)
from qgen.qcore import DomainError, Poly, QRat, q_sym
from qgen.qeuler import (
    QEulerSpec,
    gf_eval,
    qeuler_hk,
    qeuler_hk_series,
    qeuler_twisted,
)

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
