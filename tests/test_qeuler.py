import itertools
import math
import re
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qgen import padic, qeuler
from qgen.classical import frobenius_euler, higher_euler_poly, twisted_euler_classical
from qgen.padic import (
    BudgetExceeded,
    DivergenceError,
    QBracketMonomial,
    SeriesParams,
    convergence_envelope_ok,
    padic_limit_check,
    real_series,
)
from qgen.qcore import (
    DomainError,
    Poly,
    QRat,
    gauss_binom_factorial,
    gauss_binom_triangle,
    poly_gcd,
    q_int,
    q_sym,
)
from qgen.qeuler import (
    QEulerSpec,
    gf_eval,
    qeuler_hk,
    qeuler_hk_series,
    qeuler_twisted,
)
from qgen.qgenocchi import QGenocchiSpec, qgenocchi_hk, qgenocchi_hk_series
from closed_form_reference import euler_sum_loop, window_degree
from reflection_check import reflected_equal, reflection_factor, typed_outcome
from series_kernel_reference import gauss_series, gf_series, integer_form

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
# and coprime twist factors, some reducible over Q: 4 - q^e and 1 - 4q^e
# split at even e (-1/4, -4), 4 + q^e and 1 + 4q^e when 4 divides e (1/4),
# 8 - q^e and 8q^e - 1 when 3 divides e (-1/8), 4 - 9q^e and 4q^e - 9 at
# even e (-9/4); 4 + 9q^e (9/4) never splits.
ROUTE_TWISTS = tuple(map(F, ("1", "-1", "0", "2", "-2", "1/2", "-1/4", "-4", "9/4", "3/5",
                             "1/4", "-1/8", "-9/4")))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except DomainError as exc:
        return str(exc)


class TestKnownDenominatorRoute:
    """The symbolic generator takes the known-denominator route; the
    term-by-term sum (`closed_form_reference.euler_sum_loop`) is its
    reference."""

    @given(st.integers(0, 6), st.integers(-2, 4), st.integers(1, 3), st.integers(0, 5),
           st.sampled_from(ROUTE_TWISTS), st.sampled_from((1, 6, 24)),
           st.fractions(min_value=-3, max_value=3, max_denominator=7))
    @settings(max_examples=40, deadline=None)
    def test_route_matches_general_loop_and_exact_mode(self, m, h, k, x, w, scale, q0):
        routed = _outcome(qeuler._euler_sum, m, h, k, x, w, None, scale)
        general = _outcome(euler_sum_loop, m, h, k, x, w, q_sym, scale)
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

    @given(st.integers(0, 24), st.integers(-5, 7), st.integers(1, 4), st.integers(0, 5),
           st.sampled_from(tuple(map(F, ("0", "2", "-2", "1/2", "-1/2", "2/3", "-3/5", "4",
                                         "-1/4", "7")))))
    @settings(max_examples=300, deadline=None)
    def test_twist_degree_is_the_plans(self, m, h, k, x, w):
        # at |w| != 1 the plan's degree is the O(1) one, against the window
        # loop over the rows that |w| = 1 plans run
        assert qeuler._twist_degree(m, h, k, x, w == 0) == window_degree(m, h, k, x, w) == \
            qeuler._known_denominator(m, h, k, x, w).degree

    def test_order_two_matches_general_loop_to_m_10(self):
        for m in range(11):
            spec = QEulerSpec(m=m, h=2, k=2)
            assert qeuler_hk(spec) == euler_sum_loop(m, 2, 2, 0, F(1), q_sym, 1)

    def test_order_two_m_20_has_classical_limit(self):
        assert qeuler_hk(QEulerSpec(m=20, h=2, k=2)).at_one() == higher_euler_poly(20, 2)(F(0))


# symbolic arguments other than the generator: rational functions of q, the
# generator in another variable, and constants, where a twist can make a
# factor vanish (and a negative power of 0 is outside the domain)
COMPOSED_ARGS = {
    "q^2": q_sym ** 2, "1/q": 1 / q_sym, "-q": -q_sym, "(1+q)/q": (1 + q_sym) / q_sym,
    "x": QRat(Poly([0, 1], var="x")),
    "1/2": QRat(F(1, 2)), "-3": QRat(-3), "0": QRat(0), "-1": QRat(-1),
}


class TestComposedRoute:
    """Any other symbolic argument takes the generator's reduced result
    composed at it, after the scan for a vanishing factor; the
    term-by-term sum in that argument's domain is the reference, errors and
    the first vanishing factor's (j, l) included."""

    @given(st.integers(0, 3), st.integers(-1, 3), st.integers(1, 3), st.integers(0, 2),
           st.sampled_from(sorted(COMPOSED_ARGS)), st.sampled_from((1, 6)), st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_term_by_term_sum(self, m, h, k, x, name, scale, data):
        qv = COMPOSED_ARGS[name]
        if qv.is_constant and not qv.is_zero and data.draw(st.booleans()):
            # a twist that makes one factor 1 + w q^e vanish at the constant
            w = -1 / qv.constant_value() ** data.draw(st.integers(h - k + 1, h + m))
        else:
            w = data.draw(st.sampled_from(ROUTE_TWISTS))
        assert _outcome(qeuler._euler_sum, m, h, k, x, w, qv, scale) == \
            _outcome(euler_sum_loop, m, h, k, x, w, qv, scale)

    @pytest.mark.parametrize("name", ["1/q", "q^2", "(1+q)/q", "x"])
    @pytest.mark.parametrize("w", [F(2), F(-1), F(-1, 3)])
    def test_matches_at_degree_eight(self, name, w):
        # the property stops at m = 3; QRat equality is structural, so this
        # also checks that the composition is reduced
        args = (8, 2, 2, 1, w, COMPOSED_ARGS[name], 6)
        assert qeuler._euler_sum(*args) == euler_sum_loop(*args)

    @pytest.mark.parametrize("m, h, k, x, w", [
        (1, 1, 1, 0, F(1)), (3, 2, 2, 1, F(2)), (2, -1, 3, 2, F(-1, 3)), (4, 0, 1, 0, F(0)),
    ])
    def test_constant_one_gives_the_limit(self, m, h, k, x, w):
        # at m >= 1 the closed form has a removable singularity at q = 1: the
        # term-by-term sum divides by (1 - q)^m, the reduced result does not
        one = QRat(1)
        with pytest.raises(ZeroDivisionError):
            euler_sum_loop(m, h, k, x, w, one, 1)
        assert qeuler._euler_sum(m, h, k, x, w, one) == qeuler._euler_sum(
            m, h, k, x, w, None).at_one()

    def test_constant_zero_to_a_negative_power_is_a_domain_error(self):
        # 1 + w q^(-1) at q = 0: the scan raises DomainError, as at q = 0 in
        # exact mode, not a bare ZeroDivisionError
        with pytest.raises(DomainError, match="negative power of q = 0"):
            qeuler_hk(QEulerSpec(m=0, h=0, k=2), QRat(0))

    def test_constant_one_at_degree_zero_is_the_sum(self):
        assert qeuler._euler_sum(0, 1, 2, 0, F(2), QRat(1)) == \
            euler_sum_loop(0, 1, 2, 0, F(2), QRat(1), 1) == F(4, 9)


class TestIntegerValueTest:
    """The twists whose binomial vanishes at the point X = 2^16 of the
    integer-value test: w = -X (the base q - X at e = -1) and w = -1/X
    (X - q at e = 1).  There N(X) mod P(X) is undefined, so the test must
    step aside and the polynomial tests decide."""

    POINT = 2 ** qeuler._POINT_BITS

    @pytest.mark.parametrize("w, e", [(F(-POINT), -1), (F(-1, POINT), 1)])
    def test_base_vanishes_at_the_point(self, w, e):
        base = qeuler._factor_base(w.numerator, w.denominator, ("w", e))
        assert qeuler._value_at_point(base.coeffs) == 0

    @pytest.mark.parametrize("w", [F(-POINT), F(-1, POINT)])
    @pytest.mark.parametrize("m, h, k, x", [
        (2, -1, 1, 0), (2, 1, 1, 0), (3, 0, 2, 1), (4, 2, 3, 2), (1, -1, 3, 0), (5, 1, 2, 0),
    ])
    def test_matches_the_reference(self, w, m, h, k, x):
        assert qeuler._euler_sum(m, h, k, x, w, None, 6) == euler_sum_loop(m, h, k, x, w, q_sym, 6)


def _binomial(lo, hi, e):
    return Poly([lo] + [0] * (e - 1) + [hi])


def _shares_factor(cs, key, base, value=None):
    """`qeuler._shares_factor` given cs's value at X, or `value` (0 is a
    multiple of every P(X), so it settles nothing), and cs's residues."""
    cs = tuple(cs)
    value = qeuler._value_at_point(cs) if value is None else value
    return qeuler._shares_factor(cs, key, base, value,
                                 lambda: tuple(c % qeuler._MOD_PRIME for c in cs))


def _scaled_remainder(cs, base):
    """hi^T times the remainder of cs by the binomial lo + hi q^e, T the
    top chunk of cs: the remainder whose residues `_binomial_residues`
    gives."""
    top = max(-(-len(cs) // base.degree) - 1, 0)
    return (Poly(cs) % base) * base.coeffs[-1] ** top


class TestKnownFactorTests:
    """The remainder test and the splitting rule that let the symbolic
    route skip the GCD with a known factor that shares nothing with it."""

    @pytest.mark.parametrize("lo, hi, e, factors", [
        (4, 1, 4, ([2, 2, 1], [2, -2, 1])),
        (-8, 1, 6, ([-2, 0, 1], [4, 0, 2, 0, 1])),
        (-4, 9, 2, ([-2, 3], [2, 3])),
    ])
    def test_split_binomials_may_split(self, lo, hi, e, factors):
        product = Poly([1])
        for f in factors:
            product = product * Poly(f)
        assert product == _binomial(lo, hi, e)
        assert qeuler._may_split(lo, hi, e)

    @pytest.mark.parametrize("lo, hi, e, split", [
        # q^2 + 4, q^4 - 2 and 2q^3 + 1 are irreducible
        (4, 1, 2, False), (-2, 1, 4, False), (1, 2, 3, False),
        (-3 ** 200, 1, 2, True), (-3 ** 201, 1, 2, False),
        (-(10 ** 20 + 1) ** 3, 7 ** 6, 3, True), (1 - (10 ** 20 + 1) ** 3, 1, 3, False),
        (4 * 5 ** 40, 3 ** 80, 8, True), (4 * 5 ** 40 + 1, 3 ** 80, 8, False),
    ])
    def test_split_rule(self, lo, hi, e, split):
        assert qeuler._may_split(lo, hi, e) is split

    @given(st.fractions(min_value=-5, max_value=5, max_denominator=5).filter(bool),
           st.sampled_from([2, 3, 5]), st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_capelli_factors_divide(self, t, p, k):
        # q^(pk) - t^p has the factor q^k - t, and q^(4k) + 4t^4 the factor
        # q^(2k) + 2t q^k + 2t^2, so the rule must say "may split" for both
        pad = [0] * (k - 1)
        for c, e, factor in ((t ** p, p * k, [-t, *pad, 1]),
                             (-4 * t ** 4, 4 * k, [2 * t * t, *pad, 2 * t, *pad, 1])):
            lo, hi = -c.numerator, c.denominator
            assert qeuler._may_split(lo, hi, e), (c, e)
            assert (_binomial(lo, hi, e) % Poly(factor)).is_zero

    @given(st.lists(st.integers(-10 ** 6, 10 ** 6), max_size=40),
           st.one_of(st.integers(1, 30).map(lambda d: (("phi", d), qeuler._cyclotomic(d))),
                     st.tuples(st.integers(-9, 9).filter(bool), st.integers(-9, 9).filter(bool),
                               st.integers(1, 7)).map(
                         lambda t: (("w", t[2]), _binomial(*t)))))
    @settings(max_examples=200, deadline=None)
    def test_remainder_is_scaled_divmod(self, cs, factor):
        key, base = factor
        cs = tuple(Poly(cs).coeffs)
        if key[0] == "phi":
            assert Poly(qeuler._phi_remainder(cs, key[1])) == Poly(cs) % base
            return
        # a binomial's remainder is scaled by hi^T, T the top chunk of cs,
        # and read modulo the prime, from cs or from its residues
        ell = qeuler._MOD_PRIME
        expected = Poly([c % ell for c in _scaled_remainder(cs, base).coeffs])
        assert Poly(qeuler._binomial_residues(cs, base)) == expected
        assert Poly(qeuler._binomial_residues(tuple(c % ell for c in cs), base)) == expected

    @given(st.lists(st.integers(-50, 50), min_size=1, max_size=12).filter(any),
           st.sampled_from([
               ((4, 1, 4), ([2, 2, 1], [2, -2, 1])),
               ((1, 4, 4), ([1, 2, 2], [1, -2, 2])),
               ((-1, 4, 2), ([-1, 2], [1, 2])),
               ((-4, 9, 2), ([-2, 3], [2, 3])),
               ((8, -1, 3), ([2, -1], [4, 2, 1])),
               ((-1, 8, 6), ([-1, 0, 2], [1, 0, 2, 0, 4])),
               ((2, 3, 1), ()),
               ((3, 2, 5), ()),
           ]),
           st.sampled_from([None, 0, 1]))
    @settings(max_examples=150, deadline=None)
    def test_shares_factor_matches_gcd(self, cs, binomial, pick):
        # a multiple of one irreducible factor of the binomial shares it
        (lo, hi, e), pieces = binomial
        a = Poly(cs)
        if pick is not None and pieces:
            a = a * Poly(pieces[pick])
        shared = _shares_factor(a.coeffs, ("w", e), _binomial(lo, hi, e))
        assert shared == (poly_gcd(a, _binomial(lo, hi, e)).degree > 0)

    @pytest.mark.parametrize("cs, binomial, shared", [
        ((qeuler._MOD_PRIME,), (-3, 2, 1), False),  # 2q - 3 is irreducible
        ((qeuler._MOD_PRIME, 3 * qeuler._MOD_PRIME), (-1, 4, 2), False),  # 4q^2 - 1 splits
        ((-qeuler._MOD_PRIME, 2 * qeuler._MOD_PRIME), (-1, 4, 2), True),  # 2q - 1 divides it
    ])
    def test_zero_residues_fall_back_to_exact(self, cs, binomial, shared):
        # every residue of the remainder is 0, but the remainder is not
        assert _shares_factor(cs, ("w", binomial[2]), _binomial(*binomial)) is shared

    @given(st.lists(st.integers(-10 ** 40, 10 ** 40), max_size=40),
           st.sampled_from((1, 3, 10 ** 20 + 1, -(10 ** 20 + 1), 2 ** 61 - 2373)),
           st.sampled_from((1, -7, 4, 10 ** 20 + 3, 3 * (2 ** 61 - 2373))), st.integers(1, 7))
    @settings(max_examples=150, deadline=None)
    def test_remainder_residues(self, cs, lo, hi, e):
        # the Horner on residues gives the residues of the exact remainder,
        # also when the prime divides a coefficient of the binomial
        ell, base = qeuler._MOD_PRIME, _binomial(lo, hi, e)
        exact = _scaled_remainder(tuple(Poly(cs).coeffs), base)
        residues = qeuler._binomial_residues(tuple(Poly(cs).coeffs), base)
        assert len(residues) == e
        assert Poly(residues) == Poly([r % ell for r in exact.coeffs])

    @given(st.lists(st.integers(-10 ** 30, 10 ** 30), max_size=40), st.integers(1, 9),
           st.sampled_from((1, -1)))
    @settings(max_examples=150, deadline=None)
    def test_unit_quotient_inverts_the_product(self, quo, n, sign):
        product = Poly(quo) * _binomial(sign, 1, n)
        assert Poly(qeuler._unit_quotient(product.coeffs, n, sign)) == Poly(quo)

    @given(st.lists(st.integers(-10 ** 6, 10 ** 6), max_size=12),
           st.sampled_from([
               *((("phi", d), qeuler._cyclotomic(d)) for d in (1, 2, 3, 4, 6, 12, 15, 30)),
               *((("w", e), _binomial(3, 2, e)) for e in (1, 2, 3, 4, 6)),  # irreducible
               (("w", 2), _binomial(4, -1, 2)), (("w", 4), _binomial(4, 1, 4)),  # may split
               (("w", 4), _binomial(1, 4, 4)),  # splits, with leading coefficient 4
               # P(X) = 0 at the point X of the integer-value test
               (("w", 1), _binomial(2 ** qeuler._POINT_BITS, -1, 1)),
               (("w", 1), _binomial(-2 ** qeuler._POINT_BITS, 1, 1)),
           ]),
           st.one_of(st.just([]), st.lists(st.integers(-10 ** 6, 10 ** 6), max_size=8),
                     # c times a factor of 4 - q^2, of 4 + q^4 or of 1 + 4q^4
                     st.tuples(st.sampled_from([[2, -1], [2, 1], [2, 2, 1], [2, -2, 1],
                                                [1, 2, 2], [1, -2, 2]]),
                               st.integers(-9, 9)).map(lambda t: [t[1] * c for c in t[0]])))
    @settings(max_examples=300, deadline=None)
    def test_integer_value_keeps_the_decision(self, r, factor, s):
        # N = P R + S with S below P's degree, often 0: the value N(X) only
        # settles a "no shared factor" sooner, never changes the decision
        key, base = factor
        n = base * Poly(r) + Poly(s[:base.degree])
        assume(not n.is_zero)
        shared = _shares_factor(n.coeffs, key, base)
        assert shared == _shares_factor(n.coeffs, key, base, value=0)
        assert shared == (poly_gcd(n, base).degree > 0)

    @given(st.lists(st.integers(-10 ** 6, 10 ** 6), max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_value_at_point_is_horner(self, cs):
        point = 2 ** qeuler._POINT_BITS
        assert qeuler._value_at_point(cs) == sum(c * point ** i for i, c in enumerate(cs))

    @given(st.lists(st.integers(-10 ** 20, 10 ** 20), max_size=20), st.integers(0, 5),
           st.integers(-10 ** 6, 10 ** 6).filter(bool), st.data())
    @settings(max_examples=150, deadline=None)
    def test_root_one_quotient_is_exact_div(self, r, v, c, data):
        divisor = qeuler._unit_power(v, -1)
        n = Poly(r) * divisor
        assert Poly(qeuler._root_one_quotient(n.coeffs, v)) == n.exact_div(divisor) == Poly(r)
        if v:
            # c (q - 1)^j, j < v, leaves q = 1 a root of order exactly j
            j = data.draw(st.integers(0, v - 1))
            off = n + c * qeuler._unit_power(j, -1)
            with pytest.raises(ArithmeticError):
                off.exact_div(divisor)
            with pytest.raises(ArithmeticError):
                qeuler._root_one_quotient(off.coeffs, v)

    def test_modulus_is_a_safe_prime(self):
        ell = qeuler._MOD_PRIME
        assert padic._is_prime(ell) and padic._is_prime((ell - 1) // 2)

    def test_normalize_q_shares_the_generator(self):
        assert qeuler._normalize_q(None) is q_sym
        assert qeuler._normalize_q(Poly([0, 1])) is q_sym
        other = qeuler._normalize_q(Poly([0, 1], var="x"))
        assert other is not q_sym and other.num.var == "x"


_EXACT_QS = st.fractions(min_value=-4, max_value=4, max_denominator=6).filter(
    lambda v: v not in (0, 1, -1))


class TestExactRoute:
    """A rational q takes the integer route (`_euler_sum_exact`); the
    term-by-term sum (`euler_sum_loop`) in Fractions is its reference."""

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
        assert exact == _outcome(euler_sum_loop, m, h, k, x, w, q0, scale)

    def test_degree_300(self):
        args = (300, 2, 3, 2, F(2, 3), F(-5, 4), 6)
        assert qeuler._euler_sum(*args) == euler_sum_loop(*args)

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


def _distribution_side(m, h, k, x, w, qv, d):
    """The right side of the distribution relation for odd d: the closed
    form at (w, q) from closed forms at (w^d, q^d), through
    [A + x + dY]_q = [A + x]_q + q^(A+x) [d]_q [Y]_(q^d) in each variable,
    with the weights prod_j (-w q^(h-j+1))^(a_j), a in [0, d)^k, grouped
    by A = a_1 + ... + a_k."""
    bases = [-w * qv ** (h - j + 1) for j in range(1, k + 1)]
    dist, E = padic._distribution(integer_form(bases), d, size=k * (d - 1) + 1)
    inner = [qeuler._euler_sum(i, h, k, 0, w ** d, qv ** d) for i in range(m + 1)]
    qd = q_int(d, qv)
    total = F(0)
    for A, D in enumerate(dist):
        bracket = q_int(A + x, qv)
        total += F(D, E ** A) * sum(
            math.comb(m, i) * bracket ** (m - i) * qv ** ((A + x) * i) * qd ** i * inner[i]
            for i in range(m + 1))
    return ((1 + qv) / (1 + qv ** d)) ** k * total


@st.composite
def _distribution_points(draw):
    k = draw(st.integers(1, 3))
    h = draw(st.integers(-2, k + 2))
    m = draw(st.integers(0, 8))
    qv = draw(st.fractions(min_value=-4, max_value=4, max_denominator=5).filter(
        lambda v: v not in (0, 1, -1)))
    if draw(st.booleans()):
        # a twist that makes one factor 1 + w q^e vanish
        w = -1 / qv ** draw(st.integers(h - k + 1, h + m))
    else:
        w = draw(st.one_of(st.sampled_from((F(0), F(1), F(-1))),
                           st.fractions(min_value=-4, max_value=4, max_denominator=5)))
    return m, h, k, draw(st.integers(0, 2)), w, qv, draw(st.sampled_from((3, 5)))


class TestDistributionRelation:
    """The fermionic measure is a distribution, so the closed form at
    (w, q) is a weighted sum of closed forms at (w^d, q^d), whose factor
    exponents and powers of q all differ: a route to each value with no
    accumulation in common.  For odd d, 1 + t^d vanishes at a rational t
    only where 1 + t does, so both sides raise on the same inputs.  The
    symbolic route is checked by evaluation at q, not by sums of QRats."""

    @given(_distribution_points())
    @settings(max_examples=150, deadline=None)
    def test_q_against_q_to_the_d(self, point):
        m, h, k, x, w, qv, d = point
        lhs = typed_outcome(lambda: qeuler._euler_sum(m, h, k, x, w, qv))
        rhs = typed_outcome(lambda: _distribution_side(m, h, k, x, w, qv, d))
        assert lhs == rhs
        sym = typed_outcome(lambda: qeuler._euler_sum(m, h, k, x, w, None))
        if isinstance(sym, type):  # a factor that vanishes at the generator
            assert lhs is sym
        elif not isinstance(lhs, type):
            assert sym.evaluate(qv) == lhs


@st.composite
def _reflection_points(draw):
    k = draw(st.integers(1, 3))
    h = draw(st.integers(-2, k + 2))
    m = draw(st.integers(0, 6))
    qv = draw(st.fractions(min_value=-4, max_value=4, max_denominator=5).filter(
        lambda v: v not in (0, 1, -1)))
    kind = draw(st.sampled_from(("vanishes", "may split", "other")))
    if kind == "vanishes":  # 1 + w q^e vanishes at qv on both sides
        w = -1 / qv ** draw(st.integers(h - k + 1, h + m))
    elif kind == "may split":  # 1 - 4 q^e and 4 - q^e at even e, 4 + q^e at 4 | e
        w = draw(st.sampled_from((F(-4), F(1, 4), F(-1, 4))))
    else:
        w = draw(st.one_of(st.sampled_from((F(1), F(-1))),
                           st.fractions(min_value=-4, max_value=4, max_denominator=5).filter(bool)))
    return m, h, k, draw(st.integers(0, k)), w, qv


class TestReflectionRelation:
    """The fermionic measure is symmetric under x -> -1 - x, which maps q
    to 1/q: E(m, h, k, x, w; q) = (-1)^m w^(-k) q^(-m-s) E(m, h, k, k - x,
    1/w; 1/q).  Term j of one side is term j of the other, so a vanishing
    factor vanishes on both.  An error that breaks the symmetry (a factor
    exponent, the shift, the [2]_q^k prefactor, the weight sign) shows, and
    at the generator the packed build at w = u/v meets the one at v/u,
    whose slot bounds differ.  Twists that may split test the reduction."""

    @given(_reflection_points())
    @settings(max_examples=150, deadline=None)
    def test_exact(self, point):
        m, h, k, x, w, qv = point
        lhs = typed_outcome(lambda: qeuler._euler_sum(m, h, k, x, w, qv))
        rhs = typed_outcome(lambda: qeuler._euler_sum(m, h, k, k - x, 1 / w, 1 / qv))
        if isinstance(lhs, type) or isinstance(rhs, type):
            assert lhs is rhs
            return
        c, t = reflection_factor(m, h, k, w)
        assert lhs == c * qv ** t * rhs

    @given(_reflection_points())
    @settings(max_examples=100, deadline=None)
    def test_symbolic(self, point):
        m, h, k, x, w, _ = point
        lhs = typed_outcome(lambda: qeuler._euler_sum(m, h, k, x, w, None))
        rhs = typed_outcome(lambda: qeuler._euler_sum(m, h, k, k - x, 1 / w, None))
        if isinstance(lhs, type) or isinstance(rhs, type):  # 1 - q^0 at w = -1
            assert lhs is rhs
            return
        assert reflected_equal(lhs, rhs, *reflection_factor(m, h, k, w))


class TestPackedRoute:
    """At the generator, |w| != 1 sums the closed form by the exact route's
    accumulation at q = 2^B and reads it back from B-bit slots; |w| = 1
    keeps the row build.  The term-by-term sum in Fractions at three rational
    points is the reference."""

    @pytest.mark.parametrize("m, h, k, x, w", [
        (60, 1, 2, 0, F(-(10 ** 20 + 1), 7)),  # e = 0 in the range
        (60, -2, 2, 1, F(10 ** 20 + 1, 7)),
        (60, 3, 3, 2, F(-(10 ** 20 + 1), 7)),
        (30, -2, 3, 2, F(3, 5)),
        (60, 2, 2, 0, F(3, 5)),
        (60, -1, 3, 2, F(3, 5)),
        (60, 0, 1, 1, F(0)),
        (30, -2, 3, 2, F(0)),
        (30, 0, 1, 0, F(1)),  # the row build, with 1 + q^0 = 2
        (30, 3, 3, 2, F(-1)),
    ])
    def test_matches_loop_at_rational_points(self, m, h, k, x, w):
        sym = qeuler._euler_sum(m, h, k, x, w, None, 6)
        for qv in (F(1, 3), F(-5, 2), F(7, 4)):
            assert sym.evaluate(qv) == euler_sum_loop(m, h, k, x, w, qv, 6)

    @pytest.mark.parametrize("w, route", [
        (F(1), "_row_numerator"), (F(-1), "_row_numerator"),
        (F(0), "_packed_numerator"), (F(3, 5), "_packed_numerator"),
        (F(-1, 4), "_packed_numerator"), (F(-9), "_packed_numerator"),
    ])
    def test_route_depends_on_abs_w(self, monkeypatch, w, route):
        # the row build divides by its unit binomials in `_unit_quotient`,
        # on int lists; the packed build divides nothing
        divisions = []
        exact_div, unit_quotient = Poly.exact_div, qeuler._unit_quotient
        monkeypatch.setattr(Poly, "exact_div",
                            lambda a, b: divisions.append("exact_div") or exact_div(a, b))
        monkeypatch.setattr(qeuler, "_unit_quotient",
                            lambda *args: divisions.append("unit") or unit_quotient(*args))
        counts = {}
        for name in ("_row_numerator", "_packed_numerator"):
            def build(*args, _name=name, _build=getattr(qeuler, name)):
                before = len(divisions)
                out = _build(*args)
                counts[_name] = Counter(divisions[before:])
                return out
            monkeypatch.setattr(qeuler, name, build)
        qeuler._euler_sum(12, 2, 2, 1, w, None)
        assert list(counts) == [route]
        assert counts[route]["exact_div"] == 0
        assert (counts[route]["unit"] > 0) is (route == "_row_numerator")

    @pytest.mark.parametrize("w", [F(3, 5), F(-(10 ** 20 + 1), 7), F(1), F(-1)])
    def test_denominator_needs_no_product_per_factor(self, monkeypatch, w):
        # the denominator comes out of the numerator's build: the products
        # after it are (1 + q)^(k - t), the content, and the powers of the
        # shared factors and of q - 1 by squaring, whose count grows with
        # log m, not with the number of factors
        calls = []
        mul = Poly.__mul__
        monkeypatch.setattr(Poly, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
        for name in ("_row_numerator", "_packed_numerator"):
            def build(*args, _build=getattr(qeuler, name)):
                out = _build(*args)
                calls.clear()
                return out
            monkeypatch.setattr(qeuler, name, build)
        counts = []
        for m in (20, 40):
            qeuler._euler_sum_symbolic(m, 2, 2, 0, w, 1)
            counts.append(len(calls))
        assert counts[1] <= counts[0] + 2 <= 12


_BIG = 10 ** 20
# twists: the cyclotomic ones, none, small heights, and heights about 10^20
# above and below 1 in absolute value
_REDUCTION_TWISTS = st.one_of(
    st.sampled_from((F(1), F(-1), F(0))),
    st.fractions(min_value=-4, max_value=4, max_denominator=5).filter(lambda v: abs(v) != 1),
    st.builds(lambda a, b, sign, up: sign * (F(_BIG + a, b) if up else F(b, _BIG + a)),
              st.integers(1, 9), st.sampled_from((1, 3, 7)), st.sampled_from((1, -1)),
              st.booleans()),
)
_REDUCTION_QS = (F(1, 3), F(-5, 2), F(7, 4), F(2, 3), F(-3, 7), F(5))


def _gcd_degree(num: Poly, den: Poly) -> int:
    """deg gcd(num, den) over Q.  `qeuler._coprime_mod` on the integer
    parts proves degree 0 in word-size arithmetic; otherwise `poly_gcd`
    decides (its integer remainders take minutes at twist heights near
    10^20)."""
    def ints(p):
        lcm = math.lcm(*(F(c).denominator for c in p.coeffs))
        return tuple(int(c * lcm) for c in p.coeffs)
    return 0 if qeuler._coprime_mod(ints(den), ints(num)) else poly_gcd(num, den).degree


class TestSymbolicReduction:
    """The symbolic result is reduced: its denominator, taken from the
    numerator's build and divided by the per-factor GCDs, is monic and
    coprime to the numerator.  Evaluation alone cannot tell a reduced
    pair from an unreduced one, so both are checked directly."""

    @given(st.integers(0, 12), st.integers(1, 3), st.integers(-2, 5), st.integers(0, 2),
           _REDUCTION_TWISTS, st.lists(st.sampled_from(_REDUCTION_QS), min_size=2,
                                       max_size=2, unique=True))
    # points where a factor other than q - 1 shares a root with the
    # numerator (Phi_4, Phi_3, twist factors whole or split), which random
    # draws reach about once in a hundred
    @example(4, 1, -2, 2, F(1), [F(1, 3), F(7, 4)])
    @example(1, 3, -2, 0, F(-1), [F(1, 3), F(7, 4)])
    @example(5, 2, -2, 0, F(2), [F(1, 3), F(7, 4)])
    @example(3, 2, -2, 0, F(-9), [F(-5, 2), F(7, 4)])
    @example(2, 2, -2, 2, F(-1, 4), [F(1, 3), F(7, 4)])
    @example(4, 2, -2, 2, F(1, 4), [F(1, 3), F(-5, 2)])
    # the numerator shares q + 2 with q^2 - 4, or 2q + 1 with 1 - 4q^2, and
    # is not divisible by the binomial: a test of divisibility by the whole
    # binomial alone leaves a common factor of degree 1 here
    @example(1, 3, -1, 1, F(-4), [F(1, 3), F(7, 4)])
    @example(1, 3, 2, 1, F(-4), [F(1, 3), F(7, 4)])
    @example(1, 3, 3, 2, F(-4), [F(1, 3), F(7, 4)])
    @settings(max_examples=120, deadline=None)
    def test_reduced_monic_and_exact(self, m, k, h, x, w, points):
        assume(h <= k + 2)
        sym = _outcome(qeuler._euler_sum, m, h, k, x, w, None, 1)
        if isinstance(sym, str):  # 1 - q^0 at w = -1, at every q as well
            assert sym == _outcome(qeuler._euler_sum_exact, m, h, k, x, w, points[0], 1)
            return
        assert sym.den.coeffs[-1] == 1
        assert _gcd_degree(sym.num, sym.den) == 0
        for q0 in points:
            exact = _outcome(qeuler._euler_sum_exact, m, h, k, x, w, q0, 1)
            if not isinstance(exact, str):  # q0 is not a pole of a factor
                assert sym.evaluate(q0) == exact


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
        with pytest.raises(DivergenceError, match="^boundary alternating series: use cesaro1$"):
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
        with pytest.raises(DivergenceError, match="^an effective per-variable ratio exceeds 1$"):
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

    @pytest.mark.parametrize("kind,k,w,message", [
        ("hqkw", 1, F(2), "an effective per-variable ratio exceeds 1"),
        ("fqk", 2, F(-1), "positively divergent variable (w q^(h-j+1) = -1)"),
    ])
    def test_regime_refusals(self, kind, k, w, message):
        with pytest.raises(DivergenceError, match=f"^{re.escape(message)}$"):
            gf_eval(kind, k, 0, w, QH, F(1, 2), SeriesParams(50, "cesaro1"))

    def test_boundary_is_summed_in_either_mode(self):
        # the left side is a boundary series (w = 1, a ratio -1), which
        # gf_eval always smooths by cesaro1: the direct-mode refusal of the
        # boundary does not apply, and the mode asked for changes nothing
        direct = gf_eval("hqk", 2, 0, F(1), QH, F(1, 2), SeriesParams(50, "direct"))
        assert direct == gf_eval("hqk", 2, 0, F(1), QH, F(1, 2), SeriesParams(50, "cesaro1"))

    def test_kind_validation(self):
        with pytest.raises(DomainError):
            gf_eval("nope", 1, 0, F(1), QH, F(0), SeriesParams(50, "cesaro1"))
        with pytest.raises(DomainError):
            gf_eval("hqk", 1, 1, F(1), QH, F(0), SeriesParams(50, "cesaro1"))


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
            ref = _outcome(lambda: gauss_series(spec, qv, sp))
            assert repr(got) == repr(ref), (spec, qv, sp)
            if x == 0:
                gspec = QGenocchiSpec(n=m, h=k - 1, k=k, w=w)
                got = _outcome(lambda: qgenocchi_hk_series(gspec, qv, sp))
                scale = math.factorial(k) * math.comb(m + k, k)
                ref = _outcome(lambda: tuple(scale * v
                                             for v in gauss_series(spec, qv, sp)))
                assert repr(got) == repr(ref), (gspec, qv, sp)

    @pytest.mark.parametrize("M", [1, 2])
    def test_short_truncations(self, M):
        spec = QEulerSpec(m=2, h=1, k=2, x=1, w=F(-1, 3))
        with pytest.raises(DomainError, match="cesaro1 needs at least 3 partial sums"):
            qeuler_hk_series(spec, QH, SeriesParams(M, "cesaro1"))
        with pytest.raises(DomainError, match="cesaro1 needs at least 3 partial sums"):
            qeuler_hk_series(QEulerSpec(m=1, h=0, k=1), QH, SeriesParams(M, "cesaro1"))
        got = qeuler_hk_series(spec, QH, SeriesParams(M, "direct"))
        assert repr(got) == repr(gauss_series(spec, QH, SeriesParams(M, "direct")))
        with pytest.raises(DomainError, match="cesaro1 needs at least 3 partial sums"):
            gf_eval("fqk", 1, 0, F(1), QH, F(1, 4), SeriesParams(M, "cesaro1"))

    @pytest.mark.parametrize("kind,twists,shifts", [
        ("fqk", (F(1), F(1, 2), F(0)), (0, 1, 2)),
        ("hqk", (F(1),), (0,)),
        ("hqkw", (F(1, 2), F(-1, 3)), (0,)),
    ])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_gf_eval(self, kind, twists, shifts, k):
        for w, x, t, t_terms, M in itertools.product(
                twists, shifts, (F(0), F(1, 4), F(1, 2), F(-1, 2), F(3, 7)),
                (8, 3, 2, 1, 0), (1, 2, 3, 4, 30)):
            sp = SeriesParams(M, "cesaro1")
            got = _outcome(gf_eval, kind, k, x, w, QH, t, sp, t_terms)
            ref = _outcome(gf_series, kind, k, x, w, QH, t, sp, t_terms)
            assert repr(got) == repr(ref), (w, x, t, t_terms, M)

    def test_gf_eval_one_horner_pass(self, monkeypatch):
        # the truncated exponential is one table: a pass per power of t
        # would read the distribution t_terms times
        reads = []
        prefix_sums = padic._prefix_sums

        def counted(dist, E, table, *rest):
            reads.append(len(table[0]))
            return prefix_sums(dist, E, table, *rest)

        monkeypatch.setattr(qeuler, "_prefix_sums", counted)
        for kind in ("fqk", "hqk", "hqkw"):
            reads.clear()
            gf_eval(kind, 2, 0, F(1, 2), QH, F(1, 2), SeriesParams(40, "cesaro1"), 8)
            assert reads == [40], kind

    @pytest.mark.parametrize("t_terms", [-1, -5])
    @pytest.mark.parametrize("kind", ["fqk", "hqk", "hqkw"])
    def test_gf_eval_rejects_negative_t_terms(self, kind, t_terms):
        with pytest.raises(DomainError, match="need t_terms >= 0"):
            gf_eval(kind, 2, 0, F(1, 2), QH, F(1, 2), SeriesParams(30, "cesaro1"), t_terms)


# Each Gaussian-weight series route as a function of (M, x, k, term_budget);
# q-Genocchi values have no shift.
SERIES_ROUTES = {
    "qeuler_hk_series": lambda M, x, k, b: qeuler_hk_series(
        QEulerSpec(m=1, h=k - 1, k=k, x=x), QH, SeriesParams(M, "cesaro1"), b),
    "qgenocchi_hk_series": lambda M, x, k, b: qgenocchi_hk_series(
        QGenocchiSpec(n=1, h=k - 1, k=k), QH, SeriesParams(M, "cesaro1"), b),
    "gf_eval": lambda M, x, k, b: gf_eval(
        "fqk", k, x, F(1), QH, F(1, 3), SeriesParams(M, "cesaro1"), 8, b),
}


def _series_cases(*cases):
    """Each (M, x, ...) case for each route, without a shift for q-Genocchi."""
    return [(route, *case) for route in SERIES_ROUTES for case in cases
            if route != "qgenocchi_hk_series" or case[1] == 0]


class TestSeriesBudgets:
    """The Gaussian-weight series check their M terms and the q exponent
    x + k(M - 1) against the term budget before any table is built, with
    the messages the command line prints."""

    @pytest.mark.parametrize("route,M,x,k,message", _series_cases(
        (10 ** 11, 0, 1, "100000000000 terms exceed the budget of 100000"),
        (400, 300000, 1, "q exponent 300399 exceeds the budget of 100000"),
        (50000, 0, 3, "q exponent 149997 exceeds the budget of 100000"),
    ))
    def test_refused_before_any_table(self, monkeypatch, route, M, x, k, message):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return padic._distribution(*args, **kwargs)

        monkeypatch.setattr(qeuler, "_distribution", counted)
        t0 = time.perf_counter()
        with pytest.raises(BudgetExceeded) as info:
            SERIES_ROUTES[route](M, x, k, padic.DEFAULT_TERM_BUDGET)
        assert time.perf_counter() - t0 < 1
        assert str(info.value) == message
        assert calls == []

    @pytest.mark.parametrize("route,M,x,k,top,message", _series_cases(
        # M terms bind: the q exponent 29 is below M
        (30, 0, 1, 30, "30 terms exceed the budget of 29"),
        # the q exponent x + k(M - 1) binds
        (30, 0, 2, 58, "q exponent 58 exceeds the budget of 57"),
        (30, 2, 2, 60, "q exponent 60 exceeds the budget of 59"),
    ))
    def test_budget_is_tight(self, route, M, x, k, top, message):
        SERIES_ROUTES[route](M, x, k, top)
        with pytest.raises(BudgetExceeded) as info:
            SERIES_ROUTES[route](M, x, k, top - 1)
        assert str(info.value) == message


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
            gauss = typed_outcome(lambda: qeuler_hk_series(spec, qv, sp))
            box = typed_outcome(lambda: real_series(spec.integrand(), qv, sp))
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


class TestGfEvalProperty:
    """`gf_eval` against the term-by-term reference at sampled points,
    beside the fixed grid of `TestSeriesAgainstTermByTerm`."""

    @given(st.sampled_from(["fqk", "hqk", "hqkw"]), st.integers(1, 3), st.integers(0, 2),
           _fractions(0, 1, 7), st.one_of(st.just(F(1)), _fractions(-1, 1, 5)),
           _fractions(-2, 2, 7), st.integers(0, 8), st.integers(1, 40))
    @settings(max_examples=100, deadline=None)
    def test_matches_term_by_term(self, kind, k, x, qv, w, t, t_terms, M):
        x = x if kind == "fqk" else 0
        sp = SeriesParams(M, "cesaro1")
        got = _outcome(gf_eval, kind, k, x, w, qv, t, sp, t_terms)
        ref = _outcome(gf_series, kind, k, x, w, qv, t, sp, t_terms)
        assert repr(got) == repr(ref)


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
