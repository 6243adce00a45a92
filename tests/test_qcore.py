import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgen.qcore import (
    DomainError,
    Poly,
    QRat,
    gauss_binom,
    gauss_binom_alt,
    gauss_binom_compositions,
    gauss_binom_factorial,
    gauss_binom_triangle,
    inv_pochhammer_coeff,
    parse_rat,
    pochhammer_b_coeffs,
    pochhammer_q,
    poly_gcd,
    q,
    q_bracket_neg,
    q_factorial,
    q_int,
    q_sym,
    rat_str,
)

F = Fraction


class TestPoly:
    def test_normalization_strips_trailing_zeros(self):
        assert Poly([1, 2, 0, 0]).coeffs == (F(1), F(2))
        assert Poly([0, 0]).is_zero

    def test_arithmetic(self):
        p = Poly([1, 1])
        assert p * p == Poly([1, 2, 1])
        assert p - p == Poly([])
        assert 2 * p == Poly([2, 2])
        assert (p ** 3)(F(2)) == 27

    def test_divmod_and_gcd(self):
        a = Poly([-1, 0, 1])          # q^2 - 1
        b = Poly([1, 1])              # q + 1
        quo, rem = divmod(a, b)
        assert quo == Poly([-1, 1]) and rem.is_zero
        assert poly_gcd(a, b) == Poly([1, 1])

    def test_composition_shift(self):
        p = Poly([0, 0, 1], var="x")  # x^2
        assert p.shifted(1) == Poly([1, 2, 1], var="x")

    def test_mixed_variable_guard(self):
        with pytest.raises(ValueError):
            Poly([0, 1], var="q") + Poly([0, 1], var="x")


def _polys(max_degree=5):
    coeff = st.one_of(st.integers(-9, 9), st.fractions(max_denominator=6))
    return st.lists(coeff, max_size=max_degree + 1).map(Poly)


def _canonical(p: Poly) -> bool:
    """Integral coefficients are ints, the others Fractions; never a float."""
    return all(type(c) is int or (type(c) is F and c.denominator != 1) for c in p.coeffs)


class TestCoefficientTypes:
    @given(_polys(), _polys(), st.integers(0, 3))
    @settings(max_examples=80, deadline=None)
    def test_poly_operations_stay_canonical(self, a, b, e):
        results = [a + b, a - b, a * b, a ** e, a.monic(), b.monic()]
        if not b.is_zero:
            results.extend(divmod(a, b))
        assert all(_canonical(p) for p in results)
        for p in results:
            if p.is_constant:
                assert type(p.constant_value()) is F

    @given(_polys(3), _polys(3).filter(bool), _polys(3).filter(bool), st.integers(-2, 2))
    @settings(max_examples=60, deadline=None)
    def test_qrat_operations_stay_canonical(self, a, b, c, e):
        r, s = QRat(a, b), QRat(c, b)
        results = [r + s, r - s, r * s, r / s, s ** e, r ** abs(e)]
        for v in results:
            assert _canonical(v.num) and _canonical(v.den)
            if v.is_constant:
                assert type(v.constant_value()) is F

    @given(_polys(), _polys(), _polys(3))
    @settings(max_examples=80, deadline=None)
    def test_gcd_matches_fraction_euclid(self, a, b, c):
        a, b = a * c, b * c  # a nontrivial common factor, most of the time
        ref_a, ref_b = a, b
        while not ref_b.is_zero:  # Euclid on Fraction remainders, the reference
            ref_a, ref_b = ref_b, ref_a % ref_b
        g = poly_gcd(a, b)
        assert g == ref_a.monic() and _canonical(g)
        if not g.is_zero:
            assert (a % g).is_zero and (b % g).is_zero

    def test_integral_coefficients_are_ints(self):
        p = Poly([F(4, 2), F(1, 2), "3", True])
        assert [type(c) for c in p.coeffs] == [int, F, int, int]
        assert p == Poly([2, F(1, 2), 3, 1]) and hash(p) == hash(Poly([2, F(1, 2), 3, 1]))
        with pytest.raises(TypeError):
            Poly([0.5])


class TestQRat:
    def test_reduction_is_canonical(self):
        r = QRat(Poly([0, -1]), Poly([1, 0, 1]))
        assert r == QRat(Poly([0, -2]), Poly([2, 0, 2]))
        assert r.den.coeffs[-1] == 1

    def test_limit_at_one_after_reduction(self):
        # (1 - q^5)/(1 - q) reduces so the q -> 1 evaluation exists
        r = QRat(Poly([1, 0, 0, 0, 0, -1]), Poly([1, -1]))
        assert r.at_one() == 5

    def test_pole_detected(self):
        r = QRat(Poly([1]), Poly([1, -2]))  # 1/(1 - 2q)
        with pytest.raises(DomainError):
            r.evaluate(F(1, 2))

    def test_negative_power(self):
        r = QRat(q) ** -2
        assert r == QRat(Poly([1]), Poly([0, 0, 1]))

    def test_serialization_collapses_constants(self):
        assert QRat(Poly([3]), Poly([4])).to_obj() == "3/4"
        obj = QRat(Poly([0, -1]), Poly([1, 0, 1])).to_obj()
        assert obj == {"num": ["0", "-1"], "den": ["1", "0", "1"]}


class TestRationalText:
    @pytest.mark.parametrize("text,value", [("7/4", F(7, 4)), ("-3", F(-3)), ("0", F(0))])
    def test_round_trip(self, text, value):
        assert parse_rat(text) == value
        assert rat_str(value) == text

    def test_bad_literal(self):
        with pytest.raises(DomainError):
            parse_rat("1/0")


class TestQInt:
    def test_single_term(self):
        assert q_int(1, F(7, 3)) == 1
        assert q_int(1) == Poly([1])

    def test_geometric_value(self):
        assert q_int(3, F(1, 2)) == F(7, 4)

    @pytest.mark.parametrize("n", range(21))
    def test_symbolic_limit_is_n(self, n):
        assert q_int(n, QRat(q)).at_one() == n

    def test_zero(self):
        assert q_int(0, F(1, 2)) == 0


class TestBracketNeg:
    def test_one(self):
        assert q_bracket_neg(1, F(2, 3)) == 1
        assert q_bracket_neg(1) == Poly([1])

    def test_two_symbolic(self):
        assert q_bracket_neg(2) == Poly([1, -1])

    def test_zero(self):
        assert q_bracket_neg(0, F(5)) == 0

    def test_q_minus_one_rejected(self):
        with pytest.raises(DomainError):
            q_bracket_neg(2, F(-1))


class TestQFactorial:
    def test_empty_product(self):
        assert q_factorial(0, F(1, 2)) == 1

    def test_cubic(self):
        assert q_factorial(3) == Poly([1, 2, 2, 1])

    def test_classical_value(self):
        assert q_factorial(3, QRat(q)).at_one() == 6


class TestGaussBinom:
    def test_base_cases(self):
        for n in range(6):
            assert gauss_binom(n, 0, F(1, 2)) == 1
        assert gauss_binom(3, 5) == Poly([])
        assert gauss_binom(3, -1, F(2)) == 0

    def test_four_choose_two(self):
        expected = Poly([1, 1, 2, 1, 1])
        assert gauss_binom(4, 2) == expected
        assert gauss_binom_alt(4, 2) == expected
        assert gauss_binom_factorial(4, 2) == expected
        assert gauss_binom_compositions(4, 2) == expected

    def test_classical_specialization(self):
        assert gauss_binom(4, 2, QRat(q)).at_one() == 6

    def test_routes_agree_to_twelve(self):
        tri = gauss_binom_triangle(12)
        tri_alt = gauss_binom_triangle(12, alt=True)
        for n in range(13):
            for k in range(n + 1):
                assert tri[n][k] == tri_alt[n][k]
                assert tri[n][k] == gauss_binom_factorial(n, k)
                assert tri[n][k] == gauss_binom_compositions(n, k)

    def test_symmetry_to_twenty(self):
        tri = gauss_binom_triangle(20)
        for n in range(21):
            for k in range(n + 1):
                assert tri[n][k] == tri[n][n - k]

    def test_compositions_trivial_case(self):
        for k in range(5):
            assert gauss_binom_compositions(k, k) == Poly([1])

    @given(st.integers(0, 9), st.integers(0, 9),
           st.fractions(min_value=-3, max_value=3).filter(lambda v: v != 0))
    @settings(max_examples=60, deadline=None)
    def test_evaluation_homomorphism(self, n, k, q0):
        sym = gauss_binom(n, k)
        direct = gauss_binom(n, k, q0)
        assert (sym(q0) if isinstance(sym, Poly) else sym) == direct


class TestPochhammer:
    def test_single_factor(self):
        b = F(1, 3)
        assert pochhammer_q(b, 1, F(1, 2)) == 1 - b

    def test_two_factor_expansion_in_b(self):
        # (1-b)(1-bq) = 1 - (1+q) b + q b^2
        coeffs = pochhammer_b_coeffs(2)
        assert coeffs == [Poly([1]), Poly([-1, -1]), Poly([0, 1])]

    @pytest.mark.parametrize("j", range(9))
    @pytest.mark.parametrize("k", range(9))
    def test_ratio_inversion_identity(self, j, k):
        lhs = pochhammer_q(-(q_sym ** j), k)
        rhs = pochhammer_q(-(q_sym ** (j + k - 1)), k, ratio_exponent=-1) \
            if j + k - 1 >= 0 else lhs
        assert lhs == rhs

    def test_negative_ratio_needs_nonzero_q(self):
        with pytest.raises(DomainError):
            pochhammer_q(F(1, 2), 2, F(0), ratio_exponent=-1)

    def test_signed_gaussian_expansion(self):
        for n in range(11):
            coeffs = pochhammer_b_coeffs(n)
            for k in range(n + 1):
                expect = gauss_binom(n, k) * q ** math.comb(k, 2) * (-1) ** k
                assert coeffs[k] == expect

    def test_empty_product(self):
        assert pochhammer_q(F(5), 0, F(1, 2)) == 1


class TestInvPochhammer:
    def test_constant_term(self):
        for n in range(1, 6):
            assert inv_pochhammer_coeff(n, 0, F(1, 2)) == 1

    def test_weight_value(self):
        assert inv_pochhammer_coeff(2, 2) == Poly([1, 1, 1])

    @pytest.mark.parametrize("n", range(1, 6))
    def test_truncated_reciprocal_identity(self, n):
        depth = 12
        prod = pochhammer_b_coeffs(n)
        inv = [inv_pochhammer_coeff(n, k) for k in range(depth + 1)]
        for d in range(depth + 1):
            acc = q * 0
            for i in range(min(d, n) + 1):
                acc = acc + prod[i] * inv[d - i]
            assert acc == (q ** 0 if d == 0 else q * 0)
