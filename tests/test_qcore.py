import functools
import math
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qgen import qcore
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


def _term_by_term(p: Poly, point):
    """The reference: Horner's rule in the point's own arithmetic (Fraction,
    Poly or QRat), one operation and one reduction per coefficient."""
    acc = point * 0
    for c in reversed(p.coeffs):
        acc = acc * point + c
    return acc


_POINTS = st.one_of(st.integers(-30, 30), st.fractions(max_denominator=40),
                    st.fractions(min_value=-10**20, max_value=10**20, max_denominator=10**20))


class TestRationalEvaluation:
    """`Poly.__call__` at a rational point is one integer Horner pass over a
    common denominator, and `shifted` an integer Taylor shift."""

    @given(_polys(8), _POINTS, st.sampled_from(["int", "str", "fraction"]))
    @settings(max_examples=150, deadline=None)
    def test_call_matches_fraction_horner(self, p, x, form):
        x = F(x)
        point = {"int": x.numerator, "str": f"{x.numerator}/{x.denominator}",
                 "fraction": x}[form]
        if form == "int":
            x = F(x.numerator)
        value = p(point)
        assert type(value) is F and value == _term_by_term(p, x)

    def test_zero_polynomial_and_int_points(self):
        assert Poly([])(F(3, 7)) == 0 and type(Poly([])(5)) is F
        assert Poly([1, 2, 3])(2) == F(17) and type(Poly([1, 2, 3])(2)) is F
        assert Poly([F(1, 2), 0, F(-1, 3)])("3/2") == F(1, 2) - F(3, 4)

    def test_polynomial_and_qrat_points_compose(self):
        p = Poly([1, F(1, 2), 3])
        assert p(q + 1) == Poly([F(9, 2), F(13, 2), 3])
        assert p(QRat(Poly([1]), q)) == QRat(Poly([3, F(1, 2), 1]), q * q)

    @given(_polys(8), _POINTS, _POINTS)
    @settings(max_examples=120, deadline=None)
    def test_shift_evaluates_at_the_shifted_point(self, p, x, a):
        shifted = p.shifted(a)
        assert _canonical(shifted) and shifted.var == p.var
        assert shifted(F(x)) == p(F(x) + F(a))
        assert shifted.shifted(-F(a)) == p

    def test_shift_by_rational_and_string(self):
        p = Poly([0, 0, 1], var="x")
        assert p.shifted("1/2") == Poly([F(1, 4), 1, 1], var="x")
        assert p.shifted(0) == p and Poly([]).shifted(3) == Poly([])


def _qrats(max_degree=2, var="q"):
    return st.tuples(_polys(max_degree), _polys(max_degree).filter(bool)).map(
        lambda nd: QRat(Poly(nd[0].coeffs, var), Poly(nd[1].coeffs, var)))


_SYMBOLIC_POINTS = st.one_of(
    _polys(2),
    _polys(2).map(lambda p: Poly(p.coeffs, "x")),
    _qrats(),
    _qrats(var="x"),
)


class TestOneHornerPass:
    """`Poly.__call__` and `QRat.evaluate` run one homogenized Horner pass at
    a rational, a Poly or a QRat point, and equal a term-by-term Horner in
    the point's own arithmetic (`Poly.__call__` at a rational point is
    `TestRationalEvaluation`'s)."""

    @given(_polys(5), _SYMBOLIC_POINTS)
    @settings(max_examples=150, deadline=None)
    def test_poly_call_matches_term_by_term(self, p, point):
        value, expected = p(point), _term_by_term(p, point)
        assert type(value) is type(expected) and value == expected
        if isinstance(point, Poly):
            assert value.var == expected.var and _canonical(value)

    @given(_qrats(3), st.one_of(_POINTS.map(F), _SYMBOLIC_POINTS))
    @settings(max_examples=150, deadline=None)
    def test_qrat_evaluate_matches_term_by_term(self, r, point):
        num, den = _term_by_term(r.num, point), _term_by_term(r.den, point)
        if den == 0:  # a symbolic point makes den vanish only as a constant
            at = point if isinstance(point, F) else point.constant_value()
            with pytest.raises(DomainError, match=f"pole at q = {rat_str(at)}"):
                r.evaluate(point)
            return
        if isinstance(point, F):
            expected = num / den
        else:
            expected = QRat._coerce(num) / QRat._coerce(den)
        value = r.evaluate(point)
        assert type(value) is type(expected) and value == expected
        if isinstance(value, QRat):
            assert _canonical(value.num) and _canonical(value.den)

    def test_composition_at_the_inverse_and_a_constant(self):
        r = QRat(Poly([1, 0, 0, 0, 0, -1]), Poly([1, -1]))  # [5]_q
        assert r.evaluate(QRat(Poly([1]), q)) == QRat(Poly([1, 1, 1, 1, 1]), Poly([0, 0, 0, 0, 1]))
        assert r.evaluate(QRat(1)) == 5 == r.at_one()
        assert r.evaluate(Poly([0, 0, 1])) == QRat(Poly([1, 0, 1, 0, 1, 0, 1, 0, 1]))

    @pytest.mark.parametrize("point", [1, QRat(1), Poly([1]), Poly([1], "x")])
    def test_one_pole_error_at_every_point(self, point):
        with pytest.raises(DomainError, match="^pole at q = 1$"):
            QRat(Poly([1]), Poly([-1, 1])).evaluate(point)

    def test_a_point_outside_the_rationals_is_refused(self):
        for f in (Poly([1, 2]), QRat(Poly([1]), q)):
            with pytest.raises(TypeError, match="cannot interpret 0.5 as an exact rational"):
                f(0.5) if isinstance(f, Poly) else f.evaluate(0.5)


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

    def test_scalar_side_takes_the_poly_sides_variable(self):
        x = Poly((0, 1), "x")
        assert repr(QRat(x)).endswith("var='x'))")
        r = QRat(1, x)
        assert (r.num.var, r.den.var) == ("x", "x")
        assert repr(QRat([1, 2])) == "QRat(Poly([1, 2], var='q'), Poly([1], var='q'))"

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

    @pytest.mark.parametrize("q0", [F(1, 2), F(-2, 3), F(3), F(-1), F(1)])
    def test_mirrored_row_at_rational_q(self, q0):
        # the mirrored recursion in Fraction arithmetic, against the
        # primary form's triangle and the integer quotient
        tri = gauss_binom_triangle(9, q0)
        tri_alt = gauss_binom_triangle(9, q0, alt=True)
        for n in range(10):
            for k in range(n + 1):
                alt = gauss_binom_alt(n, k, q0)
                assert type(alt) is F and alt == tri[n][k] == tri_alt[n][k]
                assert alt == gauss_binom(n, k, q0), (n, k)

    def test_factorial_quotient_at_a_polynomial(self):
        # q^2 is not the generator, so the three q-factorials are built and
        # divided as polynomials; the result is the generator's entry
        # composed at q^2
        for n in range(9):
            for k in range(n + 1):
                entry = gauss_binom_factorial(n, k, q ** 2)
                assert entry == gauss_binom(n, k)(q ** 2) and _canonical(entry), (n, k)
                assert QRat(gauss_binom(n, k)).evaluate(q ** 2) == entry

    def test_symmetry_to_twenty(self):
        tri = gauss_binom_triangle(20)
        for n in range(21):
            for k in range(n + 1):
                assert tri[n][k] == tri[n][n - k]

    def test_compositions_trivial_case(self):
        for k in range(5):
            assert gauss_binom_compositions(k, k) == Poly([1])

    @given(st.integers(0, 9), st.integers(0, 9),
           st.one_of(st.integers(-3, 3), st.fractions(min_value=-3, max_value=3)))
    @example(7, 3, 0)
    @example(7, 3, 2)
    @example(8, 4, F(-2, 3))
    @settings(max_examples=60, deadline=None)
    def test_evaluation_homomorphism(self, n, k, q0):
        # the symbolic entry and the telescoped quotient at q0 against the
        # additive recursion, an independent route, at q0 = 0 and integer
        # q0 as well
        sym = gauss_binom(n, k)
        direct = gauss_binom(n, k, q0)
        recursion = gauss_binom_triangle(n, q0)[n][k] if k <= n else 0
        assert (sym(q0) if isinstance(sym, Poly) else sym) == direct == recursion


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


# ------------------------------------------------ integer kernel references

def _schoolbook_mul(a: Poly, b: Poly) -> Poly:
    """The coefficient-by-coefficient product: the reference for
    `Poly.__mul__`, whose integer operands above a cutoff take the
    Kronecker route and whose monomials take a shift and a scale."""
    if a.is_zero or b.is_zero:
        return Poly()
    out = [0] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, ca in enumerate(a.coeffs):
        for j, cb in enumerate(b.coeffs):
            out[i + j] += ca * cb
    return Poly(out)


def _long_divmod(a: Poly, b: Poly):
    """Long division with a Fraction quotient per step: the reference for
    `divmod`, whose integer dividends over a unit-lead divisor stay in ints."""
    rem = [F(c) for c in a.coeffs]
    quo = [F(0)] * max(len(rem) - len(b.coeffs) + 1, 0)
    while len(rem) >= len(b.coeffs) and rem:
        shift = len(rem) - len(b.coeffs)
        factor = rem[-1] / b.coeffs[-1]
        quo[shift] = factor
        for i, c in enumerate(b.coeffs):
            rem[shift + i] -= factor * c
        while rem and rem[-1] == 0:
            rem.pop()
    return Poly(quo), Poly(rem)


@functools.lru_cache(maxsize=None)
def _poly_triangle(n: int, alt: bool) -> list:
    """Rows 0..n of the Gaussian triangle by the Poly recursion with powers
    of q and reference products, with no symmetry."""
    one = Poly([1])
    qpows = [Poly([0] * j + [1]) for j in range(n + 1)]
    rows = [[one]]
    for m in range(1, n + 1):
        prev, row = rows[-1], [one]
        for j in range(1, m):
            if alt:
                row.append(_schoolbook_mul(qpows[m - j], prev[j - 1]) + prev[j])
            else:
                row.append(prev[j - 1] + _schoolbook_mul(qpows[j], prev[j]))
        rows.append(row + [one])
    return rows


BIG = 2 ** 70
CUT = qcore._KRONECKER_MIN


def _int_coeffs(max_size=3 * CUT):
    return st.lists(st.integers(-BIG, BIG), max_size=max_size)


def _monomials():
    coeff = st.one_of(st.integers(-BIG, BIG), st.fractions(max_denominator=9)).filter(bool)
    return st.tuples(st.integers(0, 20), coeff).map(lambda sc: Poly([0] * sc[0] + [sc[1]]))


class TestKroneckerMultiply:
    @given(_int_coeffs(), _int_coeffs())
    @settings(max_examples=120, deadline=None)
    def test_signed_ints_match_reference(self, a, b):
        a, b = Poly(a), Poly(b)
        product = a * b
        assert product == _schoolbook_mul(a, b) and _canonical(product)
        assert all(type(c) is int for c in product.coeffs)

    @given(st.lists(st.integers(-BIG, BIG), min_size=1, max_size=2 * CUT).filter(lambda c: c[-1]),
           st.lists(st.integers(-BIG, BIG), min_size=1, max_size=2 * CUT).filter(lambda c: c[-1]))
    @settings(max_examples=80, deadline=None)
    def test_kernel_at_every_length(self, a, b):
        # the kernel itself, also below the cutoff the product never routes it at
        assert qcore._kronecker_mul(tuple(a), tuple(b)) == _schoolbook_mul(Poly(a), Poly(b)).coeffs

    @pytest.mark.parametrize("bits", [7, 8, 15, 16, 63, 64, 200])
    @pytest.mark.parametrize("n", [CUT, CUT + 1, 3 * CUT])
    def test_slot_boundaries(self, bits, n):
        # extreme coefficients of both signs put product coefficients at the
        # edge of a byte-aligned slot
        for lo, hi in ((-(2 ** bits), 2 ** bits - 1), (2 ** bits - 1, 2 ** bits - 1),
                       (-(2 ** bits), -(2 ** bits))):
            a = Poly([lo, hi] * n)
            b = Poly([hi, lo] * n)
            assert a * b == _schoolbook_mul(a, b)
            assert a * a == _schoolbook_mul(a, a)

    @given(_monomials(), _polys(3 * CUT))
    @settings(max_examples=60, deadline=None)
    def test_monomial_is_shift_and_scale(self, mono, p):
        for product in (mono * p, p * mono):
            assert product == _schoolbook_mul(mono, p) and _canonical(product)

    @given(_polys(3 * CUT), _polys(3 * CUT))
    @settings(max_examples=60, deadline=None)
    def test_mixed_int_and_fraction(self, a, b):
        product = a * b
        assert product == _schoolbook_mul(a, b) and _canonical(product)

    def test_zero_and_cutoff_lengths(self):
        for la in (0, 1, CUT, CUT + 1, 2 * CUT):
            for lb in (0, 1, CUT, CUT + 1, 2 * CUT):
                a = Poly([(-3) ** i for i in range(la)])
                b = Poly([7 - i for i in range(lb)])
                assert a * b == _schoolbook_mul(a, b)

    def test_power(self):
        p = Poly([1, -2, 0, 5] * 5)
        for e in range(6):
            ref = Poly([1])
            for _ in range(e):
                ref = _schoolbook_mul(ref, p)
            assert p ** e == ref


def _unit_divisors():
    lead = st.sampled_from([1, -1])
    return st.tuples(st.lists(st.integers(-BIG, BIG), max_size=12), lead).map(
        lambda cl: Poly(cl[0] + [cl[1]]))


class TestIntegerDivmod:
    @given(_int_coeffs(), _unit_divisors())
    @settings(max_examples=120, deadline=None)
    def test_unit_lead_matches_reference(self, a, d):
        a = Poly(a)
        quo, rem = divmod(a, d)
        assert (quo, rem) == _long_divmod(a, d)
        assert all(type(c) is int for c in quo.coeffs + rem.coeffs)
        assert _canonical(quo) and _canonical(rem)

    @given(_int_coeffs(), st.lists(st.integers(-9, 9), max_size=6),
           st.integers(2, 9).flatmap(lambda v: st.sampled_from([v, -v])))
    @settings(max_examples=80, deadline=None)
    # integral quotient coefficients first, then a Fraction one, after which
    # the division goes on in Fractions; the last leaves a remainder
    # coefficient that is a Fraction of denominator 1 until `Poly` wraps it
    @example([0, 1, 2], [0], 2)
    @example([1, 4, 2], [1], 2)
    @example([0, 2, 3, 2], [1], 2)
    @example([5, 0, 7, 6, -3], [2, 1], -3)
    @example([3, 1, 2], [2], 2)
    def test_non_unit_lead_matches_reference(self, a, low, lead):
        a, d = Poly(a), Poly(low + [lead])
        quo, rem = divmod(a, d)
        assert (quo, rem) == _long_divmod(a, d)
        assert _canonical(quo) and _canonical(rem)

    @given(_int_coeffs(2 * CUT).filter(any), st.lists(st.integers(-9, 9), max_size=6),
           st.integers(2, 9).flatmap(lambda v: st.sampled_from([v, -v])))
    @settings(max_examples=60, deadline=None)
    def test_exact_non_unit_lead_stays_int(self, a, low, lead):
        a, d = Poly(a), Poly(low + [lead])
        quo = (a * d).exact_div(d)
        assert quo == a and all(type(c) is int for c in quo.coeffs)

    @given(_polys(20), _polys(6).filter(bool))
    @settings(max_examples=60, deadline=None)
    def test_fraction_dividends_match_reference(self, a, d):
        assert divmod(a, d) == _long_divmod(a, d)

    @given(_int_coeffs(2 * CUT).filter(any), _unit_divisors().filter(lambda d: d.degree > 0))
    @settings(max_examples=60, deadline=None)
    def test_exact_division(self, a, d):
        a = Poly(a)
        assert (a * d).exact_div(d) == a
        off = a * d + Poly([1])  # a nonzero remainder of degree 0 < deg d
        with pytest.raises(ArithmeticError):
            off.exact_div(d)
        with pytest.raises(ArithmeticError):
            (a * d * 2 + 1).exact_div(d * 2)


class TestGaussianTriangleKernel:
    def test_rows_match_poly_recursion_to_forty(self):
        for alt in (False, True):
            assert gauss_binom_triangle(40, alt=alt) == _poly_triangle(40, alt)

    @pytest.mark.parametrize("alt", [False, True])
    def test_rows_match_compositions_to_twelve(self, alt):
        tri = gauss_binom_triangle(12, alt=alt)
        for n in range(13):
            for k in range(n + 1):
                assert tri[n][k] == gauss_binom_compositions(n, k)

    def test_mirrored_form_is_symmetric(self):
        # the primary form builds its upper half by symmetry; the mirrored
        # form does not, so only it can show an asymmetry
        tri = gauss_binom_triangle(30, alt=True)
        for n in range(31):
            for k in range(n + 1):
                assert tri[n][k] == tri[n][n - k]

    @given(st.integers(0, 40).flatmap(lambda n: st.tuples(st.just(n), st.integers(-1, n + 1))))
    @settings(max_examples=40, deadline=None)
    def test_cut_rows_match_full_triangle(self, nk):
        n, k = nk
        full = _poly_triangle(40, False)[n][k] if 0 <= k <= n else Poly()
        assert gauss_binom(n, k) == full and gauss_binom_alt(n, k) == full
        assert _canonical(gauss_binom(n, k))

    def test_factorial_quotient_equals_triangle(self):
        # the telescoped product at the generator, against the reference
        # triangle at every entry up to n = 40
        tri = _poly_triangle(40, False)
        for n in range(41):
            for k in range(n + 1):
                entry = gauss_binom_factorial(n, k)
                assert entry == tri[n][k] and _canonical(entry), (n, k)

    @pytest.mark.parametrize("qv", [F(-1), F(1), F(1, 2)])
    def test_factorial_quotient_at_rational_q(self, qv):
        # a rational q keeps the three q-factorials and one division; at
        # q = -1 [2]_q! = 0, so only the quotients without it exist
        at_minus_one = {(0, 0): 1, (1, 0): 1, (1, 1): 1, (2, 1): 0}
        for n in range(7):
            for k in range(n + 1):
                if qv == -1 and (n, k) not in at_minus_one:
                    with pytest.raises(DomainError, match="q-factorial quotient undefined"):
                        gauss_binom_factorial(n, k, qv)
                    continue
                value = gauss_binom_factorial(n, k, qv)
                expected = (at_minus_one[n, k] if qv == -1 else
                            math.comb(n, k) if qv == 1 else gauss_binom(n, k)(qv))
                assert type(value) is F and value == expected, (n, k)

    def test_symbolic_entry_within_degree_budget(self):
        # k(n - k) = 40000 is within the default degree budget; the cut-off
        # triangle took tens of seconds for this entry, the telescoped
        # quotient takes about one
        start = time.perf_counter()
        entry = gauss_binom(400, 200)
        assert time.perf_counter() - start < 10
        assert entry.degree == 200 * 200 and _canonical(entry)
        assert entry(1) == math.comb(400, 200)
        assert entry(F(1, 2)) == gauss_binom_factorial(400, 200, F(1, 2))

    def test_other_variable(self):
        x = Poly([0, 1], var="x")
        entry = gauss_binom(6, 3, x)
        assert entry.var == "x" and entry == gauss_binom(6, 3)
        assert q_int(4, x).var == "x"

    @pytest.mark.parametrize("n", range(8))
    def test_q_int_is_all_ones(self, n):
        assert q_int(n).coeffs == (1,) * n
        assert all(type(c) is int for c in q_int(n).coeffs)

