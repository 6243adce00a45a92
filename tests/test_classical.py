from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgen import classical, qcore, verify
from qgen.classical import (
    ExpSeries,
    bernoulli,
    euler_number,
    euler_poly,
    frobenius_euler,
    frobenius_euler_poly,
    genocchi,
    genocchi_poly,
    higher_euler_number,
    higher_euler_poly,
    higher_genocchi,
    twisted_euler_classical,
    twisted_genocchi_classical,
    x,
)
from qgen.qcore import DomainError, Poly, falling

F = Fraction

# literature anchors; the library itself derives everything from the
# generating functions
EULER_AT_ZERO = [F(1), F(-1, 2), F(0), F(1, 4), F(0), F(-1, 2), F(0), F(17, 8),
                 F(0), F(-31, 2), F(0), F(691, 4)]
BERNOULLI = [F(1), F(-1, 2), F(1, 6), F(0), F(-1, 30), F(0), F(1, 42), F(0),
             F(-1, 30), F(0), F(5, 66), F(0), F(-691, 2730)]
GENOCCHI = [F(0), F(1), F(-1), F(0), F(1), F(0), F(-3), F(0), F(17), F(0),
            F(-155), F(0), F(2073)]


class TestExpSeries:
    def test_product_is_binomial_convolution(self):
        e = ExpSeries.exp_linear(F(1), 6)
        sq = e * e                      # e^t * e^t = e^{2t}
        assert [sq.coeff(n) for n in range(7)] == [F(2) ** n for n in range(7)]

    def test_reciprocal(self):
        e = ExpSeries.exp_linear(F(1), 8)
        prod = e * e.reciprocal()
        assert prod.coeff(0) == 1
        assert all(prod.coeff(n) == 0 for n in range(1, 9))

    def test_shift_t(self):
        e = ExpSeries.exp_linear(F(1), 5).shift_t()   # t e^t
        assert [e.coeff(n) for n in range(6)] == [0, 1, 2, 3, 4, 5]

    @pytest.mark.parametrize("e", range(6))
    def test_power_is_repeated_product(self, e, monkeypatch):
        s = ExpSeries([F(3), F(-1, 2), F(2, 3), F(5), F(-7, 4)], 4)
        expect = ExpSeries([F(1)], 4)
        for _ in range(e):
            expect = expect * s
        products = []
        mul = ExpSeries.__mul__
        monkeypatch.setattr(ExpSeries, "__mul__",
                            lambda a, b: products.append(1) or mul(a, b))
        assert (s ** e).c == expect.c
        # squaring: no product by the unit series, no squaring past the top bit
        assert len(products) == max(0, e.bit_length() + bin(e).count("1") - 2)

    def test_negative_power_rejected(self):
        with pytest.raises(DomainError):
            ExpSeries([F(1), F(1)], 1) ** -1
        with pytest.raises(DomainError):
            higher_euler_number(3, -1)
        with pytest.raises(DomainError):
            higher_genocchi(3, -1)


class TestEuler:
    @pytest.mark.parametrize("n,value", list(enumerate(EULER_AT_ZERO)))
    def test_numbers(self, n, value):
        assert euler_number(n) == value

    def test_first_polynomial(self):
        assert euler_poly(1) == Poly([F(-1, 2), 1], var="x")

    def test_polys_are_monic_of_degree_n(self):
        for n in range(9):
            p = euler_poly(n)
            assert p.degree == n and p.coeffs[-1] == 1

    def test_complementarity(self):
        for n in range(16):
            e = euler_poly(n)
            assert e.shifted(1) + e == 2 * x ** n


class TestHigherEuler:
    def test_order_zero_coefficient(self):
        for r in (1, 2, 3, 4):
            assert higher_euler_poly(0, r) == Poly([1], var="x")

    @pytest.mark.parametrize("r", [1, 2, 3, 5])
    def test_first_coefficient(self, r):
        assert higher_euler_number(1, r) == F(-r, 2)

    def test_second_order_anchor(self):
        assert higher_euler_number(2, 2) == F(1, 2)

    def test_order_one_reduces(self):
        for n in range(13):
            assert higher_euler_poly(n, 1) == euler_poly(n)


class TestGenocchi:
    @pytest.mark.parametrize("n,value", list(enumerate(GENOCCHI)))
    def test_numbers(self, n, value):
        assert genocchi(n) == value

    def test_odd_vanishing(self):
        for n in range(3, 20, 2):
            assert genocchi(n) == 0

    def test_euler_moment_relation(self):
        for n in range(13):
            assert genocchi(n + 1) == (n + 1) * euler_number(n)

    def test_polynomials(self):
        assert genocchi_poly(1) == Poly([1], var="x")
        assert genocchi_poly(2) == Poly([-1, 2], var="x")
        for n in range(1, 10):
            assert genocchi_poly(n) == n * euler_poly(n - 1)


class TestHigherGenocchi:
    def test_vanishing_prefix(self):
        for r in range(1, 6):
            for j in range(r):
                assert higher_genocchi(j, r) == 0

    def test_diagonal_is_factorial(self):
        import math
        for r in range(1, 6):
            assert higher_genocchi(r, r) == math.factorial(r)

    def test_anchor(self):
        assert higher_genocchi(4, 2) == 6

    def test_falling_factorial_relation(self):
        for r in range(1, 5):
            for n in range(11):
                assert higher_genocchi(n + r, r) == falling(n + r, r) * higher_euler_number(n, r)

    def test_order_one_reduces(self):
        for n in range(13):
            assert higher_genocchi(n, 1) == genocchi(n)


class TestBernoulli:
    @pytest.mark.parametrize("n,value", list(enumerate(BERNOULLI)))
    def test_numbers(self, n, value):
        assert bernoulli(n) == value

    def test_genocchi_identity_even(self):
        for n in range(0, 21, 2):
            assert genocchi(n) == 2 * (1 - F(2) ** n) * bernoulli(n)

    def test_six_anchor(self):
        assert 2 * (1 - F(2) ** 6) * bernoulli(6) == F(-3) == genocchi(6)

    def test_recurrence_matches_series_reciprocal(self):
        # t/(e^t - 1) as the reciprocal of sum t^k/(k+1)!, over Fractions;
        # read cold from 60 down and warm from 0 up
        series = ExpSeries([F(1, k + 1) for k in range(61)], 60).reciprocal()
        qcore._MEMO.clear()
        assert [bernoulli(n) for n in range(60, -1, -1)] == series.c[::-1]
        assert [bernoulli(n) for n in range(61)] == series.c


class TestFrobeniusEuler:
    def test_constant(self):
        assert frobenius_euler(0, F(3)) == 1

    def test_linear(self):
        for u in (F(2), F(-2), F(1, 3)):
            assert frobenius_euler(1, u) == 1 / (u - 1)

    def test_u_minus_one_gives_euler(self):
        for n in range(13):
            assert frobenius_euler(n, F(-1)) == euler_number(n)

    def test_u_one_rejected(self):
        with pytest.raises(DomainError):
            frobenius_euler(3, F(1))

    def test_poly_at_zero(self):
        for u in (F(2), F(-2), F(1, 3)):
            for n in range(11):
                assert frobenius_euler_poly(n, u)(F(0)) == frobenius_euler(n, u)


class TestTwistedClassical:
    def test_w_one_is_euler(self):
        for n in range(11):
            assert twisted_euler_classical(n, F(1)) == euler_number(n)

    def test_constant_value(self):
        for w in (F(1, 2), F(2), F(1, 3)):
            assert twisted_euler_classical(0, w) == 2 / (w + 1)

    def test_linear_anchor(self):
        assert twisted_euler_classical(1, F(1, 2)) == F(-4, 9)

    def test_alternating_series_oracle(self):
        # E_n(w) = 2 sum (-w)^m m^n for |w| < 1, truncated with a ratio
        # majorant tail bound
        for w in (F(1, 2), F(1, 3)):
            for n in range(6):
                M = 80
                total = sum((-w) ** m * F(m) ** n for m in range(M))
                r_hat = w * F(M + 1, M) ** n
                tail = 2 * F(M) ** n * w ** M / (1 - r_hat)
                assert abs(2 * total - twisted_euler_classical(n, w)) <= tail

    def test_domain_guards(self):
        with pytest.raises(DomainError):
            twisted_euler_classical(2, F(-1))
        with pytest.raises(DomainError):
            twisted_euler_classical(2, F(0))

    def test_twisted_genocchi(self):
        for n in range(1, 9):
            assert twisted_genocchi_classical(n, F(1)) == genocchi(n)
        assert twisted_genocchi_classical(0, F(1, 2)) == 0
        for n in range(1, 7):
            for w in (F(1, 2), F(2)):
                assert twisted_genocchi_classical(n, w) == n * twisted_euler_classical(n - 1, w)


# ---------------------------------------------------------------------------
# The library extracts every sequence with integer numerators over powers of
# one denominator.  These references run the same generating functions
# through `ExpSeries` over Fraction, with e^{xt} carried as Poly
# coefficients, the way the library computed them before; every public
# function must agree with them exactly.

def _euler_base(order):
    """2/(e^t + 1)."""
    return ExpSeries([F(2)] + [F(1)] * order, order).reciprocal().scale(F(2))


def _frobenius_base(u, order):
    """(1 - u)/(e^t - u)."""
    return ExpSeries([1 - u] + [F(1)] * order, order).reciprocal().scale(1 - u)


def _times_exp_x(s):
    """s(t) e^{xt}."""
    return s * ExpSeries.exp_linear(x, s.order)


def _xpoly(v):
    return v if isinstance(v, Poly) else Poly((v,), "x")


def _shifted(s, times):
    for _ in range(times):
        s = s.shift_t()
    return s


RATIONALS = st.fractions(min_value=-4, max_value=4, max_denominator=9)


class TestIntegerKernel:
    @given(st.integers(0, 30), st.integers(0, 5))
    @settings(max_examples=40, deadline=None)
    def test_euler_and_genocchi_families(self, n, r):
        base = _euler_base(n)
        power = base ** r
        assert euler_number(n) == base.coeff(n)
        assert higher_euler_number(n, r) == power.coeff(n)
        assert genocchi(n) == base.shift_t().coeff(n)
        assert higher_genocchi(n, r) == _shifted(power, r).coeff(n)
        assert euler_poly(n) == _xpoly(_times_exp_x(base).coeff(n))
        assert higher_euler_poly(n, r) == _xpoly(_times_exp_x(power).coeff(n))
        assert genocchi_poly(n) == _xpoly(_times_exp_x(base).shift_t().coeff(n))

    @given(st.integers(0, 30))
    @settings(max_examples=20, deadline=None)
    def test_bernoulli(self, n):
        series = ExpSeries([F(1, k + 1) for k in range(n + 1)], n)  # (e^t - 1)/t
        assert bernoulli(n) == series.reciprocal().coeff(n)

    @given(st.integers(0, 30), RATIONALS.filter(lambda u: u != 1))
    @settings(max_examples=40, deadline=None)
    def test_frobenius_euler(self, n, u):
        base = _frobenius_base(u, n)
        assert frobenius_euler(n, u) == base.coeff(n)
        assert frobenius_euler_poly(n, u) == _xpoly(_times_exp_x(base).coeff(n))

    @given(st.integers(0, 30), RATIONALS.filter(lambda w: w not in (0, -1)))
    @settings(max_examples=40, deadline=None)
    def test_twisted(self, n, w):
        # 2/(w e^t + 1) = 2/(w + 1) * H(-1/w)
        base = _frobenius_base(-1 / w, n).scale(2 / (w + 1))
        assert twisted_euler_classical(n, w) == base.coeff(n)
        assert twisted_genocchi_classical(n, w) == base.shift_t().coeff(n)


class TestVerifySuiteIsIndependent:
    """`verify classical` compares the library with a binomial recurrence
    of its own, so a fault in the integer kernel that both sides of a
    self-restating check would share still fails the check."""

    @staticmethod
    def _checks():
        return verify.run_suites(["classical"], verify.VerifyConfig())["suites"][0]["checks"]

    @staticmethod
    def _verdicts(monkeypatch, name, corrupt):
        orig = getattr(classical, name)
        monkeypatch.setattr(classical, name, lambda *args: corrupt(orig(*args), *args))
        return {c["name"]: c["ok"] for c in TestVerifySuiteIsIndependent._checks()}

    def test_clean_library_passes(self):
        assert all(c["ok"] for c in self._checks())

    def test_euler_kernel_fault(self, monkeypatch):
        def corrupt(nums, order):
            return nums[:5] + [nums[5] + 2] + nums[6:] if order >= 5 else nums
        verdicts = self._verdicts(monkeypatch, "_euler_nums", corrupt)
        assert not verdicts["genocchi-identities"]
        assert not verdicts["order-one-reduction"]

    def test_higher_order_kernel_fault(self, monkeypatch):
        def corrupt(nums, n, r):
            return nums[:3] + [nums[3] + 1] + nums[4:] if r > 1 and n >= 3 else nums
        verdicts = self._verdicts(monkeypatch, "_higher_euler_nums", corrupt)
        assert not verdicts["higher-genocchi-euler-coefficients"]


# ---------------------------------------------------------------------------
# Every base series and Euler power is one table in the shared memo, kept by
# its inputs and extended when a longer one is asked for; a value must not
# depend on what the memo holds or on the order of the calls.

def _family_values(n_max):
    out = []
    for n in range(n_max + 1):
        out += [euler_number(n), euler_poly(n), genocchi(n), genocchi_poly(n), bernoulli(n)]
        out += [higher_euler_poly(n, r) for r in range(6)]
        out += [higher_genocchi(n, r) for r in range(6)]
        out += [frobenius_euler_poly(n, u) for u in (F(2), F(-1), F(1, 3), F(10 ** 20 + 1, 3))]
        out += [twisted_euler_classical(n, w) for w in (F(1), F(-2), F(2, 3), F(-10 ** 20, 7))]
    return out


class TestClassicalTables:
    @pytest.fixture(autouse=True)
    def _cold(self):
        qcore._MEMO.clear()
        yield
        qcore._MEMO.clear()

    def test_long_then_short_and_short_then_long_equal_fresh(self):
        calls = [(higher_euler_number, 30, 5), (higher_euler_number, 7, 5),
                 (higher_genocchi, 25, 3), (higher_genocchi, 4, 3),
                 (frobenius_euler, 28, F(-3, 5)), (frobenius_euler, 2, F(-3, 5)),
                 (twisted_euler_classical, 40, F(7, 2)), (twisted_euler_classical, 1, F(7, 2)),
                 (lambda n, _: bernoulli(n), 36, None), (lambda n, _: bernoulli(n), 6, None)]
        fresh = []
        for fn, n, arg in calls:
            qcore._MEMO.clear()
            fresh.append(fn(n, arg))
        qcore._MEMO.clear()
        assert [fn(n, arg) for fn, n, arg in calls] == fresh
        qcore._MEMO.clear()
        reverse = [fn(n, arg) for fn, n, arg in reversed(calls)]
        assert reverse[::-1] == fresh

    def test_cold_equals_warm(self):
        cold = _family_values(24)
        assert qcore._MEMO.bits > 0
        assert _family_values(24) == cold

    def test_longer_table_replaces_the_kept_one(self):
        euler_number(10)
        assert len(qcore._MEMO._entries) == 1
        bits = qcore._MEMO.bits
        euler_number(30)
        (key, (entry, kept_bits)), = qcore._MEMO._entries.items()
        assert key == ("reciprocal", 2, 1) and len(entry[0]) == 31
        assert kept_bits == qcore._MEMO.bits > bits
        assert kept_bits == (sum(map(int.bit_length, entry[0]))
                             + qcore._INT_HEADER_BITS * len(entry[0]))
        euler_number(5)  # a prefix: nothing rebuilt or replaced
        assert qcore._MEMO.bits == kept_bits

    def test_power_extends_its_squaring_chain(self, monkeypatch):
        higher_euler_number(10, 7)
        products = []
        kernel = classical._product
        monkeypatch.setattr(classical, "_product",
                            lambda a, b, start, size: products.append(start) or kernel(a, b, start, size))
        assert higher_euler_number(20, 7) == (_euler_base(20) ** 7).coeff(20)
        # orders 7 = 3 + 4, 3 = 1 + 2, 4 = 2 + 2, 2 = 1 + 1: four products,
        # each from the kept length 11 on
        assert products == [11] * 4

    def test_small_budget_evicts_and_stays_exact(self, monkeypatch):
        values = _family_values(24)
        tables = len(qcore._MEMO._entries)
        # a budget of a few tables: the others are dropped or never kept
        memo = qcore._TableMemo(40_000)
        monkeypatch.setattr(classical, "_MEMO", memo)
        assert _family_values(24) == values
        assert 0 < memo.bits <= memo.budget and 0 < len(memo._entries) < tables
        assert memo.bits == sum(bits for _, bits in memo._entries.values())

    def test_negative_order_raises_before_any_lookup(self, monkeypatch):
        monkeypatch.setattr(classical, "_MEMO", None)  # any lookup would fail
        with pytest.raises(DomainError, match="negative series power"):
            higher_euler_number(3, -1)
