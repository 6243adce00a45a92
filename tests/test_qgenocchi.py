import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgen.classical import genocchi, higher_genocchi
from qgen.padic import (
    QBracketMonomial,
    SeriesParams,
    convergence_envelope_ok,
    padic_limit_check,
    real_series,
)
from qgen.qcore import DomainError
from qgen.qeuler import QEulerSpec, qeuler_hk
from qgen.qgenocchi import (
    QGenocchiSpec,
    qgenocchi,
    qgenocchi_hk,
    qgenocchi_hk_at_index,
    qgenocchi_hk_series,
    qgenocchi_twisted,
)
from reflection_check import reflected_equal, reflection_factor, typed_outcome

F = Fraction
QH = F(1, 2)
TOL = F(1, 1000)


class TestBase:
    def test_zero_and_one(self):
        assert qgenocchi(0, QH) == 0
        for qv in (QH, F(1, 3), F(4)):
            assert qgenocchi(1, qv) == 1
        assert qgenocchi(1) == 1

    def test_quadratic_anchor(self):
        assert qgenocchi(2, QH) == F(-4, 5)

    def test_classical_limits(self):
        for n in range(11):
            assert qgenocchi(n).at_one() == genocchi(n)

    def test_moment_relation(self):
        # value/(n+1) is the bracket moment of degree n
        for n in range(6):
            moment = qgenocchi(n + 1, QH) / (n + 1)
            v, bound = real_series(QBracketMonomial(m=n, k=1, h=1), QH,
                                   SeriesParams(60, "direct"))
            assert abs(v - moment) <= bound


class TestHigherOrder:
    def test_vanishing_prefix(self):
        for k in range(1, 5):
            for j in range(k):
                assert qgenocchi_hk_at_index(j, h=k - 1, k=k, qv=QH) == 0
        assert qgenocchi_hk_at_index(0, h=1, k=2).is_zero

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_spec_at_index_edges(self, k):
        with pytest.raises(DomainError, match=r"^need index >= 0$"):
            QGenocchiSpec.at_index(-1, 1, k)
        assert QGenocchiSpec.at_index(k - 1, 1, k) is None
        assert QGenocchiSpec.at_index(k, 1, k, F(2)) == QGenocchiSpec(n=0, h=1, k=k, w=F(2))
        with pytest.raises(DomainError, match=r"^need index >= 0$"):
            qgenocchi_hk_at_index(-1, 1, k, QH)

    def test_degree_zero_single_term(self):
        for k in (1, 2, 3):
            for w in (F(1), F(1, 2)):
                v = qgenocchi_hk(QGenocchiSpec(n=0, h=k, k=k, w=w), QH)
                den = F(1)
                for i in range(k):
                    den *= 1 + w * QH ** (k - i)
                assert v == math.factorial(k) * (1 + QH) ** k / den

    def test_euler_relation_symbolic(self):
        for n in range(5):
            for k in (1, 2, 3):
                for h in (k - 1, k):
                    scale = math.factorial(k) * math.comb(n + k, k)
                    assert qgenocchi_hk(QGenocchiSpec(n=n, h=h, k=k)) == \
                        scale * qeuler_hk(QEulerSpec(m=n, h=h, k=k))

    def test_weight_one_order_one_matches_base(self):
        for n in range(8):
            assert qgenocchi_hk_at_index(n, h=1, k=1, qv=QH) == qgenocchi(n, QH)
            assert qgenocchi_hk_at_index(n, h=1, k=1) == qgenocchi(n)

    def test_classical_limits(self):
        for k in (1, 2, 3):
            for n in range(5):
                sym = qgenocchi_hk(QGenocchiSpec(n=n, h=k - 1, k=k))
                assert sym.at_one() == higher_genocchi(n + k, k)

    def test_padic_oracle(self):
        q4 = F(4)
        for k in (1, 2):
            for n in range(4):
                for h in (k - 1, k, k + 1):
                    for w in (F(1), F(4)):
                        g = qgenocchi_hk(QGenocchiSpec(n=n, h=h, k=k, w=w), q4)
                        target = g / (math.factorial(k) * math.comb(n + k, k))
                        f = QBracketMonomial(m=n, k=k, h=h, w=w)
                        rep = padic_limit_check(f, target, q4, 3, [1, 2, 3])
                        assert rep.verdict or convergence_envelope_ok(rep), \
                            (n, k, h, w, rep.valuations)


class TestSeries:
    def test_wrong_weight_rejected(self):
        with pytest.raises(DomainError):
            qgenocchi_hk_series(QGenocchiSpec(n=1, h=1, k=1), QH, SeriesParams(50, "cesaro1"))

    def test_degree_zero(self):
        v, _ = qgenocchi_hk_series(QGenocchiSpec(n=0, h=0, k=1), QH, SeriesParams(400, "cesaro1"))
        assert v == F(3, 4)
        assert qgenocchi_hk(QGenocchiSpec(n=0, h=0, k=1), QH) == F(3, 4)

    def test_linear(self):
        spec = QGenocchiSpec(n=1, h=0, k=1)
        v, _ = qgenocchi_hk_series(spec, QH, SeriesParams(400, "cesaro1"))
        assert abs(v - qgenocchi_hk(spec, QH)) <= TOL

    def test_order_two(self):
        spec = QGenocchiSpec(n=1, h=1, k=2)
        v, _ = qgenocchi_hk_series(spec, QH, SeriesParams(400, "cesaro1"))
        assert abs(v - qgenocchi_hk(spec, QH)) <= TOL

    def test_twisted_direct(self):
        spec = QGenocchiSpec(n=2, h=0, k=1, w=F(1, 2))
        v, bound = qgenocchi_hk_series(spec, QH, SeriesParams(60, "direct"))
        assert abs(v - qgenocchi_hk(spec, QH)) <= bound

    def test_grid(self):
        for k in (1, 2):
            for n in range(4):
                for w in (F(1), F(1, 2)):
                    spec = QGenocchiSpec(n=n, h=k - 1, k=k, w=w)
                    v, _ = qgenocchi_hk_series(spec, QH, SeriesParams(400, "cesaro1"))
                    assert abs(v - qgenocchi_hk(spec, QH)) <= TOL, (n, k, w)


class TestTwisted:
    def test_w_one_recovers_base(self):
        for n in range(9):
            assert qgenocchi_twisted(n, QH, F(1)) == qgenocchi(n, QH)
            assert qgenocchi_twisted(n, w=F(1)) == qgenocchi(n)

    def test_single_term(self):
        for w in (F(1, 2), F(2)):
            assert qgenocchi_twisted(1, QH, w) == (1 + QH) / (1 + QH * w)

    def test_anchor(self):
        assert qgenocchi_twisted(2, QH, F(1, 2)) == F(-8, 15)

    def test_classical_limit(self):
        from qgen.classical import twisted_genocchi_classical
        for n in range(7):
            for w in (F(1, 2), F(1, 3), F(2)):
                assert qgenocchi_twisted(n, w=w).at_one() == twisted_genocchi_classical(n, w)

    def test_vanishing_denominator(self):
        with pytest.raises(DomainError):
            qgenocchi_twisted(2, QH, F(-2))


class TestCoefficientForms:
    def test_factorial_binomial_equals_falling(self):
        from qgen.qcore import falling
        for k in range(1, 5):
            for n in range(11):
                assert math.factorial(k) * math.comb(n + k, k) == falling(n + k, k)


def _reflected(spec: QGenocchiSpec, qv):
    """Both sides of the reflection of the value's kernel,
    E(m, h, k, x, w; q) = (-1)^m w^(-k) q^t E(m, h, k, k - x, 1/w; 1/q) with
    t = -m - k h + k(k + 1)/2: the value, the mirrored kernel spec at 1/q
    (1/qv, or the generator when qv is None), and (c, t), c carrying the
    integer scale."""
    espec, scale = spec.kernel()
    mirror = QEulerSpec(m=espec.m, h=espec.h, k=espec.k, x=espec.k - espec.x, w=1 / espec.w)
    lhs = typed_outcome(lambda: qgenocchi_hk(spec, qv))
    rhs = typed_outcome(lambda: qeuler_hk(mirror, None if qv is None else 1 / qv))
    c, t = reflection_factor(espec.m, espec.h, espec.k, espec.w)
    return lhs, rhs, scale * c, t


_GENOCCHI_TWISTS = st.one_of(
    st.sampled_from((F(1), F(-1), F(-4), F(1, 4), F(-1, 4))),
    st.fractions(min_value=-4, max_value=4, max_denominator=5).filter(bool))
_REFLECTION_QS = st.fractions(min_value=-4, max_value=4, max_denominator=5).filter(
    lambda v: v not in (0, 1, -1))


class TestReflectionThroughKernel:
    """The q-Euler reflection q -> 1/q, x -> k - x, w -> 1/w, read through
    `kernel()`: the q-Genocchi value at q is its integer scale times the
    mirrored kernel at 1/q, times (-1)^m w^(-k) q^t.  A factor that vanishes
    on one side vanishes on the other."""

    @given(st.integers(0, 6), st.integers(1, 3), st.integers(-2, 5), _GENOCCHI_TWISTS,
           _REFLECTION_QS, st.booleans())
    @settings(max_examples=120, deadline=None)
    def test_exact(self, n, k, h, w, qv, vanish):
        if vanish:  # 1 + w q^e vanishes at qv for an exponent e of the sum
            w = -1 / qv ** (h + n)
        lhs, rhs, c, t = _reflected(QGenocchiSpec(n=n, h=h, k=k, w=w), qv)
        if isinstance(lhs, type) or isinstance(rhs, type):
            assert lhs is rhs
            return
        assert lhs == c * qv ** t * rhs

    @given(st.integers(0, 6), st.integers(1, 3), st.integers(-2, 5), _GENOCCHI_TWISTS)
    @settings(max_examples=80, deadline=None)
    def test_symbolic(self, n, k, h, w):
        lhs, rhs, c, t = _reflected(QGenocchiSpec(n=n, h=h, k=k, w=w), None)
        if isinstance(lhs, type) or isinstance(rhs, type):  # 1 - q^0 at w = -1
            assert lhs is rhs
            return
        assert reflected_equal(lhs, rhs, c, t)
