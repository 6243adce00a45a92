"""The exact tables of the series layer against per-row loops and against
their definitions: the geometric table, the truncated exponential of
`qeuler.gf_eval`, the box and simplex weight distributions, and the Horner
pass that reads their prefix sums (`padic._prefix_sums`).  The kernels build whole lists at once;
every integer they return must equal the loop's.  Then the series routes
against the same series summed term by term in Fractions: they set up in
integers and build one Fraction per returned value, and every value,
bound and refusal must equal the reference's."""

import math
import sys
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qgen import padic, qeuler
from qgen.padic import ClassicalMonomial, QBracketMonomial, SeriesParams, real_series
from qgen.qcore import DomainError, _geometric_table
from qgen.qeuler import QEulerSpec, gf_eval, qeuler_hk_series
from qgen.qgenocchi import QGenocchiSpec, qgenocchi_hk_series
from series_kernel_reference import (
    box_series,
    exp_table_rows,
    fraction_ratios,
    gauss_series,
    gf_series,
    integer_form,
    running_form,
    zip_horner,
)

INTS = st.integers(-10 ** 6, 10 ** 6)
SMALL = st.integers(1, 30)
RATIONALS = st.builds(F, st.integers(-30, 30), SMALL)
Q_IN_UNIT = st.builds(lambda a, c: F(a, a + c), SMALL, SMALL)


class TestGeometricTable:
    @given(INTS, INTS, st.integers(0, 40), st.sampled_from([None, 3, 5]), st.integers(1, 40))
    @settings(max_examples=200, deadline=None)
    @example(first=-3, ratio=2, size=0, p=None, L=1)
    @example(first=-3, ratio=2, size=1, p=None, L=1)
    @example(first=5, ratio=-7, size=1, p=3, L=4)
    @example(first=-2, ratio=-3, size=0, p=5, L=2)
    @example(first=-2, ratio=-3, size=9, p=None, L=2)
    def test_terms(self, first, ratio, size, p, L):
        modulus = p and p ** L
        table = _geometric_table(first, ratio, size, modulus)
        expected = [first * ratio ** i for i in range(size)]
        if modulus:
            expected = [v % modulus for v in expected]
        assert table == expected

    def test_small_sizes(self):
        assert _geometric_table(-4, 3, 0) == []
        assert _geometric_table(-4, 3, 1) == [-4]
        assert _geometric_table(4, -3, 2) == [4, -12]
        assert _geometric_table(-4, 3, 0, 27) == []
        assert _geometric_table(-4, 3, 1, 27) == [23]


class TestExpTable:
    @given(Q_IN_UNIT, st.integers(0, 3), RATIONALS, st.integers(0, 8), st.integers(0, 40))
    @settings(max_examples=200, deadline=None)
    @example(qf=F(1, 3), x=0, t=F(0), T=8, size=40)
    @example(qf=F(3, 4), x=3, t=F(-3, 7), T=1, size=1)
    @example(qf=F(2, 5), x=2, t=F(1, 2), T=0, size=5)
    def test_equals_row_loop(self, qf, x, t, T, size):
        assert qeuler._exp_table(qf, x, t, T, size) == exp_table_rows(qf, x, t, T, size)

    @pytest.mark.parametrize("qf", [F(1, 3), F(2, 5), F(3, 4)])
    @pytest.mark.parametrize("t", [F(1, 2), F(-3, 7), F(0)])
    def test_definition(self, qf, t):
        # G[s] / (R^s C) = sum_{j<T} (t [s+x]_q)^j / j!, with [n]_q the sum
        # of q^i over i < n
        for x in range(4):
            for T in range(9):
                G, R, C = qeuler._exp_table(qf, x, t, T, 12)
                for s in range(12):
                    z = t * sum(qf ** i for i in range(s + x))
                    e = sum((z ** j / math.factorial(j) for j in range(T)), F(0))
                    assert F(G[s], R ** s * C) == e


@st.composite
def _distributions(draw):
    """(bases, L, modulus, size): k = 1..3 rational bases, or residues
    modulo 3^L or 5^L with unit bases, and size None or 1..L."""
    k = draw(st.integers(1, 3))
    L = draw(st.integers(1, 40))
    p = draw(st.sampled_from([None, 3, 5]))
    units = SMALL.filter(lambda v: p is None or v % p)
    bases = [F(draw(st.integers(-30, 30).filter(lambda v: p is None or v % p)), draw(units))
             for _ in range(k)]
    size = draw(st.one_of(st.none(), st.integers(1, L)))
    return bases, L, p and p ** L, size


class TestDistribution:
    @given(_distributions())
    @settings(max_examples=300, deadline=None)
    @example(([F(-1, 2)], 9, 3 ** 9, None))
    @example(([F(-1, 2), F(1, 3)], 1, None, 1))
    @example(([F(2, 3), F(-4), F(1, 7)], 40, 5 ** 40, 17))
    def test_equals_running_form(self, case):
        bases, L, modulus, size = case
        assert padic._build_distribution(integer_form(bases), L, modulus, size) == \
            running_form(bases, L, modulus, size)

    def test_no_bases(self):
        assert padic._build_distribution(((), 1), 5, None, None) == running_form([], 5, None, None)
        assert padic._build_distribution(((), 1), 5, 3 ** 5, 3) == running_form([], 5, 3 ** 5, 3)


class TestHorner:
    @given(_distributions(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_every_read(self, case, data):
        bases, L, _, size = case
        dist, E = padic._build_distribution(integer_form(bases), L, None, size)
        n = len(dist)
        if data.draw(st.booleans()):
            # a table of g may run past the distribution
            G = data.draw(st.lists(INTS, min_size=n, max_size=n + 3))
            table = G, data.draw(SMALL), data.draw(SMALL)
        else:
            table = None, 1, 1
        _, R, C = table
        every = list(range(n))
        reads = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1)))
        for ns in (every, reads):
            sums = padic._prefix_sums(dist, E, table, ns)
            assert [A for A, _ in sums] == zip_horner(dist, E, table, ns)
            assert [D for _, D in sums] == [C * (E * R) ** n for n in ns]


def _outcome(call):
    """The repr of a route's result, or the type and text of its refusal."""
    try:
        return repr(call())
    except DomainError as exc:
        return type(exc), str(exc)


SERIES_Q = st.sampled_from([F(1, 3), F(1, 2), F(2, 3), F(3, 4)])
# both signs, |w| = 1 (the boundary, or a ratio 1), |w| < 1, w = 0 and |w| > 1
SERIES_W = st.sampled_from([F(1), F(-1), F(1, 2), F(-1, 2), F(1, 3), F(-1, 3), F(0), F(2)])
MODES = st.sampled_from(["direct", "cesaro1"])


class TestRatios:
    @given(st.integers(1, 3), st.integers(-3, 4), SERIES_W,
           st.sampled_from([F(1, 3), F(3, 4), F(4), F(-2), F(-1, 2), F(1), F(0)]))
    @settings(max_examples=200, deadline=None)
    def test_integer_form_of_the_fraction_ratios(self, k, h, w, qv):
        f = QBracketMonomial(m=1, k=k, h=h, w=w)
        if qv == 0 and h - k + 1 < 0:
            with pytest.raises(DomainError, match="negative power of q = 0"):
                padic._ratios(f, qv)
            return
        assert padic._ratios(f, qv) == integer_form(fraction_ratios(f, qv))
        c = ClassicalMonomial(n=1, w=w)
        assert padic._ratios(c, qv) == integer_form(fraction_ratios(c, qv))


class TestValuesUnmoved:
    """Each route's (value, bound), or its refusal, equals the term-by-term
    Fraction reference (`series_kernel_reference`), whose ratios, regime
    rules and tail majorants are the Fraction formulas."""

    @given(st.integers(1, 3), st.integers(0, 3), st.integers(0, 2), SERIES_W, SERIES_Q,
           st.integers(1, 12), MODES)
    @settings(max_examples=150, deadline=None)
    def test_gaussian_weight_series(self, k, m, x, w, qv, M, mode):
        sp = SeriesParams(M, mode)
        spec = QEulerSpec(m=m, h=k - 1, k=k, x=x, w=w)
        assert _outcome(lambda: qeuler_hk_series(spec, qv, sp)) == \
            _outcome(lambda: gauss_series(spec, qv, sp))
        gspec = QGenocchiSpec(n=m, h=k - 1, k=k, w=w)
        scale = math.factorial(k) * math.comb(m + k, k)
        assert _outcome(lambda: qgenocchi_hk_series(gspec, qv, sp)) == \
            _outcome(lambda: gauss_series(gspec.kernel()[0], qv, sp, scale))

    @given(st.integers(1, 3), st.integers(0, 3), st.integers(-2, 4), st.integers(-4, 2),
           SERIES_W, SERIES_Q, st.integers(1, 6), MODES)
    @settings(max_examples=150, deadline=None)
    def test_box_series(self, k, m, h, x, w, qv, M, mode):
        f = QBracketMonomial(m=m, k=k, h=h, w=w, x=x)
        sp = SeriesParams(M, mode)
        assert _outcome(lambda: real_series(f, qv, sp)) == _outcome(lambda: box_series(f, qv, sp))

    @given(st.integers(0, 3), st.integers(-3, 2), SERIES_W,
           st.one_of(SERIES_Q, st.just(F(1))), st.integers(1, 12), MODES)
    @settings(max_examples=150, deadline=None)
    def test_classical_box_series(self, n, c, w, qv, M, mode):
        f = ClassicalMonomial(n=n, w=w, c=c)
        sp = SeriesParams(M, mode)
        assert _outcome(lambda: real_series(f, qv, sp)) == _outcome(lambda: box_series(f, qv, sp))

    @given(st.sampled_from(["fqk", "hqk", "hqkw"]), st.integers(1, 3), st.integers(0, 2),
           SERIES_W, SERIES_Q, st.sampled_from([F(0), F(1, 2), F(-3, 7)]), st.integers(0, 8),
           st.integers(1, 12))
    @settings(max_examples=100, deadline=None)
    def test_generating_function(self, kind, k, x, w, qv, t, t_terms, M):
        x = x if kind == "fqk" else 0
        sp = SeriesParams(M, "cesaro1")
        assert _outcome(lambda: gf_eval(kind, k, x, w, qv, t, sp, t_terms)) == \
            _outcome(lambda: gf_series(kind, k, x, w, qv, t, sp, t_terms))


def _fractions_built(call) -> int:
    """The Fractions that call() constructs, counted by a profile hook on
    the constructors of `fractions.Fraction`."""
    codes = {F.__new__.__code__}
    if hasattr(F, "_from_coprime_ints"):
        codes.add(F._from_coprime_ints.__code__)
    built = 0

    def hook(frame, event, arg):
        nonlocal built
        if event == "call" and frame.f_code in codes:
            built += 1

    sys.setprofile(hook)
    try:
        call()
    finally:
        sys.setprofile(None)
    return built


class TestOneFractionPerValue:
    """A warm call (its tables in the memo) sets up its ratios, regime,
    prefactor and tail majorant, and averages its cesaro1 partial sums, in
    integers: it builds only the two Fractions it returns."""

    @pytest.mark.parametrize("mode,w", [("cesaro1", F(1)), ("direct", F(1, 2))])
    def test_gaussian_weight_series(self, mode, w):
        spec, qv, sp = QEulerSpec(m=2, h=1, k=2, w=w), F(2, 3), SeriesParams(400, mode)
        qeuler_hk_series(spec, qv, sp)
        assert _fractions_built(lambda: qeuler_hk_series(spec, qv, sp)) == 2

    @pytest.mark.parametrize("f", [QBracketMonomial(m=2, k=1, h=1, w=F(-1, 2)),
                                   QBracketMonomial(m=1, k=3, h=3),
                                   ClassicalMonomial(n=2, w=F(1, 3), c=1)])
    def test_direct_box_series(self, f):
        qv, sp = F(2, 3), SeriesParams(20, "direct")
        real_series(f, qv, sp)
        assert _fractions_built(lambda: real_series(f, qv, sp)) == 2

    @pytest.mark.parametrize("f", [QBracketMonomial(m=2, k=1, h=0),
                                   QBracketMonomial(m=2, k=2, h=1)])
    def test_cesaro1_box_series(self, f):
        # the boundary ratio -1 at w = 1: the three boxes are averaged as
        # integer pairs (`padic._cesaro1`)
        qv, sp = F(2, 3), SeriesParams(60, "cesaro1")
        real_series(f, qv, sp)
        assert _fractions_built(lambda: real_series(f, qv, sp)) == 2
