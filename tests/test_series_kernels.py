"""The exact tables of the series layer against per-row loops and against
their definitions: the geometric table, the truncated exponential of
`qeuler.gf_eval`, the box and simplex weight distributions, and the Horner
pass that reads their prefix sums.  The kernels build whole lists at once;
every integer they return must equal the loop's."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qgen import padic, qeuler
from qgen.qcore import _geometric_table
from series_kernel_reference import exp_table_rows, running_form, zip_horner

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
        assert padic._build_distribution(bases, L, modulus, size) == \
            running_form(bases, L, modulus, size)

    def test_no_bases(self):
        assert padic._build_distribution([], 5, None, None) == running_form([], 5, None, None)
        assert padic._build_distribution([], 5, 3 ** 5, 3) == running_form([], 5, 3 ** 5, 3)


class TestHorner:
    @given(_distributions(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_every_read(self, case, data):
        bases, L, _, size = case
        dist, E = padic._build_distribution(bases, L, None, size)
        n = len(dist)
        if data.draw(st.booleans()):
            # a table of g may run past the distribution
            G = data.draw(st.lists(INTS, min_size=n, max_size=n + 3))
            table = G, data.draw(SMALL), data.draw(SMALL)
        else:
            table = None, 1, 1
        every = list(range(n))
        assert padic._horner(dist, E, table, every) == zip_horner(dist, E, table, every)
        reads = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1)))
        assert padic._horner(dist, E, table, reads) == zip_horner(dist, E, table, reads)
