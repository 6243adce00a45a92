"""Each q-family value is the order-k, weight-h, shift-x, twist-w q-Euler
value times an integer scale.  The spec types state that map once
(`kernel()`, `integrand()`); these properties hold it to the paper's
formulas, written out here term by term:

    E_m^(h,k)(x; w) = [2]_q^k (1-q)^(-m) sum_j C(m,j) (-1)^j q^(xj)
                                         / prod_(l<k) (1 + w q^(h+j-l)),

the integral over Z_p^k of f(y) = prod_j w^(y_j) q^((h-j) y_j) [y_1 + ... + y_k + x]_q^m,
whose level-N sum is (1/[p^N]_(-q))^k sum_(y in [0, p^N)^k) f(y) prod_j (-q)^(y_j),
and the order-k q-Genocchi value of index n + k, k! C(n+k, k) E_n^(h,k)(0; w)."""

import contextlib
import io
import itertools
import json
import math
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from qgen import cli
from qgen.padic import PadicParams, QBracketMonomial, fermionic_sum
from qgen.qeuler import QEulerSpec, qeuler_hk
from qgen.qgenocchi import QGenocchiSpec, qgenocchi_hk

F = Fraction
Q = F(4)
# 1 + w 4^e never vanishes for these twists
TWISTS = st.sampled_from([F(1), F(4), F(1, 2), F(-1, 3), F(2, 3)])


def bracket(n, qv):
    """[n]_q = (1 - q^n) / (1 - q)."""
    return (1 - qv ** n) / (1 - qv)


def euler_closed(m, h, k, x, w, qv):
    total = sum(F(math.comb(m, j) * (-1) ** j) * qv ** (x * j)
                / math.prod(1 + w * qv ** (h + j - l) for l in range(k))
                for j in range(m + 1))
    return (1 + qv) ** k * (1 - qv) ** -m * total


def level_sum(m, h, k, x, w, qv, p, N):
    L = p ** N
    total = F(0)
    for ys in itertools.product(range(L), repeat=k):
        f = math.prod(w ** y * qv ** ((h - j) * y) for j, y in enumerate(ys, 1))
        total += f * bracket(sum(ys) + x, qv) ** m * math.prod((-qv) ** y for y in ys)
    return total / bracket(L, -qv) ** k


def run_cli(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([str(a) for a in argv])
    assert code == 0
    return json.loads(out.getvalue())


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 4), st.integers(-2, 4), st.integers(1, 3), st.integers(0, 2), TWISTS)
def test_qeuler_kernel_is_itself_and_integrand_is_the_bracket(m, h, k, x, w):
    spec = QEulerSpec(m=m, h=h, k=k, x=x, w=w)
    assert spec.kernel() == (spec, 1)
    f = spec.integrand()
    assert f == QBracketMonomial(m=m, k=k, h=h, w=w, x=x)
    assert qeuler_hk(spec, Q) == euler_closed(m, h, k, x, w, Q)
    assert fermionic_sum(f, Q, PadicParams(3, 1)) == level_sum(m, h, k, x, w, Q, 3, 1)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 4), st.integers(-2, 4), st.integers(1, 3), TWISTS)
def test_qgenocchi_kernel_is_degree_n_shift_0_times_the_scale(n, h, k, w):
    spec = QGenocchiSpec(n=n, h=h, k=k, w=w)
    espec, scale = spec.kernel()
    assert espec == QEulerSpec(m=n, h=h, k=k, x=0, w=w)
    assert scale == math.factorial(k) * math.comb(n + k, k)
    assert qgenocchi_hk(spec, Q) == scale * euler_closed(n, h, k, 0, w, Q)
    assert fermionic_sum(espec.integrand(), Q, PadicParams(3, 1)) == \
        level_sum(n, h, k, 0, w, Q, 3, 1)


def _padic(*flags):
    return run_cli(*flags, "--mode", "padic", "--N", 2, "--q", 4)


def _expected(m, k, h, w, x=0):
    return fermionic_sum(QBracketMonomial(m=m, k=k, h=h, w=w, x=x), Q, PadicParams(3, 2))


@settings(max_examples=15, deadline=None)
@example(0, 1, 1, 0, F(2))
@given(st.integers(0, 3), st.integers(-1, 3), st.integers(1, 2), st.integers(0, 2), TWISTS)
def test_cli_padic_is_scale_times_the_level_sum(n, h, k, x, w):
    doc = _padic("qeuler", "--m", n, "--h", h, "--k", k, "--x", x, f"--w={w}")
    assert F(doc["value"]) == _expected(n, k, h, w, x)
    assert doc["meta"] == {"p": 3, "N": 2}

    scale = math.factorial(k) * math.comb(n + k, k)
    doc = _padic("qgenocchi", "--n", n, "--h", h, "--k", k, f"--w={w}")
    assert F(doc["value"]) == scale * _expected(n, k, h, w)
    assert doc["meta"] == {"p": 3, "N": 2, "scale": str(scale)}

    doc = _padic("twisted-euler", "--n", n, f"--w={w}")
    assert F(doc["value"]) == _expected(n, 1, 1, w)
    assert doc["meta"] == {"p": 3, "N": 2}

    doc = _padic("twisted-genocchi", "--n", n, f"--w={w}")
    if n == 0:
        assert doc["value"] == "0" and doc["meta"] == {}
    else:
        assert F(doc["value"]) == n * _expected(n - 1, 1, 1, w)
        assert doc["meta"] == {"p": 3, "N": 2, "scale": str(n)}
