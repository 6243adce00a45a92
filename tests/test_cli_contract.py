"""The command-line contract at its edges: exit 1 with `error: ...` for an
unwritable result file, a request over its budget or an exact value too
long to render, exit 2 with
`usage error: ...` for a malformed configuration, and never a traceback.
Each budget is checked before the work it guards starts.  A command line
that starts with a command is parsed by that command's own parser, with
the namespace the top-level parser would give."""

import contextlib
import io
import json
import sys
import tempfile
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qgen import classical, cli, padic, qcore, qeuler
from qgen.padic import QBracketMonomial, padic_limit_check
from qgen.qcore import DomainError


def run(capsys, *argv):
    code = cli.main([str(a) for a in argv])
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    return code, out, err


@pytest.fixture
def config(tmp_path, monkeypatch):
    def write(text):
        path = tmp_path / "config.json"
        path.write_text(text)
        monkeypatch.setenv("QGEN_CONFIG", str(path))
    return write


@pytest.fixture
def no_suite(monkeypatch):
    monkeypatch.setattr(cli.verify_mod, "run_suites", lambda *args: pytest.fail("a suite ran"))


@pytest.fixture
def digit_limit():
    """The interpreter's default limit on rendering an int as decimal digits."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter renders integers of any length")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(old)


class TestUnwritableOutput:
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_table_out_in_missing_directory(self, capsys, tmp_path, fmt):
        out = tmp_path / "missing" / "table.out"
        code, _, err = run(capsys, "table", "--family", "genocchi", "--range", "n=0..3",
                           "--format", fmt, "--out", out)
        assert code == 1 and err.startswith("error: cannot write")

    def test_table_out_is_a_directory(self, capsys, tmp_path):
        code, _, err = run(capsys, "table", "--family", "genocchi", "--range", "n=0..3",
                           "--format", "json", "--out", tmp_path)
        assert code == 1 and err.startswith("error: cannot write")

    def test_verify_report_json(self, capsys, tmp_path):
        code, out, err = run(capsys, "verify", "classical", "--report-json",
                             tmp_path / "missing" / "report.json")
        assert code == 1 and err.startswith("error: cannot write")
        assert "all suites passed" in out


class TestConfig:
    @pytest.mark.parametrize("text", [
        '{"M": "abc"}', '{"term_budget": 1.5}', '{"p": true}', '{"N": null}',
        '{"cesaro_tol": "1/0"}', '[1, 2]', '5', '"M"'])
    def test_malformed_config_is_usage_error(self, capsys, config, text):
        config(text)
        code, _, err = run(capsys, "qnum", "--n", 3, "--q", "1/2")
        assert code == 2 and err.startswith("usage error: config")

    def test_integer_strings_still_accepted(self, capsys, config):
        config('{"M": "50"}')
        code, out, _ = run(capsys, "qeuler", "--m", 0, "--h", 0, "--q", "1/2",
                           "--mode", "series")
        assert code == 0 and json.loads(out)["meta"]["truncation"] == 50


class TestPadicLevel:
    """A p-adic level below 1 is refused before any work: by `verify` as a
    usage error, by `padic_limit_check` as a domain error."""

    @pytest.mark.parametrize("suite", ["padic", "qeuler", "qgenocchi", "all", "classical"])
    @pytest.mark.parametrize("level", [0, -2])
    def test_verify_level_below_one(self, capsys, no_suite, suite, level):
        code, out, err = run(capsys, "verify", suite, "--padic-level", level)
        assert (code, out) == (2, "")
        assert err == f"usage error: --padic-level must be >= 1, not {level}\n"

    def test_configured_level_below_one(self, capsys, config, no_suite):
        config('{"N": 0}')
        code, out, err = run(capsys, "verify", "padic")
        assert (code, out) == (2, "")
        assert err == "usage error: config N must be >= 1, not 0\n"

    def test_limit_check_needs_a_level(self):
        with pytest.raises(DomainError, match="at least one level"):
            padic_limit_check(QBracketMonomial(m=1), 1, Fraction(4), 3, [])


class TestVerifyTruncation:
    """`verify` refuses a series truncation below 3, the three partial sums
    the cesaro1 boundary series needs, as a usage error before any suite
    runs, whether it comes from --M or from the configuration."""

    @pytest.mark.parametrize("suite", ["padic", "qeuler", "qcore", "all"])
    @pytest.mark.parametrize("M", [2, 1, 0, -3])
    def test_flag_below_three(self, capsys, no_suite, suite, M):
        code, out, err = run(capsys, "verify", suite, "--M", M)
        assert (code, out) == (2, "")
        assert err == f"usage error: --M must be >= 3, not {M}\n"

    def test_configured_below_three(self, capsys, config, no_suite):
        config('{"M": 2}')
        code, out, err = run(capsys, "verify", "qgenocchi")
        assert (code, out) == (2, "")
        assert err == "usage error: config M must be >= 3, not 2\n"


class TestBudgetsBeforeWork:
    def test_huge_prime_is_rejected_at_once(self, capsys):
        t0 = time.perf_counter()
        code, _, err = run(capsys, "qeuler", "--m", 1, "--h", 1, "--q", 4, "--mode", "padic",
                           "--p", 1000000000000000003)
        assert time.perf_counter() - t0 < 1
        assert code == 1 and "exceed the budget" in err

    def test_huge_level_is_rejected_at_once(self, capsys):
        code, _, err = run(capsys, "qeuler", "--m", 1, "--h", 1, "--q", 4, "--mode", "padic",
                           "--N", 10 ** 15)
        assert code == 1 and "exceed the budget" in err

    @pytest.mark.parametrize("argv", [
        # the Gaussian-weight series routes sum M terms, one per n
        ("qeuler", "--m", 0, "--h", 0, "--q", "1/2", "--mode", "series", "--M", 10 ** 11),
        ("gf", "--kind", "fqk", "--k", 1, "--q", "1/2", "--t", "1/3", "--M", 10 ** 11),
    ])
    def test_series_truncation_over_budget(self, capsys, argv):
        t0 = time.perf_counter()
        code, _, err = run(capsys, *argv)
        assert time.perf_counter() - t0 < 1
        assert code == 1 and err.startswith(f"error: {10 ** 11} terms exceed the budget")

    @pytest.mark.parametrize("argv", [
        # the bracket table [s + x]_q of a level sum or a series reaches
        # q^(x + k(L - 1)), with L = p^N or M
        ("qeuler", "--m", 2, "--h", 1, "--x", 300000, "--q", 4, "--mode", "padic", "--N", 2),
        ("qeuler", "--m", 2, "--h", 1, "--x", 300000, "--q", "1/2", "--mode", "series"),
        ("gf", "--kind", "fqk", "--k", 1, "--x", 300000, "--q", "1/2", "--t", "1/3"),
    ])
    def test_shift_over_budget(self, capsys, argv):
        t0 = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - t0 < 1
        assert code == 1 and out == "" and err.startswith("error: q exponent")

    @pytest.mark.parametrize("argv", [
        ("qnum", "--n", 20000, "--q", 2),
        ("qeuler", "--m", 0, "--h", 15000, "--q", 2),
    ])
    def test_exact_value_over_digit_limit(self, capsys, digit_limit, argv):
        t0 = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - t0 < 1
        assert code == 1 and out == "" and err.startswith("error: exact value has more than")

    def test_rational_qbinom_refused_on_its_denominator(self, capsys, digit_limit,
                                                        monkeypatch):
        # C(n, k)_q at q = u/v has the reduced denominator v^(k(n - k)):
        # over the limit, it is refused before the telescoped quotient
        def refuse(*args):
            raise AssertionError("the quotient is not needed to refuse its rendering")

        monkeypatch.setattr(qcore, "_rational_binom", refuse)
        t0 = time.perf_counter()
        for argv in (("--n", 2000, "--k", 1000, "--q", "3/2"),
                     ("--n", 1079, "--k", 4, "--q", "3/10"),  # 10^4300: 4301 digits
                     ("--n", 10 ** 12, "--k", 10 ** 6, "--q=-1/2")):
            code, out, err = run(capsys, "qbinom", *argv)
            assert code == 1 and out == "" and err.startswith("error: exact value has more than")
        assert time.perf_counter() - t0 < 1

    @pytest.mark.parametrize("argv,code", [
        # 10^4299 renders, and so does the numerator
        (("--n", 1436, "--k", 3, "--q", "3/10"), 0),
        # 2^10000 renders; the numerator, 3^10000 and more, does not
        (("--n", 200, "--k", 100, "--q", "3/2"), 1),
    ])
    def test_rational_qbinom_denominator_within_limit(self, capsys, digit_limit, argv, code):
        got, out, err = run(capsys, "qbinom", *argv)
        assert got == code
        if code:
            assert out == "" and err.startswith("error: exact value has more than")

    @pytest.mark.parametrize("q", ["2", "-2", "7", "-7"])
    def test_integer_qbinom_refused_on_a_lower_bound(self, capsys, digit_limit, monkeypatch, q):
        # |C(n, k)_u| >= |u|^(k(n - k)) for u >= 2 and >= |u|^(r(n - r - 1))
        # for u <= -2, r = min(k, n - k): over the limit, refused at once
        def refuse(*args):
            raise AssertionError("the quotient is not needed to refuse its rendering")

        monkeypatch.setattr(cli, "gauss_binom", refuse)
        t0 = time.perf_counter()
        for n, k in ((2000, 1000), (2000, 10), (10 ** 12, 10 ** 6)):
            code, out, err = run(capsys, "qbinom", "--n", n, "--k", k, f"--q={q}")
            assert code == 1 and out == "" and err.startswith("error: exact value has more than")
        assert time.perf_counter() - t0 < 1

    def test_integer_qbinom_refusals_are_sound(self, monkeypatch):
        # at the smallest digit limit, every (n, k, u) that is refused before
        # the work really has a value too long to render, and values that
        # render are never refused
        if not hasattr(sys, "set_int_max_str_digits"):
            pytest.skip("this interpreter renders integers of any length")
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)

        class Unrefused(Exception):
            pass

        def unrefused(*args):
            raise Unrefused

        refused = unrendered = 0
        try:
            for u in (2, -2, 3, -3, 10, -10):
                for n in range(20, 140, 9):
                    for k in range(1, n):
                        monkeypatch.setattr(cli, "gauss_binom", unrefused)
                        try:
                            cli.dispatch("qbinom", {"n": n, "k": k, "q": Fraction(u)},
                                         "exact", cli.Config())
                        except Unrefused:
                            was_refused = False
                        except DomainError:
                            was_refused = True
                        monkeypatch.undo()
                        try:
                            qcore.rat_str(qcore.gauss_binom(n, k, u))
                            renders = True
                        except DomainError:
                            renders = False
                        assert not (was_refused and renders), (n, k, u)
                        refused += was_refused
                        unrendered += not renders
        finally:
            sys.set_int_max_str_digits(old)
        # the bounds are close: most values too long to render are refused
        assert 0 < refused and unrendered - refused < refused // 4

    def test_integer_qbinom_within_limit_prints(self, capsys, digit_limit):
        code, out, _ = run(capsys, "qbinom", "--n", 60, "--k", 30, "--q", 2)
        assert code == 0 and json.loads(out)["value"].startswith("2926960157")

    def test_table_cell_over_digit_limit(self, capsys, digit_limit, tmp_path):
        code, _, err = run(capsys, "table", "--family", "qnum", "--range", "n=19999..20000",
                           "--q", 2, "--format", "json", "--out", tmp_path / "t.json")
        assert code == 1 and err.startswith("error: exact value has more than")
        assert not (tmp_path / "t.json").exists()

    @pytest.mark.parametrize("argv", [
        ("qnum", "--n", 10 ** 9),
        ("qbinom", "--n", 1000, "--k", 500),
        ("qeuler", "--m", 10 ** 8, "--h", 1),
        ("qeuler", "--m", 1, "--h", 0, "--k", 10 ** 9),
        ("qeuler", "--m", 1, "--h", 10 ** 12),
        ("qeuler", "--m", 1, "--h", 1, "--x", 10 ** 9),
        ("qeuler", "--m", 1, "--h", 1, "--w", 0, "--x", 10 ** 9),
        # m within the first bound: the plan's loops run, and build no
        # polynomial before the budget check
        ("qeuler", "--m", 50000, "--h", 1, "--w", 2),
        ("qeuler", "--m", 50000, "--h", 1, "--w", 1),
        ("qeuler", "--m", 50000, "--h", 1, "--w", -1),
        ("qgenocchi", "--n", 10 ** 8, "--h", 1),
        ("twisted-euler", "--n", 10 ** 8, "--w", 2),
        ("twisted-genocchi", "--n", 10 ** 8, "--w", "1/2"),
        # within the first bound under a wide budget: at |w| != 1 the exact
        # degree refuses it before the plan's records
        ({"term_budget": 10 ** 6}, "qeuler", "--m", 10 ** 6, "--h", 1, "--w", 2),
    ])
    def test_symbolic_degree_over_budget(self, capsys, config, argv):
        if isinstance(argv[0], dict):
            config(json.dumps(argv[0]))
            argv = argv[1:]
        t0 = time.perf_counter()
        code, _, err = run(capsys, *argv, "--mode", "symbolic")
        assert time.perf_counter() - t0 < 1
        assert code == 1 and "symbolic degree" in err and "exceeds the budget" in err

    @pytest.mark.parametrize("argv,degree", [
        (("qnum", "--n", 9), 8),
        (("qbinom", "--n", 7, "--k", 3), 12),
        # the q-families budget the degree of the unreduced quotient
        (("qeuler", "--m", 2, "--h", 1, "--k", 2, "--x", 1), (2, 1, 2, 1, 1)),
        (("qgenocchi", "--n", 2, "--h", 0, "--k", 2, "--w=-1/4"), (2, 0, 2, 0, "-1/4")),
        (("twisted-euler", "--n", 3, "--w", 2), (3, 1, 1, 0, 2)),
    ])
    def test_degree_budget_is_tight(self, capsys, config, argv, degree):
        code, out, _ = run(capsys, *argv, "--mode", "symbolic")
        assert code == 0
        if isinstance(degree, tuple):
            m, h, k, x, w = degree
            degree = qeuler._known_denominator(m, h, k, x, Fraction(w)).degree
            value = json.loads(out)["value"]
            assert max(len(value["num"]), len(value["den"])) - 1 <= degree
        config(json.dumps({"term_budget": degree}))
        assert run(capsys, *argv, "--mode", "symbolic")[0] == 0
        config(json.dumps({"term_budget": degree - 1}))
        code, _, err = run(capsys, *argv, "--mode", "symbolic")
        assert code == 1 and f"symbolic degree {degree} exceeds" in err


class TestClassicalBudget:
    """A classical value costs order(order + 1)/2 binomial products per
    table and per product of its power's squaring chain; over the term
    budget it is refused before any kernel runs, whatever the memo holds."""

    @pytest.fixture
    def no_kernel(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a classical kernel ran")
        for name in ("_reciprocal", "_product", "_bernoulli_nums"):
            monkeypatch.setattr(classical, name, refuse)

    @pytest.mark.parametrize("argv,products", [
        (("euler", "--n", 2500), 3126250),
        (("euler", "--n", 1000), 500500),
        (("euler", "--n", 300, "--k", 3), 135450),  # a reciprocal and 2 products
        (("euler", "--n", 447, "--x", 1), 100128),
        (("genocchi", "--n", 448), 100128),         # G_n = n E_(n-1)
        (("genocchi", "--n", 448, "--x", "1/2"), 100128),
        (("genocchi", "--n", 302, "--k", 2), 90300),  # order n - k, one product
        (("bernoulli", "--n", 1000), 500500),
        (("frobenius", "--n", 600, "--u", 2), 180300),
        (("twisted-euler", "--n", 600, "--w", 2), 180300),
        (("twisted-genocchi", "--n", 601, "--w", "1/2"), 180300),
    ])
    def test_refused_before_the_kernel(self, capsys, config, no_kernel, argv, products):
        if products <= 100000:
            config(json.dumps({"term_budget": products - 1}))
        for _ in range(2):  # cold, then after any warm-up
            t0 = time.perf_counter()
            code, out, err = run(capsys, *argv)
            assert time.perf_counter() - t0 < 1
            assert (code, out) == (1, "")
            assert err.startswith("error: classical tables to order") and f" {products} " in err

    @pytest.mark.parametrize("argv", [
        ("euler", "--n", 446), ("bernoulli", "--n", 446), ("genocchi", "--n", 447),
        ("twisted-genocchi", "--n", 447, "--w", 3),
    ])
    def test_largest_order_within_the_default_budget(self, capsys, argv):
        assert classical.table_products(446) <= 100000 < classical.table_products(447)
        code, out, _ = run(capsys, *argv)
        assert code == 0 and json.loads(out)["value"]

    def test_refusal_does_not_depend_on_the_memo(self, capsys, config):
        config(json.dumps({"term_budget": 54}))
        assert run(capsys, "euler", "--n", 10)[0] == 1  # 55 products
        qcore._MEMO.clear()
        assert run(capsys, "euler", "--n", 9)[0] == 0   # 45 products, table kept
        assert run(capsys, "euler", "--n", 10)[0] == 1
        assert run(capsys, "twisted-genocchi", "--n", 0, "--w", 2)[0] == 0  # no table


class TestTableChecksBeforeWork:
    """A table runs every cell's checks before its first value, so a table
    with a cell over its budget is refused before any kernel runs, in every
    mode, and writes no file."""

    @pytest.fixture
    def no_kernel(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a kernel ran before the table's refusal")
        for module in (padic, qeuler):  # qeuler imports the padic kernels by name
            monkeypatch.setattr(module, "_sum_table", refuse)
            monkeypatch.setattr(module, "_distribution", refuse)
        for name in ("_accumulate", "_euler_sum_symbolic"):
            monkeypatch.setattr(qeuler, name, refuse)
        for name in ("_reciprocal", "_product", "_euler_power", "_bernoulli_nums"):
            monkeypatch.setattr(classical, name, refuse)

    @pytest.mark.parametrize("argv,refusal", [
        (("--family", "euler", "--range", "n=0..1000"),
         "classical tables to order 447 take 100128 binomial products, "
         "beyond the budget of 100000"),
        (("--family", "qeuler", "--range", "m=0..460", "--h", 1, "--w", 2, "--mode", "symbolic"),
         "symbolic degree 100126 exceeds the budget of 100000"),
        (("--family", "qeuler", "--range", "N=1..12", "--m", 1, "--h", 1, "--q", 4,
          "--mode", "padic"), "(3^11)^1 terms exceed the budget of 100000"),
        (("--family", "qeuler", "--range", "M=99990..100010", "--m", 1, "--h", 0, "--w", "1/2",
          "--q", "1/2", "--mode", "series"), "100001 terms exceed the budget of 100000"),
        (("--family", "twisted-euler", "--range", "M=99990..100010", "--n", 1, "--w", "1/2",
          "--q", "1/2", "--mode", "series"), "100001^1 terms exceed the budget of 100000"),
        (("--family", "gf", "--range", "M=99999..100001", "--kind", "fqk", "--k", 1,
          "--q", "1/2", "--t", "1/2"), "100001 terms exceed the budget of 100000"),
    ])
    def test_refused_before_any_value(self, capsys, tmp_path, no_kernel, argv, refusal):
        t0 = time.perf_counter()
        code, out, err = run(capsys, "table", *argv, "--out", tmp_path / "t.json")
        assert time.perf_counter() - t0 < 1
        assert (code, out) == (1, "") and err == f"error: {refusal}\n"
        assert not (tmp_path / "t.json").exists()


class TestClassicalFlags:
    @pytest.mark.parametrize("argv,message", [
        (("bernoulli", "--n", 1, "--x", 1), "Bernoulli polynomials are not defined here"),
        (("bernoulli", "--n", 1, "--k", 2), "bernoulli has no higher order; --k must be 1"),
        (("bernoulli", "--n", 1, "--k", 0), "bernoulli has no higher order; --k must be 1"),
        (("frobenius", "--n", 3, "--u", 2, "--k", 2), "frobenius has no higher order; --k must be 1"),
        (("frobenius", "--n", 3, "--u", 2, "--k", 3, "--x", 1),
         "frobenius has no higher order; --k must be 1"),
        # checked before the budget
        (("bernoulli", "--n", 10 ** 6, "--x", 1), "Bernoulli polynomials are not defined here"),
    ])
    def test_dropped_flags_are_usage_errors(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"usage error: {message}\n")

    @pytest.mark.parametrize("argv", [
        ("bernoulli", "--n", 1, "--k", 1), ("frobenius", "--n", 3, "--u", 2, "--k", 1),
    ])
    def test_order_one_is_accepted(self, capsys, argv):
        assert run(capsys, *argv)[0] == 0


COMMANDS = [*cli.FAMILIES, "table", "verify"]
# the flags a command needs before it can print a value
NEEDED = {
    "qnum": ("--n", "--q"), "qbinom": ("--n", "--k", "--q"), "euler": ("--n",),
    "genocchi": ("--n",), "bernoulli": ("--n",), "frobenius": ("--n", "--u"),
    "qeuler": ("--m", "--h", "--q"), "qgenocchi": ("--n", "--h", "--q"),
    "twisted-euler": ("--n", "--w", "--q"), "twisted-genocchi": ("--n", "--w", "--q"),
    "gf": ("--kind", "--k", "--q", "--t"),
    "table": ("--family", "--range", "--format", "--out"), "verify": (),
}


# a value for each flag in NEEDED at which every family answers each of its
# modes, and the modes each family answers, as README documents them
_NEEDED_VALUES = {"--n": 2, "--m": 1, "--h": 0, "--k": 1, "--q": "1/2", "--w": "1/2",
                  "--t": "1/2", "--u": 2, "--kind": "fqk"}
_MODES = ("exact", "symbolic", "padic", "series")
_ANSWERED = {"qnum": ("exact", "symbolic"), "qbinom": ("exact", "symbolic"), "gf": ("exact",),
            **dict.fromkeys(("euler", "genocchi", "bernoulli", "frobenius"), ("exact",)),
            **dict.fromkeys(("qeuler", "qgenocchi", "twisted-euler", "twisted-genocchi"), _MODES)}


class TestModeContract:
    @pytest.mark.parametrize("mode", _MODES)
    @pytest.mark.parametrize("family", list(cli.FAMILIES))
    def test_every_family_in_every_mode(self, capsys, family, mode):
        # a mode the family does not answer is a usage error that names the
        # mode, before any work; one it answers is computed
        flags = [token for flag in NEEDED[family] for token in (flag, _NEEDED_VALUES[flag])]
        code, out, err = run(capsys, family, *flags, "--mode", mode)
        if mode in _ANSWERED[family]:
            assert (code, err) == (0, "") and json.loads(out)["mode"] == mode
        else:
            assert (code, out) == (2, "")
            assert err.startswith("usage error: ") and repr(mode) in err


class TestQFamilyRoutes:
    """Each q-family value comes from its spec type: the twisted q-Genocchi
    value of index 0, below the order, is "0" in every mode, before any
    other argument is checked, and every route is reached through its
    module-level name at call time."""

    @pytest.mark.parametrize("extra", [
        (), ("--q", "1/2"), ("--q", "0"), ("--q", "1"), ("--q=-1",),
        ("--mode", "symbolic"), ("--w=-1", "--mode", "symbolic"),
        ("--q", "4", "--mode", "padic"), ("--q", "4", "--mode", "padic", "--p", "4"),
        ("--q", "1/2", "--mode", "series"), ("--q", "1", "--mode", "series", "--M", "0"),
    ])
    def test_twisted_genocchi_index_zero(self, capsys, extra):
        code, out, err = run(capsys, "twisted-genocchi", "--n", 0, "--w", "1/2", *extra)
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert (doc["value"], doc["meta"]) == ("0", {})

    _ROUTES = {
        "qeuler": ("qeuler_hk", "qeuler_hk", "fermionic_sum", "qeuler_hk_series"),
        "qgenocchi": ("qgenocchi_hk", "qgenocchi_hk", "fermionic_sum", "qgenocchi_hk_series"),
        "twisted-euler": ("qeuler_hk", "qeuler_hk", "fermionic_sum", "real_series"),
        "twisted-genocchi": ("qgenocchi_hk", "qgenocchi_hk", "fermionic_sum", "real_series"),
    }

    @pytest.fixture
    def spies(self, monkeypatch):
        calls = []

        def spy(name, result):
            def record(*args, **kwargs):
                calls.append(name)
                return result
            return record

        for name in ("qeuler_hk", "qgenocchi_hk", "fermionic_sum"):
            monkeypatch.setattr(cli, name, spy(name, Fraction(7)))
        for name in ("qeuler_hk_series", "qgenocchi_hk_series", "real_series"):
            monkeypatch.setattr(cli, name, spy(name, (Fraction(7), Fraction(0))))
        for name in ("twisted_euler_classical", "twisted_genocchi_classical"):
            monkeypatch.setattr(classical, name, spy(name, Fraction(7)))
        return calls

    @pytest.mark.parametrize("mode", _MODES)
    @pytest.mark.parametrize("family", list(_ROUTES))
    def test_each_mode_reaches_its_route(self, capsys, spies, family, mode):
        flags = [token for flag in NEEDED[family] for token in (flag, _NEEDED_VALUES[flag])]
        code, out, err = run(capsys, family, *flags, "--mode", mode)
        doc = json.loads(out)
        # a Genocchi value scales an oracle sum and reports the scale
        assert (code, err, doc["value"]) == (0, "", str(7 * int(doc["meta"].get("scale", 1))))
        assert spies == [self._ROUTES[family][_MODES.index(mode)]]

    @pytest.mark.parametrize("family", ["twisted-euler", "twisted-genocchi"])
    def test_exact_mode_without_q_takes_the_classical_route(self, capsys, spies, family):
        code, out, err = run(capsys, family, "--n", 2, "--w", "1/2")
        assert (code, err, json.loads(out)["value"]) == (0, "", "7")
        assert spies == [family.replace("-", "_") + "_classical"]


class TestHelpAndUsage:
    """Every command answers `--help` with its own usage, and a flag error
    after a command is reported against that command's usage."""

    def test_every_command_is_listed(self):
        assert sorted(cli.build_parser().commands) == sorted(COMMANDS)

    @pytest.mark.parametrize("command", COMMANDS)
    def test_command_help(self, capsys, command):
        code, out, err = run(capsys, command, "--help")
        assert (code, err) == (0, "")
        assert out.startswith(f"usage: qgen {command} ")

    def test_top_level_help(self, capsys):
        code, out, err = run(capsys, "--help")
        assert (code, err) == (0, "") and out.startswith("usage: qgen ")

    def test_no_command(self, capsys):
        code, out, err = run(capsys)
        assert (code, out) == (2, "") and err.startswith("usage: qgen ")
        assert "qgen: error: the following arguments are required: command" in err

    @pytest.mark.parametrize("extra", [("--bogus", "2"), ("--bogus=2",), ("stray",)])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_unrecognized_after_a_command(self, capsys, tmp_path, command, extra):
        complete = {"table": ("--family", "euler", "--range", "n=0..2",
                              "--out", tmp_path / "t.json"),
                    "verify": ("classical",)}.get(command, ())
        code, out, err = run(capsys, command, *complete, *extra)
        assert (code, out) == (2, "")
        assert err.startswith(f"usage: qgen {command} ")
        assert f"\nqgen {command}: error: unrecognized arguments: {' '.join(extra)}\n" in err
        assert not (tmp_path / "t.json").exists()


# Flag values for the argv fuzzer, each a pair (well formed, malformed or
# out of range).  Sizes stay small, so that each example is fast; the
# known gaps in the pre-work budgets (a symbolic plan at m near 50000, the
# p-adic render at N >= 8, a table's later cells) are left out.
_INT = (("0", "1", "2", "3", "4"), ("-1", "-3", "x", "1.5", "1/2", ""))
_RAT = (("0", "1", "-1", "2", "-2", "4", "1/2", "3/4", "-1/3", "2/3"),
        ("1/0", "0/0", "abc", "1.5", ""))
_FAMILY_FLAGS = {
    "--n": _INT, "--m": _INT, "--k": (("1", "2", "3"), ("0", "-1", "x")),
    "--h": (("-1", "0", "1", "2", "3"), ("x", "")),
    "--q": _RAT, "--w": _RAT, "--t": _RAT, "--u": _RAT, "--x": _RAT,
    "--kind": (("fqk", "hqk", "hqkw"), ("gqk", "")),
    "--mode": (("exact", "symbolic", "padic", "series"), ("fast",)),
    "--p": (("3", "5", "7"), ("2", "4", "1", "0", "-3", "x")),
    "--N": (("1", "2", "3"), ("0", "-1", "x")),
    "--M": (("3", "20", "60"), ("0", "1", "2", "-1", "x")),
    "--series-mode": (("direct", "cesaro1"), ("cesaro2",)),
}
_RANGES = (("n=0..3", "n=1..3", "m=0..2", "k=1..2", "h=-1..1", "n=3..0"),
           ("n=0:3", "q=0..2", "n=0..x", ""))
_TABLE_FLAGS = {
    **_FAMILY_FLAGS,
    "--family": (tuple(cli.FAMILIES), ("table",)),
    "--range": _RANGES, "--range2": _RANGES,
    "--format": (("json", "csv"), ("xml",)),
    "--out": (("{tmp}/table.out",), ("{tmp}/missing/table.out", "{tmp}")),
}
_VERIFY_FLAGS = {
    "--padic-level": (("1", "2", "3"), ("0", "-1", "x")),
    "--M": (("20", "60"), ("0", "1", "3", "-1", "x")),
    "--report-json": (("{tmp}/report.json",), ("{tmp}/missing/report.json",)),
}
_SUITES = (*cli.verify_mod.SUITE_ORDER, "all")
_HELP = ("-h", "--help", "--he")
_EXTRAS = ("--bogus", "--bogus=1", "-z", "stray", "3", "--", *_HELP)


@st.composite
def _value(draw, pools):
    good, bad = pools
    return draw(st.sampled_from(good if draw(st.integers(0, 7)) else bad))


@st.composite
def command_lines(draw):
    """A command line for one of the 13 commands: its needed flags (most of
    the time) and a few others, each spelled out or abbreviated, given as
    `--flag value` or `--flag=value`, with well-formed or malformed values,
    in any order, plus now and then an unknown flag, a stray positional or
    a help request."""
    command = draw(st.sampled_from(COMMANDS))
    flags = {"table": _TABLE_FLAGS, "verify": _VERIFY_FLAGS}.get(command, _FAMILY_FLAGS)
    needed = NEEDED[command]
    if command == "table":  # a table's cells need their family's flags too
        family = draw(_value(flags["--family"]))
        needed += NEEDED.get(family, ())
        flags = {**flags, "--family": ((family,), ("nosuch",))}
    names = [f for f in needed if draw(st.integers(0, 7))]
    names += draw(st.lists(st.sampled_from(sorted(set(flags) - set(names))), max_size=3,
                           unique=True))
    groups = []
    if command == "verify" and draw(st.integers(0, 7)):
        groups.append([draw(_value((_SUITES, ("nosuch",))))])
    for name in names:
        value = draw(_value(flags[name]))
        if len(name) > 4 and draw(st.integers(0, 3)) == 0:
            name = name[:draw(st.integers(4, len(name) - 1))]
        groups.append([f"{name}={value}"] if draw(st.booleans()) else [name, value])
    if draw(st.integers(0, 3)) == 0:
        groups.append([draw(st.sampled_from(_EXTRAS))])
    groups = draw(st.permutations(groups))
    return [command, *(token for group in groups for token in group)]


_ODD_LINES = st.sampled_from([
    [], ["--help"], ["-h"], ["--he"], ["nosuch", "--n", "1"], ["--", "qnum", "--n", "1"],
    ["--n", "3", "qnum"], ["Qnum", "--n", "3"], ["qnu", "--n", "3"]])


def _parse(parse, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return vars(parse(argv)), None, out.getvalue()
        except SystemExit as exc:
            return None, exc.code, out.getvalue()


class TestCommandLineProperties:
    @settings(max_examples=400, deadline=None)
    @given(argv=st.one_of(command_lines(), _ODD_LINES))
    def test_parse_matches_the_top_level_parser(self, argv):
        # the top-level parser hands a command's tokens to its subparser;
        # parsing them with the subparser alone gives the same namespace, or
        # the same exit, and the same help text
        reference = _parse(cli.build_parser().parse_args, argv)
        assert _parse(cli.parse_args, argv) == reference

    @settings(max_examples=250, deadline=None)
    @given(argv=st.one_of(command_lines(), _ODD_LINES))
    @example(argv=["gf", "--kind", "fqk", "--k", "1", "--q", "1/2", "--t", "1/2",
                   "--mode", "symbolic"])
    def test_main_keeps_its_exit_contract(self, argv):
        with tempfile.TemporaryDirectory() as tmp:
            argv = [a.replace("{tmp}", tmp) for a in argv]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        out, err = out.getvalue(), err.getvalue()
        command = argv[0] if argv else None
        assert code in (0, 1, 2)
        assert "Traceback" not in out + err
        if code == 0 and out.startswith("usage: qgen"):
            assert err == "" and any(a in _HELP for a in argv)
        elif code == 0:
            assert err == ""
            if command == "verify":
                assert out.endswith("\nall suites passed\n")
            elif command == "table":
                assert out == ""
            else:
                assert out.endswith("\n") and out.count("\n") == 1
                assert isinstance(json.loads(out), dict)
        elif command == "verify" and code == 1:
            # a failing check is reported on stdout; a report file that
            # cannot be written, after the report, on stderr
            assert err or out.endswith("\nFAILURES detected\n")
        else:
            assert out == "" and err
