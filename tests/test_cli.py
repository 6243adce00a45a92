import contextlib
import io
import json
import subprocess
import sys
from fractions import Fraction

import pytest

from qgen import cli
from qgen.padic import BudgetExceeded
from qgen.qcore import DomainError, Poly, QRat, parse_rat

F = Fraction


def qgen(*args, env=None):
    cmd = [sys.executable, "-m", "qgen", *args]
    return subprocess.run(cmd, capture_output=True, text=True, env=env)


def parse_value(obj):
    if isinstance(obj, str):
        return QRat(Poly([parse_rat(obj)]))
    return QRat(Poly([parse_rat(s) for s in obj["num"]]),
                Poly([parse_rat(s) for s in obj["den"]]))


class TestQueries:
    def test_genocchi_six(self):
        res = qgen("genocchi", "--n", "6")
        assert res.returncode == 0
        doc = json.loads(res.stdout)
        assert doc["value"] == "-3"
        assert doc["query"]["family"] == "genocchi"

    def test_qnum(self):
        res = qgen("qnum", "--n", "3", "--q", "1/2")
        assert json.loads(res.stdout)["value"] == "7/4"

    def test_symbolic_qeuler(self):
        res = qgen("qeuler", "--m", "1", "--h", "1", "--k", "1", "--x", "0",
                   "--mode", "symbolic")
        doc = json.loads(res.stdout)
        assert doc["value"] == {"num": ["0", "-1"], "den": ["1", "0", "1"]}

    def test_series_meta(self):
        res = qgen("qeuler", "--m", "1", "--h", "0", "--k", "1", "--q", "1/2",
                   "--mode", "series", "--M", "200")
        doc = json.loads(res.stdout)
        assert doc["meta"]["truncation"] == 200
        value = parse_value(doc["value"]).constant_value()
        assert abs(value - F(-1, 2)) < F(1, 1000)

    def test_padic_mode(self):
        res = qgen("qeuler", "--m", "2", "--h", "1", "--k", "1", "--q", "4",
                   "--mode", "padic", "--p", "3", "--N", "3")
        doc = json.loads(res.stdout)
        assert doc["meta"] == {"p": 3, "N": 3}
        approx = parse_value(doc["value"]).constant_value()
        assert (approx - F(12, 221)).numerator % 27 == 0

    def test_twisted_families_without_q_are_classical(self):
        res = qgen("twisted-euler", "--n", "1", "--w", "1/2")
        assert json.loads(res.stdout)["value"] == "-4/9"
        res = qgen("twisted-genocchi", "--n", "2", "--w", "1")
        assert json.loads(res.stdout)["value"] == "-1"

    def test_gf_family(self):
        res = qgen("gf", "--kind", "fqk", "--k", "1", "--q", "1/2", "--t", "1/4",
                   "--M", "200")
        doc = json.loads(res.stdout)
        diff = parse_rat(doc["meta"]["abs_diff"])
        assert diff < F(1, 1000)


class TestDeterminismAndRoundTrip:
    def test_byte_identical_runs(self):
        a = qgen("qeuler", "--m", "3", "--h", "2", "--k", "2", "--mode", "symbolic")
        b = qgen("qeuler", "--m", "3", "--h", "2", "--k", "2", "--mode", "symbolic")
        assert a.stdout == b.stdout and a.returncode == b.returncode == 0

    def test_rational_round_trip(self):
        for args in (["bernoulli", "--n", "12"], ["euler", "--n", "9"],
                     ["qnum", "--n", "5", "--q", "-2"]):
            doc = json.loads(qgen(*args).stdout)
            v = parse_rat(doc["value"])
            assert isinstance(v, F)

    def test_symbolic_round_trip_reduced(self):
        # the hk family reports the shifted index: row n is the value of
        # index n + k, so n=2, k=1 is the base number of index 3
        doc = json.loads(qgen("qgenocchi", "--n", "2", "--h", "1", "--k", "1",
                              "--mode", "symbolic").stdout)
        parsed = parse_value(doc["value"])
        from qgen.qgenocchi import qgenocchi
        assert parsed == qgenocchi(3)


class TestExitCodes:
    def test_malformed_query_is_two(self):
        assert qgen("nosuchfamily", "--n", "1").returncode == 2
        assert qgen("qnum").returncode == 2          # missing required --n
        assert qgen("qnum", "--n", "3").returncode == 2  # exact mode needs --q
        assert qgen("qnum", "--n", "x").returncode == 2

    def test_domain_error_is_one(self):
        res = qgen("qeuler", "--m", "0", "--h", "1", "--k", "1", "--q", "1/2",
                   "--w", "-2")
        assert res.returncode == 1
        assert "vanishing denominator" in res.stderr

    def test_divergence_is_one(self):
        res = qgen("twisted-euler", "--n", "1", "--w", "3", "--q", "1/2",
                   "--mode", "series")
        assert res.returncode == 1

    def test_exact_mode_q_guard_is_one(self):
        res = qgen("qeuler", "--m", "1", "--h", "1", "--k", "1", "--q", "1")
        assert res.returncode == 1


class TestTable:
    def test_genocchi_csv(self, tmp_path):
        out = tmp_path / "g.csv"
        res = qgen("table", "--family", "genocchi", "--range", "n=0..8",
                   "--format", "csv", "--out", str(out))
        assert res.returncode == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n,value"
        assert [ln.split(",")[1] for ln in lines[1:]] == \
            ["0", "1", "-1", "0", "1", "0", "-3", "0", "17"]

    def test_symbolic_qgenocchi_rows(self, tmp_path):
        out = tmp_path / "qg.json"
        res = qgen("table", "--family", "qgenocchi", "--range", "n=0..3",
                   "--h", "1", "--k", "1", "--mode", "symbolic",
                   "--format", "json", "--out", str(out))
        assert res.returncode == 0
        rows = json.loads(out.read_text())
        assert len(rows) == 4
        assert rows[0]["value"] == "1"

    def test_empty_range(self, tmp_path):
        out = tmp_path / "empty.csv"
        res = qgen("table", "--family", "euler", "--range", "n=5..4",
                   "--format", "csv", "--out", str(out))
        assert res.returncode == 0
        assert out.read_text() == "n,value\n"

    def test_two_ranges_lexicographic(self, tmp_path):
        out = tmp_path / "two.json"
        res = qgen("table", "--family", "qbinom", "--range", "n=2..3",
                   "--range2", "k=0..2", "--mode", "symbolic",
                   "--format", "json", "--out", str(out))
        assert res.returncode == 0
        rows = json.loads(out.read_text())
        assert [(r["n"], r["k"]) for r in rows] == \
            [(2, 0), (2, 1), (2, 2), (3, 0), (3, 1), (3, 2)]

    def test_two_ranges_over_one_parameter_is_two(self, tmp_path):
        out = tmp_path / "x.csv"
        res = qgen("table", "--family", "euler", "--range", "n=0..2",
                   "--range2", "n=0..1", "--format", "csv", "--out", str(out))
        assert res.returncode == 2
        assert res.stderr == "usage error: --range and --range2 both range over n\n"
        assert not out.exists()

    @pytest.mark.parametrize("ranges, flag, message", [
        (["--range", "n=0..2"], ["--n", "5"], "--n fixes n, which --range ranges over"),
        (["--range", "n=0..2", "--range2", "k=0..1"], ["--k", "1"],
         "--k fixes k, which --range2 ranges over"),
    ])
    def test_fixed_flag_for_a_ranged_parameter_is_two(self, tmp_path, ranges, flag, message):
        out = tmp_path / "x.csv"
        res = qgen("table", "--family", "euler", *ranges, *flag, "--format", "csv",
                   "--out", str(out))
        assert res.returncode == 2
        assert res.stderr == f"usage error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["--family", "qnum", "--range", "n=0..2", "--range2", "k=0..1", "--q", "1/2"],
         "--range2 ranges over k, which qnum does not read in exact mode"),
        (["--family", "qeuler", "--range", "N=1..2", "--m", "1", "--h", "1", "--q", "1/2"],
         "--range ranges over N, which qeuler does not read in exact mode"),
        (["--family", "twisted-euler", "--range", "n=0..1", "--range2", "k=1..2", "--w", "1/2",
          "--mode", "symbolic"],
         "--range2 ranges over k, which twisted-euler does not read in symbolic mode"),
    ])
    def test_range_over_a_parameter_the_mode_does_not_read_is_two(self, tmp_path, argv,
                                                                  message):
        # each value would print again under every value of that range
        out = tmp_path / "x.json"
        res = qgen("table", *argv, "--out", str(out))
        assert res.returncode == 2
        assert res.stderr == f"usage error: {message}\n"
        assert not out.exists()

    def test_range_over_the_level_in_padic_mode(self, tmp_path):
        out = tmp_path / "levels.csv"
        res = qgen("table", "--family", "qeuler", "--range", "N=1..2", "--m", "1", "--h", "1",
                   "--q", "4", "--mode", "padic", "--format", "csv", "--out", str(out))
        assert res.returncode == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "N,value" and len(lines) == 3 and lines[1] != lines[2]

    # Each mode's `reads` in `cli.FAMILIES` must name exactly the optional
    # flags its run reads: a listed flag changes the outcome (value, meta or
    # refusal) at some base query, an unlisted one changes none.  The two
    # bases differ in h, since a q-family's series mode needs h = k - 1.
    _BASES = ({"h": 1}, {"h": 0})
    _BASE = {"n": 4, "m": 3, "k": 2, "w": F(-1, 2), "u": F(-2), "kind": "hqkw",
             "q": F(1, 3), "t": F(1, 5)}
    _PROBES = {"n": (2, 5), "m": (2, 5), "h": (0, 2), "k": (1, 3), "p": (2, 5), "N": (1, 3),
               "M": (10, 30), "q": (F(1, 2), F(-2)), "w": (F(1, 3), F(2)), "t": (F(1, 7),),
               "u": (F(3),), "x": (F(1), F(2))}

    @staticmethod
    def _outcome(family, params, mode):
        try:
            return cli.dispatch(family, params, mode, cli.Config(M=40))
        except (cli.UsageError, DomainError, BudgetExceeded) as exc:
            return type(exc).__name__, str(exc)

    @pytest.mark.parametrize("family, mode", [
        (family, mode) for family, (_, modes, _) in cli.FAMILIES.items() for mode in modes])
    def test_reads_names_the_flags_the_mode_reads(self, family, mode):
        assert set(self._PROBES) == {*cli.INT_PARAMS, *cli.RAT_PARAMS}
        needs, reads = cli._mode_flags(family, mode)
        read = set()
        for b in self._BASES:
            base = {f: {**self._BASE, **b}[f] for f in needs}
            ref = self._outcome(family, base, mode)
            read |= {flag for flag, probes in self._PROBES.items() if flag not in needs
                     and any(self._outcome(family, {**base, flag: v}, mode) != ref
                             for v in probes)}
        assert read == set(reads).difference(needs)

    def test_byte_identical_table(self, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            qgen("table", "--family", "bernoulli", "--range", "n=0..10",
                 "--format", "csv", "--out", str(out))
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_bad_range_is_two(self, tmp_path):
        res = qgen("table", "--family", "euler", "--range", "n=0:8",
                   "--format", "csv", "--out", str(tmp_path / "x.csv"))
        assert res.returncode == 2


class TestConfig:
    def test_env_config_overrides_default(self, tmp_path, monkeypatch):
        import os
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"M": 50}))
        env = dict(os.environ, QGEN_CONFIG=str(cfg))
        res = qgen("qeuler", "--m", "0", "--h", "0", "--k", "1", "--q", "1/2",
                   "--mode", "series", env=env)
        doc = json.loads(res.stdout)
        assert doc["meta"]["truncation"] == 50

    def test_flag_beats_config(self, tmp_path):
        import os
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"M": 50}))
        env = dict(os.environ, QGEN_CONFIG=str(cfg))
        res = qgen("qeuler", "--m", "0", "--h", "0", "--k", "1", "--q", "1/2",
                   "--mode", "series", "--M", "77", env=env)
        assert json.loads(res.stdout)["meta"]["truncation"] == 77


class TestVerifyCommand:
    def test_single_suite_green(self, tmp_path):
        report = tmp_path / "report.json"
        res = qgen("verify", "classical", "--report-json", str(report))
        assert res.returncode == 0
        assert "all suites passed" in res.stdout
        doc = json.loads(report.read_text())
        assert doc["ok"] is True
        assert doc["suites"][0]["suite"] == "classical"

    def test_unknown_suite_is_two(self):
        assert qgen("verify", "nosuchsuite").returncode == 2

    @pytest.mark.parametrize("suite", ["qeuler", "qgenocchi"])
    def test_truncation_over_budget_is_one(self, capsys, suite):
        # the Gaussian-weight series check the budget they are passed
        code = cli.main(["verify", suite, "--M", "300000"])
        out, err = capsys.readouterr()
        assert (code, out) == (1, "")
        assert err == "error: 300000 terms exceed the budget of 100000\n"


class TestParserReuse:
    def test_one_parser_serves_a_command_mix(self, tmp_path, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # help wraps to the same width in both routes
        commands = [
            ["qnum", "--n", "3", "--q", "1/2"],
            ["qnum", "--mode", "bogus"],            # argparse usage error
            ["qnum", "--help"],
            ["euler", "--n", "9", "--k", "2"],
            ["verify", "classical"],
            ["table", "--family", "genocchi", "--range", "n=0..8", "--format", "csv",
             "--out", "{out}"],
            ["frobenius", "--n", "4", "--u", "2", "--x", "1/3"],
            ["qnum", "--n", "3"],                   # usage error after parsing
            ["frobenius", "--n", "2", "--u", "1"],  # domain error
            ["nosuchfamily"],
            ["twisted-genocchi", "--n", "5", "--w", "1/2"],
            ["qeuler", "--m", "2", "--h", "1", "--k", "2", "--q", "1/3"],
        ]
        cli.build_parser.cache_clear()
        for i, argv in enumerate(commands):
            outs = [tmp_path / f"in{i}", tmp_path / f"sub{i}"]
            args = [[str(out) if a == "{out}" else a for a in argv] for out in outs]
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(args[0])
            fresh = qgen(*args[1])
            assert (code, stdout.getvalue(), stderr.getvalue()) == \
                (fresh.returncode, fresh.stdout, fresh.stderr), argv
            written = [out.read_bytes() if out.exists() else None for out in outs]
            assert written[0] == written[1], argv
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in5", "sub5"]  # the table
        info = cli.build_parser.cache_info()
        assert (info.misses, info.hits) == (1, len(commands) - 1)
