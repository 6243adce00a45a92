"""The shape of `qgen verify all`: every check of every suite, in report
order, with its point count.  The counts do not depend on the p-adic
level, which sets only how deep each oracle point sums.  A check's detail
names only a failing point."""

import json
from fractions import Fraction

import pytest

from qgen import cli, verify
from qgen.padic import Config, SeriesParams

ALL_CHECKS = [
    ("qcore", "gauss-binom-recursion-forms", 231),
    ("qcore", "gauss-binom-factorial-quotient", 91),
    ("qcore", "gauss-binom-compositions", 91),
    ("qcore", "gauss-binom-symmetry", 231),
    ("qcore", "pochhammer-signed-expansion", 66),
    ("qcore", "pochhammer-reciprocal-truncation", 65),
    ("qcore", "pochhammer-ratio-inversion", 81),
    ("qcore", "evaluation-homomorphism", 252),
    ("classical", "euler-complementarity", 16),
    ("classical", "higher-genocchi-euler-coefficients", 44),
    ("classical", "genocchi-identities", 40),
    ("classical", "order-one-reduction", 26),
    ("classical", "frobenius-poly-at-zero", 33),
    ("padic", "constant-integrand-normalization", 18),
    ("padic", "measure-additivity", 39),
    ("padic", "closed-form-valuation-growth", 24),
    ("padic", "absolute-series-tail-bounds", 18),
    ("padic", "boundary-series-regularization", 4),
    ("padic", "shift-identity-residuals", 5),
    ("qeuler", "integral-oracle-valuations", 198),
    ("qeuler", "real-series-absolute-oracle", 32),
    ("qeuler", "boundary-series-closed-agreement", 48),
    ("qeuler", "classical-limit", 135),
    ("qeuler", "twist-reduction", 18),
    ("qeuler", "twisted-euler-frobenius-identity", 33),
    ("qgenocchi", "index-shift-moments", 6),
    ("qgenocchi", "integral-oracle-valuations", 48),
    ("qgenocchi", "classical-limit", 26),
    ("qgenocchi", "order-coefficient-forms", 44),
    ("qgenocchi", "twist-continuity", 22),
    ("qgenocchi", "first-value-is-one", 4),
    ("qgenocchi", "boundary-series-closed-agreement", 16),
    ("limits", "qeuler-classical-limits", 45),
    ("limits", "qgenocchi-classical-limits", 15),
    ("limits", "twist-unity-collapse", 26),
]


@pytest.mark.parametrize("level", [2, 4])
def test_all_suites_checks_and_points(level):
    report = verify.run_suites(["all"], Config(N=level))
    got = [(s["suite"], c["name"], c["points"]) for s in report["suites"] for c in s["checks"]]
    assert got == ALL_CHECKS
    assert report["ok"]
    assert all(c["detail"] == "" for s in report["suites"] for c in s["checks"])


@pytest.mark.parametrize("level,budget,k3_levels", [
    (2, 100_000, (1, 2)),
    (5, 100_000, (1, 2, 3)),
    (3, 10_000, (1, 2)),
])
def test_k3_oracle_depth_follows_the_budget(monkeypatch, level, budget, k3_levels):
    """The k = 3 oracle sums every level whose (3^N)^3 box is within the
    term budget; the k <= 2 oracle sums every requested level."""
    seen = set()
    check = verify.padic_limit_check

    def spy(f, target, qv, p, levels, term_budget):
        seen.add((f.num_vars, tuple(levels)))
        return check(f, target, qv, p, levels, term_budget)

    monkeypatch.setattr(verify, "padic_limit_check", spy)
    verify.run_suites(["qeuler"], Config(N=level, term_budget=budget))
    requested = tuple(range(1, level + 1))
    assert seen == {(1, requested), (2, requested), (3, k3_levels)}


@pytest.mark.parametrize("diff,ok,detail", [
    # a passing point renders nothing, however many digits its diff has
    (Fraction(1, 10 ** 5000 + 1), True, ""),
    (Fraction(1, 3), False, "|diff|=1/3"),
])
def test_boundary_detail_only_on_failure(diff, ok, detail):
    def closed(spec, qv):
        return Fraction(0)

    def series(spec, qv, sp, budget):
        return diff, Fraction(0)

    points = verify._boundary_points([("p", None)], closed, series, Fraction(1, 2),
                                     SeriesParams(3, "cesaro1"), Config())
    assert list(points) == [("p", ok, detail)]


def _failing_suite(cfg):
    """Two checks: the first fails at its third point, the second passes."""
    yield "fails-third", ((("p", i), i != 2, f"info {i}") for i in range(5))
    yield "passes", iter([("a", True, "")])


def test_failing_check_row_and_exit(monkeypatch, capsys):
    monkeypatch.setattr(verify, "SUITES", {**verify.SUITES, "qcore": _failing_suite})
    report = verify.run_suites(["qcore"])
    assert report == {"ok": False, "suites": [{"suite": "qcore", "ok": False, "checks": [
        {"name": "fails-third", "ok": False, "points": 3,
         "detail": "failed at ('p', 2): info 2"},
        {"name": "passes", "ok": True, "points": 1, "detail": ""},
    ]}]}
    assert cli.main(["verify", "qcore"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out == ["[FAIL] qcore/fails-third: 3 points (failed at ('p', 2): info 2)",
                   "[PASS] qcore/passes: 1 points",
                   "FAILURES detected"]


@pytest.mark.parametrize("name", verify.SUITE_ORDER)
def test_checks_do_not_depend_on_when_they_run(name):
    """A suite's grids read nothing that the suite rebinds after yielding
    them: collecting every check before running any gives the same rows
    as running each as it is yielded."""
    cfg = Config()
    collected = list(verify.SUITES[name](cfg))
    rows = [verify._run_grid(check_name, points) for check_name, points in collected]
    assert rows == verify.run_suites([name], cfg)["suites"][0]["checks"]


@pytest.fixture
def settings_seen(monkeypatch):
    """The (N, M, cesaro_tol, term_budget) of each `run_suites` call that
    passes a config, None for one that does not."""
    seen = []
    run = verify.run_suites

    def spy(names, cfg=None):
        seen.append(cfg and (cfg.N, cfg.M, cfg.cesaro_tol, cfg.term_budget))
        return run(names, cfg)

    monkeypatch.setattr(verify, "run_suites", spy)
    return seen


def _cli_report(tmp_path, *flags) -> str:
    path = tmp_path / "report.json"
    assert cli.main(["verify", "all", "--report-json", str(path), *flags]) == 0
    return path.read_text()


def test_cli_defaults_reach_verify(tmp_path, monkeypatch, settings_seen):
    monkeypatch.delenv("QGEN_CONFIG", raising=False)
    expect = verify.run_suites(["all"])
    assert _cli_report(tmp_path) == json.dumps(expect, separators=(",", ":")) + "\n"
    default = Config()
    assert settings_seen[-1] == (default.N, default.M, default.cesaro_tol, default.term_budget)


def test_config_file_reaches_verify(tmp_path, monkeypatch, settings_seen):
    monkeypatch.delenv("QGEN_CONFIG", raising=False)
    by_flags = _cli_report(tmp_path, "--padic-level", "3", "--M", "300")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"N": 3, "M": 300}))
    monkeypatch.setenv("QGEN_CONFIG", str(config))
    assert _cli_report(tmp_path) == by_flags
    assert settings_seen[0] == settings_seen[1]
    assert settings_seen[0][:2] == (3, 300)
