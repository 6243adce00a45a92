"""Command-line surface: compute any family, emit tables, and run the
verification suites.

Grammar:
  qgen <family> [--n --m --h --k --x --q --w --t ...] [--mode ...] [--p --N --M]
               [--series-mode direct|cesaro1]
  qgen table --family F --range n=0..8 [--range2 h=0..2] --format json|csv --out PATH
  qgen verify <suite> [--padic-level N] [--M M] [--report-json PATH]

Exit codes: 0 success, 1 domain error (vanishing denominator, divergence,
budget, unwritable result file, an exact value too long to render), 2 usage
or parse error (including a malformed configuration, a mode the family does
not answer, and a `verify` level below 1 or truncation below 3).  The
p-adic term count (p^N)^k, the series term counts (M^k for the k-variable
box, M for the Gaussian-weight series), a symbolic result's degree and the
binomial products of a classical value's tables are checked against the
term budget before any work.  All rationals serialize as exact
strings ("num/den"), never as floating point; symbolic values serialize as
{"num": [...], "den": [...]} with coefficients lowest degree first.
Configuration precedence: flags > JSON file named by QGEN_CONFIG > defaults."""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
from fractions import Fraction

from . import classical, verify as verify_mod
from .padic import (
    DEFAULT_TERM_BUDGET,
    BudgetExceeded,
    PadicParams,
    SeriesParams,
    check_degree_budget,
    check_level_budget,
    fermionic_sum,
    real_series,
)
from .qcore import (
    DomainError,
    Poly,
    QRat,
    check_power_renders,
    gauss_binom,
    parse_rat,
    q_int,
    rat_str,
)
from .qeuler import QEulerSpec, check_symbolic_budget, gf_eval, qeuler_hk, qeuler_hk_series
from .qgenocchi import QGenocchiSpec, qgenocchi_hk, qgenocchi_hk_series


class UsageError(Exception):
    """Malformed query: wrong flags for the family or mode."""


class OutputError(Exception):
    """A result file could not be written."""


INT_PARAMS = ("n", "m", "h", "k", "p", "N", "M")
RAT_PARAMS = ("q", "w", "t", "u", "x")
MODES = ("exact", "symbolic", "padic", "series")


class Config:
    def __init__(self, p: int = 3, N: int = 2, M: int = 400,
                 term_budget: int = DEFAULT_TERM_BUDGET,
                 cesaro_tol: Fraction = Fraction(1, 1000), table_budget: int = 10000):
        self.p = p
        self.N = N
        self.M = M
        self.term_budget = term_budget
        self.cesaro_tol = cesaro_tol
        self.table_budget = table_budget


def load_config() -> Config:
    cfg = Config()
    path = os.environ.get("QGEN_CONFIG")
    if path:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise UsageError(f"config {path} must hold a JSON object")
        for key in ("p", "N", "M", "term_budget", "table_budget"):
            if key in data:
                setattr(cfg, key, _config_int(path, key, data[key]))
        if "cesaro_tol" in data:
            try:
                cfg.cesaro_tol = parse_rat(str(data["cesaro_tol"]))
            except DomainError as exc:
                raise UsageError(f"config {path}: cesaro_tol: {exc}") from exc
    return cfg


def _config_int(path: str, key: str, value) -> int:
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            return int(value)
        except ValueError:
            pass
    raise UsageError(f"config {path}: {key} must be an integer, not {value!r}")


def _write_file(path: str, text: str, newline=None) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline=newline) as fh:
            fh.write(text)
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _add_family_flags(sub):
    for name in INT_PARAMS:
        sub.add_argument(f"--{name}", type=int, default=None)
    for name in RAT_PARAMS:
        sub.add_argument(f"--{name}", type=str, default=None)
    sub.add_argument("--kind", type=str, default=None,
                     choices=["fqk", "hqk", "hqkw"], help="generating function kind")
    sub.add_argument("--mode", type=str, default="exact", choices=MODES)
    sub.add_argument("--series-mode", type=str, default=None,
                     choices=["direct", "cesaro1"])


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built at the first call and then reused:
    argparse keeps no state between `parse_args` calls.  Its `commands`
    maps each command name to that command's subparser."""
    parser = argparse.ArgumentParser(
        prog="qgen",
        description="Exact computation of Gaussian binomials and the Euler/"
                    "Genocchi families, classical, q-extended, and twisted.")
    subs = parser.add_subparsers(dest="command", required=True)
    parser.commands = subs.choices
    family_flags = argparse.ArgumentParser(add_help=False)
    _add_family_flags(family_flags)
    for fam in FAMILIES:
        subs.add_parser(fam, help=f"compute the {fam} family", parents=[family_flags])

    table = subs.add_parser("table", help="emit a table over integer ranges")
    table.add_argument("--family", required=True, choices=FAMILIES)
    table.add_argument("--range", required=True, help="e.g. n=0..8")
    table.add_argument("--range2", default=None, help="optional second range")
    table.add_argument("--format", default="json", choices=["json", "csv"])
    table.add_argument("--out", required=True)
    _add_family_flags(table)

    ver = subs.add_parser("verify", help="run verification suites")
    ver.add_argument("suite", choices=verify_mod.SUITE_ORDER + ["all"])
    ver.add_argument("--padic-level", type=int, default=None)
    ver.add_argument("--M", type=int, default=None)
    ver.add_argument("--report-json", default=None)
    return parser


def _params_from_args(args) -> dict:
    params = {}
    for name in (*INT_PARAMS, *RAT_PARAMS, "kind"):
        v = getattr(args, name, None)
        if v is not None:
            params[name] = parse_rat(v) if name in RAT_PARAMS else v
    return params


def _int_param(params: dict, name: str, minimum: int = 0) -> int:
    v = params[name]
    if isinstance(v, Fraction):
        if v.denominator != 1:
            raise UsageError(f"--{name} must be an integer")
        v = v.numerator
    if v < minimum:
        raise UsageError(f"--{name} must be >= {minimum}")
    return int(v)


def _series_params(params: dict, cfg: Config, default_mode: str, series_mode) -> SeriesParams:
    M = params.get("M", cfg.M)
    return SeriesParams(M, series_mode or default_mode)


def serialize_value(v):
    if isinstance(v, Poly):
        v = QRat(v)
    if isinstance(v, QRat):
        return v.to_obj()
    return rat_str(v)


def _order(params: dict) -> int:
    return _int_param(params, "k", 1) if "k" in params else 1


def _euler_spec(params: dict) -> QEulerSpec:
    return QEulerSpec(m=_int_param(params, "m"), h=params["h"], k=_order(params),
                      x=_int_param(params, "x") if "x" in params else 0,
                      w=params.get("w", Fraction(1)))


def _genocchi_spec(params: dict) -> QGenocchiSpec:
    return QGenocchiSpec(n=_int_param(params, "n"), h=params["h"], k=_order(params),
                         w=params.get("w", Fraction(1)))


def _twisted_euler_spec(params: dict) -> QEulerSpec:
    return QEulerSpec(m=_int_param(params, "n"), h=1, k=1, w=params["w"])


def _twisted_genocchi_spec(params: dict) -> QGenocchiSpec | None:
    return QGenocchiSpec.at_index(_int_param(params, "n"), 1, 1, params["w"])


def _run_q_family(params: dict, mode: str, cfg: Config, series_mode, *, spec_of,
                  classical_route=None, gauss_series=False):
    """One q-family value from the spec `spec_of` builds, a `QEulerSpec` or a
    `QGenocchiSpec`, or None where the value vanishes identically.  The
    spec type picks its closed form and its Gaussian-weight series; the
    p-adic and series routes sum the q-Euler integrand of `spec.kernel()`
    times its integer scale, which a Genocchi value reports.  Without
    `gauss_series` the series mode sums the k-variable box of `real_series`;
    `classical_route` answers exact mode without --q."""
    spec = spec_of(params)
    if spec is None:
        return Fraction(0), {}
    espec, scale = spec.kernel()
    genocchi = isinstance(spec, QGenocchiSpec)
    if mode == "symbolic":
        check_symbolic_budget(espec, cfg.term_budget)
        return (qgenocchi_hk if genocchi else qeuler_hk)(spec, None), {}
    if "q" not in params:  # exact mode, by the classical route
        _check_products(espec.m, 1, cfg)
        return classical_route(spec), {}
    qv = params["q"]
    if mode == "exact":
        return (qgenocchi_hk if genocchi else qeuler_hk)(spec, qv), {}
    f = espec.integrand()
    scale_meta = {"scale": str(scale)} if genocchi else {}
    if mode == "padic":
        p, N = params.get("p", cfg.p), params.get("N", cfg.N)
        # checked before PadicParams tests p for primality, as README documents
        check_level_budget(p, N, f.num_vars, cfg.term_budget)
        pp = PadicParams(p, N)
        meta = {"p": pp.p, "N": pp.N, **scale_meta}
        return scale * fermionic_sum(f, qv, pp, cfg.term_budget), meta
    if gauss_series:
        sp = _series_params(params, cfg, "cesaro1" if abs(espec.w) == 1 else "direct",
                            series_mode)
        series = qgenocchi_hk_series if genocchi else qeuler_hk_series
        value, bound = series(spec, qv, sp, cfg.term_budget)
        meta = {"truncation": sp.M, "series_mode": sp.mode}
    else:
        sp = _series_params(params, cfg, "direct", series_mode)
        value, bound = real_series(f, qv, sp, cfg.term_budget)
        value, bound = scale * value, scale * bound
        meta = {"truncation": sp.M, "series_mode": sp.mode, **scale_meta}
    meta["tail_bound" if sp.mode == "direct" else "smoothing_gap"] = rat_str(bound)
    return value, meta


def _check_products(order: int, power: int, cfg: Config) -> None:
    """Classical values are budgeted by the binomial products of their
    tables, before any work and whatever the memo holds."""
    products = classical.table_products(order, power)
    if products > cfg.term_budget:
        raise BudgetExceeded(
            f"classical tables to order {order} take {products} binomial products, "
            f"beyond the budget of {cfg.term_budget}")


def _run_qnum(params: dict, mode: str, cfg: Config, series_mode):
    n = _int_param(params, "n")
    if mode == "symbolic":
        check_degree_budget(n - 1, cfg.term_budget)
        return q_int(n), {}
    return q_int(n, params["q"]), {}


def _run_qbinom(params: dict, mode: str, cfg: Config, series_mode):
    n, k = _int_param(params, "n"), _int_param(params, "k")
    if mode == "symbolic":
        check_degree_budget(k * (n - k), cfg.term_budget)
        return gauss_binom(n, k), {}
    qv = params["q"]
    if isinstance(qv, Fraction) and 0 <= k <= n:
        u, v = qv.numerator, qv.denominator
        if v > 1:
            # the reduced value's denominator is v^(k(n - k)) at q = u/v,
            # since C(n, k)_q has constant and top coefficients 1
            check_power_renders(v, k * (n - k))
        elif u >= 2:
            # every coefficient is positive and the top one is 1
            check_power_renders(u, k * (n - k))
        elif u <= -2:
            # C(n, k)_u is the product over i = 1..r, r = min(k, n - k),
            # of (u^a - 1)/(u^i - 1) with a = n - r + i, and each factor
            # has |u^a - 1|/|u^i - 1| >= (|u|^a - 1)/(|u|^i + 1)
            # >= |u|^(a - i - 1)
            r = min(k, n - k)
            check_power_renders(-u, r * (n - r - 1))
    return gauss_binom(n, k, qv), {}


def _run_classical(family: str, params: dict, mode: str, cfg: Config, series_mode):
    n = _int_param(params, "n")
    order = _int_param(params, "k") if "k" in params else 1
    if family in ("bernoulli", "frobenius") and order != 1:
        raise UsageError(f"{family} has no higher order; --k must be 1")
    if family == "bernoulli":
        if "x" in params:
            raise UsageError("Bernoulli polynomials are not defined here")
        _check_products(n, 1, cfg)
        return classical.bernoulli(n), {}
    if family == "euler":
        _check_products(n, order, cfg)
        if "x" in params:
            return classical.higher_euler_poly(n, order)(params["x"]), {}
        return classical.higher_euler_number(n, order), {}
    if family == "genocchi":
        if "x" in params:
            if order != 1:
                raise UsageError("higher-order Genocchi polynomials are not defined here")
            _check_products(n - 1, 1, cfg)
            return classical.genocchi_poly(n)(params["x"]), {}
        _check_products(n - order, order, cfg)
        return classical.higher_genocchi(n, order), {}
    _check_products(n, 1, cfg)
    if "x" in params:
        return classical.frobenius_euler_poly(n, params["u"])(params["x"]), {}
    return classical.frobenius_euler(n, params["u"]), {}


def _run_gf(params: dict, mode: str, cfg: Config, series_mode):
    sp = _series_params(params, cfg, "cesaro1", series_mode)
    x = _int_param(params, "x") if "x" in params else 0
    lhs, rhs = gf_eval(params["kind"], _int_param(params, "k", 1), x, params.get("w", Fraction(1)),
                       params["q"], params["t"], sp, term_budget=cfg.term_budget)
    return lhs, {"rhs": rat_str(rhs), "abs_diff": rat_str(abs(lhs - rhs)), "truncation": sp.M}


def _q_modes(spec: tuple, exact_needs: tuple = ("q",)) -> dict:
    """The modes of a q-family whose spec reads the optional flags `spec`.
    Every mode but symbolic reads --q and needs it, except that exact mode
    needs `exact_needs` (a twisted family's classical route answers it
    without --q); padic mode also reads the level flags, series mode the
    truncation."""
    return {"exact": (exact_needs, spec + ("q",)), "symbolic": ((), spec),
            "padic": (("q",), spec + ("p", "N")), "series": (("q",), spec + ("M",))}


_CLASSICAL = {"exact": ((), ("k", "x"))}

# Each family's entry is (flags, modes, run): the flags every query needs,
# a map from each mode the family answers to (needs, reads), the further
# flags a query in that mode needs and the flags it reads when given, and
# `run(params, mode, cfg, series_mode)`, which checks the query's budget
# before its work and returns (value, meta).  A q-family's run names its
# spec builder, its classical route and whether its series mode takes the
# Gaussian-weight route.  Every run looks the public functions up at call
# time, so a caller that rebinds a module-level name (a profiler, a test
# double) sees every call.
FAMILIES = {
    "qnum": (("n",), {"exact": (("q",), ()), "symbolic": ((), ())}, _run_qnum),
    "qbinom": (("n", "k"), {"exact": (("q",), ()), "symbolic": ((), ())}, _run_qbinom),
    "euler": (("n",), _CLASSICAL, functools.partial(_run_classical, "euler")),
    "genocchi": (("n",), _CLASSICAL, functools.partial(_run_classical, "genocchi")),
    "bernoulli": (("n",), _CLASSICAL, functools.partial(_run_classical, "bernoulli")),
    "frobenius": (("n", "u"), _CLASSICAL, functools.partial(_run_classical, "frobenius")),
    "qeuler": (("m", "h"), _q_modes(("k", "x", "w")), functools.partial(
        _run_q_family, spec_of=_euler_spec, gauss_series=True)),
    "qgenocchi": (("n", "h"), _q_modes(("k", "w")), functools.partial(
        _run_q_family, spec_of=_genocchi_spec, gauss_series=True)),
    "twisted-euler": (("n", "w"), _q_modes((), exact_needs=()), functools.partial(
        _run_q_family, spec_of=_twisted_euler_spec,
        classical_route=lambda s: classical.twisted_euler_classical(s.m, s.w))),
    "twisted-genocchi": (("n", "w"), _q_modes((), exact_needs=()), functools.partial(
        _run_q_family, spec_of=_twisted_genocchi_spec,
        classical_route=lambda s: classical.twisted_genocchi_classical(s.n + 1, s.w))),
    "gf": (("kind", "k", "q", "t"), {"exact": ((), ("x", "w", "M"))}, _run_gf),
}


def _mode_flags(family: str, mode: str) -> tuple[tuple, tuple]:
    """(needs, reads): every flag a query of `family` in `mode` needs, and
    the further flags it reads when given.  A mode the family does not
    answer is a usage error."""
    flags, modes, _ = FAMILIES[family]
    if mode not in modes:
        raise UsageError(f"{family} does not answer mode {mode!r}; it answers {', '.join(modes)}")
    needs, reads = modes[mode]
    return flags + needs, reads


def dispatch(family: str, params: dict, mode: str, cfg: Config, series_mode=None):
    """Compute one family value; returns (value, meta).  A mode the family
    does not answer, or a flag the query needs, is refused before any work."""
    needs, _ = _mode_flags(family, mode)
    missing = [name for name in needs if name not in params]
    if missing:
        raise UsageError(f"missing required parameter(s): {', '.join('--' + m for m in missing)}")
    return FAMILIES[family][2](params, mode, cfg, series_mode)


def _echo_params(params: dict) -> dict:
    out = {}
    for key in sorted(params):
        v = params[key]
        out[key] = rat_str(v) if isinstance(v, Fraction) else v
    return out


def run_query(args, cfg: Config) -> int:
    params = _params_from_args(args)
    value, meta = dispatch(args.command, params, args.mode, cfg,
                           getattr(args, "series_mode", None))
    doc = {
        "query": {"family": args.command, "params": _echo_params(params)},
        "mode": args.mode,
        "value": serialize_value(value),
        "meta": meta,
    }
    sys.stdout.write(json.dumps(doc, separators=(",", ":")) + "\n")
    return 0


def _parse_range(text: str):
    try:
        name, span = text.split("=", 1)
        lo, hi = span.split("..", 1)
        return name.strip(), int(lo), int(hi)
    except ValueError as exc:
        raise UsageError(f"bad range {text!r}; expected name=lo..hi") from exc


def run_table(args, cfg: Config) -> int:
    params = _params_from_args(args)
    r1 = _parse_range(args.range)
    r2 = _parse_range(args.range2) if args.range2 else None
    if r1[0] not in INT_PARAMS or (r2 and r2[0] not in INT_PARAMS):
        raise UsageError("ranges apply to integer parameters only")
    if r2 and r2[0] == r1[0]:
        raise UsageError(f"--range and --range2 both range over {r1[0]}")
    needs, reads = _mode_flags(args.family, args.mode)
    for flag, r in (("--range", r1), ("--range2", r2)):
        if r and r[0] in params:
            raise UsageError(f"--{r[0]} fixes {r[0]}, which {flag} ranges over")
        if r and r[0] not in needs + reads:
            raise UsageError(f"{flag} ranges over {r[0]}, which {args.family} does not read "
                             f"in {args.mode} mode")
    span1 = range(r1[1], r1[2] + 1)
    span2 = range(r2[1], r2[2] + 1) if r2 else [None]
    cells = len(span1) * len(span2)
    if cells > cfg.table_budget:
        raise BudgetExceeded(f"{cells} cells exceed the table budget of {cfg.table_budget}")

    header = [r1[0]] + ([r2[0]] if r2 else []) + ["value"]
    rows = []
    for v1 in span1:
        for v2 in span2:
            cell = dict(params)
            cell[r1[0]] = v1
            if r2:
                cell[r2[0]] = v2
            value, _ = dispatch(args.family, cell, args.mode, cfg,
                                getattr(args, "series_mode", None))
            key = [v1] + ([v2] if r2 else [])
            rows.append((key, serialize_value(value)))

    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for key, value in rows:
            cell = value if isinstance(value, str) else json.dumps(value, separators=(",", ":"))
            writer.writerow([*key, cell])
        _write_file(args.out, buf.getvalue(), newline="")
    else:
        doc = []
        for key, value in rows:
            row = {name: v for name, v in zip(header, key)}
            row["value"] = value
            doc.append(row)
        _write_file(args.out, json.dumps(doc, separators=(",", ":")) + "\n")
    return 0


def run_verify(args, cfg: Config) -> int:
    level = args.padic_level if args.padic_level is not None else cfg.N
    if level < 1:
        source = "--padic-level" if args.padic_level is not None else "config N"
        raise UsageError(f"{source} must be >= 1, not {level}")
    M = args.M if args.M is not None else cfg.M
    if M < 3:  # the cesaro1 boundary series needs three partial sums
        source = "--M" if args.M is not None else "config M"
        raise UsageError(f"{source} must be >= 3, not {M}")
    vcfg = verify_mod.VerifyConfig(
        padic_level=level,
        M=M,
        cesaro_tol=cfg.cesaro_tol,
        term_budget=cfg.term_budget,
    )
    report = verify_mod.run_suites([args.suite], vcfg)
    for suite in report["suites"]:
        for check in suite["checks"]:
            status = "PASS" if check["ok"] else "FAIL"
            detail = f" ({check['detail']})" if check["detail"] else ""
            sys.stdout.write(
                f"[{status}] {suite['suite']}/{check['name']}: "
                f"{check['points']} points{detail}\n")
    sys.stdout.write(("all suites passed" if report["ok"] else "FAILURES detected") + "\n")
    if args.report_json:
        _write_file(args.report_json, json.dumps(report, separators=(",", ":")) + "\n")
    return 0 if report["ok"] else 1


def parse_args(argv) -> argparse.Namespace:
    """Parse a command line.  One that starts with a command name is parsed
    once, by that command's subparser: the top-level parser would scan every
    token itself and then hand the same tokens to it.  Any other line (none,
    `--help`, an unknown command) goes through the top-level parser.  Both
    give the same namespace; only unrecognized arguments after a command are
    reported against the command's usage, not the top-level one."""
    parser = build_parser()
    sub = parser.commands.get(argv[0]) if argv else None
    if sub is None:
        return parser.parse_args(argv)
    args = sub.parse_args(argv[1:])
    args.command = argv[0]
    return args


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        cfg = load_config()
        if args.command == "table":
            return run_table(args, cfg)
        if args.command == "verify":
            return run_verify(args, cfg)
        return run_query(args, cfg)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 2
    except (DomainError, BudgetExceeded, OutputError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
