"""Run one benchmark item and check its output by an independent route.

`execute(item, workdir)` is the only code inside the timed region.
`check(item, output)` compares the output with a route the item did not
take: symbolic closed forms against the classical generating-function
algebra at q = 1 and against exact mode at a rational point; p-adic
verdicts against admissibility (q = w = 1 mod p); series values against
exact closed forms within their bound; command lines against their
documented exit code and against a second route for the printed value.
`corrupt(item, output)` returns a deliberately wrong output of the same
shape, used by the checker self-test.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
from fractions import Fraction

from qgen import classical, cli, qcore
from qgen.classical import ExpSeries
from qgen.padic import (
    QBracketMonomial,
    SeriesParams,
    convergence_envelope_ok,
    padic_limit_check,
    real_series,
    val_p,
)
from qgen.qcore import Poly, QRat, parse_rat
from qgen.qeuler import QEulerSpec, gf_eval, qeuler_hk, qeuler_hk_series, qeuler_twisted
from qgen.qgenocchi import QGenocchiSpec, qgenocchi_hk, qgenocchi_hk_series, qgenocchi_twisted

F = Fraction
CESARO_TOL = Fraction(1, 1000)
GF_T_TERMS = 8


# ------------------------------------------------------- classical routes

def twisted_higher_euler(m: int, k: int, x, w) -> Fraction:
    """Coefficient of t^m/m! in (2/(w e^t + 1))^k e^{xt}: the q -> 1 value
    of the order-k twisted q-Euler family."""
    w = F(w)
    if w == 1:
        return classical.higher_euler_poly(m, k)(F(x))
    base = ExpSeries([1 + w] + [w] * m, m).reciprocal().scale(F(2))
    return ((base ** k) * ExpSeries.exp_linear(F(x), m)).coeff(m)


def twisted_higher_genocchi(n: int, k: int, w) -> Fraction:
    """Coefficient of t^(n+k)/(n+k)! in (2t/(w e^t + 1))^k."""
    w = F(w)
    if w == 1:
        return classical.higher_genocchi(n + k, k)
    top = n + k
    s = ExpSeries([1 + w] + [w] * top, top).reciprocal().scale(F(2)) ** k
    for _ in range(k):
        s = s.shift_t()
    return s.coeff(top)


def _recurrence(n: int, shift, lead, const) -> list[Fraction]:
    """Coefficients c_0..c_n of A(t) with (shift e^t + lead) A(t) = const,
    by the binomial recurrence (no series reciprocal, unlike classical)."""
    out = []
    for j in range(n + 1):
        acc = (const if j == 0 else 0) - shift * sum(math.comb(j, i) * out[i] for i in range(j))
        out.append(Fraction(acc) / (shift + lead))
    return out


def classical_value(family: str, n: int, order: int = 1, u=None, w=None) -> Fraction:
    """Classical numbers by recurrence, an independent route to `classical`."""
    if family == "bernoulli":
        b = []
        for j in range(n + 1):
            acc = (1 if j == 0 else 0) - sum(math.comb(j + 1, i) * b[i] for i in range(j))
            b.append(Fraction(acc, j + 1))
        return b[n]
    if family == "frobenius":
        u = F(u)
        return _recurrence(n, F(1), -u, 1 - u)[n]
    if family == "twisted-euler":
        return _recurrence(n, F(w), F(1), F(2))[n]
    if family == "twisted-genocchi":
        return n * _recurrence(n - 1, F(w), F(1), F(2))[n - 1] if n else F(0)
    euler = _recurrence(n, F(1), F(1), F(2))
    if family == "euler":
        # order-k Euler numbers: k-fold binomial convolution
        acc = [F(1)] + [F(0)] * n
        for _ in range(order):
            acc = [sum(math.comb(j, i) * acc[i] * euler[j - i] for i in range(j + 1))
                   for j in range(n + 1)]
        return acc[n]
    if family == "genocchi":
        return n * euler[n - 1] if n else F(0)
    raise ValueError(family)


# ------------------------------------------------------------- execution

def _euler_spec(item) -> QEulerSpec:
    return QEulerSpec(m=item["m"], h=item["h"], k=item["k"], x=item["x"], w=F(item["w"]))


def _genocchi_spec(item) -> QGenocchiSpec:
    return QGenocchiSpec(n=item["m"], h=item["h"], k=item["k"], w=F(item["w"]))


def _run_cli(argv, workdir):
    if argv[0] == "table":
        argv = argv + ["--out", os.path.join(workdir, "table.out")]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    table = None
    if argv[0] == "table" and code == 0:
        with open(argv[-1], encoding="utf-8") as fh:
            table = fh.read()
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "table": table}


def execute(item: dict, workdir: str):
    """Run one item through the program; the only timed code."""
    cls = item["cls"]
    if cls == "sym_qeuler":
        return qeuler_hk(_euler_spec(item))
    if cls == "sym_qgenocchi":
        return qgenocchi_hk(_genocchi_spec(item))
    if cls == "sym_qeuler_twisted":
        return qeuler_twisted(item["m"], F(item["w"]))
    if cls == "sym_qgenocchi_twisted":
        return qgenocchi_twisted(item["m"], w=F(item["w"]))
    if cls == "sym_triangle":
        return qcore.gauss_binom_triangle(item["n"])[item["n"]]
    if cls == "sym_factorial":
        return qcore.gauss_binom_factorial(item["n"], item["k"])
    if cls in ("padic_qeuler", "padic_qgenocchi"):
        qv = F(item["q"])
        if cls == "padic_qeuler":
            target = qeuler_hk(_euler_spec(item), qv)
            f = QBracketMonomial(m=item["m"], k=item["k"], h=item["h"], w=F(item["w"]),
                                 x=item["x"])
        else:
            spec = _genocchi_spec(item)
            scale = math.factorial(spec.k) * math.comb(spec.n + spec.k, spec.k)
            target = qgenocchi_hk(spec, qv) / scale
            f = QBracketMonomial(m=spec.n, k=spec.k, h=spec.h, w=spec.w)
        rep = padic_limit_check(f, target, qv, item["p"], list(range(1, item["N"] + 1)))
        return rep.verdict or convergence_envelope_ok(rep)
    if cls == "series_qeuler":
        return qeuler_hk_series(_euler_spec(item), F(item["q"]),
                                SeriesParams(item["M"], item["mode"]))
    if cls == "series_qgenocchi":
        return qgenocchi_hk_series(_genocchi_spec(item), F(item["q"]),
                                   SeriesParams(item["M"], item["mode"]))
    if cls == "series_gf":
        lhs, _ = gf_eval(item["kind"], item["k"], item["x"], F(item["w"]), F(item["q"]),
                         F(item["t"]), SeriesParams(item["M"]), GF_T_TERMS)
        return lhs
    if cls == "series_box":
        f = QBracketMonomial(m=item["m"], k=item["k"], h=item["h"], w=F(item["w"]),
                             x=item["x"])
        return real_series(f, F(item["q"]), SeriesParams(item["M"], item["mode"]),
                           item["M"] ** item["k"])
    if cls == "cli":
        return _run_cli(item["argv"], workdir)
    raise ValueError(f"unknown item class {cls!r}")


# ----------------------------------------------------------------- checks

def _check_symbolic_value(value, q0, at_one_expect, exact_at_q0) -> bool:
    if isinstance(value, Poly):
        value = QRat(value)
    return value.at_one() == at_one_expect and value.evaluate(q0) == exact_at_q0


def _gf_closed_form(item) -> Fraction:
    """Right-hand side of the generating function, from exact closed forms."""
    qv, t, w, k = F(item["q"]), F(item["t"]), F(item["w"]), item["k"]
    total = F(0)
    if item["kind"] == "fqk":
        for m in range(GF_T_TERMS):
            val = qeuler_hk(QEulerSpec(m=m, h=k - 1, k=k, x=item["x"], w=w), qv)
            total += val * t ** m / math.factorial(m)
        return total
    if item["kind"] == "hqk":
        w = F(1)
    for n in range(GF_T_TERMS):
        val = qgenocchi_hk(QGenocchiSpec(n=n, h=k - 1, k=k, w=w), qv)
        total += val * t ** (n + k) / math.factorial(n + k)
    return total


def _within(value, bound, mode, exact) -> bool:
    tol = bound if mode == "direct" else CESARO_TOL
    return abs(value - exact) <= tol


def check(item: dict, out) -> bool:
    """True when `out` is the correct output of `item`, judged by a route
    the item did not take."""
    cls = item["cls"]
    if cls.startswith("sym_"):
        q0 = F(item["q0"])
        if cls == "sym_triangle":
            n = item["n"]
            return len(out) == n + 1 and all(
                out[k](F(1)) == math.comb(n, k)
                and out[k](q0) == qcore.gauss_binom_factorial(n, k, q0)
                for k in range(n + 1))
        if cls == "sym_factorial":
            n, k = item["n"], item["k"]
            return _check_symbolic_value(out, q0, F(math.comb(n, k)), qcore.gauss_binom(n, k, q0))
        m, k, w = item["m"], item["k"], F(item["w"])
        if cls == "sym_qeuler":
            expect1 = twisted_higher_euler(m, k, item["x"], w)
            exact = qeuler_hk(_euler_spec(item), q0)
        elif cls == "sym_qgenocchi":
            expect1 = twisted_higher_genocchi(m, k, w)
            exact = qgenocchi_hk(_genocchi_spec(item), q0)
        elif cls == "sym_qeuler_twisted":
            expect1 = twisted_higher_euler(m, 1, 0, w)
            exact = qeuler_hk(QEulerSpec(m=m, h=1, k=1, w=w), q0)
        else:
            expect1 = twisted_higher_genocchi(m - 1, 1, w) if m else F(0)
            exact = m * qeuler_hk(QEulerSpec(m=m - 1, h=1, k=1, w=w), q0) if m else F(0)
        return _check_symbolic_value(out, q0, expect1, exact)
    if cls.startswith("padic_"):
        return out is (item["expect"] == "certify")
    if cls == "series_qeuler":
        value, bound = out
        return _within(value, bound, item["mode"], qeuler_hk(_euler_spec(item), F(item["q"])))
    if cls == "series_qgenocchi":
        value, bound = out
        exact = qgenocchi_hk(_genocchi_spec(item), F(item["q"]))
        return _within(value, bound, item["mode"], exact)
    if cls == "series_gf":
        return abs(out - _gf_closed_form(item)) <= CESARO_TOL
    if cls == "series_box":
        value, bound = out
        return _within(value, bound, item["mode"], qeuler_hk(_euler_spec(item), F(item["q"])))
    if cls == "cli":
        return check_cli(item, out)
    raise ValueError(f"unknown item class {cls!r}")


# ------------------------------------------------------------ cli checks

def _parse_value(obj):
    if isinstance(obj, str):
        return parse_rat(obj)
    return QRat(Poly([parse_rat(s) for s in obj["num"]]),
                Poly([parse_rat(s) for s in obj["den"]]))


def _opts(argv) -> dict:
    opts = {}
    for i, arg in enumerate(argv):
        if arg.startswith("--") and "=" in arg:
            key, value = arg[2:].split("=", 1)
            opts[key] = value
        elif arg.startswith("--") and i + 1 < len(argv):
            opts[arg[2:]] = argv[i + 1]
    return opts


def _expected_exact(family: str, o: dict, qv):
    """A family value at a rational q (or q = 1 for classical families),
    by a route other than the one `qgen` takes for that family and mode."""
    n = int(o.get("n", 0))
    if family == "qnum":
        return sum((qv ** i for i in range(n)), F(0))
    if family == "qbinom":
        return qcore.gauss_binom_factorial(n, int(o["k"]), qv)
    if family == "qeuler":
        spec = QEulerSpec(m=int(o["m"]), h=int(o["h"]), k=int(o.get("k", 1)),
                          x=int(o.get("x", 0)), w=F(o.get("w", "1")))
        return qeuler_hk(spec).evaluate(qv)
    if family == "qgenocchi":
        spec = QGenocchiSpec(n=n, h=int(o["h"]), k=int(o.get("k", 1)), w=F(o.get("w", "1")))
        return qgenocchi_hk(spec).evaluate(qv)
    if family == "twisted-euler":
        return qeuler_hk(QEulerSpec(m=n, h=1, k=1, w=F(o["w"])), qv)
    if family == "twisted-genocchi":
        return n * qeuler_hk(QEulerSpec(m=n - 1, h=1, k=1, w=F(o["w"])), qv) if n else F(0)
    raise ValueError(family)


def _expected_at_one(family: str, o: dict):
    n = int(o.get("n", o.get("m", 0)))
    if family in ("euler", "genocchi", "bernoulli", "frobenius"):
        return classical_value(family, n, int(o.get("k", 1)), u=o.get("u"))
    if family in ("twisted-euler", "twisted-genocchi"):
        return classical_value(family, n, w=o["w"])
    if family == "qnum":
        return F(n)
    if family == "qbinom":
        return F(math.comb(n, int(o["k"])))
    if family == "qeuler":
        return twisted_higher_euler(n, int(o.get("k", 1)), o.get("x", 0), o.get("w", "1"))
    if family == "qgenocchi":
        return twisted_higher_genocchi(n, int(o.get("k", 1)), o.get("w", "1"))
    raise ValueError(family)


def _check_query(family: str, o: dict, mode: str, value, meta) -> bool:
    if family in ("euler", "genocchi", "bernoulli", "frobenius"):
        return value == _expected_at_one(family, o)
    if family in ("twisted-euler", "twisted-genocchi") and mode == "exact" and "q" not in o:
        return value == _expected_at_one(family, o)
    if family == "gf":
        item = {"kind": o["kind"], "k": int(o["k"]), "x": int(o.get("x", 0)),
                "w": o.get("w", "1"), "q": o["q"], "t": o["t"]}
        return abs(value - _gf_closed_form(item)) <= CESARO_TOL
    if mode == "symbolic":
        value = value if isinstance(value, QRat) else QRat(Poly([value]))
        q0 = F(5, 7)
        return (value.at_one() == _expected_at_one(family, o)
                and value.evaluate(q0) == _expected_exact(family, o, q0))
    qv = F(o["q"])
    exact = _expected_exact(family, o, qv)
    if mode == "exact":
        return value == exact
    if mode == "padic":
        p, N = int(o.get("p", 3)), int(o["N"])
        return val_p(value - exact, p) >= N - 1
    if mode == "series":
        if "tail_bound" in meta:
            return abs(value - exact) <= F(meta["tail_bound"])
        return abs(value - exact) <= CESARO_TOL
    raise ValueError(mode)


def _check_table(argv, text: str) -> bool:
    o = _opts(argv)
    fmt = o.get("format", "json")
    mode = o.get("mode", "exact")
    if fmt == "csv":
        lines = list(csv.reader(io.StringIO(text)))
        header, rows = lines[0], []
        for fields in lines[1:]:
            row = dict(zip(header[:-1], fields[:-1]))
            raw = fields[-1]
            row["value"] = json.loads(raw) if raw.startswith("{") else raw
            rows.append(row)
    else:
        rows = json.loads(text)
    spans = [o["range"]] + ([o["range2"]] if "range2" in o else [])
    expected_rows = 1
    for span in spans:
        lo, hi = span.split("=")[1].split("..")
        expected_rows *= int(hi) - int(lo) + 1
    if len(rows) != expected_rows:
        return False
    for row in rows:
        cell = dict(o)
        cell.update({key: str(v) for key, v in row.items() if key != "value"})
        if not _check_query(o["family"], cell, mode, _parse_value(row["value"]), {}):
            return False
    return True


def check_cli(item: dict, out: dict) -> bool:
    argv = item["argv"]
    if out["code"] != item["expect"]:
        return False
    if item["expect"] != 0:
        return out["stdout"] == "" and "Traceback" not in out["stderr"]
    if argv[0] == "verify":
        lines = out["stdout"].splitlines()
        return (lines[-1] == "all suites passed"
                and all(line.startswith("[PASS] ") for line in lines[:-1]) and len(lines) > 1)
    if argv[0] == "table":
        return _check_table(argv, out["table"])
    doc = json.loads(out["stdout"])
    o = _opts(argv)
    mode = o.get("mode", "exact")
    if doc["query"]["family"] != argv[0] or doc["mode"] != mode:
        return False
    return _check_query(argv[0], o, mode, _parse_value(doc["value"]), doc["meta"])


# --------------------------------------------------------- checker self-test

def corrupt(item: dict, out):
    """A deliberately wrong output of the same shape as `out`."""
    cls = item["cls"]
    if cls == "sym_triangle":
        return out[:-1] + [out[-1] + 1]
    if cls.startswith("sym_"):
        return out + F(1, 10 ** 9)
    if cls == "series_gf":
        return out + 2 * CESARO_TOL
    if cls.startswith("padic_"):
        return not out
    if cls.startswith("series_"):
        value, bound = out
        return value + 2 * bound + 2 * CESARO_TOL, bound
    if cls == "cli":
        return dict(out, code=out["code"] + 1)
    raise ValueError(cls)


def evaluate_outputs(items: list[dict], outputs: list) -> tuple[list[str], bool]:
    """Failed item ids, and whether every failure is a listed known
    contract mismatch.  An output that is an exception counts as failed."""
    failed = []
    unexpected = False
    for item, out in zip(items, outputs):
        ok = False
        if not isinstance(out, BaseException):
            try:
                ok = check(item, out)
            except Exception:  # a malformed output is a failed item
                ok = False
        if not ok:
            failed.append(item["id"])
            unexpected = unexpected or not item.get("known_mismatch", False)
    return failed, not unexpected
