"""Span recorder for the traced run, installed from outside the program.

`install(tracer)` wraps the public functions of each `qgen` module (and
`Poly` / `QRat` methods) and rebinds every name that refers to a wrapped
function, in every loaded module: `verify` and `cli` import
`padic_limit_check`, `real_series`, `fermionic_sum` and `qeuler_hk` by
name, so patching only the defining module would miss their calls.

A span records its call count and self time: the span's duration minus
the time its child spans cover.  Spans are aggregated per name in memory
instead of stored one by one, because `Poly.__mul__` runs millions of
times in a symbolic pass.  Counters (terms summed, coefficient bits,
coefficient products) are recorded at the same boundaries.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from fractions import Fraction
from time import perf_counter

# Per-layer metrics that must be nonzero on the workload that drives them
# (the prediction table in BENCHMARK.json names the same pairs).
DRIVEN = {
    "symbolic": (
        "qcore.poly_gcd.calls", "qcore.poly_gcd.self_s", "qcore.poly_gcd.useful_ratio",
        "qcore.poly_divmod.calls", "qcore.poly_divmod.self_s", "qcore.qrat_new.calls",
        "qcore.qrat_new.self_s", "qcore.max_coeff_bits", "qcore.poly_mul.calls",
        "qcore.poly_mul.coeff_products", "qcore.poly_mul.self_s", "qcore.gauss_triangle.self_s",
        "qeuler.closed_form.calls", "qeuler.closed_form.symbolic_self_s",
        "qgenocchi.closed_form.symbolic_self_s",
    ),
    "padic": (
        "padic.fermionic_sum.calls", "padic.fermionic_sum.terms", "padic.fermionic_sum.max_bits",
        "padic.fermionic_sum.certify_self_s", "padic.fermionic_sum.reject_self_s",
        "padic.limit_check.self_s", "padic.envelope_ratio", "qeuler.closed_form.calls",
        "qeuler.closed_form.exact_self_s", "qgenocchi.closed_form.exact_self_s",
    ),
    "series": (
        "padic.real_series.calls", "padic.real_series.terms", "padic.real_series.self_s",
        "qeuler.series.terms", "qeuler.series.self_s", "qgenocchi.series.terms",
        "qgenocchi.series.self_s", "qeuler.gf_eval.self_s",
    ),
    "cli": (
        "classical.calls", "classical.self_s", "verify.points", "verify.run_suites.self_s",
        "cli.build_parser.self_s", "cli.dispatch.self_s", "cli.main.self_s",
        "cli.nonzero_exits", "qeuler.closed_form.exact_self_s",
        "qgenocchi.closed_form.exact_self_s",
    ),
}

# Every per-layer metric a traced run reports, in report order.
PER_LAYER_METRICS = (
    ("qcore.poly_gcd.calls", "count"),
    ("qcore.poly_gcd.self_s", "s"),
    ("qcore.poly_gcd.useful_ratio", "ratio"),
    ("qcore.poly_divmod.calls", "count"),
    ("qcore.poly_divmod.self_s", "s"),
    ("qcore.qrat_new.calls", "count"),
    ("qcore.qrat_new.self_s", "s"),
    ("qcore.max_coeff_bits", "bits"),
    ("qcore.poly_mul.calls", "count"),
    ("qcore.poly_mul.coeff_products", "count"),
    ("qcore.poly_mul.self_s", "s"),
    ("qcore.gauss_triangle.self_s", "s"),
    ("padic.fermionic_sum.calls", "count"),
    ("padic.fermionic_sum.terms", "count"),
    ("padic.fermionic_sum.max_bits", "bits"),
    ("padic.fermionic_sum.certify_self_s", "s"),
    ("padic.fermionic_sum.reject_self_s", "s"),
    ("padic.limit_check.self_s", "s"),
    ("padic.envelope_ratio", "ratio"),
    ("padic.real_series.calls", "count"),
    ("padic.real_series.terms", "count"),
    ("padic.real_series.self_s", "s"),
    ("qeuler.series.terms", "count"),
    ("qeuler.series.self_s", "s"),
    ("qgenocchi.series.terms", "count"),
    ("qgenocchi.series.self_s", "s"),
    ("qeuler.gf_eval.self_s", "s"),
    ("qeuler.closed_form.calls", "count"),
    ("qeuler.closed_form.exact_self_s", "s"),
    ("qeuler.closed_form.symbolic_self_s", "s"),
    ("qgenocchi.closed_form.exact_self_s", "s"),
    ("qgenocchi.closed_form.symbolic_self_s", "s"),
    ("classical.calls", "count"),
    ("classical.self_s", "s"),
    ("verify.points", "count"),
    ("verify.run_suites.self_s", "s"),
    ("cli.build_parser.self_s", "s"),
    ("cli.dispatch.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.nonzero_exits", "count"),
    ("bench.trace_overhead_ratio", "ratio"),
)


class Tracer:
    """Per-name span aggregates for one process; off until `enabled`."""

    def __init__(self):
        self.enabled = False
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.maxes = defaultdict(int)
        self._stack: list[list[float]] = []

    def wrap(self, fn, name, before=None, after=None):
        """Wrapper recording a span named `name` (a string, or a function
        of the call's arguments).  `before(args, kwargs)` returns a state
        handed to `after(state, args, kwargs, result)`."""
        stack = self._stack

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = name if isinstance(name, str) else name(args, kwargs)
            state = before(args, kwargs) if before else None
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                self.calls[span] += 1
                self.self_s[span] += dt - frame[0]
            if after:
                after(state, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def bump_max(self, key, value):
        if value > self.maxes[key]:
            self.maxes[key] = value


def _frac_bits(v) -> int:
    v = Fraction(v)
    return max(v.numerator.bit_length(), v.denominator.bit_length())


def _poly_bits(p) -> int:
    return max((_frac_bits(c) for c in p.coeffs), default=0)


def _is_symbolic(qv) -> bool:
    return qv is None or not isinstance(qv, (int, Fraction, str))


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _targets(tr: Tracer):
    """(owner, attribute, `Tracer.wrap` arguments) for every wrapped function."""
    from qgen import classical, cli, padic, qcore, qeuler, qgenocchi, verify

    def mul_before(args, kwargs):
        other = args[1]
        tr.counts["qcore.poly_mul.coeff_products"] += len(args[0].coeffs) * (
            len(other.coeffs) if isinstance(other, qcore.Poly) else 1)

    def divmod_after(state, args, kwargs, result):
        if result is not NotImplemented:
            tr.bump_max("qcore.max_coeff_bits", max(_poly_bits(result[0]), _poly_bits(result[1])))

    def gcd_after(state, args, kwargs, result):
        if result.degree > 0:
            tr.counts["qcore.poly_gcd.useful"] += 1

    def fermionic_after(state, args, kwargs, result):
        f, params = args[0], _arg(args, kwargs, 2, "params")
        tr.counts["padic.fermionic_sum.terms"] += (params.p ** params.N) ** f.num_vars
        tr.bump_max("padic.fermionic_sum.max_bits", _frac_bits(result))

    def limit_before(args, kwargs):
        return tr.self_s["padic.fermionic_sum"]

    def limit_after(state, args, kwargs, report):
        spent = tr.self_s["padic.fermionic_sum"] - state
        certified = report.verdict or padic.convergence_envelope_ok(report)
        tr.self_s["padic.fermionic_sum.certify" if certified else
                  "padic.fermionic_sum.reject"] += spent
        tr.counts["padic.certified"] += certified
        tr.counts["padic.envelope_only"] += certified and not report.verdict

    def series_terms(key, k_of):
        def after(state, args, kwargs, result):
            sp = _arg(args, kwargs, 2, "sp")
            tr.counts[key] += sp.M ** k_of(args)
        return after

    def run_suites_after(state, args, kwargs, report):
        tr.counts["verify.points"] += sum(
            c["points"] for s in report["suites"] for c in s["checks"])

    def main_after(state, args, kwargs, code):
        tr.counts["cli.nonzero_exits"] += code != 0

    def closed_form(family, q_index, q_name):
        def name(args, kwargs):
            qv = _arg(args, kwargs, q_index, q_name)
            return f"{family}.closed_form.{'symbolic' if _is_symbolic(qv) else 'exact'}"
        return name

    out = [
        (qcore, "poly_gcd", dict(name="qcore.poly_gcd", after=gcd_after)),
        (qcore.Poly, "__divmod__", dict(name="qcore.poly_divmod", after=divmod_after)),
        (qcore.Poly, "__mul__", dict(name="qcore.poly_mul", before=mul_before)),
        (qcore.QRat, "__init__", dict(name="qcore.qrat_new")),
        (qcore, "gauss_binom_triangle", dict(name="qcore.gauss_triangle")),
        (padic, "fermionic_sum", dict(name="padic.fermionic_sum", after=fermionic_after)),
        (padic, "padic_limit_check", dict(name="padic.limit_check", before=limit_before,
                                          after=limit_after)),
        (padic, "real_series", dict(name="padic.real_series",
                                    after=series_terms("padic.real_series.terms",
                                                       lambda a: a[0].num_vars))),
        (qeuler, "qeuler_hk_series", dict(name="qeuler.series",
                                          after=series_terms("qeuler.series.terms",
                                                             lambda a: 1))),
        (qgenocchi, "qgenocchi_hk_series", dict(name="qgenocchi.series",
                                                after=series_terms("qgenocchi.series.terms",
                                                                   lambda a: 1))),
        (qeuler, "gf_eval", dict(name="qeuler.gf_eval")),
        (qeuler, "qeuler_hk", dict(name=closed_form("qeuler", 1, "qv"))),
        (qeuler, "qeuler_twisted", dict(name=closed_form("qeuler", 2, "qv"))),
        (qgenocchi, "qgenocchi_hk", dict(name=closed_form("qgenocchi", 1, "qv"))),
        (qgenocchi, "qgenocchi", dict(name=closed_form("qgenocchi", 1, "qv"))),
        (qgenocchi, "qgenocchi_twisted", dict(name=closed_form("qgenocchi", 1, "qv"))),
        (verify, "run_suites", dict(name="verify.run_suites", after=run_suites_after)),
        (cli, "build_parser", dict(name="cli.build_parser")),
        (cli, "dispatch", dict(name="cli.dispatch")),
        (cli, "main", dict(name="cli.main", after=main_after)),
    ]
    for attr in ("euler_number", "euler_poly", "higher_euler_number", "higher_euler_poly",
                 "genocchi", "genocchi_poly", "higher_genocchi", "bernoulli",
                 "frobenius_euler", "frobenius_euler_poly", "twisted_euler_classical",
                 "twisted_genocchi_classical"):
        out.append((classical, attr, dict(name="classical")))
    return out


def install(tr: Tracer):
    """Wrap every target and rebind each reference to it in every loaded
    module: the `qgen` modules that import it by name, and the benchmark's
    own item runner."""
    modules = [m for m in list(sys.modules.values()) if m is not None]
    for owner, attr, kw in _targets(tr):
        orig = vars(owner)[attr]
        wrapper = tr.wrap(orig, **kw)
        namespaces = [owner] if isinstance(owner, type) else modules
        for ns in namespaces:  # a class keeps aliases such as __rmul__ = __mul__
            for key, value in list(vars(ns).items()):
                if value is orig:
                    setattr(ns, key, wrapper)


def layer_metrics(tr: Tracer) -> dict:
    """Per-layer metric values of one traced pass (without the overhead
    ratio, which needs the untraced pass too)."""
    c, s = tr.calls, tr.self_s
    gcd_calls = c["qcore.poly_gcd"]
    certified = tr.counts["padic.certified"]
    values = {
        "qcore.poly_gcd.calls": gcd_calls,
        "qcore.poly_gcd.self_s": s["qcore.poly_gcd"],
        "qcore.poly_gcd.useful_ratio": tr.counts["qcore.poly_gcd.useful"] / gcd_calls
        if gcd_calls else 0.0,
        "qcore.poly_divmod.calls": c["qcore.poly_divmod"],
        "qcore.poly_divmod.self_s": s["qcore.poly_divmod"],
        "qcore.qrat_new.calls": c["qcore.qrat_new"],
        "qcore.qrat_new.self_s": s["qcore.qrat_new"],
        "qcore.max_coeff_bits": tr.maxes["qcore.max_coeff_bits"],
        "qcore.poly_mul.calls": c["qcore.poly_mul"],
        "qcore.poly_mul.coeff_products": tr.counts["qcore.poly_mul.coeff_products"],
        "qcore.poly_mul.self_s": s["qcore.poly_mul"],
        "qcore.gauss_triangle.self_s": s["qcore.gauss_triangle"],
        "padic.fermionic_sum.calls": c["padic.fermionic_sum"],
        "padic.fermionic_sum.terms": tr.counts["padic.fermionic_sum.terms"],
        "padic.fermionic_sum.max_bits": tr.maxes["padic.fermionic_sum.max_bits"],
        "padic.fermionic_sum.certify_self_s": s["padic.fermionic_sum.certify"],
        "padic.fermionic_sum.reject_self_s": s["padic.fermionic_sum.reject"],
        "padic.limit_check.self_s": s["padic.limit_check"],
        "padic.envelope_ratio": tr.counts["padic.envelope_only"] / certified
        if certified else 0.0,
        "padic.real_series.calls": c["padic.real_series"],
        "padic.real_series.terms": tr.counts["padic.real_series.terms"],
        "padic.real_series.self_s": s["padic.real_series"],
        "qeuler.series.terms": tr.counts["qeuler.series.terms"],
        "qeuler.series.self_s": s["qeuler.series"],
        "qgenocchi.series.terms": tr.counts["qgenocchi.series.terms"],
        "qgenocchi.series.self_s": s["qgenocchi.series"],
        "qeuler.gf_eval.self_s": s["qeuler.gf_eval"],
        "qeuler.closed_form.calls": c["qeuler.closed_form.exact"]
        + c["qeuler.closed_form.symbolic"],
        "qeuler.closed_form.exact_self_s": s["qeuler.closed_form.exact"],
        "qeuler.closed_form.symbolic_self_s": s["qeuler.closed_form.symbolic"],
        "qgenocchi.closed_form.exact_self_s": s["qgenocchi.closed_form.exact"],
        "qgenocchi.closed_form.symbolic_self_s": s["qgenocchi.closed_form.symbolic"],
        "classical.calls": c["classical"],
        "classical.self_s": s["classical"],
        "verify.points": tr.counts["verify.points"],
        "verify.run_suites.self_s": s["verify.run_suites"],
        "cli.build_parser.self_s": s["cli.build_parser"],
        "cli.dispatch.self_s": s["cli.dispatch"],
        "cli.main.self_s": s["cli.main"],
        "cli.nonzero_exits": tr.counts["cli.nonzero_exits"],
    }
    return values


def undriven(values: dict, workload: str) -> list[str]:
    """Metrics that `workload` drives but that read zero."""
    return [name for name in DRIVEN[workload] if not values[name]]
