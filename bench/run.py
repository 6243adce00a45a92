"""qgen benchmark: seeded workloads, end-to-end metrics, traced layer metrics.

Usage (from the root of a checkout):

    python3 bench/run.py --workload {symbolic,padic,series,cli} --seed N
                         [--seconds S] [--trace 0|1]

Each pass is one fresh interpreter (`bench/child.py`) making a single pass
over the workload's items, single-threaded; passes repeat until about
`--seconds` have gone, at least 3 of them.  Every time is expressed at one
reference machine speed (`speed.py`): an item's latency is scaled by the
reference kernel timed around it, then its median over the passes is
taken.  Set-up time is the median over many fresh interpreters, each
scaled the same way.  Peak RSS leaves out file-backed pages (see
`child.py`) and is the median over passes.  The program
under test is `qgen` imported from this checkout's `src/`; nothing under
`src/` is instrumented.

With `--trace 0` the last line reports the end-to-end metrics named in
BENCHMARK.json.  With `--trace 1` untraced and traced passes alternate;
the last line reports the per-layer metrics of the traced passes and the
tracing overhead.  The line before the last holds provenance (seed,
commit, source digest, Python version, nproc, `qgen.__file__`), the
failed item ids and the unscaled figures.  Exit code 0 on success; 2 when
the checkout holds no `src/qgen`; 1 when a pass fails to run.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from speed import nominal_s, time_reference  # noqa: E402
from tracer import PER_LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 10
# At least this many untraced passes per run, so each item's latency is a
# median of 3 or more; a traced run alternates and makes at least 4 passes.
MIN_PASSES = 3
RUN_LIMIT_S = 170


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qgen").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _commit():
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


class PassError(RuntimeError):
    pass


def run_child(workload: str, seed: int, trace: bool, timeout: float, setup_only=False) -> dict:
    """Run one fresh interpreter; adds `setup_scaled`, its set-up time at
    the reference speed (kernels timed here just before the start and in
    the child just after its set-up), and `scaled`, its item latencies at
    that speed."""
    parent_ref = time_reference(workload)
    spawn_ns = time.monotonic_ns()
    cmd = [sys.executable, "-I", str(BENCH / "child.py"), workload, str(seed),
           "1" if trace else "0", str(spawn_ns)] + (["--setup-only"] if setup_only else [])
    try:
        res = subprocess.run(cmd, capture_output=True, text=True, timeout=max(timeout, 1))
    except subprocess.TimeoutExpired as exc:
        raise PassError(f"pass exceeded {timeout:.0f} s") from exc
    if res.returncode != 0:
        raise PassError(f"pass exited {res.returncode}: {res.stderr.strip()[-2000:]}")
    doc = json.loads(res.stdout.strip().splitlines()[-1])
    nominal = nominal_s(workload)
    doc["setup_scaled"] = doc["setup_s"] * nominal / ((parent_ref + doc["setup_ref"]) / 2)
    if not setup_only:
        doc["scaled"] = [d * nominal / r for d, r in zip(doc["durations"], doc["refs"])]
    return doc


def item_latencies(docs: list[dict], scale=True) -> list[float]:
    """Each item's median latency over the passes."""
    per_pass = [d["scaled"] if scale else d["durations"] for d in docs]
    return [statistics.median(times) for times in zip(*per_pass)]


def latency_metrics(lat: list[float]) -> dict:
    return {
        "items_per_s": len(lat) / sum(lat),
        "item_p50_ms": statistics.median(lat) * 1e3,
        "item_p90_ms": statistics.quantiles(lat, n=10)[-1] * 1e3,
    }


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    start = time.monotonic()

    def left():
        return RUN_LIMIT_S - (time.monotonic() - start)

    probes = [run_child(workload, seed, False, left(), setup_only=True)
              for _ in range(SETUP_PROBES)]
    passes = []  # (traced, child document)
    while True:
        traced = trace and len(passes) % 2 == 1
        t0 = time.monotonic()
        passes.append((traced, run_child(workload, seed, traced, left())))
        wall = time.monotonic() - t0
        elapsed = time.monotonic() - start
        if elapsed + wall / 2 > seconds and len(passes) >= MIN_PASSES + trace:
            break
        if elapsed + wall > RUN_LIMIT_S - 10:
            break

    docs = [d for _, d in passes]
    plain = [d for t, d in passes if not t]
    failed = [i for d in docs for i in d["failed"]]
    attempted = sum(len(d["durations"]) for d in docs)
    setup = [d["setup_scaled"] for d in probes + docs]
    lat = item_latencies(plain)
    if trace:
        traced_docs = [d for t, d in passes if t]
        metrics = {}
        for name, unit in PER_LAYER_METRICS:
            if name == "bench.trace_overhead_ratio":
                value = sum(lat) / sum(item_latencies(traced_docs))
            elif unit == "s":  # span times, scaled by their pass's speed
                value = statistics.median(
                    d["layers"][name] * sum(d["scaled"]) / sum(d["durations"])
                    for d in traced_docs)
            else:  # counts repeat exactly across passes
                value = traced_docs[0]["layers"][name]
            metrics[name] = {"value": value, "unit": unit}
    else:
        units = {"items_per_s": "1/s", "item_p50_ms": "ms", "item_p90_ms": "ms"}
        metrics = {"setup_s": {"value": statistics.median(setup), "unit": "s"}}
        metrics.update({k: {"value": v, "unit": units[k]}
                        for k, v in latency_metrics(lat).items()})
        metrics["peak_rss_mb"] = {
            "value": statistics.median(d["rss_mb"] - d["rss_file_mb"] for d in docs),
            "unit": "MB"}
    result = {
        "correct": all(d["only_known"] for d in docs),
        "attempted": attempted,
        "failed": len(failed),
        "metrics": metrics,
    }
    info = {
        "provenance": {
            "workload": workload,
            "seed": seed,
            "commit": _commit(),
            "src_sha256": _source_digest(),
            "python": docs[0]["python"],
            "nproc": _nproc(),
            "qgen_file": docs[0]["qgen_file"],
        },
        "passes": len(docs),
        "traced_passes": len(docs) - len(plain),
        "items_per_pass": len(docs[0]["durations"]),
        "failed_frac": len(failed) / attempted,
        "failed_ids": sorted(set(failed)),
        "unscaled": dict(latency_metrics(item_latencies(plain, scale=False)),
                         setup_s=statistics.median(d["setup_s"] for d in probes + docs),
                         ru_maxrss_mb=statistics.median(d["rss_mb"] for d in docs)),
        "reference_kernel_s": statistics.median(r for d in plain for r in d["refs"]),
    }
    return result, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qgen" / "__init__.py").is_file():
        sys.stderr.write(f"no qgen sources under {ROOT / 'src'}; run from a full checkout\n")
        return 2
    # Byte-compile once, as an installed package would be, so that no pass
    # pays for compiling.
    for path in (ROOT / "src" / "qgen", BENCH):
        compileall.compile_dir(str(path), quiet=1)
    try:
        result, info = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except PassError as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1
    finally:
        try:
            (ROOT / ".bench_work").rmdir()
        except OSError:
            pass
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
