"""One pass over one workload, in a fresh interpreter.

Started by `run.py` as `python -I bench/child.py WORKLOAD SEED TRACE SPAWN_NS
[--setup-only]`.  SPAWN_NS is the parent's CLOCK_MONOTONIC reading taken
just before the start, so set-up time covers interpreter start, the
`qgen` import, input generation and anything the program builds eagerly.
Prints one JSON object: set-up time, per-item latencies with the
reference-kernel time around each item (see `speed.py`), failed item ids,
peak RSS and its file-backed part, and with TRACE=1 the per-layer metrics
of the pass.
"""

import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _rss_file_mb() -> float:
    """Resident file-backed memory now (shared libraries, mapped files).
    It only grows during a pass, and how much of it is resident depends on
    the page cache that other processes leave, not on the program."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("RssFile:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return 0.0


def main(argv) -> int:
    workload, seed, trace, spawn_ns = argv[0], int(argv[1]), argv[2] == "1", int(argv[3])
    setup_only = "--setup-only" in argv[4:]
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

    import qgen

    qgen_file = Path(qgen.__file__).resolve()
    if (ROOT / "src") not in qgen_file.parents:
        sys.stderr.write(f"qgen imported from {qgen_file}, not from {ROOT / 'src'}\n")
        return 3

    import items as item_mod
    import workloads
    from speed import time_reference

    tr = None
    if trace:
        import tracer

        tr = tracer.Tracer()
        tracer.install(tr)
    item_list = workloads.make_items(workload, seed)
    setup_s = (time.monotonic_ns() - spawn_ns) / 1e9
    ref_before = setup_ref = time_reference(workload)
    if setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_ref": setup_ref}))
        return 0

    workdir = ROOT / ".bench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    durations, refs, outputs = [], [], []
    try:
        for item in item_list:
            if tr:
                tr.enabled = True
            t0 = time.perf_counter()
            try:
                out = item_mod.execute(item, str(workdir))
            except Exception as exc:  # an unexpected raise is a failed item
                out = exc
            durations.append(time.perf_counter() - t0)
            if tr:
                tr.enabled = False
            outputs.append(out)
            ref_after = time_reference(workload)
            refs.append((ref_before + ref_after) / 2)
            ref_before = ref_after
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed, only_known = item_mod.evaluate_outputs(item_list, outputs)
    doc = {
        "setup_s": setup_s,
        "setup_ref": setup_ref,
        "durations": durations,
        "refs": refs,
        "failed": failed,
        "only_known": only_known,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "rss_file_mb": _rss_file_mb(),
        "qgen_file": str(qgen_file),
        "python": sys.version.split()[0],
    }
    if tr:
        doc["layers"] = tracer.layer_metrics(tr)
        zero = tracer.undriven(doc["layers"], workload)
        if zero:
            sys.stderr.write(f"per-layer metrics read zero on {workload}: {zero}\n")
            return 4
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
