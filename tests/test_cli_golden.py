"""Golden CLI corpus: every family in every mode, JSON and CSV tables, the
`verify` suites and the documented error exits, replayed in-process.

`data/cli_golden.json` records, for each command line, the exit code, the
stdout, and the bytes of the file named by `--out` / `--report-json`
(written as the placeholder "{out}").  Those must match exactly.  Stderr is
not recorded: on a failing exit it must be non-empty, and it must never
carry a traceback.  The fixture is a record of earlier behaviour; never
regenerate it from the code under test."""

import contextlib
import io
import json
from pathlib import Path

import pytest

from qgen import cli

CORPUS = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text())
GROUPS = sorted({entry["argv"][0] for entry in CORPUS})


def _replay(argv, out_path):
    argv = [str(out_path) if a == "{out}" else a for a in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    written = out_path.read_text(encoding="utf-8") if out_path.exists() else None
    return code, stdout.getvalue(), stderr.getvalue(), written


@pytest.mark.parametrize("group", GROUPS)
def test_corpus_matches(group, tmp_path):
    mismatches = []
    entries = [e for e in CORPUS if e["argv"][0] == group]
    for i, entry in enumerate(entries):
        out_path = tmp_path / f"out{i}"
        code, stdout, stderr, written = _replay(entry["argv"], out_path)
        problems = []
        if code != entry["code"]:
            problems.append(f"exit {code} != {entry['code']}")
        if stdout != entry["stdout"]:
            problems.append(f"stdout {stdout!r} != {entry['stdout']!r}")
        if written != entry["out"]:
            problems.append("written file differs")
        if code != 0 and not stderr:
            problems.append("empty stderr on a failing exit")
        if "Traceback" in stderr:
            problems.append("traceback on stderr")
        if problems:
            mismatches.append(f"{' '.join(entry['argv'])}: {'; '.join(problems)}")
    assert entries
    assert not mismatches, "\n".join(mismatches[:20])


def test_corpus_covers_every_family_and_mode():
    seen = set()
    for entry in CORPUS:
        argv = entry["argv"]
        if argv[0] in cli.FAMILIES:
            mode = argv[argv.index("--mode") + 1] if "--mode" in argv else "exact"
            seen.add((argv[0], mode))
    q_families = ("qeuler", "qgenocchi", "twisted-euler", "twisted-genocchi")
    for family in q_families:
        for mode in ("exact", "symbolic", "padic", "series"):
            assert (family, mode) in seen
    assert {e["argv"][1] for e in CORPUS if e["argv"][0] == "verify"} >= \
        {"qeuler", "qgenocchi", "limits"}
    assert {e["argv"][e["argv"].index("--format") + 1]
            for e in CORPUS if e["argv"][0] == "table"} == {"json", "csv"}
    assert {e["code"] for e in CORPUS} == {0, 1, 2}
