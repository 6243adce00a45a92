"""Seeded item lists for the four benchmark workloads.

An item is a flat dict of JSON scalars (rationals are "num/den" strings),
so the same seed gives a byte-identical list (`dump_items`).  The per-item
size mix (k, m, N, M) and the per-class item counts are fixed per workload;
the seed only picks parameters (q, w, x, check points, families) from
admissible sets.  Parameters that move the cost strongly are fixed with the
sizes, and others whose cost differs are drawn with `_balanced`, which uses
every admissible value equally often, so throughput and the latency
percentiles stay comparable across seeds.

Consecutive items share work the way a `qgen table` row or a `verify` grid
does: a group is a run of consecutive m (or n) at fixed other parameters.
"""

from __future__ import annotations

import itertools
import json
import random

WORKLOADS = ("symbolic", "padic", "series", "cli")

# Rational check points for symbolic results: none is 0, 1 or -1, and none
# is a pole of a closed form with the twists below.
CHECK_POINTS = ("5/7", "3/11", "7/5", "13/4", "-5/3", "2/9")
# Symbolic twist magnitudes; the seed picks the sign.  The sign changes
# the cost by a few percent, the magnitude (2 or 1/2) by up to 1.5x, so the
# magnitude is fixed per group.
SYM_TWISTS = {"2": ("2", "-2"), "1/2": ("1/2", "-1/2")}


def _balanced(rng: random.Random, values, n: int) -> list:
    """n draws from `values` in a seeded order, each value used
    floor(n / len) or ceil(n / len) times."""
    out = []
    while len(out) < n:
        pool = list(values)
        rng.shuffle(pool)
        out.extend(pool)
    return out[:n]


def _add(items: list, workload: str, cls: str, **params):
    item = {"id": f"{workload}/{len(items):03d}", "cls": cls}
    item.update(params)
    items.append(item)


# ---------------------------------------------------------------- symbolic

# (class, k, h - k, x, twist magnitude, m range): closed forms in Q(q).
# m rises into the steep part of the cost curve; the largest item is below
# about 1 s.
SYMBOLIC_GROUPS = (
    ("sym_qeuler", 1, -1, 0, "1", range(0, 10)),
    ("sym_qeuler", 1, 0, 1, "2", range(0, 9)),
    ("sym_qeuler", 2, -1, 2, "1", range(0, 9)),
    ("sym_qeuler", 2, 0, 0, "1/2", range(0, 7)),
    ("sym_qeuler", 3, -1, 1, "1", range(0, 8)),
    ("sym_qeuler", 3, 0, 2, "2", range(0, 6)),
    ("sym_qgenocchi", 1, -1, 0, "1", range(0, 10)),
    ("sym_qgenocchi", 2, -1, 0, "1/2", range(0, 8)),
    ("sym_qgenocchi", 3, -1, 0, "1", range(0, 8)),
    ("sym_qeuler_twisted", 1, 0, 0, "2", range(0, 9)),
    ("sym_qgenocchi_twisted", 1, 0, 0, "1/2", range(0, 9)),
)
# Symbolic Gaussian triangles (all rows up to n) and factorial quotients.
TRIANGLE_SIZES = (16, 24, 32, 40)
FACTORIAL_SIZES = (8, 12, 16, 20, 24)


def symbolic_items(seed: int) -> list[dict]:
    rng = random.Random(f"symbolic:{seed}")
    items: list[dict] = []
    for cls, k, dh, x, twist, ms in SYMBOLIC_GROUPS:
        w = rng.choice(SYM_TWISTS[twist]) if twist != "1" else "1"
        for m, q0 in zip(ms, _balanced(rng, CHECK_POINTS, len(ms))):
            _add(items, "symbolic", cls, k=k, h=k + dh, x=x, w=w, m=m, q0=q0)
    for n, q0 in zip(TRIANGLE_SIZES, _balanced(rng, CHECK_POINTS, len(TRIANGLE_SIZES))):
        _add(items, "symbolic", "sym_triangle", n=n, q0=q0)
    for n, q0 in zip(FACTORIAL_SIZES, _balanced(rng, CHECK_POINTS, len(FACTORIAL_SIZES))):
        _add(items, "symbolic", "sym_factorial", n=n, k=n // 3, q0=q0)
    return items


# ------------------------------------------------------------------- padic

# Admissible points: q = w = 1 mod p, so the level sums converge to the
# closed form p-adically and the point must certify.
PADIC3_Q = ("4", "7", "-2", "1/4")
PADIC3_W = ("1", "4", "-2", "7")
PADIC5_Q = ("6", "11", "-4", "1/6")
PADIC5_W = ("1", "6", "-4", "11")
# Non-convergent twists at p = 3: 2 and 1/2 are units that are -1 mod 3,
# 1/3 is not a unit.  These points must be rejected.
PADIC_BAD_W = ("2", "1/2", "1/3")
# Positive q, so that no factor 1 + w q^e of a positive twist vanishes.
PADIC_REJECT_Q = ("4", "7", "1/4")

# (class, p, k, h - k, N, m range, groups): certification groups.  The
# deepest levels (k = 1 at N = 7, k = 2 at N = 4, k = 3 at N = 3) do most of
# the work and stay untwisted, so that the seed's pairing of q with a twist
# does not move the pass time.
PADIC_GROUPS = (
    ("padic_qeuler", 3, 1, 0, 7, range(0, 2), 4),
    ("padic_qeuler", 3, 1, -1, 6, range(0, 3), 4),
    ("padic_qeuler", 3, 1, 0, 5, range(0, 4), 4),
    ("padic_qgenocchi", 3, 1, 0, 5, range(0, 4), 4),
    ("padic_qeuler", 3, 2, 0, 4, range(0, 2), 4),
    ("padic_qgenocchi", 3, 2, -1, 3, range(0, 4), 4),
    ("padic_qeuler", 3, 3, 0, 3, range(0, 1), 4),
    ("padic_qeuler", 3, 3, -1, 2, range(0, 3), 4),
    ("padic_qeuler", 5, 1, 0, 4, range(0, 3), 4),
)
# Early-proximity points at p = 3: admissible, but an early level sum lands
# closer to the target than a later one, so the raw nondecreasing verdict
# fails and only the convergence envelope certifies.  Strata of equal size
# (k, N, m), each with the number of points a seed draws from it, and
# (h, x, w, q) per point.
PADIC_PROXIMITY = (
    ((1, 5, 3), 2, ((0, 0, "7", "-2"), (0, 0, "-1/2", "4"), (0, 1, "7", "7"),
                    (1, 1, "1", "7"), (1, 1, "1", "1/4"))),
    ((1, 5, 2), 1, ((0, 2, "-2", "4"), (1, 2, "4", "4"), (2, 2, "1", "4"))),
    ((2, 3, 3), 1, ((1, 0, "1", "-2"), (2, 0, "-1/2", "-2"), (3, 0, "7", "7"),
                    (1, 2, "-2", "7"))),
)
# (class, k, h - k, N, m range, groups): rejection groups at p = 3.
PADIC_REJECT_GROUPS = (
    ("padic_qeuler", 1, 0, 5, range(0, 3), 3),
    ("padic_qeuler", 2, 0, 3, range(0, 3), 3),
)


def padic_items(seed: int) -> list[dict]:
    rng = random.Random(f"padic:{seed}")
    items: list[dict] = []
    for cls, p, k, dh, N, ms, groups in PADIC_GROUPS:
        qs = _balanced(rng, PADIC3_Q if p == 3 else PADIC5_Q, groups)
        deep = (k, N) in ((1, 7), (2, 4), (3, 3))
        ws = _balanced(rng, ("1",) if deep else PADIC3_W if p == 3 else PADIC5_W, groups)
        xs = _balanced(rng, (0, 1, 2) if cls == "padic_qeuler" else (0,), groups)
        for qv, w, x in zip(qs, ws, xs):
            for m in ms:
                _add(items, "padic", cls, p=p, k=k, h=k + dh, x=x, w=w, m=m, q=qv, N=N,
                     expect="certify")
    for (k, N, m), count, points in PADIC_PROXIMITY:
        for h, x, w, qv in rng.sample(points, count):
            _add(items, "padic", "padic_qeuler", p=3, k=k, h=h, x=x, w=w, m=m, q=qv, N=N,
                 expect="certify")
    for cls, k, dh, N, ms, groups in PADIC_REJECT_GROUPS:
        qs = _balanced(rng, PADIC_REJECT_Q, groups)
        xs = _balanced(rng, (0, 1), groups)
        for qv, w, x in zip(qs, _balanced(rng, PADIC_BAD_W, groups), xs):
            for m in ms:
                _add(items, "padic", cls, p=3, k=k, h=k + dh, x=x, w=w, m=m, q=qv, N=N,
                     expect="reject")
    return items


# ------------------------------------------------------------------ series

SERIES_Q = ("1/3", "1/2", "2/3", "3/4")
# Direct-mode twists, |w| < 1 (exact geometric tail bound).
SERIES_W = ("1/2", "-1/2", "1/3", "-1/3")


def series_items(seed: int) -> list[dict]:
    # q sets the cost of a series (terms shrink like q^n), so every class
    # uses each q equally often in a fixed pairing with the sizes; the seed
    # picks shifts and twists.
    rng = random.Random(f"series:{seed}")
    items: list[dict] = []
    # Gaussian-weight n-sums, weight h = k - 1: boundary twist 1 in cesaro1,
    # |w| < 1 in direct mode, M = 400.
    for cls in ("series_qeuler", "series_qgenocchi"):
        for k in (1, 2):
            for mode in ("cesaro1", "direct"):
                for qv in SERIES_Q:
                    w = "1" if mode == "cesaro1" else rng.choice(SERIES_W)
                    x = rng.randrange(3) if cls == "series_qeuler" else 0
                    for m in range(0, 3):
                        _add(items, "series", cls, k=k, h=k - 1, x=x, w=w, m=m, q=qv,
                             M=400, mode=mode)
    # Generating-function comparisons at t = 1/2.
    for i, (kind, k) in enumerate((kind, k) for kind in ("fqk", "hqk", "hqkw") for k in (1, 2)):
        w = rng.choice(SERIES_W) if kind == "hqkw" else "1"
        x = rng.randrange(3) if kind == "fqk" else 0
        _add(items, "series", "series_gf", kind=kind, k=k, x=x, w=w, q=SERIES_Q[i % 4],
             t="1/2", M=400)
    # k-variable box sums: k = 2 boundary (cesaro1, M 60..90), k = 1 and
    # k = 3 absolutely convergent (direct).
    for M, m, qv in zip((60, 70, 80, 90), (1, 2, 1, 2), SERIES_Q):
        _add(items, "series", "series_box", k=2, h=1, x=rng.randrange(2), w="1",
             m=m, q=qv, M=M, mode="cesaro1")
    for qv in SERIES_Q:
        w = rng.choice(("1",) + SERIES_W)
        for m in range(0, 4):
            _add(items, "series", "series_box", k=1, h=1, x=0, w=w, m=m, q=qv, M=60,
                 mode="direct")
    for m, qv in zip((0, 1, 0, 1), SERIES_Q):
        _add(items, "series", "series_box", k=3, h=3, x=0, w="1", m=m, q=qv, M=20,
             mode="direct")
    return items


# --------------------------------------------------------------------- cli

# Known contract mismatches: README says a parse error exits 2, the program
# exits 1.  These items stay in the workload and count as failed.
KNOWN_MISMATCH_LITERALS = ("abc", "0/0")


def cli_items(seed: int) -> list[dict]:
    rng = random.Random(f"cli:{seed}")
    items: list[dict] = []

    def cmd(argv, expect=0, known_mismatch=False):
        # a negative value is attached with "=", as argparse requires
        out = []
        for a in map(str, argv):
            if a[:1] == "-" and a[1:2].isdigit():
                out[-1] += "=" + a
            else:
                out.append(a)
        _add(items, "cli", "cli", argv=out, expect=expect, known_mismatch=known_mismatch)

    padic_q = ("4", "7", "-2")
    series_q = SERIES_Q
    # The series, p-adic and generating-function commands set the p90; q
    # moves their cost, so it cycles in a fixed order and the seed picks
    # the cheaper parameters.
    series_cycle = itertools.cycle(series_q)
    padic_cycle = itertools.cycle(padic_q)
    for n in range(4):
        cmd(["qnum", "--n", 3 + n, "--q", rng.choice(series_q + padic_q)])
        cmd(["qnum", "--n", 2 + n, "--mode", "symbolic"])
        cmd(["qbinom", "--n", 4 + n, "--k", 2, "--q", rng.choice(series_q + padic_q)])
        cmd(["qbinom", "--n", 3 + n, "--k", 1 + n % 3, "--mode", "symbolic"])
    for n in range(2, 6):
        cmd(["euler", "--n", 2 * n])
        cmd(["genocchi", "--n", 2 * n])
        cmd(["bernoulli", "--n", 2 * n])
        cmd(["frobenius", "--n", n, "--u", rng.choice(("2", "-2", "1/3"))])
        cmd(["euler", "--n", n, "--k", 2])
    for family, flag in (("qeuler", "--m"), ("qgenocchi", "--n")):
        for k in (1, 2):
            for m in range(3):
                h = k - 1
                shift = ["--x", rng.randrange(3)] if family == "qeuler" else []
                base = [family, flag, m, "--h", h, "--k", k] + shift
                cmd(base + ["--q", rng.choice(series_q + padic_q)])
                cmd(base + ["--mode", "symbolic"])
                cmd(base + ["--q", next(padic_cycle), "--mode", "padic", "--N", 3])
                cmd(base + ["--q", next(series_cycle), "--mode", "series", "--M", 200])
    for family in ("twisted-euler", "twisted-genocchi"):
        for n in range(1, 4):
            w = rng.choice(SERIES_W)
            cmd([family, "--n", n, "--w", w])
            cmd([family, "--n", n, "--w", w, "--q", rng.choice(series_q)])
            cmd([family, "--n", n, "--w", w, "--mode", "symbolic"])
            cmd([family, "--n", n, "--w", rng.choice(("4", "-2")), "--q", next(padic_cycle),
                 "--mode", "padic", "--N", 3])
            cmd([family, "--n", n, "--w", w, "--q", next(series_cycle), "--mode", "series",
                 "--M", 120])
    for kind in ("fqk", "hqk", "hqkw"):
        cmd(["gf", "--kind", kind, "--k", 1, "--q", next(series_cycle), "--t", "1/2",
             "--M", 200] + (["--w", rng.choice(SERIES_W)] if kind == "hqkw" else []))
    cmd(["table", "--family", "genocchi", "--range", "n=0..%d" % (8 + rng.randrange(3)),
         "--format", "csv"])
    cmd(["table", "--family", "qbinom", "--range", "n=0..6", "--range2", "k=0..3",
         "--mode", "symbolic", "--format", "json"])
    cmd(["table", "--family", "qeuler", "--range", "m=0..4", "--h", 1, "--q",
         rng.choice(series_q), "--format", "json"])
    cmd(["table", "--family", "qgenocchi", "--range", "n=0..3", "--range2", "k=1..2", "--h", 1,
         "--q", rng.choice(padic_q), "--format", "csv"])
    cmd(["verify", "classical"])
    cmd(["verify", "limits"])
    # Documented error cases: usage or parse error -> 2; domain,
    # divergence or budget -> 1.  A prime as large as 10**18 + 3 is left
    # out: primality is checked by trial division before any budget check.
    cmd(["qeuler", "--m", 2, "--q", "1/2"], expect=2)
    cmd(["qnum", "--n", 3, "--mode", "padic", "--q", "4"], expect=2)
    cmd(["no-such-family", "--n", 1], expect=2)
    cmd(["qnum", "--n", "three"], expect=2)
    cmd(["euler", "--n", 4, "--mode", "symbolic"], expect=2)
    cmd(["table", "--family", "genocchi", "--range", "n=0-8", "--format", "json"], expect=2)
    cmd(["qeuler", "--m", 2, "--h", 1, "--q", "1"], expect=1)
    cmd(["qeuler", "--m", 1, "--h", 0, "--q", rng.choice(series_q), "--mode", "series",
         "--series-mode", "direct"], expect=1)
    cmd(["qeuler", "--m", 1, "--h", 1, "--k", 3, "--q", "4", "--mode", "padic", "--N", 4],
        expect=1)
    cmd(["qeuler", "--m", 1, "--h", 1, "--q", "4", "--mode", "padic", "--p", 9], expect=1)
    cmd(["table", "--family", "genocchi", "--range", "n=0..20000", "--format", "json"],
        expect=1)
    cmd(["qgenocchi", "--n", 1, "--h", 0, "--q", "2", "--mode", "series"], expect=1)
    for lit in KNOWN_MISMATCH_LITERALS:
        cmd(["qnum", "--n", 3, "--q", lit], expect=2, known_mismatch=True)
    return items


GENERATORS = {
    "symbolic": symbolic_items,
    "padic": padic_items,
    "series": series_items,
    "cli": cli_items,
}


def make_items(workload: str, seed: int) -> list[dict]:
    return GENERATORS[workload](seed)


def dump_items(items: list[dict]) -> bytes:
    """Canonical bytes of an item list (for the same-seed identity test)."""
    return json.dumps(items, sort_keys=True, separators=(",", ":")).encode()
