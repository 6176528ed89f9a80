"""Seeded request streams for the three benchmark workloads.

Every request is a plain JSON-able dict; rationals travel as "p/q"
strings.  Nothing here imports bnloci, so the same seed gives byte-identical
inputs whatever version of the program is under test.

- query-mix: the non-plane CLI commands (decide, product, kernel, the two
  negativity scans).  Exercises oracle and the searches in construct;
  region tables are built for at most 11 genera and stay warm.
- slope-scan: the per-slope work of `bpn --new-points` and of the BPN
  curve in `plot`, at three genera near 10, 20 and 40.  Exercises
  construct and exactq; oracle is never called.
- genus-sweep: one decision and a few membership queries per genus, each
  genus new to its process, drawn log-uniformly from 10^2..10^4.
  Exercises the cold path of regions (two O(g) tables per genus).
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from typing import Iterator

WORKLOADS = ("query-mix", "slope-scan", "genus-sweep")

CURVE_CLASSES = ("any", "petri", "general", "nonhyperelliptic", "hyperelliptic")
STABILITIES = ("stable", "semistable")

SCAN_CENTRES = (10, 20, 40)
SCAN_STEP = Fraction(1, 8)
SCAN_FIRST_LAMBDA = Fraction(1, 8)

# genus-sweep: one process per pass, one genus per log-stratum, so every
# pass has the same spread of genera and its peak memory does not depend
# on how many passes fit in the run
SWEEP_PASS = 50
SWEEP_LOG10 = (2.0, 4.0)
# the first request of every pass is this fixed problem, in place of the
# draw from the stratum starting at 10^3, so the CLI set-up time does not
# swing with the seed; the stratum is [1000, 1096]
SWEEP_FIRST_STRATUM = 25
SWEEP_FIRST = {"g": 1050, "n": 2, "d": 1500, "k": 20}


def _rng(workload: str, seed: int, *extra: int) -> random.Random:
    return random.Random(":".join([workload, str(seed), *map(str, extra)]))


def _curve(rng: random.Random, g: int) -> str:
    cc = rng.choice(CURVE_CLASSES)
    # every genus-2 curve is hyperelliptic; the CLI rejects the combination
    return "any" if g == 2 and cc == "nonhyperelliptic" else cc


# ---------------------------------------------------------------------------
# query-mix


def _untwisted(rng: random.Random) -> dict:
    g = rng.randint(2, 12)
    n = rng.randint(1, 5)
    d = rng.randint(0, 2 * n * (g - 1))
    k = rng.randint(0, n + d // 2 + 1)
    return {"op": "untwisted", "g": g, "n": n, "d": d, "k": k,
            "cc": _curve(rng, g), "kind": rng.choice(STABILITIES)}


def _universal(rng: random.Random) -> dict:
    g = rng.randint(2, 10)
    n1, n2 = rng.randint(2, 4), rng.randint(2, 4)
    d1 = rng.randint(-2 * n1, 2 * n1 * (g - 1))
    d2 = rng.randint(-2 * n2, 2 * n2 * (g - 1))
    return {"op": "universal", "g": g, "n1": n1, "d1": d1, "n2": n2, "d2": d2,
            "k": rng.randint(1, 12), "cc": _curve(rng, g),
            "kind": rng.choice(STABILITIES)}


def _product(rng: random.Random) -> dict:
    g = rng.randint(3, 10)
    n1, n2 = rng.randint(2, 4), rng.randint(2, 4)
    p1 = [n1, rng.randint(1, 2 * n1), rng.randint(1, n1 + 1)]
    p2 = [n2, rng.randint(1, 2 * g * n2), rng.randint(1, n2 + 2)]
    return {"op": "product", "g": g, "p1": p1, "p2": p2,
            "cc": _curve(rng, g), "kind": rng.choice(STABILITIES)}


def _kernel(rng: random.Random) -> dict:
    g = rng.randint(3, 8)
    n1 = rng.randint(2, 3)
    k1 = n1 + rng.randint(1, 3)
    d1 = rng.randint(n1, n1 * (2 * g - 1))
    d = 2 * g + rng.randint(0, 3)
    budget = (d - (g - 1)) * (k1 - n1) - d1
    k = rng.randint(1, max(1, budget) + 2)
    return {"op": "kernel", "g": g, "base": [n1, d1, k1], "n": 1, "d": d, "k": k,
            "cc": _curve(rng, g), "kind": rng.choice(STABILITIES)}


def _product_negativity(rng: random.Random) -> dict:
    g = rng.randint(3, 10)
    while True:
        mu1 = Fraction(rng.randint(1, 6), rng.choice((1, 2, 3)))
        mu2 = Fraction(rng.randint(1, 6), rng.choice((1, 2, 3)))
        lam1 = Fraction(rng.randint(1, 4), rng.choice((1, 2)))
        lam2 = Fraction(rng.randint(1, 4), rng.choice((1, 2)))
        if mu1 + mu2 < lam1 * lam2 + g - 1:
            break
    return {"op": "product_negativity", "g": g, "mu1": str(mu1), "lam1": str(lam1),
            "mu2": str(mu2), "lam2": str(lam2)}


def _kernel_negativity(rng: random.Random) -> dict:
    while True:
        g = rng.randint(3, 9)
        n1 = rng.randint(2, 4)
        k1 = n1 + rng.randint(1, 3)
        if k1 > n1 * (g - 1):
            continue
        # admissible base degrees, as enumerated by `bnloci enumerate`
        s = -(-k1 // n1)
        lo = k1 + n1 * (g - 1) - n1 * ((g - 1) // s)
        hi = k1 + n1 * (g - 1) - Fraction(g - 1, k1 - n1)
        degrees = [d1 for d1 in range(lo, math.ceil(hi)) if d1 % n1 != 0]
        if degrees:
            break
    d1 = rng.choice(degrees)
    e = (k1 - n1) * (g - 1) + d1 + rng.randint(0, 4)
    return {"op": "kernel_negativity", "g": g, "base": [n1, d1, k1], "n": 1,
            "e": e, "cc": _curve(rng, g)}


# Requests of each kind in every block of 100; blocks are shuffled, so any
# run of a few blocks has the same mix whatever the seed.  The weights are
# an assumption, not a measurement: no record of real bnloci traffic
# exists, so they only encode "mostly untwisted decisions, a minority of
# universal ones, some constructions and negativity scans".  Universal
# decisions cost about 20 times an untwisted one, so they take most of the
# request time; run.py reports the measured share of each op.
_MIX = (
    (80, _untwisted),
    (12, _universal),
    (3, _product),
    (3, _kernel),
    (1, _product_negativity),
    (1, _kernel_negativity),
)

QUERY_MIX_FIRST = {"op": "untwisted", "g": 7, "n": 2, "d": 9, "k": 3, "cc": "general",
                   "kind": "stable"}


def query_mix(seed: int) -> Iterator[dict]:
    """Endless stream; the first request is QUERY_MIX_FIRST for every seed."""
    rng = _rng("query-mix", seed)
    block = [make for count, make in _MIX for _ in range(count)]
    yield QUERY_MIX_FIRST
    while True:
        rng.shuffle(block)
        for make in block:
            yield make(rng)


# ---------------------------------------------------------------------------
# slope-scan


def scan_genera(seed: int) -> list[int]:
    rng = _rng("slope-scan-genera", seed)
    return [c + rng.randint(-1, 1) for c in SCAN_CENTRES]


def scan_slopes(g: int) -> list[Fraction]:
    """The 1/8 grid of (0, 2g-2], as scanned by `bpn --new-points`."""
    return [i * SCAN_STEP for i in range(1, int((2 * g - 2) / SCAN_STEP) + 1)]


def slope_scan(seed: int) -> Iterator[dict]:
    """Endless stream of passes over every grid slope of the three genera.

    Each pass is shuffled, so any prefix mixes the three genera in the
    same proportion as a full pass.  The first request is the first slope
    of the smallest genus at lambda = SCAN_FIRST_LAMBDA, so the CLI set-up
    time barely depends on the seed.
    """
    genera = scan_genera(seed)
    rng = _rng("slope-scan", seed)
    first = True
    while True:
        cells = [(g, mu) for g in genera for mu in scan_slopes(g)]
        rng.shuffle(cells)
        if first:
            cells.remove((genera[0], SCAN_STEP))
            cells.insert(0, (genera[0], SCAN_STEP))
        for g, mu in cells:
            lam = Fraction(rng.randint(1, 8 * g), 8)
            if first:
                lam, first = SCAN_FIRST_LAMBDA, False
            yield {"op": "slope", "g": g, "mu": str(mu), "lam": str(lam)}


# ---------------------------------------------------------------------------
# genus-sweep


def sweep_genera(seed: int, pass_index: int) -> list[int]:
    rng = _rng("genus-sweep-genera", seed, pass_index)
    lo, hi = SWEEP_LOG10
    width = (hi - lo) / SWEEP_PASS
    genera: list[int] = []
    for i in range(SWEEP_PASS):
        g = round(10 ** rng.uniform(lo + i * width, lo + (i + 1) * width))
        if i == SWEEP_FIRST_STRATUM:
            g = SWEEP_FIRST["g"]
        while g in genera:
            g += 1
        genera.append(g)
    first = genera.pop(SWEEP_FIRST_STRATUM)
    rng.shuffle(genera)
    return [first] + genera


def _sweep_point(rng: random.Random, g: int) -> tuple[str, str]:
    mu = Fraction(rng.randint(1, 8 * (2 * g - 2)), 8)
    lam = Fraction(rng.randint(1, 8 * g), 8)
    return str(mu), str(lam)


def genus_sweep_pass(seed: int, pass_index: int) -> list[dict]:
    """One process's worth of requests: SWEEP_PASS distinct genera."""
    rng = _rng("genus-sweep", seed, pass_index)
    out = []
    for i, g in enumerate(sweep_genera(seed, pass_index)):
        n = rng.randint(1, 4)
        d = rng.randint(1, 2 * n * (g - 1) - 1)
        k = rng.randint(1, max(1, math.isqrt(n * n * (g - 1))))
        if i == 0:
            n, d, k = SWEEP_FIRST["n"], SWEEP_FIRST["d"], SWEEP_FIRST["k"]
        points = [[region, *_sweep_point(rng, g), rng.choice(STABILITIES)]
                  for region in ("T", "BMNO", "T", "BMNO")]
        out.append({"op": "sweep", "g": g, "n": n, "d": d, "k": k,
                    "points": points})
    return out


# ---------------------------------------------------------------------------
# shared helpers


def stream(workload: str, seed: int, pass_index: int = 0) -> Iterator[dict]:
    if workload == "query-mix":
        return query_mix(seed)
    if workload == "slope-scan":
        return slope_scan(seed)
    if workload == "genus-sweep":
        return iter(genus_sweep_pass(seed, pass_index))
    raise ValueError(f"unknown workload {workload!r}")


def scan_pass_length(seed: int) -> int:
    """Requests in one slope-scan pass: every grid slope of the three genera."""
    return sum(len(scan_slopes(g)) for g in scan_genera(seed))


def first_request_argv(workload: str, seed: int) -> list[str]:
    """The workload's first request as `bnloci` command-line arguments.

    Only slope-scan's depends on the seed, through its smallest genus.
    """
    req = next(stream(workload, seed))
    if req["op"] == "untwisted":
        return ["decide", "--genus", str(req["g"]), "--rank", str(req["n"]),
                "--degree", str(req["d"]), "--sections", str(req["k"]),
                "--curve", req["cc"], "--stability", req["kind"]]
    if req["op"] == "slope":
        return ["bpn", "--genus", str(req["g"]), "--mu", req["mu"],
                "--lam", req["lam"]]
    if req["op"] == "sweep":
        return ["decide", "--genus", str(req["g"]), "--rank", str(req["n"]),
                "--degree", str(req["d"]), "--sections", str(req["k"]),
                "--curve", "general", "--stability", "stable"]
    raise ValueError(f"no CLI form for {req['op']!r}")


def canonical(doc: object) -> str:
    """Canonical JSON text: sorted keys, no whitespace."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))
