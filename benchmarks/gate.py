"""Correctness gate: golden digests of the leading outputs of each workload.

The seed-independent invariants (verify_decision, the bpn decomposition,
membership against t_g/f_g) are checked in child.py next to the objects
they inspect.  This module holds what needs committed data: the digest of
each of the first prefix(workload, seed) canonical outputs, recorded for
GOLDEN_SEEDS, and the golden CLI corpus.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import workloads
from workloads import canonical

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
DIGESTS = GOLDEN_DIR / "digests.json"
CLI_CORPUS = GOLDEN_DIR / "cli_corpus.json"

GOLDEN_SEEDS = range(0, 11)
DEFAULT_SEED = 1
# hex digits per output; the golden file stores one string per workload
DIGEST_LEN = 8


def prefix(workload: str, seed: int) -> int:
    """Outputs with a golden digest: what every untraced run completes
    (run.MIN_REQUESTS).  A full slope-scan pass, every genus-sweep pass
    the run always makes, the first 1000 query-mix requests."""
    if workload == "slope-scan":
        return workloads.scan_pass_length(seed)
    if workload == "genus-sweep":
        return 4 * workloads.SWEEP_PASS
    return 1000


def digest(out: dict) -> str:
    return hashlib.sha256(canonical(out).encode()).hexdigest()[:DIGEST_LEN]


def load(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def digest_mismatches(golden: dict, workload: str, seed: int,
                      digests: list[str]) -> list[int] | None:
    """Indices whose output differs from the golden one; None if not recorded.

    Only the outputs the run made are compared: untraced runs make the
    whole prefix, a traced run of a workload not asked for makes fewer."""
    joined = golden.get(str(seed), {}).get(workload)
    if joined is None:
        return None
    expected = [joined[i:i + DIGEST_LEN] for i in range(0, len(joined), DIGEST_LEN)]
    return [i for i, (a, b) in enumerate(zip(digests, expected)) if a != b]


def corpus_mismatches(golden: dict, results: dict) -> list[str]:
    """Names of corpus cases whose exit code or output differs from golden."""
    bad = []
    for name, want in golden.items():
        got = results.get(name)
        if got is None or got["exit"] != want["exit"] or got["stdout"] != want["stdout"]:
            bad.append(name)
        elif want["stderr"] is not None and got["stderr"] != want["stderr"]:
            bad.append(name)
    return bad
