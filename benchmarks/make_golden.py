"""Record the golden digests and the golden CLI corpus from this checkout.

    python3 benchmarks/make_golden.py

Run it only when an output change is intended, and say why in the change
that commits the new files.  It refuses to record outputs that fail the
seed-independent invariants.
"""

from __future__ import annotations

import json
import sys

import corpus
import gate
import workloads
from run import Clock, child, measure


def main() -> int:
    digests = {}
    for seed in gate.GOLDEN_SEEDS:
        digests[str(seed)] = {}
        for workload in workloads.WORKLOADS:
            res = measure(workload, seed, Clock(), count=gate.prefix(workload, seed))
            if res["failed"]:
                print("\n".join(res["messages"]), file=sys.stderr)
                return 1
            digests[str(seed)][workload] = "".join(res["digests"])
    # one line per seed keeps the file diffable
    with open(gate.DIGESTS, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(
            f"{json.dumps(seed)}: {json.dumps(per_seed, sort_keys=True, separators=(',', ':'))}"
            for seed, per_seed in digests.items()) + "\n}\n")

    results = child({"kind": "corpus"}, Clock())["results"]
    cases = {}
    for name, _ in corpus.CASES:
        if name in corpus.KNOWN_DEFECTS:
            cases[name] = {"exit": 1, "stdout": "", "stderr": None,
                           "known_defect": corpus.KNOWN_DEFECTS[name]}
        else:
            cases[name] = results[name]
    with open(gate.CLI_CORPUS, "w", encoding="utf-8") as fh:
        json.dump({"cases": cases, "excluded": corpus.EXCLUDED}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
