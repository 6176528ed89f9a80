"""Self-checks for the benchmark's own code.

    python3 benchmarks/selfcheck.py

- the same seed gives byte-identical inputs, and another seed other inputs;
- the tail-percentile rule picks the right percentile at small and large
  sample counts;
- the correctness gate rejects tampered outputs (a Nonempty decision
  flipped to Empty, a moved bpn boundary, a changed CLI answer);
- BENCHMARK.json names exactly the workloads and metrics run.py reports.

Prints one line per check and exits 1 if any fails.
"""

from __future__ import annotations

import copy
import json
import sys
from fractions import Fraction
from itertools import islice

import gate
import stats
import workloads
from run import END_TO_END, MIN_REQUESTS, PER_LAYER, ROOT, TALLY, Clock, child

failures: list[str] = []


def check(cond: bool, what: str) -> None:
    print(("ok    " if cond else "FAIL  ") + what)
    if not cond:
        failures.append(what)


def _inputs(workload: str, seed: int) -> str:
    if workload == "genus-sweep":
        reqs = workloads.genus_sweep_pass(seed, 0) + workloads.genus_sweep_pass(seed, 1)
    else:
        reqs = list(islice(workloads.stream(workload, seed), 3000))
    return "\n".join(workloads.canonical(r) for r in reqs)


def seeded_inputs() -> None:
    for w in workloads.WORKLOADS:
        check(_inputs(w, 5) == _inputs(w, 5), f"{w}: seed 5 twice gives byte-identical inputs")
        check(_inputs(w, 5) != _inputs(w, 6), f"{w}: seeds 5 and 6 give different inputs")
        # slope-scan's first request varies only in its genus, 9..11
        argvs = {tuple(workloads.first_request_argv(w, s)) for s in gate.GOLDEN_SEEDS}
        check(len(argvs) <= (3 if w == "slope-scan" else 1),
              f"{w}: the set-up CLI call does not depend on the seed")


def tail_rule() -> None:
    cases = {19: None, 20: "50", 39: "50", 40: "75", 99: "75", 100: "90", 199: "90",
             200: "95", 999: "95", 1000: "99", 9999: "99", 10000: "99.9",
             99999: "99.9", 100000: "99.99", 10 ** 7: "99.99"}
    for n, want in cases.items():
        got = stats.tail_percentile(n)
        check(got == (None if want is None else Fraction(want)),
              f"tail percentile for n={n} is {want}")
    value, label, beyond = stats.tail(list(range(1, 1001)))
    check((value, label, beyond) == (990, "p99", 10), "tail of 1..1000 is 990 at p99, 10 beyond")
    value, label, beyond = stats.tail([3.0] * 5)
    check((value, label, beyond) == (3.0, "max", 0), "fewer than 20 samples report the maximum")
    rungs = {"query-mix": "99.9", "slope-scan": "99", "genus-sweep": "95"}
    for w, want in rungs.items():
        check(stats.tail_percentile(MIN_REQUESTS[w]) == Fraction(want),
              f"{w}: the minimum request count keeps the tail at p{want} or above")
        check(all(gate.prefix(w, s) <= MIN_REQUESTS[w] for s in range(100))
              and TALLY <= MIN_REQUESTS["query-mix"],
              f"{w}: every run completes the golden prefix and the tally")
    check(gate.prefix("slope-scan", 1) == workloads.scan_pass_length(1)
          and gate.prefix("genus-sweep", 1) == MIN_REQUESTS["genus-sweep"],
          "the golden prefix covers a full slope-scan pass and every genus-sweep pass a run makes")
    golden = gate.load(gate.DIGESTS)
    check(all(len(golden[str(s)][w]) == gate.DIGEST_LEN * gate.prefix(w, s)
              for s in gate.GOLDEN_SEEDS for w in workloads.WORKLOADS),
          "golden digests are recorded for the whole prefix of every golden seed")


def tampering() -> None:
    golden = gate.load(gate.DIGESTS)
    seed = gate.DEFAULT_SEED
    for w, field in (("query-mix", "decision"), ("slope-scan", "boundary")):
        k = gate.prefix(w, seed)
        res = child({"kind": "run", "workload": w, "seed": seed, "record": k,
                     "min_requests": k, "max_requests": k, "outputs": True}, Clock())
        check(gate.digest_mismatches(golden, w, seed, res["digests"]) == [],
              f"{w}: untampered outputs pass the gate")
        outputs = res["outputs"]
        if field == "decision":
            i = next(i for i, o in enumerate(outputs)
                     if o.get(field, {}).get("status") == "Nonempty")
            tampered = copy.deepcopy(outputs)
            tampered[i][field]["status"] = "Empty"
            what = "a Nonempty decision flipped to Empty"
        else:
            i = 0
            tampered = copy.deepcopy(outputs)
            tampered[i][field] = str(Fraction(tampered[i][field]) + Fraction(1, 8))
            what = "a bpn boundary moved by 1/8"
        bad = gate.digest_mismatches(golden, w, seed, [gate.digest(o) for o in tampered])
        check(bad == [i], f"{w}: the gate rejects {what} (request {i})")

    cli = gate.load(gate.CLI_CORPUS)["cases"]
    results = child({"kind": "corpus"}, Clock())["results"]
    base = set(gate.corpus_mismatches(cli, results))
    tampered = copy.deepcopy(results)
    tampered["decide-known-empty"]["stdout"] = tampered["decide-known-empty"]["stdout"].replace(
        '"Empty"', '"Nonempty"')
    check(set(gate.corpus_mismatches(cli, tampered)) - base == {"decide-known-empty"},
          "CLI corpus: the gate rejects an Empty answer changed to Nonempty")


def benchmark_json() -> None:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    check([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
          "BENCHMARK.json lists the workloads run.py accepts")
    check({m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END,
          "BENCHMARK.json end_to_end matches run.py")
    check({m["name"]: m["unit"] for m in spec["per_layer"]}
          == {name: unit for name, (unit, _) in PER_LAYER.items()},
          "BENCHMARK.json per_layer matches run.py")


if __name__ == "__main__":
    seeded_inputs()
    tail_rule()
    tampering()
    benchmark_json()
    print(f"{len(failures)} failed" if failures else "all self-checks passed")
    sys.exit(1 if failures else 0)
