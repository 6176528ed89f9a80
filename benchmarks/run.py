"""Benchmark of the bnloci library and CLI in this checkout.

    python3 benchmarks/run.py --workload query-mix --seed 1 --seconds 12 --trace 0
    python3 benchmarks/run.py --workload all --trace 1

Each workload runs in fresh child processes (benchmarks/child.py) driven
by one client in a closed loop: the next request is sent only after the
previous one returns.  --trace 0 reports the end-to-end metrics of one
untraced run; --trace 1 repeats that run, then replays the same requests
with a span around every public call the benchmark makes, and reports the
per-layer metrics.  --workload all does every workload and prints one
table.  Every run checks its outputs (see gate.py and child.py) and runs
the golden CLI corpus.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  A report with the environment
is printed above it and written to .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import corpus
import gate
import stats
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"

# a run of one workload must end within 180 s; children get what is left
DEADLINE_S = 170.0
SETUP_REPEATS = 15
# requests every untraced run completes whatever its length.  Each count
# covers the golden prefix (slope-scan: its longest first pass, 1120) and
# keeps the tail at p99.9 / p99 / p95 on a machine slower than the one the
# run length was chosen on.
MIN_REQUESTS = {"query-mix": 10_000, "slope-scan": 1200, "genus-sweep": 4 * workloads.SWEEP_PASS}
# traced runs of the workloads not named on the command line, in requests;
# their golden check covers the outputs they make
TRACE_FIXED = {"query-mix": 4000, "slope-scan": 400, "genus-sweep": workloads.SWEEP_PASS}
# oracle.decided_share_* and construct.witness_share count over exactly the
# first TALLY requests
TALLY = 1000

END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# per-layer metric -> (unit, the end-to-end metric and workload it should move)
PER_LAYER = {
    "cli.import_ms": ("ms", "setup_s on every workload"),
    "cli.corpus_mismatches": ("count", "correctness only"),
    "bncore.beta_us": ("us", "ops_per_s on query-mix; should stay negligible"),
    "exactq.pw_max_ms": ("ms", "setup_s on slope-scan"),
    "exactq.piecewise_eval_us": ("us", "latency_p50_ms on slope-scan"),
    "regions.tg_eval_cold_ms": ("ms", "latency_p50_ms and peak_rss_mb on genus-sweep"),
    "regions.fg_eval_cold_ms": ("ms", "latency_p50_ms and peak_rss_mb on genus-sweep"),
    "regions.cold_eval_us_per_genus": ("us/genus", "latency_tail_ms on genus-sweep"),
    "regions.eval_warm_us": ("us", "latency_p50_ms on slope-scan"),
    "regions.membership_us": ("us", "ops_per_s on genus-sweep, latency_p50_ms on query-mix"),
    "oracle.decide_untwisted_us": ("us", "latency_p50_ms on query-mix"),
    "oracle.decide_universal_ms": ("ms", "latency_tail_ms on query-mix"),
    "oracle.verify_decision_us": ("us", "ops_per_s on query-mix"),
    "oracle.decision_to_json_us": ("us", "ops_per_s on query-mix"),
    "oracle.decided_share_untwisted": ("share", "none: no performance change may move it"),
    "oracle.decided_share_universal": ("share", "none: no performance change may move it"),
    "construct.bpn_boundary_ms": ("ms", "latency_p50_ms and ops_per_s on slope-scan"),
    "construct.bpn_membership_ms": ("ms", "latency_p50_ms and ops_per_s on slope-scan"),
    "construct.bpn_boundary_growth": ("ratio", "latency_tail_ms on slope-scan"),
    "construct.product_construct_ms": ("ms", "ops_per_s on query-mix"),
    "construct.kernel_construct_ms": ("ms", "ops_per_s on query-mix"),
    "construct.negativity_scan_ms": ("ms", "ops_per_s on query-mix"),
    "construct.witness_share": ("share", "none: a count of witnesses over attempts"),
    "trace.overhead_share": ("share", "none: traced over untraced run time, minus one"),
}

SPAN_NOTE = ("span times are measured from outside each public call, so they include "
             "nested work: oracle spans include regions and construct, construct "
             "spans include the oracle decisions they make")


class BenchError(RuntimeError):
    pass


class Clock:
    def __init__(self, seconds: float = DEADLINE_S) -> None:
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        left = self.end - time.monotonic()
        if left <= 0:
            raise BenchError("the run exceeded its time limit")
        return left


def _env() -> dict:
    return {**os.environ, "PYTHONPATH": str(ROOT / "src")}


def spawn(cmd: list[str], clock: Clock, stdin: str = "") -> subprocess.CompletedProcess:
    """Run a command in the checkout with its sources on the path; waits for it."""
    try:
        return subprocess.run(cmd, input=stdin, capture_output=True, text=True, cwd=ROOT,
                              env=_env(), timeout=clock.left())
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{' '.join(cmd[1:4])} timed out") from exc


def child(job: dict, clock: Clock) -> dict:
    proc = spawn([sys.executable, str(HERE / "child.py")], clock, json.dumps(job))
    if proc.returncode != 0:
        raise BenchError(f"{job['kind']} job exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


# ---------------------------------------------------------------------------
# one workload, untraced or traced


def measure(workload: str, seed: int, clock: Clock, seconds: float = 0.0,
            count: int | None = None, trace: bool = False) -> dict:
    """Run a workload for `seconds` of request time, or exactly `count` requests."""
    record = gate.prefix(workload, seed)
    job = {"kind": "run", "workload": workload, "seed": seed, "trace": trace,
           "record": record, "tally": TALLY}
    if workload != "genus-sweep":
        if count is None:
            job.update(budget_s=seconds, min_requests=MIN_REQUESTS[workload])
        else:
            job.update(min_requests=count, max_requests=count)
        res = child(job, clock)
        res["rss_kb"] = [res["rss_kb"]]
        return res
    # one fresh process per pass, so every genus is new to its process
    merged: dict = defaultdict(list)
    merged.update(n=0, busy_ns=0, failed=0, tally={})
    while (merged["n"] < count) if count is not None else (
            merged["n"] < MIN_REQUESTS[workload] or merged["busy_ns"] < seconds * 1e9):
        offset, span_offset = merged["n"], len(merged["spans"])
        res = child({**job, "pass_index": offset // workloads.SWEEP_PASS,
                     "min_requests": workloads.SWEEP_PASS,
                     "record": max(0, record - offset)}, clock)
        for key in ("latencies_ns", "messages", "digests", "tags"):
            merged[key] += res.get(key, [])
        merged["failed_idx"] += [i + offset for i in res["failed_idx"]]
        merged.setdefault("first_output", res["first_output"])
        merged["spans"] += [(name, t0, t1, parent + span_offset if parent >= 0 else -1,
                             req + offset) for name, t0, t1, parent, req in res.get("spans", [])]
        merged["rss_kb"].append(res["rss_kb"])
        for key in ("n", "busy_ns", "failed"):
            merged[key] += res[key]
    return dict(merged)


def check_golden(res: dict, workload: str, seed: int) -> str:
    """Count golden-digest mismatches into res["failed"]; return a report line."""
    bad = gate.digest_mismatches(gate.load(gate.DIGESTS), workload, seed, res["digests"])
    if bad is None:
        return f"golden digests not recorded for seed {seed}; invariants only"
    new = [i for i in bad if i not in res["failed_idx"]]
    res["failed"] += len(new)
    res["messages"] += [f"request {i}: output differs from the golden digest" for i in new]
    return f"golden digests {len(res['digests']) - len(bad)}/{len(res['digests'])} match"


# ---------------------------------------------------------------------------
# set-up: a fresh interpreter answering the first request through the CLI


def _cli_agrees(workload: str, proc: subprocess.CompletedProcess, first: dict) -> bool:
    if proc.returncode != 0:
        return False
    try:
        doc = json.loads(proc.stdout)
        if workload == "slope-scan":
            keys = ("boundary", "attained", "branch", "decomposition", "member")
            return all(doc[k] == first[k] for k in keys)
        want = first["decision"] if workload == "query-mix" else first["decisions"][0]
        return doc["verified"] is True and doc["decision"] == want
    except (ValueError, KeyError, TypeError):
        return False


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def setup_time(workload: str, seed: int, first: dict, clock: Clock) -> tuple[float, int]:
    """Median processor time of SETUP_REPEATS spawns, and how many disagreed.

    Processor time (user + system) of the spawned interpreter, like the
    request latencies: it leaves out hypervisor steal on a shared VM.
    """
    cmd = [sys.executable, "-m", "bnloci.cli", *workloads.first_request_argv(workload, seed)]
    times, bad = [], 0
    for i in range(SETUP_REPEATS + 1):
        t0 = _children_cpu_s()
        proc = spawn(cmd, clock)
        elapsed = _children_cpu_s() - t0
        # the first spawn byte-compiles a fresh checkout and is not timed
        if i:
            times.append(elapsed)
            bad += not _cli_agrees(workload, proc, first)
    return statistics.median(times), bad


def import_time_ms(clock: Clock) -> float:
    code = ("import time; t = time.process_time(); import bnloci.cli; "
            "print(time.process_time() - t)")
    times = []
    for i in range(SETUP_REPEATS + 1):
        proc = spawn([sys.executable, "-c", code], clock)
        if proc.returncode != 0:
            raise BenchError(f"import bnloci.cli failed: {proc.stderr[-2000:]}")
        if i:
            times.append(float(proc.stdout) * 1e3)
    return statistics.median(times)


def run_corpus(clock: Clock) -> tuple[list[str], list[str], int]:
    """(unexpected mismatches, known-defect mismatches, cases run)."""
    results = child({"kind": "corpus"}, clock)["results"]
    golden = gate.load(gate.CLI_CORPUS)["cases"]
    bad = gate.corpus_mismatches(golden, results)
    known = [b for b in bad if b in corpus.KNOWN_DEFECTS]
    return [b for b in bad if b not in known], known, len(golden)


# ---------------------------------------------------------------------------
# metrics


def end_to_end(res: dict, setup_s: float | None) -> tuple[dict, dict]:
    lat_ms = [x / 1e6 for x in res["latencies_ns"]]
    tail_ms, label, beyond = stats.tail(lat_ms)
    values = {
        "ops_per_s": res["n"] / (res["busy_ns"] / 1e9),
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_tail_ms": tail_ms,
        "peak_rss_mb": statistics.median(res["rss_kb"]) / 1024,
    }
    if setup_s is not None:
        values["setup_s"] = setup_s
    detail = {"requests": res["n"], "tail_percentile": label, "tail_beyond": beyond,
              "processes": len(res["rss_kb"]), "failed_share": res["failed"] / res["n"]}
    op_ns = res.get("op_ns", {})
    if len(op_ns) > 1:
        # op -> [share of requests, share of request time]
        detail["op_shares"] = {op: [round(n / res["n"], 4), round(ns / res["busy_ns"], 4)]
                               for op, (n, ns) in op_ns.items()}
    return values, detail


def _span_times(res: dict) -> dict[str, list[int]]:
    out: dict[str, list[int]] = defaultdict(list)
    for name, t0, t1, _, _ in res["spans"]:
        if name != "request":
            out[name].append(t1 - t0)
    return out


def _mean(xs: list, scale: float) -> float:
    return sum(xs) / len(xs) / scale


def per_layer(traced: dict, untraced: dict, probe: dict, import_ms: float,
              corpus_bad: int) -> dict:
    qm, ss, gs = (_span_times(traced[w]) for w in workloads.WORKLOADS)
    genus_of = [g for _, g in traced["slope-scan"]["tags"]]
    by_genus: dict[int, list[int]] = defaultdict(list)
    for name, t0, t1, _, req in traced["slope-scan"]["spans"]:
        if name == "construct.bpn_boundary":
            by_genus[genus_of[req]].append(t1 - t0)
    lo, hi = min(by_genus), max(by_genus)
    cold = probe["cold"]
    tally = traced["query-mix"]["tally"]
    return {
        "cli.import_ms": import_ms,
        "cli.corpus_mismatches": corpus_bad,
        "bncore.beta_us": probe["beta_ns"] / 1e3,
        "exactq.pw_max_ms": probe["pw_max_ns"] / 1e6,
        "exactq.piecewise_eval_us": probe["eval_ns"] / 1e3,
        "regions.tg_eval_cold_ms": statistics.median([c[1] for c in cold]) / 1e6,
        "regions.fg_eval_cold_ms": statistics.median([c[2] for c in cold]) / 1e6,
        "regions.cold_eval_us_per_genus": stats.slope(
            [c[0] for c in cold], [(c[1] + c[2]) / 1e3 for c in cold]),
        "regions.eval_warm_us": _mean(ss["regions.tg_eval"] + ss["regions.fg_eval"], 1e3),
        "regions.membership_us": _mean(
            gs["regions.membership_T"] + gs["regions.membership_BMNO"], 1e3),
        "oracle.decide_untwisted_us": _mean(qm["oracle.decide_untwisted"], 1e3),
        "oracle.decide_universal_ms": _mean(qm["oracle.decide_universal"], 1e6),
        "oracle.verify_decision_us": _mean(qm["oracle.verify_decision"], 1e3),
        "oracle.decision_to_json_us": _mean(qm["oracle.decision_to_json"], 1e3),
        "oracle.decided_share_untwisted": tally["untwisted"][0] / tally["untwisted"][1],
        "oracle.decided_share_universal": tally["universal"][0] / tally["universal"][1],
        "construct.bpn_boundary_ms": _mean(ss["construct.bpn_boundary"], 1e6),
        "construct.bpn_membership_ms": _mean(ss["construct.bpn_membership"], 1e6),
        "construct.bpn_boundary_growth": _mean(by_genus[hi], 1) / _mean(by_genus[lo], 1),
        "construct.product_construct_ms": _mean(qm["construct.product_construct"], 1e6),
        "construct.kernel_construct_ms": _mean(qm["construct.kernel_construct"], 1e6),
        "construct.negativity_scan_ms": _mean(
            qm["construct.product_negativity_search"]
            + qm["construct.kernel_negativity_min_d"], 1e6),
        "construct.witness_share": tally["witness"][0] / tally["witness"][1],
        "trace.overhead_share": sum(traced[w]["busy_ns"] for w in untraced)
        / sum(untraced[w]["busy_ns"] for w in untraced) - 1,
    }


# ---------------------------------------------------------------------------
# environment and output


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str:
    # the ceiling keeps git from reporting an enclosing repository
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              cwd=ROOT, env=env, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def environment(args: argparse.Namespace) -> dict:
    return {
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _commit(),
        "seed": args.seed,
        "traced": bool(args.trace),
        "run_seconds": args.seconds,
        "workload": args.workload,
    }


def _fmt(value: float) -> str:
    return f"{value:.6g}"


class Outcome:
    """Requests attempted and failed over the whole run, with the first messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, attempted: int, failed: int, messages: list[str]) -> None:
        self.attempted += attempted
        self.failed += failed
        self.messages += messages


def report_end_to_end(name: str, res: dict, setup_s: float | None,
                      golden_line: str) -> tuple[dict, dict, list[str]]:
    values, detail = end_to_end(res, setup_s)
    lines = [f"{name}: {res['n']} requests, one client, closed loop, "
             f"{detail['processes']} process(es); {golden_line}"]
    for metric, unit in END_TO_END.items():
        if metric not in values:
            continue
        note = ""
        if metric == "latency_tail_ms":
            note = (f"  ({detail['tail_percentile']}, {detail['tail_beyond']} "
                    f"samples beyond, n={res['n']})")
        lines.append(f"  {metric:<34}{_fmt(values[metric]):>14} {unit}{note}")
    lines.append(f"  {'failed_share':<34}{_fmt(detail['failed_share']):>14} share")
    if "op_shares" in detail:
        lines.append("  share of requests / of request time by op: " + ", ".join(
            f"{op} {n:.1%} / {t:.1%}" for op, (n, t) in detail["op_shares"].items()))
    return values, detail, lines


def run(args: argparse.Namespace, outcome: Outcome) -> tuple[dict, dict, list[str]]:
    """Every measurement the arguments ask for: (metrics, report, report lines)."""
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    clock = Clock(DEADLINE_S * len(names))
    # a single traced workload reports per-layer metrics only, so skips set-up
    with_setup = not args.trace or args.workload == "all"
    env = environment(args)
    lines = ["environment: " + json.dumps(env)]
    metrics: dict = {}
    report: dict = {"environment": env, "workloads": {}}
    untraced = {}
    for name in names:
        res = untraced[name] = measure(name, args.seed, clock, seconds=args.seconds)
        golden_line = check_golden(res, name, args.seed)
        outcome.add(res["n"], res["failed"], res["messages"])
        setup_s = None
        if with_setup:
            setup_s, setup_bad = setup_time(name, args.seed, res["first_output"], clock)
            outcome.add(SETUP_REPEATS, setup_bad, [f"{name}: {setup_bad} CLI set-up answers "
                                                   "disagree"] if setup_bad else [])
        values, detail, more = report_end_to_end(name, res, setup_s, golden_line)
        lines += more
        report["workloads"][name] = {"metrics": values, **detail, "gate": golden_line}
        if with_setup:
            prefix = f"{name}." if args.workload == "all" else ""
            metrics.update({prefix + m: {"value": values[m], "unit": u}
                            for m, u in END_TO_END.items()})

    bad, known, cases = run_corpus(clock)
    outcome.add(cases, len(bad), [f"CLI corpus case {b} differs from golden" for b in bad])
    lines.append(f"cli corpus: {cases - len(bad) - len(known)}/{cases} match; "
                 f"known defects: {', '.join(known) or 'none'}")
    if not args.trace:
        return metrics, report, lines

    traced = {}
    for name in workloads.WORKLOADS:
        count = untraced[name]["n"] if name in untraced else TRACE_FIXED[name]
        res = traced[name] = measure(name, args.seed, clock, count=count, trace=True)
        check_golden(res, name, args.seed)
        outcome.add(res["n"], res["failed"], res["messages"])
    probe = child({"kind": "probe", "seed": args.seed}, clock)
    layer = per_layer(traced, untraced, probe, import_time_ms(clock), len(bad) + len(known))
    lines.append("per layer (traced run; " + SPAN_NOTE + "):")
    for metric, (unit, moves) in PER_LAYER.items():
        lines.append(f"  {metric:<34}{_fmt(layer[metric]):>14} {unit:<9} moves {moves}")
    metrics.update({m: {"value": v, "unit": PER_LAYER[m][0]} for m, v in layer.items()})
    report.update(per_layer=layer, span_note=SPAN_NOTE)
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json", "w",
              encoding="utf-8") as fh:
        json.dump({"note": SPAN_NOTE,
                   "fields": ["name", "start_cpu_ns", "end_cpu_ns", "parent", "request"],
                   "workloads": {w: {"spans": r["spans"], "tags": r["tags"]}
                                 for w, r in traced.items()}}, fh)
    return metrics, report, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=gate.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "bnloci" / "__init__.py").is_file():
        print(f"error: no bnloci sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    outcome = Outcome()
    try:
        metrics, report, lines = run(args, outcome)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    correct = outcome.failed == 0
    report.update(correct=correct, attempted=outcome.attempted, failed=outcome.failed,
                  messages=outcome.messages)
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    for msg in outcome.messages:
        print(f"gate: {msg}", file=sys.stderr)
    print("\n".join(lines))
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
