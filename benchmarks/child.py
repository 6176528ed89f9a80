"""Benchmark worker: runs one job in a fresh interpreter and prints JSON.

run.py starts this file with PYTHONPATH set to the checkout's src/ and
writes the job to stdin.  Job kinds:

- "run": a closed loop of one workload's requests, one client, no
  threads.  Each request is timed on its own; the correctness gate runs
  after the clock stops, so it never counts as latency.
- "probe": direct calls into exactq, bncore and the region tables, on
  inputs taken from the workloads (traced runs only).
- "corpus": the golden CLI corpus, in-process through bnloci.cli.main.

Only public functions are called in a "run" job, so a later change that
stops using an internal (tg_piecewise, say) is not hidden by the harness.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import statistics
import sys
import traceback
from array import array
from fractions import Fraction
from itertools import islice
from pathlib import Path
from time import thread_time_ns

import gate
import workloads

SRC = Path(__file__).resolve().parent.parent / "src"

# Requests are timed in this thread's processor time.  The library runs in
# one thread and does no I/O, so on an unshared machine this equals wall
# time; on a shared VM it leaves out the time the hypervisor gives to other
# guests (steal), which otherwise shows up as 10-20 ms stalls and drift.
clock_ns = thread_time_ns

import bnloci  # noqa: E402

if Path(bnloci.__file__).resolve().parent.parent != SRC.resolve():
    sys.exit(f"bnloci was imported from {bnloci.__file__}, not from {SRC}")

from bnloci.bncore import BNProblem, UniversalProblem, beta_universal, beta_untwisted  # noqa: E402
from bnloci.construct import (  # noqa: E402
    ConstructError,
    bpn_boundary,
    bpn_membership,
    kernel_construct,
    kernel_negativity_min_d,
    product_construct,
    product_negativity_search,
)
from bnloci.oracle import (  # noqa: E402
    CurveClass,
    Status,
    decide_universal,
    decide_untwisted,
    decision_to_json,
    verify_decision,
)
from bnloci.regions import (  # noqa: E402
    StabilityKind,
    fg_eval,
    membership_BMNO,
    membership_T,
    tg_eval,
)


class Direct:
    """Calls straight through; the untraced run uses this."""

    def begin(self, request: int) -> None:
        pass

    def end(self, t0: int, t1: int) -> None:
        pass

    def call(self, name, fn, *args):
        return fn(*args)


class Tracer:
    """Records one span per call: name, start, end, parent span, request id.

    Spans stay in memory and are returned when the job ends.  The calls
    are made from the benchmark, so a span covers everything the call does,
    nested work in other layers included.
    """

    def __init__(self) -> None:
        self.spans: list = []
        self.parent = -1
        self.request = -1

    def begin(self, request: int) -> None:
        self.parent = len(self.spans)
        self.request = request
        self.spans.append(None)

    def end(self, t0: int, t1: int) -> None:
        self.spans[self.parent] = ("request", t0, t1, -1, self.request)

    def call(self, name, fn, *args):
        idx = len(self.spans)
        self.spans.append(None)
        t0 = clock_ns()
        try:
            return fn(*args)
        finally:
            self.spans[idx] = (name, t0, clock_ns(), self.parent, self.request)


# ---------------------------------------------------------------------------
# requests: each op makes the timed calls and returns a closure that the
# caller runs after the clock stops; it builds the canonical output and
# lists the gate's invariant violations


def _decision(T, name, fn, problem, req):
    """A decision as `bnloci decide` makes it: decide, verify, serialise."""
    dec = T.call(f"oracle.{name}", fn, problem, CurveClass(req["cc"]),
                 StabilityKind(req["kind"]))
    ok = T.call("oracle.verify_decision", verify_decision, dec)
    js = T.call("oracle.decision_to_json", decision_to_json, dec)
    return lambda: ({"decision": js, "verified": ok}, [] if ok else ["verify_decision failed"])


def _op_untwisted(req, T):
    p = BNProblem(req["g"], req["n"], req["d"], req["k"])
    return _decision(T, "decide_untwisted", decide_untwisted, p, req)


def _op_universal(req, T):
    p = UniversalProblem(req["g"], req["n1"], req["d1"], req["n2"], req["d2"], req["k"])
    return _decision(T, "decide_universal", decide_universal, p, req)


def _op_product(req, T):
    g = req["g"]
    try:
        w = T.call("construct.product_construct", product_construct, g,
                   BNProblem(g, *req["p1"]), BNProblem(g, *req["p2"]),
                   CurveClass(req["cc"]), StabilityKind(req["kind"]))
    except ConstructError as exc:
        message = str(exc)
        return lambda: ({"error": message}, [])
    ok1 = T.call("oracle.verify_decision", verify_decision, w.factor1_decision)
    ok2 = T.call("oracle.verify_decision", verify_decision, w.factor2_decision)

    def finish():
        bad = [] if ok1 and ok2 else ["factor decision failed verify_decision"]
        if w.k != w.factor1.k * w.factor2.k:
            bad.append("product demand is not k1*k2")
        return {"window": w.window, "k": w.k, "beta_universal": w.beta_universal,
                "beta_tensor": w.beta_tensor,
                "tensor": [w.tensor.n, w.tensor.d, w.tensor.k],
                "factor1": decision_to_json(w.factor1_decision),
                "factor2": decision_to_json(w.factor2_decision),
                "verified": ok1 and ok2}, bad
    return finish


def _op_kernel(req, T):
    n1, d1, k1 = req["base"]
    try:
        w = T.call("construct.kernel_construct", kernel_construct, req["g"], n1, d1, k1,
                   req["n"], req["d"], req["k"], CurveClass(req["cc"]),
                   StabilityKind(req["kind"]))
    except ConstructError as exc:
        message = str(exc)
        return lambda: ({"error": message}, [])
    ok = T.call("oracle.verify_decision", verify_decision, w.base_decision)

    def finish():
        bad = [] if ok else ["base decision failed verify_decision"]
        if not 0 < w.k <= w.k_max:
            bad.append("kernel demand exceeds its budget")
        return {"k": w.k, "k_max": w.k_max, "n2": w.n2, "d2": w.d2,
                "beta_universal": w.beta_universal,
                "base": decision_to_json(w.base_decision), "verified": ok}, bad
    return finish


def _op_product_negativity(req, T):
    w = T.call("construct.product_negativity_search", product_negativity_search,
               req["g"], Fraction(req["mu1"]), Fraction(req["lam1"]), Fraction(req["mu2"]), Fraction(req["lam2"]))

    def finish():
        bad = []
        if w.beta_universal >= 0 or w.k != w.k1 * w.k2 or w.beta_universal != \
                beta_universal(w.g, w.n1, w.d1, w.n2, w.d2, w.k):
            bad.append("negativity witness does not recompute to a negative count")
        return {"n1": w.n1, "d1": w.d1, "k1": w.k1, "n2": w.n2, "d2": w.d2,
                "k2": w.k2, "k": w.k, "beta_universal": w.beta_universal,
                "bound": w.bound}, bad
    return finish


def _op_kernel_negativity(req, T):
    n1, d1, k1 = req["base"]
    w = T.call("construct.kernel_negativity_min_d", kernel_negativity_min_d,
               req["g"], n1, d1, k1, req["n"], req["e"], CurveClass(req["cc"]))

    def finish():
        bad = []
        if w.beta >= 0 or w.quadratic(w.d_min) != w.beta:
            bad.append("kernel negativity witness does not recompute")
        return {"d_min": w.d_min, "beta": w.beta, "k": w.k,
                "quadratic": [str(w.quadratic.a), str(w.quadratic.b),
                              str(w.quadratic.c)],
                "scan": [w.scan_start, w.scan_stop]}, bad
    return finish


def _bpn_json(q) -> dict:
    return {"boundary": str(q.boundary), "attained": q.attained, "branch": q.branch,
            "decomposition": [str(x) for x in q.decomposition]}


def _op_slope(req, T):
    g, mu, lam = req["g"], Fraction(req["mu"]), Fraction(req["lam"])
    q = T.call("construct.bpn_boundary", bpn_boundary, g, mu)
    t = T.call("regions.tg_eval", tg_eval, g, mu)
    f = T.call("regions.fg_eval", fg_eval, g, mu)
    m = T.call("construct.bpn_membership", bpn_membership, g, mu, lam)

    def finish():
        bad = []
        mu1, mu2, lam1, lam2 = q.decomposition
        if q.branch == "direct":
            reproduced = lam1 * lam2 == q.boundary and mu1 + mu2 == mu
        else:
            reproduced = (lam1 * lam2 + mu - (g - 1) == q.boundary
                          and mu1 + mu2 == 2 * g - 2 - mu)
        if not reproduced:
            bad.append("bpn decomposition does not reproduce its boundary")
        if m.boundary != q.boundary or m.member != (0 < lam <= q.boundary):
            bad.append("bpn membership disagrees with the boundary")
        if q.boundary > 0 and not bpn_membership(g, mu, q.boundary).member:
            bad.append("the boundary value is not a member")
        return {**_bpn_json(q), "t": str(t), "f": str(f), "lambda": str(lam),
                "member": m.member}, bad
    return finish


_MEMBERSHIP = {"T": ("regions.membership_T", membership_T, tg_eval),
               "BMNO": ("regions.membership_BMNO", membership_BMNO, fg_eval)}


def _op_sweep(req, T):
    g = req["g"]
    p = BNProblem(g, req["n"], req["d"], req["k"])
    decided = []
    for kind in StabilityKind:
        dec = T.call("oracle.decide_untwisted", decide_untwisted, p,
                     CurveClass.GENERAL, kind)
        decided.append((dec, T.call("oracle.verify_decision", verify_decision, dec)))
    verdicts = []
    for region, mu, lam, kind in req["points"]:
        name, fn, _ = _MEMBERSHIP[region]
        verdicts.append(T.call(name, fn, g, Fraction(mu), Fraction(lam), StabilityKind(kind)))

    def finish():
        bad = [] if all(ok for _, ok in decided) else ["verify_decision failed"]
        for (region, mu, lam, _), v in zip(req["points"], verdicts):
            top = _MEMBERSHIP[region][2](g, mu)
            if v.inside != (0 < Fraction(lam) <= top):
                bad.append(f"{region} membership disagrees with its top at ({mu}, {lam})")
        return {"decisions": [decision_to_json(d) for d, _ in decided],
                "verdicts": [[v.inside, v.on_boundary, v.excluded_for_stable,
                              v.exclusion_reason] for v in verdicts]}, bad
    return finish


OPS = {
    "untwisted": _op_untwisted,
    "universal": _op_universal,
    "product": _op_product,
    "kernel": _op_kernel,
    "product_negativity": _op_product_negativity,
    "kernel_negativity": _op_kernel_negativity,
    "slope": _op_slope,
    "sweep": _op_sweep,
}


def _tally(out: dict, req: dict) -> tuple[str, bool] | None:
    # (counter, success) for the counts that must repeat exactly
    op = req["op"]
    if op in ("untwisted", "universal"):
        return op, out["decision"]["status"] in (Status.NONEMPTY.value, Status.EMPTY.value)
    if op in ("product", "kernel"):
        return "witness", "error" not in out
    return None


def run_job(job: dict) -> dict:
    tracing = bool(job.get("trace"))
    T = Tracer() if tracing else Direct()
    budget_ns = int(job.get("budget_s", 0) * 1e9)
    min_n = job.get("min_requests", 0)
    max_n = job.get("max_requests")
    record = job.get("record", 0)
    tally_n = job.get("tally", 0)
    reqs = workloads.stream(job["workload"], job["seed"], job.get("pass_index", 0))
    lat = array("q")
    busy = 0
    failed, failed_idx, messages = 0, [], []
    digests: list[str] = []
    outputs: list[dict] = []
    keep_outputs = bool(job.get("outputs"))
    first_output = None
    tally: dict[str, list[int]] = {}
    op_ns: dict[str, list[int]] = {}
    tags: list = []
    rss_kb = None
    for i, req in enumerate(reqs):
        if (max_n is not None and i >= max_n) or (i >= min_n and busy >= budget_ns):
            break
        T.begin(i)
        t0 = clock_ns()
        try:
            finish = OPS[req["op"]](req, T)
        except Exception as exc:  # a raising request is a failed request
            finish, raised = None, exc
        t1 = clock_ns()
        T.end(t0, t1)
        lat.append(t1 - t0)
        busy += t1 - t0
        per_op = op_ns.setdefault(req["op"], [0, 0])
        per_op[0] += 1
        per_op[1] += t1 - t0
        if tracing:
            tags.append([req["op"], req["g"]])
        if finish is None:
            out, bad = {"exception": type(raised).__name__}, [repr(raised)]
        else:
            try:
                out, bad = finish()
            except Exception as exc:
                out, bad = {"exception": type(exc).__name__}, [f"gate raised {exc!r}"]
        if bad:
            failed += 1
            if i < record:
                failed_idx.append(i)
            if len(messages) < 10:
                messages.append(f"request {i} ({req['op']}): {'; '.join(bad)}")
        if i < record:
            digests.append(gate.digest(out))
            if keep_outputs:
                outputs.append(out)
        if i == 0:
            first_output = out
        if i + 1 == min_n:
            # peak memory after a fixed amount of work: the caches grow with
            # every request, so a faster program would otherwise show more
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if i < tally_n:
            t = _tally(out, req) if finish is not None else None
            if t is not None:
                counts = tally.setdefault(t[0], [0, 0])
                counts[0] += t[1]
                counts[1] += 1
    result = {
        "n": len(lat), "latencies_ns": list(lat), "busy_ns": busy,
        "failed": failed, "failed_idx": failed_idx, "messages": messages,
        "digests": digests, "tally": tally, "op_ns": op_ns, "first_output": first_output,
        "rss_kb": rss_kb or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if keep_outputs:
        result["outputs"] = outputs
    if tracing:
        result["spans"] = T.spans
        result["tags"] = tags
    return result


# ---------------------------------------------------------------------------
# probes: exactq and bncore run only nested inside other layers, so the
# traced run times their public functions directly on workload inputs


def _timed_ns(fn, repeats: int) -> int:
    times = []
    for _ in range(repeats):
        t0 = clock_ns()
        fn()
        times.append(clock_ns() - t0)
    return statistics.median(times)


def probe_job(job: dict) -> dict:
    from bnloci.exactq import pw_max
    from bnloci.regions import fg_piecewise, tg_piecewise

    seed = job["seed"]
    problems = [(r["g"], r["n"], r["d"], r["k"]) for r in islice(
        (r for r in workloads.query_mix(seed) if r["op"] == "untwisted"), 2000)]

    def betas():
        for p in problems:
            beta_untwisted(*p)
    beta_ns = _timed_ns(betas, 7) / len(problems)

    genera = workloads.scan_genera(seed)
    tables = [(tg_piecewise(g), fg_piecewise(g)) for g in genera]
    pw_ns = _timed_ns(lambda: [pw_max(f, t) for t, f in tables], 7) / len(genera)
    cells = [(t, f, mu) for g, (t, f) in zip(genera, tables)
             for mu in workloads.scan_slopes(g)]

    def evals():
        for t, f, mu in cells:
            t(mu)
            f(mu)
    eval_ns = _timed_ns(evals, 5) / (2 * len(cells))

    cold = []
    for req in workloads.genus_sweep_pass(seed, 0):
        g, mu = req["g"], Fraction(req["points"][0][1])
        t0 = clock_ns()
        tg_eval(g, mu)
        t1 = clock_ns()
        fg_eval(g, mu)
        cold.append((g, t1 - t0, clock_ns() - t1))
    return {"beta_ns": beta_ns, "pw_max_ns": pw_ns, "eval_ns": eval_ns, "cold": cold}


# ---------------------------------------------------------------------------
# the golden CLI corpus


def corpus_job(job: dict) -> dict:
    from bnloci.cli import main

    import corpus

    results = {}
    for name, argv in corpus.CASES:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(argv))
            except Exception:
                code = "traceback: " + traceback.format_exc().strip().splitlines()[-1]
        results[name] = {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
    return {"results": results}


JOBS = {"run": run_job, "probe": probe_job, "corpus": corpus_job}


if __name__ == "__main__":
    spec = json.load(sys.stdin)
    json.dump(JOBS[spec["kind"]](spec), sys.stdout, separators=(",", ":"))
