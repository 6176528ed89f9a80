from __future__ import annotations

import itertools
import json
import os
import random
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from fractions import Fraction as Q
from math import ceil
from pathlib import Path
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnloci import oracle, selftest
from bnloci.bncore import (
    BNProblem,
    UniversalProblem,
    beta_tensor,
    beta_twisted,
    beta_universal,
    beta_untwisted,
    chi_pairing,
    serre_dual_problem,
    shift_line_bundle,
    swap_factors,
    tensor_problem,
    universal_serre_dual,
)
from bnloci.oracle import (
    KNOWN_EMPTY_TABLE,
    RULE_KERNEL,
    RULE_LINE_REDUCTION,
    RULE_PRODUCT,
    RULE_SERRE_DUAL_OF,
    RULE_SWAPPED_OF,
    RULE_TRIVIAL,
    Certificate,
    CurveClass,
    Decision,
    Premise,
    Scope,
    Status,
    check_curve_class,
    decide_universal,
    decide_untwisted,
    decision_to_json,
    implies_nonhyperelliptic,
    resolves_hyperelliptic,
    t1_twisted_decide,
    verify_certificate,
    verify_decision,
)
from bnloci.oracle import (  # the search internals the reference below reuses
    _certify,
    _divisor_pairs,
    _problem_params,
    _universal_params,
)
from bnloci.regions import StabilityKind, fg_eval
from bnloci.selftest import Checks

STABLE = StabilityKind.STABLE
SEMI = StabilityKind.SEMISTABLE
ANY = CurveClass.ANY_SMOOTH
PETRI = CurveClass.PETRI
GENERAL = CurveClass.GENERAL
HYP = CurveClass.HYPERELLIPTIC
NONHYP = CurveClass.NON_HYPERELLIPTIC

# rules that can legitimately witness emptiness, directly or through a dual
EMPTY_CAPABLE = {"ClassicalPetri", "HyperellipticSlopeTwo", "SmallSlope",
                 "KnownEmpty", "SerreDualOf"}


def rules(decision) -> list[str]:
    return [c.rule for c in decision.certificates]


# ---------------------------------------------------------------------------
# curve classes


def test_curve_class_resolution():
    assert resolves_hyperelliptic(HYP, 7)
    assert resolves_hyperelliptic(ANY, 2)
    assert not resolves_hyperelliptic(ANY, 3)
    assert implies_nonhyperelliptic(NONHYP, 3)
    assert implies_nonhyperelliptic(PETRI, 5)
    assert implies_nonhyperelliptic(GENERAL, 5)
    assert not implies_nonhyperelliptic(PETRI, 2)
    assert not implies_nonhyperelliptic(ANY, 9)


def test_genus_two_is_hyperelliptic():
    with pytest.raises(ValueError):
        check_curve_class(2, NONHYP)
    with pytest.raises(ValueError):
        decide_untwisted(BNProblem(2, 2, 3, 1), NONHYP, STABLE)
    check_curve_class(2, HYP)
    check_curve_class(2, ANY)


# ---------------------------------------------------------------------------
# small slope


def stable(g: int, n: int, d: int, k: int, cc: CurveClass = ANY) -> Decision:
    return decide_untwisted(BNProblem(g, n, d, k), cc, STABLE)


def test_small_slope_interior_threshold():
    # nonempty iff d >= n + g(k - n), with the one exceptional triple
    assert stable(4, 3, 5, 3).status is Status.NONEMPTY
    assert stable(4, 3, 5, 4).status is Status.EMPTY
    assert stable(2, 3, 4, 4).status is Status.EMPTY
    assert stable(2, 3, 5, 4).status is Status.NONEMPTY


def test_small_slope_exceptional_triple():
    # d = n, k = n fails for stable bundles but survives semistably
    stable = decide_untwisted(BNProblem(3, 2, 2, 2), ANY, STABLE)
    semi = decide_untwisted(BNProblem(3, 2, 2, 2), ANY, SEMI)
    assert stable.status is Status.EMPTY
    assert rules(stable) == ["SmallSlope"]
    assert semi.status is Status.NONEMPTY
    assert "SmallSlope" in rules(semi)


def test_small_slope_boundary_divergence():
    # hyperelliptic and non-hyperelliptic answers differ at d = 2n
    assert stable(3, 4, 8, 5).status is Status.UNKNOWN
    assert stable(3, 4, 8, 5, HYP).status is Status.EMPTY
    assert stable(3, 4, 8, 5, NONHYP).status is Status.NONEMPTY


def test_small_slope_boundary_agreement():
    assert stable(5, 3, 6, 2).status is Status.NONEMPTY
    assert stable(3, 2, 4, 4).status is Status.EMPTY


def test_small_slope_canonical_point():
    # (n, d, k) = (g-1, 2g-2, g) needs the canonical span, so a curve
    # class that leaves the hyperelliptic case open cannot decide it
    assert stable(4, 3, 6, 4).status is Status.UNKNOWN
    assert stable(4, 3, 6, 4, HYP).status is Status.EMPTY
    dec = stable(4, 3, 6, 4, NONHYP)
    assert dec.status is Status.NONEMPTY
    assert rules(dec) == ["CanonicalDualSpan"]


def test_canonical_point_has_zero_count():
    dec = decide_untwisted(BNProblem(5, 4, 8, 5), NONHYP, STABLE)
    assert dec.status is Status.NONEMPTY
    assert dec.beta == 0
    assert rules(dec) == ["CanonicalDualSpan"]
    assert verify_decision(dec)


# ---------------------------------------------------------------------------
# untwisted pipeline


def test_trivial_sections():
    dec = decide_untwisted(BNProblem(6, 3, -4, 0), ANY, STABLE)
    assert dec.status is Status.NONEMPTY
    assert dec.scope is Scope.THIS_RANK
    assert rules(dec) == ["TrivialKNonpositive"]


def test_rank_one_petri():
    canonical = decide_untwisted(BNProblem(7, 1, 12, 7), PETRI, STABLE)
    assert canonical.status is Status.NONEMPTY
    assert canonical.beta == 0
    assert rules(canonical) == ["ClassicalPetri"]

    negative = decide_untwisted(BNProblem(7, 1, 5, 3), PETRI, STABLE)
    assert negative.status is Status.EMPTY
    assert negative.beta == -5

    # without Petri generality the rank-one count decides nothing
    assert decide_untwisted(BNProblem(7, 1, 5, 3), ANY, STABLE).status is Status.UNKNOWN


def test_decide_interior_example():
    dec = decide_untwisted(BNProblem(4, 2, 11, 6), ANY, STABLE)
    assert dec.status is Status.NONEMPTY
    assert dec.scope is Scope.THIS_RANK
    assert rules(dec) == ["RegionT", "SerreDualOf"]
    assert verify_decision(dec)


def test_decide_semistable_example():
    dec = decide_untwisted(BNProblem(10, 5, 15, 5), ANY, SEMI)
    assert dec.status is Status.NONEMPTY
    assert dec.scope is Scope.THIS_RANK
    assert rules(dec) == ["RegionT", "RegionBMNO", "SerreDualOf"]
    assert verify_decision(dec)


def test_known_empty_despite_positive_count():
    dec = decide_untwisted(BNProblem(3, 2, 6, 4), ANY, STABLE)
    assert dec.status is Status.EMPTY
    assert dec.beta == 1
    assert rules(dec) == ["SerreDualOf", "KnownEmpty"]
    assert verify_decision(dec)


def test_known_empty_is_stable_only():
    assert KNOWN_EMPTY_TABLE[(3, 2, 6, 4)] is STABLE
    dec = decide_untwisted(BNProblem(3, 2, 6, 4), ANY, SEMI)
    assert dec.status is Status.NONEMPTY
    assert rules(dec) == ["RegionT", "RegionBMNO", "SerreDualOf"]


def test_hyperelliptic_boundary_empty():
    dec = decide_untwisted(BNProblem(4, 3, 6, 4), HYP, STABLE)
    assert dec.status is Status.EMPTY
    assert rules(dec) == ["HyperellipticSlopeTwo"]
    assert verify_decision(dec)


# ---------------------------------------------------------------------------
# twisted scaling


def test_twisted_scaling_direct():
    # the Serre-dual form of this scaling, (2, 2, -3, 0) against (2, 0), is
    # this same call: (n1, -d1, k - chi(n1, d1, n2, 2n2(g-1) - d2)) = (2, 3, 2)
    dec = t1_twisted_decide(2, 2, 3, 2, 2, 0, 1, 1)
    assert dec.status is Status.NONEMPTY
    assert dec.beta == 5
    assert rules(dec) == ["TwistedScaling"]
    assert dec.certificates[0].params["variant"] == "direct"
    assert verify_decision(dec)


def test_twisted_scaling_section_cap():
    dec = t1_twisted_decide(2, 2, 3, 3, 2, 0, 1, 1)
    assert dec.status is Status.UNKNOWN
    assert dec.certificates == ()


def test_twisted_scaling_rejects_bad_input():
    with pytest.raises(ValueError):
        t1_twisted_decide(2, 1, 3, 2, 2, 0, 1, 1)
    # the judge knows one variant of the rule
    cert = t1_twisted_decide(2, 2, 3, 2, 2, 0, 1, 1).certificates[0]
    for variant in ("serre", "sideways"):
        assert not verify_certificate(replace(cert, params={**cert.params,
                                                            "variant": variant}))


@settings(max_examples=200)
@given(st.integers(min_value=2, max_value=12), st.integers(min_value=2, max_value=8),
       st.integers(min_value=-6, max_value=6), st.integers(min_value=-5, max_value=8),
       st.integers(min_value=1, max_value=6), st.integers(min_value=-20, max_value=20))
def test_twisted_count_scales_quadratically(g, n1, d0, k0, n2, d2):
    lhs = beta_twisted(g, n1, n1 * d0, n1 * k0, n2, d2) - 1
    rhs = n1 * n1 * (beta_twisted(g, 1, d0, k0, n2, d2) - 1)
    assert lhs == rhs


# ---------------------------------------------------------------------------
# universal pipeline


def test_universal_product_route():
    dec = decide_universal(UniversalProblem(6, 2, 3, 2, 3, 4), ANY, STABLE)
    assert dec.status is Status.NONEMPTY
    assert dec.beta == -6
    assert rules(dec) == ["ProductConstruction"]
    cert = dec.certificates[0]
    assert (cert.params["k1"], cert.params["k2"]) == (2, 2)
    assert cert.params["window"] == "standard"
    assert verify_decision(dec)


def test_universal_kernel_route():
    dec = decide_universal(UniversalProblem(4, 2, 11, 7, -11, 21), ANY, STABLE)
    assert dec.status is Status.NONEMPTY
    assert dec.beta == -7
    assert rules(dec) == ["KernelConstruction"]
    cert = dec.certificates[0]
    assert (cert.params["n"], cert.params["d"], cert.params["k_max"]) == (1, 11, 21)
    assert verify_decision(dec)


def test_universal_line_bundle_reduction():
    dec = decide_universal(UniversalProblem(4, 1, 2, 2, 3, 2), ANY, STABLE)
    assert dec.status is Status.NONEMPTY
    assert rules(dec) == ["LineBundleReduction"]
    cert = dec.certificates[0]
    assert cert.params["reduced"] == {"g": 4, "n": 2, "d": 7, "k": 2}
    assert [c.rule for c in cert.params["inner"]] == ["RegionT", "SerreDualOf"]
    assert verify_decision(dec)


def test_line_bundle_reduction_of_two_moving_ranks_fails_verification():
    # the reduced data is the tensor problem and the inner certificates
    # are about it; only the rank-one premise fails
    cert = decide_universal(UniversalProblem(4, 1, 2, 2, 3, 2), ANY, STABLE).certificates[0]
    p = UniversalProblem(4, 2, 1, 2, 2, 2)
    reduced = tensor_problem(p.g, p.n1, p.d1, p.n2, p.d2, p.k)
    inner = decide_untwisted(reduced, ANY, STABLE)
    assert inner.status is Status.NONEMPTY
    params = {"problem": _universal_params(p), "reduced": _problem_params(reduced),
              "inner": list(inner.certificates)}
    assert not verify_certificate(replace(cert, params=params))
    assert _certify(RULE_LINE_REDUCTION, params) is None


def test_universal_trivial_and_unknown():
    trivial = decide_universal(UniversalProblem(5, 2, 3, 2, 3, 0), ANY, STABLE)
    assert trivial.status is Status.NONEMPTY
    assert rules(trivial) == ["TrivialKNonpositive"]

    open_case = decide_universal(UniversalProblem(4, 2, 1, 2, 1, 9), ANY, STABLE)
    assert open_case.status is Status.UNKNOWN
    assert open_case.beta == -127
    assert open_case.certificates == ()


# reference: the universal search before it kept its factor decisions,
# kept as an oracle; every product and kernel candidate whose slope window
# and section counts fit decides its factors afresh and hands their
# certificates to the judge (the judge refuses the others, so skipping
# them changes only the reference's speed), every viable scaling seed is
# tried, and the presentation walk and the wrapping are copies of their
# own, so a change to the search code cannot reach them


def _ref_inner(factors: list[BNProblem], cc: CurveClass,
               kind: StabilityKind) -> Optional[list[Certificate]]:
    inner: list[Certificate] = []
    for factor in factors:
        dec = decide_untwisted(factor, cc, kind)
        if (dec.status, dec.scope) != (Status.NONEMPTY, Scope.THIS_RANK):
            return None
        inner += dec.certificates
    return inner


def _ref_try_product(q: UniversalProblem, cc: CurveClass,
                     kind: StabilityKind) -> Optional[Certificate]:
    mu1 = Q(q.d1, q.n1)
    if q.n1 < 2 or q.n2 < 2:
        return None
    candidates: list[int] = []
    base = ceil(mu1)
    for ell in (base - 2, base - 1):
        if 0 < mu1 - ell < 2:
            candidates.append(ell)
    if mu1.denominator == 1 and implies_nonhyperelliptic(cc, q.g):
        ell = int(mu1) - 2
        if ell not in candidates:
            candidates.append(ell)
    pair = {"n1": q.n1, "d1": q.d1, "n2": q.n2, "d2": q.d2}
    counts = {"beta_universal": beta_universal(q.g, q.n1, q.d1, q.n2, q.d2, q.k),
              "beta_tensor": beta_tensor(q.g, q.n1, q.d1, q.n2, q.d2, q.k)}
    for ell in sorted(candidates):
        shifted = shift_line_bundle(q, ell)
        standard = shifted.d1 < 2 * q.n1 and shifted.d2 <= 2 * q.g * q.n2
        relaxed = (shifted.d1 <= 2 * q.n1 and shifted.d2 < 2 * q.g * q.n2
                   and implies_nonhyperelliptic(cc, q.g))
        if shifted.d2 < 1 or not (standard or relaxed):
            continue
        for k1, k2 in _divisor_pairs(q.k):
            inner = _ref_inner([BNProblem(q.g, q.n1, shifted.d1, k1),
                                BNProblem(q.g, q.n2, shifted.d2, k2)], cc, kind)
            if inner is None:
                continue
            cert = _certify(RULE_PRODUCT, {
                "g": q.g, "kind": kind.value, "cc": cc.value, "pair": pair,
                "ell": ell, "k": q.k, "k1": k1, "k2": k2,
                "d1_shifted": shifted.d1, "d2_shifted": shifted.d2,
                "window": "standard" if standard else "relaxed", **counts,
                "inner": inner})
            if cert is not None:
                return cert
    return None


def _ref_try_kernel(q: UniversalProblem, cc: CurveClass,
                    kind: StabilityKind) -> Optional[Certificate]:
    if q.n1 < 2 or q.d2 >= 0:
        return None
    d = -q.d2
    if (d - q.n2) % q.g != 0:
        return None
    n = (d - q.n2) // q.g
    if n < 1:
        return None
    denom = d - n * (q.g - 1)
    if denom <= 0:
        return None
    lo = max(q.n1 + 1, q.n1 + ceil(Q(q.k + n * q.d1, denom)))
    hi = q.n1 + max(q.d1, 0)
    bu = beta_universal(q.g, q.n1, q.d1, q.n2, q.d2, q.k)
    if kind is StabilityKind.STABLE:
        window = d > 2 * n * q.g or (d == 2 * n * q.g and implies_nonhyperelliptic(cc, q.g))
    else:
        window = d >= 2 * n * q.g
    if not window:
        return None
    for k1 in range(lo, hi + 1):
        k_max = denom * (k1 - q.n1) - n * q.d1
        if not 0 < q.k <= k_max:
            continue
        inner = _ref_inner([BNProblem(q.g, q.n1, q.d1, k1)], cc, kind)
        if inner is None:
            continue
        cert = _certify(RULE_KERNEL, {
            "g": q.g, "kind": kind.value, "cc": cc.value,
            "n1": q.n1, "d1": q.d1, "k1": k1, "n": n, "d": d, "k": q.k,
            "n2": q.n2, "d2": q.d2, "k_max": k_max,
            "beta_universal": bu, "inner": inner})
        if cert is not None:
            return cert
    return None


def _ref_presentations(p: UniversalProblem
                       ) -> list[tuple[UniversalProblem, list[str], list[UniversalProblem]]]:
    seen = {p}
    queue = [(p, [], [p])]
    out = []
    while queue and len(out) < oracle.MAX_PRESENTATIONS:
        cur, ops, chain = queue.pop(0)
        out.append((cur, ops, chain))
        for name, fn in (("swap", swap_factors), ("serre", universal_serre_dual)):
            nxt = fn(cur)
            if nxt not in seen:
                seen.add(nxt)
                queue.append((nxt, ops + [name], chain + [nxt]))
    return out


def _ref_wrap_chain(cert: Certificate, ops: list[str],
                    chain: list[UniversalProblem]) -> Certificate:
    for i in range(len(ops) - 1, -1, -1):
        src, dst = _universal_params(chain[i]), _universal_params(chain[i + 1])
        if ops[i] == "serre":
            cert = _certify(RULE_SERRE_DUAL_OF,
                            {"problem": src, "dual": dst, "inner": [cert]})
        else:
            cert = _certify(RULE_SWAPPED_OF,
                            {"problem": src, "swapped": dst, "inner": [cert]})
    return cert


def _ref_try_scaling(q: UniversalProblem, cc: CurveClass,
                     kind: StabilityKind) -> Optional[Certificate]:
    # every seed count with a viable rank-one count is tried
    if kind is StabilityKind.STABLE:
        d0 = (q.d1 - 1) // q.n1
    else:
        d0 = q.d1 // q.n1
    chi0 = chi_pairing(q.g, 1, d0, q.n2, q.d2)
    lo = max(1, ceil(Q(q.k, q.n1)))
    for k0 in range(lo, chi0 + q.g):
        if beta_twisted(q.g, 1, d0, k0, q.n2, q.d2) >= 1:
            dec = t1_twisted_decide(q.g, q.n1, q.d1, q.k, q.n2, q.d2, d0, k0, kind)
            if dec.status is Status.NONEMPTY:
                return dec.certificates[0]
    return None


def _ref_decide_universal(p: UniversalProblem, cc: CurveClass,
                          kind: StabilityKind) -> Decision:
    check_curve_class(p.g, cc)
    beta = beta_universal(p.g, p.n1, p.d1, p.n2, p.d2, p.k)
    if p.k <= 0:
        cert = _certify(RULE_TRIVIAL, {"k": p.k})
        return Decision(Status.NONEMPTY, Scope.THIS_RANK, beta, (cert,))
    if p.n1 == 1 or p.n2 == 1:
        if p.n2 == 1:
            reduced = BNProblem(p.g, p.n1, p.d1 + p.n1 * p.d2, p.k)
        else:
            reduced = BNProblem(p.g, p.n2, p.d2 + p.n2 * p.d1, p.k)
        inner = decide_untwisted(reduced, cc, kind)
        cert = _certify(RULE_LINE_REDUCTION, {
            "problem": _universal_params(p),
            "reduced": _problem_params(reduced),
            "inner": list(inner.certificates)})
        return Decision(inner.status, inner.scope, beta, (cert,))
    for q, ops, chain in _ref_presentations(p):
        for attempt in (_ref_try_product, _ref_try_kernel, _ref_try_scaling):
            cert = attempt(q, cc, kind)
            if cert is not None:
                wrapped = _ref_wrap_chain(cert, ops, chain)
                return Decision(Status.NONEMPTY, Scope.THIS_RANK, beta, (wrapped,))
    return Decision(Status.UNKNOWN, Scope.THIS_RANK, beta, ())


def _dumped(decision: Decision) -> str:
    return json.dumps(decision_to_json(decision), sort_keys=True)


def _assert_matches_memo_free_search(p: UniversalProblem, cc: CurveClass,
                                     kind: StabilityKind) -> None:
    dec = decide_universal(p, cc, kind)
    assert _dumped(dec) == _dumped(_ref_decide_universal(p, cc, kind))
    assert verify_decision(dec)


def _count_factor_decisions(monkeypatch) -> Counter:
    calls: Counter = Counter()

    def counting(p, cc, kind):
        calls[p] += 1
        return decide_untwisted(p, cc, kind)

    monkeypatch.setattr(oracle, "decide_untwisted", counting)
    return calls


def test_universal_search_decides_each_factor_once(monkeypatch):
    # before the search kept its factor decisions, this Unknown search
    # made 148 decide_untwisted calls for its 67 distinct factors
    calls = _count_factor_decisions(monkeypatch)
    dec = decide_universal(UniversalProblem(5, 4, -3, 4, 6, 8), ANY, SEMI)
    assert dec.status is Status.UNKNOWN
    assert len(calls) == 67
    assert max(calls.values()) == 1


def test_universal_search_keeps_no_state_between_calls(monkeypatch):
    calls = _count_factor_decisions(monkeypatch)
    p = UniversalProblem(6, 2, 3, 2, 3, 4)
    first = decide_universal(p, ANY, STABLE)
    decided_first = sum(calls.values())
    second = decide_universal(p, ANY, STABLE)
    assert decided_first > 0
    assert sum(calls.values()) == 2 * decided_first
    assert _dumped(first) == _dumped(second)


def _count_frames(monkeypatch, name: str) -> list:
    """Record (ell or k1, holds) for each call of the oracle frame `name`."""
    calls = []
    frame = getattr(oracle, name)

    def counting(params):
        prem, factors = frame(params)
        calls.append((params.get("ell", params.get("k1")), all(p.holds for p in prem)))
        return prem, factors

    monkeypatch.setattr(oracle, name, counting)
    return calls


def test_product_frame_runs_once_per_shift(monkeypatch):
    # the shift ell = 0 leaves d2' = -1 and fails the frame; ell = 1 holds,
    # and all six divisor pairs of 12 become candidates from one frame check
    calls = _count_frames(monkeypatch, "_product_frame")
    q = UniversalProblem(6, 2, 3, 2, -1, 12)
    candidates = list(oracle._product_candidates(q, ANY, STABLE))
    assert calls == [(0, False), (1, True)]
    assert [(params["ell"], params["k1"]) for _, params, _ in candidates] == \
        [(1, 3), (1, 4), (1, 2), (1, 6), (1, 1), (1, 12)]
    monkeypatch.undo()
    for rule, params, factors in candidates:
        prem, expected = oracle._product_frame(params)
        assert rule == RULE_PRODUCT and all(p.holds for p in prem)
        assert factors == expected


def test_kernel_candidates_drop_a_failed_frame(monkeypatch):
    # the shape passes the kernel premises, but k = -3 fails 0 < k <= k_max
    # for every base section count k1 = 3..6, which the first one shows
    calls = _count_frames(monkeypatch, "_kernel_frame")
    q = UniversalProblem(4, 2, 4, 4, -8, -3)
    assert list(oracle._kernel_candidates(q, PETRI, STABLE)) == []
    assert calls == [(3, False)]


def test_kernel_frame_runs_once_per_presentation(monkeypatch):
    # k = 3 fits under k_max(k1) from lo = 4 on, so the base section counts
    # 4..6 all become candidates from one frame check
    calls = _count_frames(monkeypatch, "_kernel_frame")
    q = UniversalProblem(4, 2, 4, 4, -8, 3)
    candidates = list(oracle._kernel_candidates(q, PETRI, STABLE))
    assert calls == [(4, True)]
    assert [params["k1"] for _, params, _ in candidates] == [4, 5, 6]
    monkeypatch.undo()
    for rule, params, factors in candidates:
        prem, expected = oracle._kernel_frame(params)
        assert rule == RULE_KERNEL and all(p.holds for p in prem)
        assert factors == expected


def test_scaling_certifies_one_seed_per_presentation(monkeypatch):
    seeds = []

    def counting(*args):
        seeds.append(args[7])
        return t1_twisted_decide(*args)

    monkeypatch.setattr(oracle, "t1_twisted_decide", counting)
    # k = -2 fails both count guarantees, and the seed counts 1, 2 and 3
    # all have a viable rank-one count: only the first is certified
    assert oracle._try_scaling(UniversalProblem(4, 2, 4, 2, 5, -2), ANY, SEMI) is None
    assert seeds == [1]
    rng = random.Random(25)
    for _ in range(100):
        g, n1, n2 = rng.randint(2, 9), rng.randint(2, 5), rng.randint(2, 5)
        p = UniversalProblem(g, n1, rng.randint(-30, 40), n2, rng.randint(-30, 40),
                             rng.randint(1, 30))
        for q, _ in oracle._presentations(p):
            seeds.clear()
            oracle._try_scaling(q, ANY, rng.choice([STABLE, SEMI]))
            assert len(seeds) <= 1


def test_universal_search_matches_memo_free_search_on_seeded_set():
    rng = random.Random(20)
    for _ in range(300):
        g = rng.randint(2, 9)
        cc = rng.choice([c for c in CurveClass if (g, c) != (2, NONHYP)])
        p = UniversalProblem(g, rng.randint(1, 6), rng.randint(-30, 40),
                             rng.randint(1, 6), rng.randint(-30, 40), rng.randint(-2, 30))
        _assert_matches_memo_free_search(p, cc, rng.choice([STABLE, SEMI]))


def test_universal_search_matches_memo_free_search_on_a_wide_box():
    # ranks 2..5 with degrees within 2n*g of zero, 200 problems for each
    # curve class and stability
    rng = random.Random(25)
    for cc, kind in itertools.product(CurveClass, (STABLE, SEMI)):
        for _ in range(200):
            g = rng.randint(3 if cc is NONHYP else 2, 12)
            n1, n2 = rng.randint(2, 5), rng.randint(2, 5)
            p = UniversalProblem(g, n1, rng.randint(-2 * n1 * g, 2 * n1 * g),
                                 n2, rng.randint(-2 * n2 * g, 2 * n2 * g), rng.randint(1, 30))
            _assert_matches_memo_free_search(p, cc, kind)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=2, max_value=9), st.integers(min_value=2, max_value=6),
       st.integers(min_value=-30, max_value=40), st.integers(min_value=2, max_value=6),
       st.integers(min_value=-30, max_value=40), st.integers(min_value=1, max_value=30),
       st.sampled_from([STABLE, SEMI]), st.sampled_from(list(CurveClass)))
def test_universal_search_matches_memo_free_search(g, n1, d1, n2, d2, k, kind, cc):
    if g == 2 and cc is NONHYP:
        return
    _assert_matches_memo_free_search(UniversalProblem(g, n1, d1, n2, d2, k), cc, kind)


def test_divisor_pairs_match_full_trial_division():
    for k in range(-2, 3000):
        full = [(k1, k // k1) for k1 in range(1, k + 1) if k % k1 == 0]
        full.sort(key=lambda pk: (max(pk), pk[0]))
        assert _divisor_pairs(k) == full


def test_search_loops_stop_at_their_limit(monkeypatch):
    monkeypatch.setattr(oracle, "MAX_SEARCH_STEPS", 10)
    assert len(_divisor_pairs(120)) == 16  # isqrt(120) = 10 trial divisors
    with pytest.raises(ValueError, match="loop over 11 trial divisors passed its "
                                         "limit of 10 steps"):
        _divisor_pairs(121)
    # a search that ends inside every limit keeps its answer
    assert decide_universal(UniversalProblem(6, 2, 30, 2, -8, 5), ANY,
                            STABLE).status is Status.NONEMPTY
    # d = 13 > 2ng = 12: the kernel window holds, so its k1 loop runs
    with pytest.raises(ValueError, match="loop over 12 kernel base section counts"):
        decide_universal(UniversalProblem(6, 2, 20, 7, -13, 50), ANY, STABLE)


def test_kernel_search_ends_at_a_failed_first_frame():
    # the presentation (3, 20000, 60000, 9, -12, -1) passes the kernel
    # premises and has 54,001 base section counts, but k = -1 fails the
    # frame on the first of them, so the search goes on without running
    # that loop to its limit
    dec = decide_universal(UniversalProblem(3, 20000, 20000, 9, 12, 59999), ANY, STABLE)
    assert (dec.status, dec.certificates) == (Status.UNKNOWN, ())


# ---------------------------------------------------------------------------
# exact integers on the decision path


def _fractions_built(run) -> int:
    """How many Fractions run() constructs: the calls of Fraction.__new__,
    and of the constructor that Fraction arithmetic uses from Python 3.12."""
    codes = {Q.__new__.__code__}
    if hasattr(Q, "_from_coprime_ints"):
        codes.add(Q._from_coprime_ints.__func__.__code__)
    built = 0

    def profile(frame, event, arg):
        nonlocal built
        if event == "call" and frame.f_code in codes:
            built += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return built


def test_warm_decisions_and_verification_build_no_fraction():
    untwisted = [BNProblem(g, n, d, k) for g in (2, 3, 5) for n in (1, 2, 3)
                 for d in range(-2 * n, 2 * n * (g - 1) + 3 * n)
                 for k in range(0, n * (g + 1) + 2)]
    universal = [UniversalProblem(3, 2, d1, 2, d2, k) for d1 in range(-4, 13, 2)
                 for d2 in range(-12, 13, 4) for k in (1, 2, 4)]
    # reaching the kernel construction, on the swapped presentation too
    universal += [UniversalProblem(3, 2, 6, 3, -6, 2), UniversalProblem(3, 3, -6, 2, 6, 2),
                  UniversalProblem(4, 2, 11, 7, -11, 21)]

    def decide_all():
        decisions = [decide_untwisted(p, cc, kind) for p in untwisted
                     for cc in (ANY, PETRI) for kind in (STABLE, SEMI)]
        decisions += [decide_universal(p, ANY, kind) for p in universal
                      for kind in (STABLE, SEMI)]
        assert all(map(verify_decision, decisions))
        return decisions

    def rules_in(certs) -> set[str]:
        return {c.rule for c in certs}.union(
            *(rules_in(c.params.get("inner", ())) for c in certs))

    decisions = decide_all()  # builds the region tables of every genus
    found = rules_in([c for d in decisions for c in d.certificates])
    assert {"RegionT", "RegionBMNO", RULE_PRODUCT, RULE_KERNEL, "TwistedScaling",
            RULE_SWAPPED_OF, RULE_SERRE_DUAL_OF} <= found
    assert _fractions_built(decide_all) == 0
    assert _fractions_built(lambda: Q(1, 2) + 1) > 0


# ---------------------------------------------------------------------------
# certificate soundness


def test_verify_rejects_tampered_premise():
    dec = decide_untwisted(BNProblem(4, 2, 11, 6), ANY, STABLE)
    cert = dec.certificates[0]
    bent = replace(cert, premises=cert.premises[:-1]
                   + (replace(cert.premises[-1], holds=False),))
    assert verify_certificate(cert)
    assert not verify_certificate(bent)


# certificates the untwisted judges built, before they refused parameters
# naming no BNProblem, for a genus below 2 or a rank below 1: every premise
# holds, yet no such locus exists
FORGED_UNTWISTED = [
    Certificate("SmallSlope", {"g": 1, "n": 2, "d": 1, "k": 1, "kind": "stable",
                               "route": "interior"}, (
        Premise("n = 2 >= 2", True), Premise("0 < d = 1 < 2n = 4", True),
        Premise("d = 1 >= n + g*(k - n) = 1", True),
        Premise("(d, k) = (1, 1) != (n, n)", True))),
    Certificate("SmallSlope", {"g": -3, "n": 2, "d": 1, "k": 2, "kind": "stable",
                               "route": "interior"}, (
        Premise("n = 2 >= 2", True), Premise("0 < d = 1 < 2n = 4", True),
        Premise("d = 1 < n + g*(k - n) = 2 (locus empty)", True))),
    Certificate("HyperellipticSlopeTwo", {"g": 1, "n": 2, "d": 4, "k": 1,
                                          "cc": "hyperelliptic"}, (
        Premise("n = 2 >= 2", True), Premise("d = 4 == 2n", True),
        Premise("curve class forces hyperelliptic", True),
        Premise("k = 1 <= n = 2", True))),
    Certificate("RegionT", {"g": 7, "n": -2, "d": -9, "k": -3, "kind": "stable"}, (
        Premise("(9/2, 3/2) lies in the staircase region (0 <= mu <= 12, "
                "0 < lam <= t_g(mu))", True),
        Premise("rank -2 realizes integer invariants: n*mu = -9, n*lam = -3", True),
        Premise("point is not stable-excluded", True))),
    Certificate("RegionBMNO", {"g": 7, "n": -1, "d": -1, "k": -1, "kind": "semistable",
                               "cc": "any"}, (
        Premise("(1, 1) lies in the sawtooth region (0 <= mu <= 12, "
                "0 < lam <= f_g(mu))", True),)),
    Certificate("CanonicalDualSpan", {"g": 1, "n": 0, "d": 0, "k": 1,
                                      "cc": "nonhyperelliptic"}, (
        Premise("(n, d, k) = (0, 0, 1) == (g-1, 2g-2, g) = (0, 0, 1)", True),
        Premise("curve class implies non-hyperelliptic", True))),
]


@pytest.mark.parametrize("cert", FORGED_UNTWISTED,
                         ids=[f"{c.rule}-g{c.params['g']}" for c in FORGED_UNTWISTED])
def test_untwisted_certificate_of_no_bn_problem_fails_verification(cert):
    p = cert.params
    with pytest.raises(ValueError):
        BNProblem(p["g"], p["n"], p["d"], p["k"])
    assert _certify(cert.rule, p) is None
    assert not verify_certificate(cert)
    assert not verify_decision(Decision(Status.NONEMPTY, Scope.THIS_RANK, 0, (cert,)))


def test_verify_rejects_tampered_params():
    dec = decide_untwisted(BNProblem(4, 2, 11, 6), ANY, STABLE)
    cert = dec.certificates[0]
    bent = replace(cert, params={**cert.params, "d": cert.params["d"] + 1})
    assert not verify_certificate(bent)


def test_verify_rejects_unknown_rule():
    stray = Certificate("MadeUpRule", {"g": 3}, (Premise("nothing", True),))
    assert not verify_certificate(stray)
    # nested occurrences are found anywhere inside the parameters
    dec = decide_untwisted(BNProblem(3, 2, 6, 4), ANY, STABLE)
    wrapper = dec.certificates[0]
    bent = replace(wrapper, params={**wrapper.params, "inner": [stray]})
    assert not verify_certificate(bent)


@pytest.mark.parametrize("problem, cc, changes", [
    (BNProblem(4, 2, 11, 6), ANY, {"status": Status.EMPTY}),
    (BNProblem(3, 2, 6, 4), ANY, {"status": Status.NONEMPTY}),
    (BNProblem(5, 1, 4, 2), PETRI, {"status": Status.EMPTY}),
    (BNProblem(4, 2, 11, 6), ANY, {"scope": Scope.SOME_RANK_SAME_SLOPE_POINT}),
    (BNProblem(5, 2, 14, 8), NONHYP, {"scope": Scope.THIS_RANK}),
])
def test_verify_rejects_mutated_decision(problem, cc, changes):
    # the emitted decision re-checks; with one field changed it must not
    dec = decide_untwisted(problem, cc, STABLE)
    assert verify_decision(dec)
    assert not verify_decision(replace(dec, **changes))


def test_verify_rejects_decisions_without_certificates():
    assert not verify_decision(Decision(Status.EMPTY, Scope.THIS_RANK, 0, ()))
    assert not verify_decision(Decision(Status.NONEMPTY, Scope.THIS_RANK, 0, ()))
    assert verify_decision(Decision(Status.UNKNOWN, Scope.THIS_RANK, 0, ()))


def test_verify_rejects_certificates_of_mixed_status():
    empty = decide_untwisted(BNProblem(3, 2, 6, 4), ANY, STABLE)
    nonempty = decide_untwisted(BNProblem(4, 2, 11, 6), ANY, STABLE)
    mixed = replace(nonempty, certificates=nonempty.certificates + empty.certificates)
    assert not verify_decision(mixed)


def test_verify_rejects_foreign_product_factors():
    dec = decide_universal(UniversalProblem(6, 2, 3, 2, 3, 4), ANY, STABLE)
    cert = dec.certificates[0]
    assert cert.rule == "ProductConstruction"
    other = decide_untwisted(BNProblem(4, 2, 11, 6), ANY, STABLE).certificates
    bent = replace(cert, params={**cert.params, "inner": list(other)})
    assert not verify_certificate(bent)


def _with_inner(cert: Certificate, inner: list[Certificate]) -> Certificate:
    return replace(cert, params={**cert.params, "inner": inner})


def test_wrappers_reject_certificates_about_another_problem():
    wrapper = decide_untwisted(BNProblem(3, 2, 6, 3), ANY, STABLE).certificates[0]
    assert wrapper.rule == "SerreDualOf"
    assert wrapper.params["dual"] == {"g": 3, "n": 2, "d": 2, "k": 1}
    foreign = decide_untwisted(BNProblem(4, 2, 11, 6), ANY, STABLE).certificates[0]
    assert foreign.rule == "RegionT" and verify_certificate(foreign)
    assert verify_certificate(wrapper)
    assert not verify_certificate(_with_inner(wrapper, [foreign]))

    reduction = decide_universal(UniversalProblem(4, 1, 2, 2, 3, 2), ANY,
                                 STABLE).certificates[0]
    assert verify_certificate(reduction)
    assert not verify_certificate(_with_inner(reduction, [foreign]))

    product = decide_universal(UniversalProblem(6, 2, 3, 2, 3, 4), ANY,
                               STABLE).certificates[0]
    for universal, rule in ((UniversalProblem(6, 3, -3, 2, 9, 3), "SwappedFactorsOf"),
                            (UniversalProblem(8, 4, 7, 4, 26, 26), "SerreDualOf")):
        wrapper = decide_universal(universal, ANY, STABLE).certificates[0]
        assert wrapper.rule == rule and verify_certificate(wrapper)
        assert not verify_certificate(_with_inner(wrapper, [product]))


def test_trivial_certificates_are_about_their_section_count():
    wrapper = decide_untwisted(BNProblem(4, 4, 32, 9), ANY, STABLE).certificates[0]
    assert wrapper.params["dual"]["k"] == -11
    assert [c.rule for c in wrapper.params["inner"]] == [RULE_TRIVIAL]
    assert verify_certificate(_with_inner(wrapper, [_certify(RULE_TRIVIAL, {"k": -11})]))
    assert not verify_certificate(_with_inner(wrapper, [_certify(RULE_TRIVIAL, {"k": -3})]))


def _factors(cert: Certificate) -> list[BNProblem]:
    params = cert.params
    if cert.rule == RULE_PRODUCT:
        pair = params["pair"]
        return [BNProblem(params["g"], pair["n1"], params["d1_shifted"], params["k1"]),
                BNProblem(params["g"], pair["n2"], params["d2_shifted"], params["k2"])]
    return [BNProblem(params["g"], params["n1"], params["d1"], params["k1"])]


def _decided(factors: list[BNProblem], cc: CurveClass,
             kind: StabilityKind) -> list[list[Certificate]]:
    decisions = [decide_untwisted(f, cc, kind) for f in factors]
    # each mutation keeps factor decisions that are themselves Nonempty here
    assert all((d.status, d.scope) == (Status.NONEMPTY, Scope.THIS_RANK)
               for d in decisions)
    return [list(d.certificates) for d in decisions]


def _flat(groups: list[list[Certificate]]) -> list[Certificate]:
    return [c for group in groups for c in group]


# each edit of a construction's factor certificates that verification must catch
_FACTOR_EDITS = {
    "another curve class": lambda fs: _flat(_decided(fs, GENERAL, STABLE)),
    "semistable factors": lambda fs: _flat(_decided(fs, PETRI, SEMI)),
    "one factor dropped": lambda fs: _flat(_decided(fs, PETRI, STABLE)[1:]),
    "only RegionBMNO": lambda fs: _flat(
        [[c for c in group if c.rule == "RegionBMNO"] if i == 0 else group
         for i, group in enumerate(_decided(fs, PETRI, STABLE))]),
    "unrelated extra": lambda fs: _flat(_decided(fs, PETRI, STABLE))
    + list(decide_untwisted(BNProblem(6, 2, 7, 2), PETRI, STABLE).certificates),
}


@pytest.mark.parametrize("edit", sorted(_FACTOR_EDITS))
@pytest.mark.parametrize("problem, rule", [
    (UniversalProblem(5, 2, 5, 3, 20, 12), RULE_PRODUCT),
    (UniversalProblem(4, 2, 11, 7, -11, 21), RULE_KERNEL),
])
def test_verify_rejects_edited_factor_certificates(problem, rule, edit):
    cert = decide_universal(problem, PETRI, STABLE).certificates[0]
    assert cert.rule == rule and verify_certificate(cert)
    factors = _factors(cert)
    assert cert.params["inner"] == _flat(_decided(factors, PETRI, STABLE))
    assert not verify_certificate(_with_inner(cert, _FACTOR_EDITS[edit](factors)))


# the decisions the tests in this file build, remade by the calls that build them
def _fixture_decisions() -> list[Decision]:
    untwisted = [
        (BNProblem(3, 2, 2, 2), ANY, STABLE), (BNProblem(3, 2, 2, 2), ANY, SEMI),
        (BNProblem(5, 4, 8, 5), NONHYP, STABLE), (BNProblem(6, 3, -4, 0), ANY, STABLE),
        (BNProblem(7, 1, 12, 7), PETRI, STABLE), (BNProblem(7, 1, 5, 3), PETRI, STABLE),
        (BNProblem(7, 1, 5, 3), ANY, STABLE), (BNProblem(4, 2, 11, 6), ANY, STABLE),
        (BNProblem(10, 5, 15, 5), ANY, SEMI), (BNProblem(3, 2, 6, 4), ANY, STABLE),
        (BNProblem(3, 2, 6, 4), ANY, SEMI), (BNProblem(4, 3, 6, 4), HYP, STABLE),
        (BNProblem(5, 1, 4, 2), PETRI, STABLE), (BNProblem(5, 2, 14, 8), NONHYP, STABLE),
        (BNProblem(3, 2, 6, 3), ANY, STABLE), (BNProblem(4, 4, 32, 9), ANY, STABLE),
        (BNProblem(6, 2, 7, 2), PETRI, STABLE),
    ]
    universal = [
        (UniversalProblem(6, 2, 3, 2, 3, 4), ANY, STABLE),
        (UniversalProblem(4, 2, 11, 7, -11, 21), ANY, STABLE),
        (UniversalProblem(4, 1, 2, 2, 3, 2), ANY, STABLE),
        (UniversalProblem(5, 2, 3, 2, 3, 0), ANY, STABLE),
        (UniversalProblem(4, 2, 1, 2, 1, 9), ANY, STABLE),
        (UniversalProblem(5, 4, -3, 4, 6, 8), ANY, SEMI),
        (UniversalProblem(6, 2, 30, 2, -8, 5), ANY, STABLE),
        (UniversalProblem(6, 3, -3, 2, 9, 3), ANY, STABLE),
        (UniversalProblem(8, 4, 7, 4, 26, 26), ANY, STABLE),
        (UniversalProblem(5, 2, 5, 3, 20, 12), PETRI, STABLE),
        (UniversalProblem(4, 2, 11, 7, -11, 21), PETRI, STABLE),
    ]
    small = [(4, 3, 5, 3, ANY), (4, 3, 5, 4, ANY), (2, 3, 4, 4, ANY), (2, 3, 5, 4, ANY),
             (3, 4, 8, 5, ANY), (3, 4, 8, 5, HYP), (3, 4, 8, 5, NONHYP), (5, 3, 6, 2, ANY),
             (3, 2, 4, 4, ANY), (4, 3, 6, 4, ANY), (4, 3, 6, 4, HYP), (4, 3, 6, 4, NONHYP)]
    twisted = [(2, 2, 3, 2, 2, 0, 1, 1), (2, 2, 3, 3, 2, 0, 1, 1)]
    return ([decide_untwisted(*args) for args in untwisted]
            + [decide_universal(*args) for args in universal]
            + [stable(*args) for args in small]
            + [t1_twisted_decide(*args) for args in twisted])


def _selftest_decisions() -> list[Decision]:
    return (selftest.product_threshold(Checks()) + selftest.kernel_family(Checks())
            + selftest.known_and_special_cases(Checks())
            + selftest.small_slope_equivalence(Checks()))


@pytest.fixture(scope="module")
def seeded_universal() -> list[Decision]:
    """1200 seeded universal decisions, kernel-shaped pairs among them."""
    rng = random.Random(11)
    decisions = []
    for i in range(1200):
        g = rng.randint(2, 9)
        cc = rng.choice([c for c in CurveClass if (g, c) != (2, NONHYP)])
        kind = rng.choice([STABLE, SEMI])
        if i % 4 == 0:  # the kernel pair (n1, d1), (d - n*g, -d) with d >= 2ng
            n = rng.randint(1, 2)
            d = 2 * n * g + rng.randint(0, 3)
            p = UniversalProblem(g, rng.randint(2, 4), rng.randint(-10, 30),
                                 d - n * g, -d, rng.randint(1, 30))
        else:
            p = UniversalProblem(g, rng.randint(1, 6), rng.randint(-30, 40),
                                 rng.randint(1, 6), rng.randint(-30, 40), rng.randint(-2, 30))
        decisions.append(decide_universal(p, cc, kind))
    return decisions


def test_verification_never_calls_a_decider(monkeypatch, seeded_universal):
    assert {"ProductConstruction", "KernelConstruction", "SerreDualOf", "SwappedFactorsOf"
            } <= {c.rule for d in seeded_universal for c in d.certificates}
    decisions = _fixture_decisions() + _selftest_decisions() + seeded_universal

    def refuse(*args):
        raise AssertionError("verification called a decider")

    monkeypatch.setattr(oracle, "decide_untwisted", refuse)
    monkeypatch.setattr(oracle, "decide_universal", refuse)
    assert all(verify_decision(d) for d in decisions)


# every kind of certificate the judges accept: its rule, and its route,
# variant or window where the rule has several
JUDGED_KINDS = {
    ("TrivialKNonpositive", None), ("ClassicalPetri", None),
    ("SmallSlope", "interior"), ("SmallSlope", "slope-two"),
    ("SmallSlope", "slope-two-agreement"), ("HyperellipticSlopeTwo", None),
    ("CanonicalDualSpan", None), ("RegionT", None), ("RegionBMNO", None),
    ("SerreDualOf", None), ("KnownEmpty", None), ("SwappedFactorsOf", None),
    ("LineBundleReduction", None), ("TwistedScaling", "direct"),
    ("ProductConstruction", "standard"), ("ProductConstruction", "relaxed"),
    ("KernelConstruction", None),
}
_VARIANT_KEYS = ("route", "variant", "window")


def _kind_of(cert: Certificate) -> tuple[str, Optional[str]]:
    return cert.rule, next((cert.params[key] for key in _VARIANT_KEYS
                            if key in cert.params), None)


def _with_nested(certs) -> list[Certificate]:
    return [c for cert in certs
            for c in [cert, *_with_nested(cert.params.get("inner", []))]]


def test_every_kind_the_judges_accept_is_emitted(seeded_universal):
    # a kind no decider emits is dead code in the judges; list it here only
    # once a decider reaches it
    assert {rule for rule, _ in JUDGED_KINDS} == set(oracle._JUDGES)
    decisions = seeded_universal + [decide_untwisted(BNProblem(3, 2, 6, 4), ANY, STABLE)]
    emitted = {}
    for cert in _with_nested(c for d in decisions for c in d.certificates):
        emitted.setdefault(_kind_of(cert), cert)
    assert set(emitted) == JUDGED_KINDS
    # and the judges accept no other route, variant or window
    for (rule, variant), cert in emitted.items():
        assert verify_certificate(cert)
        for key in _VARIANT_KEYS:
            if key in cert.params:
                bent = replace(cert, params={**cert.params, key: "sideways"})
                assert not verify_certificate(bent), (rule, variant)


def test_oracle_does_not_import_construct():
    code = (
        "import sys\n"
        "import bnloci.oracle as o\n"
        "from bnloci.bncore import UniversalProblem as U\n"
        "from bnloci.regions import StabilityKind as K\n"
        "for p in (U(6, 2, 3, 2, 3, 4), U(4, 2, 11, 7, -11, 21)):\n"
        "    d = o.decide_universal(p, o.CurveClass.ANY_SMOOTH, K.STABLE)\n"
        "    assert d.status is o.Status.NONEMPTY, d\n"
        "assert 'bnloci.construct' not in sys.modules\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_decision_json_shape():
    doc = decision_to_json(decide_untwisted(BNProblem(3, 2, 6, 4), ANY, STABLE))
    text = json.dumps(doc, sort_keys=True)
    assert json.loads(text) == doc
    assert doc["status"] == "Empty"
    assert [c["rule"] for c in doc["certificates"]] == ["SerreDualOf", "KnownEmpty"]
    inner = doc["certificates"][0]["params"]["inner"][0]
    assert inner["rule"] == "SmallSlope"
    assert all(p["holds"] for p in inner["premises"])


# ---------------------------------------------------------------------------
# pipeline invariants

problem_boxes = st.tuples(
    st.integers(min_value=2, max_value=9),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=-4, max_value=40),
    st.integers(min_value=-2, max_value=24),
)
kinds = st.sampled_from([STABLE, SEMI])
classes = st.sampled_from(list(CurveClass))


@settings(max_examples=400, deadline=None)
@given(problem_boxes, kinds, classes)
def test_every_decision_verifies(box, kind, cc):
    g, n, d, k = box
    if g == 2 and cc is NONHYP:
        return
    dec = decide_untwisted(BNProblem(g, n, d, k), cc, kind)
    assert verify_decision(dec)
    if dec.status is Status.NONEMPTY:
        assert dec.certificates
    if dec.status is Status.EMPTY:
        assert set(rules(dec)) <= EMPTY_CAPABLE


@settings(max_examples=400, deadline=None)
@given(st.integers(min_value=2, max_value=9), st.integers(min_value=2, max_value=6),
       st.data(), st.integers(min_value=-2, max_value=24), kinds, classes)
def test_small_slope_window_is_decided(g, n, data, k, kind, cc):
    if g == 2 and cc is NONHYP:
        return
    d = data.draw(st.integers(min_value=1, max_value=2 * n - 1))
    dec = decide_untwisted(BNProblem(g, n, d, k), cc, kind)
    assert dec.status is not Status.UNKNOWN


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=2, max_value=9), st.integers(min_value=2, max_value=6),
       st.data(), st.integers(min_value=-2, max_value=18))
def test_interior_matches_expected_count_curve(g, n, data, k):
    # inside the small-slope window the stable locus is nonempty exactly
    # when the section density sits on or under the expected-count curve,
    # apart from the single exceptional triple
    d = data.draw(st.integers(min_value=1, max_value=2 * n - 1))
    dec = stable(g, n, d, k)
    predicted = Q(k, n) <= fg_eval(g, Q(d, n)) and (d, k) != (n, n)
    assert (dec.status is Status.NONEMPTY) == predicted


@settings(max_examples=300, deadline=None)
@given(problem_boxes, kinds)
def test_serre_coherence(box, kind):
    g, n, d, k = box
    p = BNProblem(g, n, d, k)
    s1 = decide_untwisted(p, ANY, kind).status
    s2 = decide_untwisted(serre_dual_problem(p), ANY, kind).status
    assert {s1, s2} != {Status.NONEMPTY, Status.EMPTY}


@settings(max_examples=200, deadline=None)
@given(problem_boxes, kinds, classes)
def test_decisions_serialize(box, kind, cc):
    g, n, d, k = box
    if g == 2 and cc is NONHYP:
        return
    doc = decision_to_json(decide_untwisted(BNProblem(g, n, d, k), cc, kind))
    assert json.loads(json.dumps(doc, sort_keys=True)) == doc


def _classical_violation(g: int, n: int, d: int, k: int) -> Optional[str]:
    """The classical bound that a semistable bundle of rank n and degree d
    with k >= 1 sections would break, or None."""
    mu = Q(d, n)
    if mu < 0:
        return "a semistable bundle of negative slope has no sections"
    if mu <= 2 * g - 2 and Q(k, n) > mu / 2 + 1:
        return "Clifford: h^0 <= d/2 + n for 0 <= mu <= 2g-2"
    if mu > 2 * g - 2 and k > d - n * (g - 1):
        return "Riemann-Roch: h^0 = d - n(g-1) once h^1 = 0 for mu > 2g-2"
    return None


@settings(max_examples=400, deadline=None)
@given(st.integers(min_value=2, max_value=8), st.integers(min_value=1, max_value=4),
       st.data(), kinds, classes)
def test_untwisted_nonempty_keeps_classical_bounds(g, n, data, kind, cc):
    if g == 2 and cc is NONHYP:
        return
    d = data.draw(st.integers(min_value=-2 * n, max_value=2 * n * (g - 1) + 3 * n - 1))
    k = data.draw(st.integers(min_value=1, max_value=n * (g + 1) + 1))
    dec = decide_untwisted(BNProblem(g, n, d, k), cc, kind)
    if dec.status is Status.NONEMPTY:
        assert _classical_violation(g, n, d, k) is None


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=2, max_value=8), st.integers(min_value=1, max_value=4),
       st.integers(min_value=-20, max_value=40), st.integers(min_value=1, max_value=4),
       st.integers(min_value=-20, max_value=40), st.integers(min_value=1, max_value=30),
       kinds, classes)
def test_universal_nonempty_keeps_classical_bounds(g, n1, d1, n2, d2, k, kind, cc):
    # E1 (x) E2 is semistable of rank n1*n2 and degree n1*d2 + n2*d1
    # (Narasimhan-Seshadri), so its k sections obey the same bounds
    if g == 2 and cc is NONHYP:
        return
    dec = decide_universal(UniversalProblem(g, n1, d1, n2, d2, k), cc, kind)
    if dec.status is Status.NONEMPTY:
        t = tensor_problem(g, n1, d1, n2, d2, k)
        assert _classical_violation(g, t.n, t.d, t.k) is None


# ---------------------------------------------------------------------------
# lattice laws: the answers to neighbouring questions fit together


def _box_problem(data, g: int, n: int) -> BNProblem:
    d = data.draw(st.integers(min_value=-2 * n, max_value=2 * n * (g - 1) + 3 * n - 1))
    k = data.draw(st.integers(min_value=0, max_value=n * (g + 1) + 1))
    return BNProblem(g, n, d, k)


def _is(decision: Decision, status: Status) -> bool:
    return (decision.status, decision.scope) == (status, Scope.THIS_RANK)


def _strength(decision: Decision) -> int:
    """0 for Unknown, 1 for an answer at some rank, 2 for one at this rank."""
    if decision.status is Status.UNKNOWN:
        return 0
    return 2 if decision.scope is Scope.THIS_RANK else 1


box_genera = st.integers(min_value=2, max_value=8)
box_ranks = st.integers(min_value=1, max_value=4)
narrow_classes = st.sampled_from([c for c in CurveClass if c is not ANY])


@settings(max_examples=300, deadline=None)
@given(box_genera, box_ranks, st.data(), kinds, classes)
def test_this_rank_answers_are_monotone_in_k(g, n, data, kind, cc):
    # a locus with k + 1 sections lies in the one with k
    if g == 2 and cc is NONHYP:
        return
    p = _box_problem(data, g, n)
    fewer = decide_untwisted(p, cc, kind)
    more = decide_untwisted(replace(p, k=p.k + 1), cc, kind)
    assert not (_is(fewer, Status.EMPTY) and _is(more, Status.NONEMPTY))


@settings(max_examples=300, deadline=None)
@given(box_genera, box_ranks, st.data(), classes)
def test_stable_nonempty_never_meets_semistable_empty(g, n, data, cc):
    # stable bundles are semistable
    if g == 2 and cc is NONHYP:
        return
    p = _box_problem(data, g, n)
    assert not (decide_untwisted(p, cc, STABLE).status is Status.NONEMPTY
                and decide_untwisted(p, cc, SEMI).status is Status.EMPTY)


@settings(max_examples=300, deadline=None)
@given(box_genera, box_ranks, st.data(), kinds, narrow_classes)
def test_narrower_curve_class_agrees_with_any(g, n, data, kind, cc):
    # a curve of a narrower class is a smooth curve
    if g == 2 and cc is NONHYP:
        return
    p = _box_problem(data, g, n)
    narrow, wide = decide_untwisted(p, cc, kind), decide_untwisted(p, ANY, kind)
    if _strength(narrow) == _strength(wide) == 2:
        assert narrow.status is wide.status


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 7: the first row that applies fixes the status, so for a "
    "petri curve RegionBMNO's Nonempty at some rank hides the Empty at this "
    "rank that KnownEmpty gives for any curve"))
def test_narrower_curve_class_never_gets_a_weaker_answer():
    p = BNProblem(3, 2, 6, 4)
    assert _strength(decide_untwisted(p, PETRI, STABLE)) >= _strength(
        decide_untwisted(p, ANY, STABLE))
