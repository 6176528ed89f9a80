"""Certified nonemptiness decisions.

Decisions are tri-state (Nonempty / Empty / Unknown) and carry
certificates: the name of the rule applied, the instantiated parameters,
and the premise inequalities with their truth values.

Each rule has one judge: a function of the certificate parameters alone
that returns the rule's premises together with its conclusion (a status
and a scope), or None when the rule does not apply.  Two deciders search
the rules: decide_untwisted walks the ordered table RULES, whose
Serre-dual row walks the dual-eligible rows on the reflected problem,
and decide_universal calls the construction judges directly.
t1_twisted_decide applies the scaling rule once against a fixed bundle;
its Serre-dual form is the same call on the Serre-dual data.  The
verifier calls the same judges on stored parameters, so a stored
certificate re-derives its premises and its conclusion, and a decision
must state exactly what its certificates conclude.  A rule resting on
other loci (a wrapper, or a product or kernel construction) reads their
certificates from params["inner"] and checks only what each is about; no
judge decides anything, so verification never calls a decider.

Unknown is an honest output: several of the underlying statements are
one-directional, and the rank > 1 existence problem is open in general.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import isqrt
from typing import Any, Callable, Iterator, NamedTuple, Optional

from .bncore import (
    BNProblem,
    UniversalProblem,
    beta_tensor,
    beta_twisted,
    beta_universal,
    beta_untwisted,
    chi_pairing,
    kernel_budget,
    serre_dual_problem,
    shift_line_bundle,
    swap_factors,
    tensor_problem,
    universal_serre_dual,
)
from .regions import StabilityKind, membership, point_text


class CurveClass(Enum):
    ANY_SMOOTH = "any"
    PETRI = "petri"
    GENERAL = "general"
    NON_HYPERELLIPTIC = "nonhyperelliptic"
    HYPERELLIPTIC = "hyperelliptic"


class Status(Enum):
    NONEMPTY = "Nonempty"
    EMPTY = "Empty"
    UNKNOWN = "Unknown"


class Scope(Enum):
    THIS_RANK = "ThisRank"
    SOME_RANK_SAME_SLOPE_POINT = "SomeRankSameSlopePoint"


RULE_TRIVIAL = "TrivialKNonpositive"
RULE_PETRI = "ClassicalPetri"
RULE_REGION_T = "RegionT"
RULE_REGION_BMNO = "RegionBMNO"
RULE_SMALL_SLOPE = "SmallSlope"
RULE_CANONICAL = "CanonicalDualSpan"
RULE_HYPERELLIPTIC = "HyperellipticSlopeTwo"
RULE_KNOWN_EMPTY = "KnownEmpty"
RULE_SERRE_DUAL_OF = "SerreDualOf"
RULE_SWAPPED_OF = "SwappedFactorsOf"
RULE_LINE_REDUCTION = "LineBundleReduction"
RULE_TWISTED_SCALING = "TwistedScaling"
RULE_PRODUCT = "ProductConstruction"
RULE_KERNEL = "KernelConstruction"


@dataclass(frozen=True)
class Premise:
    inequality: str
    holds: bool


@dataclass(frozen=True)
class Certificate:
    rule: str
    params: dict
    premises: tuple[Premise, ...]


@dataclass(frozen=True)
class Decision:
    status: Status
    scope: Scope
    beta: int
    certificates: tuple[Certificate, ...]


# loci known to be empty from explicit published computations; keyed by
# (g, n, d, k) -> strictest stability kind the emptiness applies to
KNOWN_EMPTY_TABLE: dict[tuple[int, int, int, int], StabilityKind] = {
    (3, 2, 6, 4): StabilityKind.STABLE,
}

Conclusion = tuple[Status, Scope]
_NONEMPTY: Conclusion = (Status.NONEMPTY, Scope.THIS_RANK)
_EMPTY: Conclusion = (Status.EMPTY, Scope.THIS_RANK)


class Verdict(NamedTuple):
    """What a rule's judge finds at one set of certificate parameters."""

    premises: tuple[Premise, ...]
    # None for the wrappers, which conclude what their inner certificates do
    conclusion: Optional[Conclusion]
    # the certificates the rule relies on, stored under params["inner"]
    nested: tuple[Certificate, ...] = ()
    # positions in nested of the certificates about each factor locus of a
    # construction; each group must conclude Nonempty at this rank
    groups: tuple[tuple[int, ...], ...] = ()


def _holds(premises: list[Premise]) -> bool:
    return all(p.holds for p in premises)


def _verdict(premises: list[Premise], conclusion: Optional[Conclusion],
             nested: Any = (), groups: tuple[tuple[int, ...], ...] = ()
             ) -> Optional[Verdict]:
    if not _holds(premises):
        return None
    return Verdict(tuple(premises), conclusion, tuple(nested), groups)


def _summary(conclusions: list[Conclusion]) -> Optional[Conclusion]:
    """Joint conclusion of several certificates; None when they disagree.

    No certificate at all concludes Unknown (at this rank); otherwise the
    scope is ThisRank as soon as one certificate grants it.
    """
    statuses = {status for status, _ in conclusions}
    if len(statuses) > 1:
        return None
    if not statuses:
        return Status.UNKNOWN, Scope.THIS_RANK
    this_rank = any(scope is Scope.THIS_RANK for _, scope in conclusions)
    return statuses.pop(), (Scope.THIS_RANK if this_rank
                            else Scope.SOME_RANK_SAME_SLOPE_POINT)


def _conclusion(cert: Certificate) -> Optional[Conclusion]:
    """What a certificate concludes, or None unless it re-checks.

    The judge of its rule must rebuild the stored premises exactly, with
    every premise holding, and the nested certificates must be the ones
    the rule relies on and must re-check in turn, each once.  The
    certificates about each factor of a construction must together
    conclude Nonempty at this rank.
    """
    judge = _JUDGES.get(cert.rule) if isinstance(cert, Certificate) else None
    if judge is None:
        return None
    try:
        verdict = judge(cert.params)
        if (verdict is None or verdict.premises != cert.premises
                or list(verdict.nested) != cert.params.get("inner", [])):
            return None
    except Exception:
        return None
    nested = [_conclusion(c) for c in verdict.nested]
    if None in nested or any(_summary([nested[i] for i in group]) != _NONEMPTY
                             for group in verdict.groups):
        return None
    return verdict.conclusion or _summary(nested)


def verify_certificate(cert: Certificate) -> bool:
    """Re-derive the premises and the conclusion from the stored parameters."""
    return _conclusion(cert) is not None


def verify_decision(decision: Decision) -> bool:
    """Re-check every certificate and the claim built on them.

    The status and scope must be the joint conclusion of the
    certificates: a Nonempty or Empty decision needs at least one
    certificate, all of them concluding its status, and its scope is
    ThisRank exactly when one of them concludes ThisRank.
    """
    conclusions = [_conclusion(c) for c in decision.certificates]
    return (None not in conclusions
            and _summary(conclusions) == (decision.status, decision.scope))


def resolves_hyperelliptic(cc: CurveClass, g: int) -> bool:
    """True when the curve class forces the curve to be hyperelliptic."""
    return cc is CurveClass.HYPERELLIPTIC or g == 2


def implies_nonhyperelliptic(cc: CurveClass, g: int) -> bool:
    """True when the curve class forces the curve to be non-hyperelliptic.

    Petri and general curves of genus >= 3 are non-hyperelliptic; in
    genus 2 every curve is hyperelliptic.
    """
    if g == 2:
        return False
    return cc in (CurveClass.NON_HYPERELLIPTIC, CurveClass.PETRI, CurveClass.GENERAL)


def check_curve_class(g: int, cc: CurveClass) -> None:
    if g == 2 and cc is CurveClass.NON_HYPERELLIPTIC:
        raise ValueError("every smooth curve of genus 2 is hyperelliptic")


def _problem_params(p: BNProblem, **extra: str) -> dict:
    return {"g": p.g, "n": p.n, "d": p.d, "k": p.k, **extra}


def _universal_params(p: UniversalProblem) -> dict:
    return {"g": p.g, "n1": p.n1, "d1": p.d1, "n2": p.n2, "d2": p.d2, "k": p.k}


_UNTWISTED_KEYS = ("g", "n", "d", "k")
_UNIVERSAL_KEYS = ("g", "n1", "d1", "n2", "d2", "k")
# the parameter naming the problem a wrapper's inner certificates are about
_WRAPPED = {RULE_SERRE_DUAL_OF: "dual", RULE_SWAPPED_OF: "swapped",
            RULE_LINE_REDUCTION: "reduced"}


def _about(cert: Certificate, problem: dict, cc: Optional[str] = None,
           kind: Optional[str] = None) -> bool:
    """True when cert records problem (TrivialKNonpositive records only k),
    or wraps certificates about what problem reflects, swaps or reduces to.
    Given cc and kind, a recorded curve class must be cc and a recorded
    kind kind or stable, since stable bundles are semistable."""
    params, rule = cert.params, cert.rule
    if cc is not None and params.get("cc", cc) != cc:
        return False
    if kind is not None and params.get("kind", kind) not in (kind, "stable"):
        return False
    if rule in _WRAPPED:
        target = params[_WRAPPED[rule]]
        return params["problem"] == problem and all(
            _about(c, target, cc, kind) for c in params["inner"])
    if rule == RULE_TRIVIAL:
        return params["k"] == problem["k"]
    if rule == RULE_PRODUCT:
        return {"g": params["g"], **params["pair"], "k": params["k"]} == problem
    keys = (_UNIVERSAL_KEYS if rule in (RULE_KERNEL, RULE_TWISTED_SCALING)
            else _UNTWISTED_KEYS)
    return {key: params[key] for key in keys} == problem


def _factor_groups(params: dict, factors: tuple[BNProblem, ...]
                   ) -> Optional[tuple[tuple[int, ...], ...]]:
    """Positions in params["inner"] of the certificates about each factor;
    None unless each factor has one and each certificate is about one."""
    inner, cc, kind = params["inner"], params["cc"], params["kind"]
    groups = tuple(tuple(i for i, c in enumerate(inner) if _about(c, problem, cc, kind))
                   for problem in map(_problem_params, factors))
    if not all(groups) or len(set().union(*groups)) != len(inner):
        return None
    return groups


# ---------------------------------------------------------------------------
# judges: one per rule, from the certificate parameters alone; a judge may
# return None before formatting its premises once one of them fails


def _trivial(params: dict) -> Optional[Verdict]:
    k = params["k"]
    return _verdict([Premise(f"k = {k} <= 0 (no sections demanded; whole space "
                             "qualifies)", k <= 0)], _NONEMPTY)


def _petri(params: dict) -> Optional[Verdict]:
    g, n, d, k = params["g"], params["n"], params["d"], params["k"]
    cc = CurveClass(params["cc"])
    beta = beta_untwisted(g, 1, d, k)
    prem = [
        Premise(f"rank n = {n} is 1", n == 1),
        Premise("curve class supports the classical dichotomy (petri or general)",
                cc in (CurveClass.PETRI, CurveClass.GENERAL)),
    ]
    if beta >= 0:
        prem.append(Premise(f"beta(1, {d}, {k}) = {beta} >= 0", True))
        return _verdict(prem, _NONEMPTY)
    prem.append(Premise(f"beta(1, {d}, {k}) = {beta} < 0 (locus empty)", True))
    return _verdict(prem, _EMPTY)


def _small_slope(params: dict) -> Optional[Verdict]:
    g, n, d, k = params["g"], params["n"], params["d"], params["k"]
    kind = StabilityKind(params["kind"])
    route = params["route"]
    thr = n + g * (k - n)
    canonical = (n, d, k) == (g - 1, 2 * g - 2, g)
    prem = [Premise(f"n = {n} >= 2", n >= 2)]
    if route == "interior":
        prem.append(Premise(f"0 < d = {d} < 2n = {2 * n}", 0 < d < 2 * n))
        if kind is StabilityKind.STABLE and (d, k) == (n, n):
            prem.append(Premise(f"(d, k) = ({d}, {k}) = (n, n): trivially-shaped "
                                "stable locus is empty", True))
            return _verdict(prem, _EMPTY)
        if d >= thr:
            prem.append(Premise(f"d = {d} >= n + g*(k - n) = {thr}", True))
            if kind is StabilityKind.STABLE:
                prem.append(Premise(f"(d, k) = ({d}, {k}) != (n, n)", True))
            return _verdict(prem, _NONEMPTY)
        prem.append(Premise(f"d = {d} < n + g*(k - n) = {thr} (locus empty)", True))
        return _verdict(prem, _EMPTY)
    prem.append(Premise(f"d = {d} == 2n", d == 2 * n))
    if route == "slope-two":
        prem.append(Premise("curve class implies non-hyperelliptic",
                            implies_nonhyperelliptic(CurveClass(params["cc"]), g)))
        if d >= thr:
            prem.append(Premise(f"d = {d} >= n + g*(k - n) = {thr}", True))
            return _verdict(prem, _NONEMPTY)
        prem.append(Premise(f"d = {d} < n + g*(k - n) = {thr}", True))
        prem.append(Premise(f"(n, d, k) = ({n}, {d}, {k}) != (g-1, 2g-2, g) "
                            "(no canonical span)", not canonical))
        return _verdict(prem, _EMPTY)
    if route == "slope-two-agreement":
        hyper = Status.NONEMPTY if k <= n else Status.EMPTY
        nonhyp = Status.NONEMPTY if d >= thr or canonical else Status.EMPTY
        prem += [
            Premise(f"hyperelliptic-case answer is {hyper.value}", True),
            Premise(f"non-hyperelliptic-case answer is {nonhyp.value}", True),
            Premise("the two answers agree, so the curve type is irrelevant",
                    hyper is nonhyp),
        ]
        return _verdict(prem, (hyper, Scope.THIS_RANK))
    raise ValueError(f"unknown small-slope route {route!r}")


def _canonical(params: dict) -> Optional[Verdict]:
    g, n, d, k = params["g"], params["n"], params["d"], params["k"]
    cc = CurveClass(params["cc"])
    return _verdict([
        Premise(f"(n, d, k) = ({n}, {d}, {k}) == (g-1, 2g-2, g) = "
                f"({g - 1}, {2 * g - 2}, {g})",
                (n, d, k) == (g - 1, 2 * g - 2, g)),
        Premise("curve class implies non-hyperelliptic",
                implies_nonhyperelliptic(cc, g)),
    ], _NONEMPTY)


def _hyperelliptic(params: dict) -> Optional[Verdict]:
    g, n, d, k = params["g"], params["n"], params["d"], params["k"]
    cc = CurveClass(params["cc"])
    prem = [
        Premise(f"n = {n} >= 2", n >= 2),
        Premise(f"d = {d} == 2n", d == 2 * n),
        Premise("curve class forces hyperelliptic", resolves_hyperelliptic(cc, g)),
    ]
    if k <= n:
        prem.append(Premise(f"k = {k} <= n = {n}", True))
        return _verdict(prem, _NONEMPTY)
    prem.append(Premise(f"k = {k} > n = {n} (locus empty)", True))
    return _verdict(prem, _EMPTY)


def _region_t(params: dict) -> Optional[Verdict]:
    g, n, d, k = params["g"], params["n"], params["d"], params["k"]
    kind = StabilityKind(params["kind"])
    v = membership("T", g, d, n, k, n, kind)
    if not v.inside or v.excluded_for_stable:
        return None
    prem = [
        Premise(f"{point_text(d, n, k, n)} lies in the staircase region "
                f"(0 <= mu <= {2 * g - 2}, 0 < lam <= t_g(mu))", v.inside),
        Premise(f"rank {n} realizes integer invariants: n*mu = {d}, n*lam = {k}", True),
    ]
    if kind is StabilityKind.STABLE:
        prem.append(Premise("point is not stable-excluded", not v.excluded_for_stable))
    return _verdict(prem, _NONEMPTY)


def _region_bmno(params: dict) -> Optional[Verdict]:
    g, n, d, k = params["g"], params["n"], params["d"], params["k"]
    kind = StabilityKind(params["kind"])
    stable = kind is StabilityKind.STABLE
    nonhyp = implies_nonhyperelliptic(CurveClass(params["cc"]), g)
    if stable and not nonhyp:
        return None
    v = membership("BMNO", g, d, n, k, n, kind)
    if not v.inside or v.excluded_for_stable:
        return None
    prem = [Premise(f"{point_text(d, n, k, n)} lies in the sawtooth region "
                    f"(0 <= mu <= {2 * g - 2}, 0 < lam <= f_g(mu))", v.inside)]
    if stable:
        prem.append(Premise("point is not stable-excluded", not v.excluded_for_stable))
        prem.append(Premise("curve class implies non-hyperelliptic", nonhyp))
    return _verdict(prem, (Status.NONEMPTY, Scope.SOME_RANK_SAME_SLOPE_POINT))


def _known_empty(params: dict) -> Optional[Verdict]:
    g, n, d, k = params["g"], params["n"], params["d"], params["k"]
    kind = StabilityKind(params["kind"])
    entry = KNOWN_EMPTY_TABLE.get((g, n, d, k))
    # an empty semistable locus has an empty stable sublocus, not conversely
    holds = entry is not None and (entry is StabilityKind.SEMISTABLE
                                   or kind is StabilityKind.STABLE)
    return _verdict([Premise(f"({g}, {n}, {d}, {k}) with kind {kind.value} is in the "
                             "known-empty table", holds)], _EMPTY)


def _wraps(params: dict, target: str) -> bool:
    """True when every wrapped certificate is about params[target]."""
    return all(_about(c, params[target]) for c in params["inner"])


def _serre_dual_of(params: dict) -> Optional[Verdict]:
    prob, dual = params["problem"], params["dual"]
    if not _wraps(params, "dual"):
        return None
    if "n1" in prob:
        expect = _universal_params(universal_serre_dual(UniversalProblem(**prob)))
    else:
        expect = _problem_params(serre_dual_problem(BNProblem(**prob)))
    return _verdict([Premise(f"dual data {dual} matches the Serre reflection of {prob}",
                             expect == dual)], None, params["inner"])


def _swapped_of(params: dict) -> Optional[Verdict]:
    prob, swapped = params["problem"], params["swapped"]
    if not _wraps(params, "swapped"):
        return None
    q = swap_factors(UniversalProblem(**prob))
    return _verdict([Premise(f"swapped data {swapped} matches the factor exchange "
                             f"of {prob}", _universal_params(q) == swapped)],
                    None, params["inner"])


def _line_reduction(params: dict) -> Optional[Verdict]:
    prob, reduced = params["problem"], params["reduced"]
    if not _wraps(params, "reduced"):
        return None
    p = UniversalProblem(**prob)
    expect = _problem_params(tensor_problem(p.g, p.n1, p.d1, p.n2, p.d2, p.k))
    return _verdict([
        Premise(f"one moving factor has rank one ({p.n1}, {p.n2})",
                p.n1 == 1 or p.n2 == 1),
        Premise(f"reduced untwisted data {reduced} matches the line-bundle twist "
                f"{expect}", expect == reduced),
    ], None, params["inner"])


def _twisted_scaling(params: dict) -> Optional[Verdict]:
    g, n1, d1, k = params["g"], params["n1"], params["d1"], params["k"]
    n2, d2, d0, k0 = params["n2"], params["d2"], params["d0"], params["k0"]
    if params["variant"] != "direct":
        return None
    stable = StabilityKind(params["kind"]) is StabilityKind.STABLE
    b0 = beta_twisted(g, 1, d0, k0, n2, d2)
    step = n1 * d0 + (1 if stable else 0)
    b_tw = beta_twisted(g, n1, d1, k, n2, d2)
    b_un = beta_universal(g, n1, d1, n2, d2, k)
    prem = [
        Premise(f"n1 = {n1} >= 2", n1 >= 2),
        Premise(f"rank-one seed count beta(1, {d0}, {k0}) against the fixed "
                f"({n2}, {d2}) is {b0} >= 1", b0 >= 1),
        Premise(f"k = {k} <= n1*k0 = {n1 * k0}", k <= n1 * k0),
        Premise(f"d1 = {d1} >= {step}" + (" (strict scaling step)" if stable else ""),
                d1 >= step),
    ]
    bound = n2 * n2 * (g - 1) + 2
    if stable:
        prem.append(Premise(f"guarantee: twisted count {b_tw} > 1", b_tw > 1))
        prem.append(Premise(f"guarantee: universal count {b_un} > {bound}", b_un > bound))
    else:
        prem.append(Premise(f"guarantee: twisted count {b_tw} >= 1", b_tw >= 1))
        prem.append(Premise(f"guarantee: universal count {b_un} >= {bound}", b_un >= bound))
    return _verdict(prem, _NONEMPTY)


def product_windows(g: int, n1: int, d1s: int, n2: int, d2s: int,
                    cc: CurveClass) -> dict[str, list[Premise]]:
    """The premises of each slope window of a shifted product pair, standard
    then relaxed; the pair has a window when all of that window's hold."""
    return {
        "standard": [
            Premise(f"slope window: d1' = {d1s} < 2*n1 = {2 * n1}", d1s < 2 * n1),
            Premise(f"slope window: d2' = {d2s} <= 2*g*n2 = {2 * g * n2}",
                    d2s <= 2 * g * n2)],
        "relaxed": [
            Premise(f"relaxed window: d1' = {d1s} <= 2*n1 = {2 * n1}", d1s <= 2 * n1),
            Premise(f"relaxed window: d2' = {d2s} < 2*g*n2 = {2 * g * n2}",
                    d2s < 2 * g * n2),
            Premise("relaxed window requires non-hyperelliptic",
                    implies_nonhyperelliptic(cc, g))],
    }


def first_window(windows: dict[str, list[Premise]]) -> Optional[str]:
    """The name of the first window whose premises all hold, or None."""
    return next((name for name, prem in windows.items() if _holds(prem)), None)


def _product_frame(params: dict) -> tuple[list[Premise], tuple[BNProblem, ...]]:
    """The product premises that do not involve the factor loci, and the
    two factors: the shifted pair with k1 and k2 sections."""
    g = params["g"]
    pair = params["pair"]
    n1, d1, n2, d2 = pair["n1"], pair["d1"], pair["n2"], pair["d2"]
    ell, k, k1, k2 = params["ell"], params["k"], params["k1"], params["k2"]
    d1s, d2s = d1 - n1 * ell, d2 + n2 * ell
    prem = [
        Premise(f"shifted pair ((n1, {d1s}), (n2, {d2s})) from ell = {ell}",
                (d1s, d2s) == (params["d1_shifted"], params["d2_shifted"])),
        Premise(f"k = {k} == k1*k2 = {k1}*{k2}", k == k1 * k2),
        Premise(f"ranks n1 = {n1}, n2 = {n2} both >= 2", n1 >= 2 and n2 >= 2),
        Premise(f"factor degrees {d1s}, {d2s} and section counts {k1}, {k2} "
                "all >= 1", d1s >= 1 and d2s >= 1 and k1 >= 1 and k2 >= 1),
    ]
    windows = product_windows(g, n1, d1s, n2, d2s, CurveClass(params["cc"]))
    prem += windows[params["window"]]
    return prem, (BNProblem(g, n1, d1s, k1), BNProblem(g, n2, d2s, k2))


def _product(params: dict) -> Optional[Verdict]:
    prem, factors = _product_frame(params)
    groups = _factor_groups(params, factors) if _holds(prem) else None
    if groups is None:
        return None
    for which, f in zip(("first", "second"), factors):
        prem.append(Premise(f"{which} factor ({f.n}, {f.d}, {f.k}) certified nonempty "
                            "at this rank", True))
    g, pair, k = params["g"], params["pair"], params["k"]
    n1, d1, n2, d2 = pair["n1"], pair["d1"], pair["n2"], pair["d2"]
    bu, bt = params["beta_universal"], params["beta_tensor"]
    prem.append(Premise(f"universal count {bu} matches recomputation",
                        beta_universal(g, n1, d1, n2, d2, k) == bu))
    prem.append(Premise(f"tensor count {bt} matches recomputation",
                        beta_tensor(g, n1, d1, n2, d2, k) == bt))
    return _verdict(prem, _NONEMPTY, params["inner"], groups)


def kernel_premises(g: int, n: int, d: int, n2: int, d2: int, cc: CurveClass,
                    kind: StabilityKind) -> list[Premise]:
    """The kernel premises that do not involve the base locus: the generator
    rank, the induced pair and, last, the twist window d >= 2ng."""
    prem = [
        Premise(f"generator rank n = {n} >= 1", n >= 1),
        Premise(f"induced pair (n2, d2) = ({n2}, {d2}) == (d - n*g, -d) = "
                f"({d - n * g}, {-d})", (n2, d2) == (d - n * g, -d)),
    ]
    if kind is StabilityKind.STABLE:
        if d > 2 * n * g:
            prem.append(Premise(f"d = {d} > 2ng = {2 * n * g}", True))
        else:
            prem.append(Premise(f"d = {d} == 2ng with non-hyperelliptic curve",
                                d == 2 * n * g and implies_nonhyperelliptic(cc, g)))
    else:
        prem.append(Premise(f"d = {d} >= 2ng = {2 * n * g}", d >= 2 * n * g))
    return prem


def _kernel_frame(params: dict) -> tuple[list[Premise], tuple[BNProblem, ...]]:
    """The kernel premises that do not involve the base locus, and the base."""
    g = params["g"]
    n1, d1, k1 = params["n1"], params["d1"], params["k1"]
    n, d, k = params["n"], params["d"], params["k"]
    k_max = kernel_budget(g, n1, d1, k1, n, d)
    prem = [Premise(f"n1 = {n1} >= 2 and k1 = {k1} > n1", n1 >= 2 and k1 > n1),
            *kernel_premises(g, n, d, params["n2"], params["d2"],
                             CurveClass(params["cc"]), StabilityKind(params["kind"]))]
    prem.append(Premise(f"section budget k_max = {k_max} matches "
                        f"(d - n(g-1))(k1 - n1) - n*d1", k_max == params["k_max"]))
    prem.append(Premise(f"0 < k = {k} <= k_max = {k_max}", 0 < k <= k_max))
    return prem, (BNProblem(g, n1, d1, k1),)


def _kernel(params: dict) -> Optional[Verdict]:
    prem, (base,) = _kernel_frame(params)
    groups = _factor_groups(params, (base,)) if _holds(prem) else None
    if groups is None:
        return None
    prem.append(Premise(f"base locus ({base.n}, {base.d}, {base.k}) certified nonempty "
                        "at this rank", True))
    g, n1, d1, n2, d2, k = (params[key] for key in _UNIVERSAL_KEYS)
    bu = params["beta_universal"]
    prem.append(Premise(f"universal count {bu} matches recomputation",
                        beta_universal(g, n1, d1, n2, d2, k) == bu))
    return _verdict(prem, _NONEMPTY, params["inner"], groups)


# ---------------------------------------------------------------------------
# the rule table

Found = tuple[Conclusion, Certificate]
Instantiate = Callable[[BNProblem, CurveClass, StabilityKind], Optional[dict]]
Judge = Callable[[dict], Optional[Verdict]]


def _untwisted(judge: Judge) -> Judge:
    """The judge of an untwisted rule, None before any premise is formatted
    unless the parameters name a BNProblem: genus >= 2 and rank >= 1."""
    return lambda params: None if params["g"] < 2 or params["n"] < 1 else judge(params)


class Rule(NamedTuple):
    name: str
    judge: Judge
    # the parameters tried for an untwisted problem, None where the rule is
    # not tried; only the Serre-dual row, which overrides apply, has none
    instantiate: Optional[Instantiate] = None
    # also tried on the Serre dual of an untwisted problem
    dual: bool = False
    # states the stable locus: for a semistable problem only its Nonempty
    # carries over, since stable bundles are semistable
    stable: bool = False

    def apply(self, p: BNProblem, cc: CurveClass, kind: StabilityKind) -> Optional[Found]:
        params = self.instantiate(p, cc, kind)
        verdict = None if params is None else self.judge(params)
        if verdict is None or (self.stable and kind is not StabilityKind.STABLE
                               and verdict.conclusion[0] is not Status.NONEMPTY):
            return None
        return verdict.conclusion, Certificate(self.name, params, verdict.premises)


class _SerreDualRule(Rule):
    """The first dual-eligible rule that applies to the Serre dual problem,
    wrapped; the wrapper concludes what that rule concludes."""

    def apply(self, p: BNProblem, cc: CurveClass, kind: StabilityKind) -> Optional[Found]:
        q = serre_dual_problem(p)
        found = next(filter(None, (rule.apply(q, cc, kind) for rule in RULES
                                   if rule.dual)), None)
        if found is None:
            return None
        conclusion, inner = found
        return conclusion, _certify(self.name, {
            "problem": _problem_params(p), "dual": _problem_params(q), "inner": [inner]})


def _slope_two_params(p: BNProblem, cc: CurveClass, kind: StabilityKind) -> Optional[dict]:
    # on d = 2n the answer depends on the curve type; hyperelliptic curves
    # have their own rule, and an open curve type needs the two to agree
    if p.n < 2 or p.d != 2 * p.n or resolves_hyperelliptic(cc, p.g):
        return None
    if implies_nonhyperelliptic(cc, p.g):
        return _problem_params(p, kind="stable", route="slope-two", cc=cc.value)
    return _problem_params(p, kind="stable", route="slope-two-agreement")


def _on_slope_two(p: BNProblem, cc: CurveClass, kind: StabilityKind) -> Optional[dict]:
    return _problem_params(p, cc=cc.value) if p.n >= 2 and p.d == 2 * p.n else None


# Untwisted problems walk the rows in order: the first rule that applies
# fixes the status and every later rule agreeing with it adds its
# certificate.  SmallSlope, HyperellipticSlopeTwo and CanonicalDualSpan
# never apply together.
RULES: tuple[Rule, ...] = (
    Rule(RULE_TRIVIAL, _trivial, lambda p, cc, kind: {"k": p.k} if p.k <= 0 else None,
         dual=True),
    Rule(RULE_PETRI, _untwisted(_petri),
         lambda p, cc, kind: _problem_params(p, cc=cc.value) if p.n == 1 else None),
    Rule(RULE_SMALL_SLOPE, _untwisted(_small_slope),
         lambda p, cc, kind: _problem_params(p, kind=kind.value, route="interior")
         if p.n >= 2 and 0 < p.d < 2 * p.n else None, dual=True),
    Rule(RULE_SMALL_SLOPE, _untwisted(_small_slope), _slope_two_params, dual=True,
         stable=True),
    Rule(RULE_HYPERELLIPTIC, _untwisted(_hyperelliptic), _on_slope_two, dual=True,
         stable=True),
    Rule(RULE_CANONICAL, _untwisted(_canonical), _on_slope_two, dual=True),
    Rule(RULE_REGION_T, _untwisted(_region_t),
         lambda p, cc, kind: _problem_params(p, kind=kind.value), dual=True),
    Rule(RULE_REGION_BMNO, _untwisted(_region_bmno),
         lambda p, cc, kind: _problem_params(p, kind=kind.value, cc=cc.value), dual=True),
    _SerreDualRule(RULE_SERRE_DUAL_OF, _serre_dual_of),
    Rule(RULE_KNOWN_EMPTY, _untwisted(_known_empty),
         lambda p, cc, kind: _problem_params(p, kind=kind.value)
         if (p.g, p.n, p.d, p.k) in KNOWN_EMPTY_TABLE else None),
)
# every judge by rule name: the table's, and those of the rules that only
# universal problems use
_JUDGES = {rule.name: rule.judge for rule in RULES} | {
    RULE_SWAPPED_OF: _swapped_of, RULE_LINE_REDUCTION: _line_reduction,
    RULE_TWISTED_SCALING: _twisted_scaling, RULE_PRODUCT: _product, RULE_KERNEL: _kernel}


def _certify(rule: str, params: dict) -> Optional[Certificate]:
    """The certificate of a rule at params, None when the rule does not apply.

    The certificates the rule relies on are already under params["inner"];
    the judge checks what they are about, not what they conclude.
    """
    verdict = _JUDGES[rule](params)
    return None if verdict is None else Certificate(rule, params, verdict.premises)


# ---------------------------------------------------------------------------
# untwisted pipeline


def decide_untwisted(p: BNProblem, cc: CurveClass, kind: StabilityKind) -> Decision:
    """Decide nonemptiness of the rank-n locus, collecting certificates.

    The rules of RULES run in order and the first definite answer fixes
    the status; the remaining rules still run so that every rule
    agreeing with that status contributes its certificate.  The scope is
    the strongest granted by any collected certificate.
    """
    check_curve_class(p.g, cc)
    found = [f for f in (rule.apply(p, cc, kind) for rule in RULES) if f is not None]
    beta = beta_untwisted(p.g, p.n, p.d, p.k)
    if not found:
        return Decision(Status.UNKNOWN, Scope.THIS_RANK, beta, ())
    status = found[0][0][0]
    agreeing = [(conclusion, cert) for conclusion, cert in found
                if conclusion[0] is status]
    _, scope = _summary([conclusion for conclusion, _ in agreeing])
    return Decision(status, scope, beta, tuple(cert for _, cert in agreeing))


# ---------------------------------------------------------------------------
# twisted scaling (fixed second bundle)


def t1_twisted_decide(g: int, n1: int, d1: int, k: int, n2: int, d2: int,
                      d0: int, k0: int,
                      kind: StabilityKind = StabilityKind.STABLE) -> Decision:
    """Scaling construction from a rank-one seed against a fixed bundle.

    All hypotheses holding yields Nonempty with the guaranteed count
    bounds attached; any failure yields Unknown (the statement is
    one-directional, so Empty is never produced).  The Serre-dual form of
    the scaling is this call on the Serre-dual data (n1, -d1,
    k - chi(n1, d1, n2, 2n2(g-1) - d2)) against the same (n2, d2).
    """
    if n1 < 2:
        raise ValueError(f"scaling needs n1 >= 2, got {n1}")
    # certificates name their variant; the direct one is the only one
    cert = _certify(RULE_TWISTED_SCALING, {
        "g": g, "n1": n1, "d1": d1, "k": k, "n2": n2, "d2": d2,
        "d0": d0, "k0": k0, "variant": "direct", "kind": kind.value})
    beta = beta_twisted(g, n1, d1, k, n2, d2)
    if cert is None:
        return Decision(Status.UNKNOWN, Scope.THIS_RANK, beta, ())
    return Decision(Status.NONEMPTY, Scope.THIS_RANK, beta, (cert,))


# ---------------------------------------------------------------------------
# universal pipeline


# the most steps any one loop of a universal search may take: trial
# divisions of k, kernel base section counts or scaling seed section counts
MAX_SEARCH_STEPS = 50_000


def _bounded(values: range, what: str) -> Iterator[int]:
    """The values of one search loop, refused once MAX_SEARCH_STEPS have run."""
    for step, value in enumerate(values):
        if step == MAX_SEARCH_STEPS:
            # every loop steps by one; len() fails on a range past sys.maxsize
            count = values.stop - values.start
            raise ValueError(f"universal search loop over {count} {what} "
                             f"passed its limit of {MAX_SEARCH_STEPS} steps")
        yield value


def _divisor_pairs(k: int) -> list[tuple[int, int]]:
    """Ordered pairs (k1, k2) with k1*k2 = k, by max(k1, k2) and then k1."""
    pairs = []
    for k1 in _bounded(range(1, isqrt(max(k, 0)) + 1), "trial divisors"):
        if k % k1 == 0:
            pairs.append((k1, k // k1))
            if k1 != k // k1:
                pairs.append((k // k1, k1))
    pairs.sort(key=lambda pk: (max(pk), pk[0]))
    return pairs


# the most presentations one universal search tries
MAX_PRESENTATIONS = 8


def _presentations(p: UniversalProblem) -> list[tuple[UniversalProblem, list[tuple]]]:
    """Breadth-first presentations of p under factor swap and Serre duality.

    Each entry is (problem, steps), where steps leads from the problem back
    to p, innermost first: (rule, parameter name, source, target) wraps a
    certificate about target into one about source.  The two generators
    compose to a line-bundle shift, so the raw orbit is infinite;
    MAX_PRESENTATIONS keeps one lap of it, which already contains every
    presentation that differs by more than a shift.
    """
    seen = {p}
    queue = [(p, [])]
    out = []
    while queue and len(out) < MAX_PRESENTATIONS:
        cur, steps = queue.pop(0)
        out.append((cur, steps))
        for rule, fn in ((RULE_SWAPPED_OF, swap_factors),
                         (RULE_SERRE_DUAL_OF, universal_serre_dual)):
            nxt = fn(cur)
            if nxt not in seen:
                seen.add(nxt)
                queue.append((nxt, [(rule, _WRAPPED[rule], cur, nxt), *steps]))
    return out


def _wrap_chain(cert: Certificate, steps: list[tuple]) -> Certificate:
    for rule, name, src, dst in steps:
        cert = _certify(rule, {"problem": _universal_params(src),
                               name: _universal_params(dst), "inner": [cert]})
    return cert


# a construction's candidate: its rule, its parameters without "inner", and
# the factor loci whose certificates go there
Candidate = tuple[str, dict, tuple[BNProblem, ...]]


def _product_candidates(q: UniversalProblem, cc: CurveClass,
                        kind: StabilityKind) -> Iterator[Candidate]:
    """Product candidates for q in search order, those whose premises
    outside the factor loci hold."""
    # the shifts put d1/n1 - ell in (0, 2), or at 2 for an integer d1/n1 on
    # a curve known to be non-hyperelliptic
    base = -(-q.d1 // q.n1)
    lo = base - (2 if q.d1 % q.n1 or implies_nonhyperelliptic(cc, q.g) else 1)
    shifts = []
    for ell in range(lo, base):
        shifted = shift_line_bundle(q, ell)
        window = first_window(product_windows(q.g, q.n1, shifted.d1, q.n2,
                                               shifted.d2, cc))
        if window is not None:
            shifts.append((ell, shifted, window))
    if not shifts:
        return
    pair = {"n1": q.n1, "d1": q.d1, "n2": q.n2, "d2": q.d2}
    counts = {"beta_universal": beta_universal(q.g, q.n1, q.d1, q.n2, q.d2, q.k),
              "beta_tensor": beta_tensor(q.g, q.n1, q.d1, q.n2, q.d2, q.k)}
    pairs = _divisor_pairs(q.k)
    for ell, shifted, window in shifts:
        for i, (k1, k2) in enumerate(pairs):
            params = {
                "g": q.g, "kind": kind.value, "cc": cc.value, "pair": pair,
                "ell": ell, "k": q.k, "k1": k1, "k2": k2,
                "d1_shifted": shifted.d1, "d2_shifted": shifted.d2,
                "window": window, **counts}
            # divisor pairs exist only for k >= 1 and multiply to k, so the
            # shift alone decides the frame: it is checked on the first pair
            if i == 0 and not _holds(_product_frame(params)[0]):
                break
            yield RULE_PRODUCT, params, (BNProblem(q.g, q.n1, shifted.d1, k1),
                                         BNProblem(q.g, q.n2, shifted.d2, k2))


def _kernel_candidates(q: UniversalProblem, cc: CurveClass,
                       kind: StabilityKind) -> Iterator[Candidate]:
    """Kernel candidates for q in search order, those whose premises
    outside the base locus hold."""
    if q.d2 >= 0:
        return
    d = -q.d2
    if (d - q.n2) % q.g != 0:
        return
    n = (d - q.n2) // q.g
    if not _holds(kernel_premises(q.g, n, d, q.n2, q.d2, cc, kind)):
        return
    # the twist window d >= 2ng makes d - n(g-1) positive
    lo = q.n1 + max(1, -(-(q.k + n * q.d1) // (d - n * (q.g - 1))))
    hi = q.n1 + max(q.d1, 0)
    bu = beta_universal(q.g, q.n1, q.d1, q.n2, q.d2, q.k)
    for k1 in _bounded(range(lo, hi + 1), "kernel base section counts"):
        params = {
            "g": q.g, "kind": kind.value, "cc": cc.value,
            "n1": q.n1, "d1": q.d1, "k1": k1, "n": n, "d": d, "k": q.k,
            "n2": q.n2, "d2": q.d2, "k_max": kernel_budget(q.g, q.n1, q.d1, k1, n, d),
            "beta_universal": bu}
        # past the kernel premises only 0 < k can fail for k1 >= lo, as
        # k_max grows with k1: the first base count decides the frame
        if k1 == lo and not _holds(_kernel_frame(params)[0]):
            return
        yield RULE_KERNEL, params, (BNProblem(q.g, q.n1, q.d1, k1),)


def _try_scaling(q: UniversalProblem, cc: CurveClass,
                 kind: StabilityKind) -> Optional[Certificate]:
    # the largest seed degree with n1*d0 < d1 (stable) or n1*d0 <= d1
    d0 = (q.d1 - 1 if kind is StabilityKind.STABLE else q.d1) // q.n1
    chi0 = chi_pairing(q.g, 1, d0, q.n2, q.d2)
    lo = max(1, -(-q.k // q.n1))
    for k0 in _bounded(range(lo, chi0 + q.g), "scaling seed section counts"):
        if beta_twisted(q.g, 1, d0, k0, q.n2, q.d2) >= 1:
            # every other premise is the same for all k0 >= lo: this seed decides
            dec = t1_twisted_decide(q.g, q.n1, q.d1, q.k, q.n2, q.d2, d0, k0, kind)
            return dec.certificates[0] if dec.status is Status.NONEMPTY else None
    return None


def decide_universal(p: UniversalProblem, cc: CurveClass,
                     kind: StabilityKind) -> Decision:
    """Decide nonemptiness of the universal locus for a moving pair.

    After the trivial and rank-one reductions, every presentation in the
    swap/Serre orbit is tried with the product, kernel, and scaling
    constructions in that order; the first success is wrapped back
    through the presentation chain.  All three constructions are
    one-directional, so the fall-through answer is Unknown.

    Once a candidate's other premises hold its factor loci are decided,
    each distinct one once per search, and their certificates become its
    inner ones; an outcome, a failed one too, serves that search only.
    """
    check_curve_class(p.g, cc)
    beta = beta_universal(p.g, p.n1, p.d1, p.n2, p.d2, p.k)
    if p.k <= 0:
        cert = _certify(RULE_TRIVIAL, {"k": p.k})
        return Decision(Status.NONEMPTY, Scope.THIS_RANK, beta, (cert,))
    if p.n1 == 1 or p.n2 == 1:
        reduced = tensor_problem(p.g, p.n1, p.d1, p.n2, p.d2, p.k)
        inner = decide_untwisted(reduced, cc, kind)
        cert = _certify(RULE_LINE_REDUCTION, {
            "problem": _universal_params(p),
            "reduced": _problem_params(reduced),
            "inner": list(inner.certificates)})
        return Decision(inner.status, inner.scope, beta, (cert,))
    # cc and kind are fixed for the search, so the factor alone is the key;
    # a factor maps to its certificates, or to None unless Nonempty at this rank
    decided: dict[BNProblem, Optional[tuple[Certificate, ...]]] = {}

    def constructed(rule: str, params: dict,
                    factors: tuple[BNProblem, ...]) -> Optional[Certificate]:
        inner: list[Certificate] = []
        for factor in factors:
            if factor not in decided:
                dec = decide_untwisted(factor, cc, kind)
                decided[factor] = (dec.certificates
                                   if (dec.status, dec.scope) == _NONEMPTY else None)
            if decided[factor] is None:
                return None
            inner += decided[factor]
        return _certify(rule, {**params, "inner": inner})

    # both ranks are at least 2 here, and swap and Serre duality keep them,
    # so no construction checks a rank again
    for q, steps in _presentations(p):
        built = (constructed(*candidate)
                 for candidates in (_product_candidates, _kernel_candidates)
                 for candidate in candidates(q, cc, kind))
        cert = next(filter(None, built), None) or _try_scaling(q, cc, kind)
        if cert is not None:
            wrapped = _wrap_chain(cert, steps)
            return Decision(Status.NONEMPTY, Scope.THIS_RANK, beta, (wrapped,))
    return Decision(Status.UNKNOWN, Scope.THIS_RANK, beta, ())


# ---------------------------------------------------------------------------
# serialization


def _jsonify(value: Any) -> Any:
    # certificate parameters hold ints, strings, dicts and certificate lists
    if isinstance(value, Certificate):
        return certificate_to_json(value)
    if isinstance(value, dict):
        return {k: _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    return value


def certificate_to_json(cert: Certificate) -> dict:
    return {"rule": cert.rule, "params": _jsonify(cert.params),
            "premises": [{"inequality": p.inequality, "holds": p.holds}
                         for p in cert.premises]}


def decision_to_json(decision: Decision) -> dict:
    return {"status": decision.status.value, "scope": decision.scope.value,
            "beta": decision.beta,
            "certificates": [certificate_to_json(c) for c in decision.certificates]}
