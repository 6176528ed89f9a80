"""The ten acceptance criteria, as checks that any caller can run.

Each criterion takes `check(cond, msg)`, a recorder that counts one
check and raises CheckFailed on a false condition; explicit calls, not
`assert`, so `python -O` keeps them.  Seeded criteria also take an rng.
Criteria that decide loci return the decisions they made, and criterion
10 re-verifies them.  `bnloci selftest` runs all ten through `run`; the
acceptance tests run one each.  Every comparison is exact.
"""

from __future__ import annotations

import random
from fractions import Fraction as Q
from typing import Callable

from .bncore import (BNProblem, SlopePoint, UniversalProblem, beta_universal,
                     beta_untwisted, chi_pairing, serre_dual_point, serre_dual_problem,
                     shift_line_bundle, swap_factors, universal_serre_dual)
from .construct import (ConstructError, bpn_boundary, bpn_membership, bpn_new_points,
                        c6_enumerate, kernel_beta_quadratic, kernel_construct,
                        kernel_negativity_min_d, product_construct,
                        product_negativity_search)
from .oracle import (CurveClass, Decision, Status, decide_universal, decide_untwisted,
                     verify_decision)
from .regions import (StabilityKind, eta_hat, eta_hat_prime, fg_eval, membership_BMNO,
                      membership_T, tg_eval)

ANY = CurveClass.ANY_SMOOTH
STABLE = StabilityKind.STABLE
Check = Callable[[bool, str], None]

# the rules that decide a locus in both directions; only they may conclude Empty
TWO_DIRECTIONAL = ("ClassicalPetri", "HyperellipticSlopeTwo", "SmallSlope",
                   "KnownEmpty", "SerreDualOf")


class CheckFailed(Exception):
    """A check of an acceptance criterion failed; the message says which."""


class Checks:
    """A `check` recorder: counts the checks that hold, raises at the first that fails."""

    def __init__(self) -> None:
        self.count = 0

    def __call__(self, cond: bool, msg: str) -> None:
        if not cond:
            raise CheckFailed(msg)
        self.count += 1


def _envelope(g: int, x: Q) -> Q:
    return max(tg_eval(g, x), fg_eval(g, x))


def product_threshold(check: Check) -> list[Decision]:
    """01: the product pair count is negative exactly from genus 6."""
    emitted = []
    for g in range(2, 13):
        w = product_construct(g, BNProblem(g, 2, 3, 2), BNProblem(g, 2, 3, 2))
        emitted += [w.factor1_decision, w.factor2_decision]
        # normalized negativity coefficient 1 - 3 + (g - 1), scaled by rank^4 = 16
        check(w.k == 4 and w.beta_universal == 8 * (g - 1) + 2 - 16 * (g - 3)
              == -8 * g + 42, f"product count moved at genus {g}")
        check((w.beta_universal < 0) == (g >= 6), f"sign moved at genus {g}")
    neg = product_negativity_search(6, Q(3, 2), 1, Q(3, 2), 1)
    check(neg.beta_universal == -6 and neg.bound == 2, "negativity fixture moved")
    pair = decide_universal(UniversalProblem(6, 2, 3, 2, 3, 4), ANY, STABLE)
    check(pair.status is Status.NONEMPTY and pair.beta == -6, "pair fixture moved")
    return emitted + [pair]


def boundary_parabola(check: Check) -> None:
    """02: the genus-10 product boundary is a parabola on the 1/8 grid."""
    g = 10
    for i in range(1, 16):
        mu = 2 + Q(i, 8)
        boundary = bpn_boundary(g, mu).boundary
        check(boundary == 1 + (mu - 2) / 10 + ((mu - 2) / 2) ** 2 / 100,
              f"parabola mismatch at mu = {mu}")
        # a brute decomposition grid at step 1/64 reaches the boundary and
        # never beats it; the symmetric split realizes it exactly
        best = max(_envelope(g, Q(j, 64)) * _envelope(g, mu - Q(j, 64))
                   for j in range(1, 128))
        check(best == boundary, f"brute grid misses the boundary at mu = {mu}")
        check(_envelope(g, mu / 2) ** 2 == boundary,
              f"symmetric split misses the boundary at mu = {mu}")
    check(bpn_boundary(g, 15).boundary == Q(2841, 400), "frozen value moved")
    for j in range(0, 4 * 18 + 1):
        mu = Q(j, 4)
        check(bpn_boundary(g, 18 - mu).boundary == bpn_boundary(g, mu).boundary - mu + 9,
              f"reflection identity failed at mu = {mu}")


def new_point(check: Check) -> None:
    """03: (3, 441/400) lies beyond both classical regions."""
    check(bpn_membership(10, 3, Q(441, 400)).member is True, "new point left the region")
    check(bpn_membership(10, 3, Q(111, 100)).member is False,
          "membership convention drifted")
    check(tg_eval(10, 3) == 1 and fg_eval(10, 3) == Q(11, 10), "region tops moved")
    for kind in StabilityKind:
        check(not membership_T(10, 3, Q(441, 400), kind).inside, "new point is in T")
        check(not membership_BMNO(10, 3, Q(441, 400), kind).inside,
              "new point is in BMNO")
    for g in range(5, 13):
        check(bool(bpn_new_points(g)), f"no new points at genus {g}")


def kernel_family(check: Check) -> list[Decision]:
    """04: the kernel family quadratic and scan at (4, 2, 11, 6, 1, e = 23)."""
    quad = kernel_beta_quadratic(4, 2, 11, 6, 1, 23)
    check(quad.a == -1, "kernel quadratic is not concave")
    scan = kernel_negativity_min_d(4, 2, 11, 6, 1, 23)
    check((scan.d_min, scan.beta, scan.k) == (11, -7, 21), "kernel scan moved")
    w = kernel_construct(4, 2, 11, 6, 1, 11, 21)
    check((w.k, w.k_max, w.beta_universal) == (21, 21, -7), "kernel fixture moved")
    for d in range(9, 51):
        check(quad(d) == beta_universal(4, 2, 11, d - 4, -d, 4 * d - 23),
              f"kernel quadratic disagrees with the count at d = {d}")
    pair = decide_universal(UniversalProblem(4, 2, 11, 7, -11, 21), ANY, STABLE)
    check(pair.status is Status.NONEMPTY and pair.beta == -7, "kernel pair fixture moved")
    return [w.base_decision, pair]


def threshold_oracles(check: Check) -> None:
    """05: the threshold functions equal their brute-force definitions."""
    for g in range(2, 21):
        for s in range(1, g + 1):
            check(eta_hat_prime(g, s) == next(d for d in range(0, 6 * g + 10)
                                              if beta_untwisted(g, 1, d + 1, s) >= 1),
                  f"threshold mismatch at ({g}, {s})")
            check(eta_hat(g, s) == next(d for d in range(0, 6 * g + 10)
                                        if beta_untwisted(g, 1, d, s) >= 0),
                  f"second threshold mismatch at ({g}, {s})")
        check((eta_hat_prime(g, 1), eta_hat_prime(g, g), eta_hat(g, 1))
              == (0, 2 * g - 2, 0), f"threshold ends moved at genus {g}")


def duality_invariances(check: Check, rng: random.Random, trials: int) -> None:
    """06: randomized exact duality, swap and shift identities."""
    for _ in range(trials):
        g, n = rng.randint(2, 20), rng.randint(1, 10)
        d, k = rng.randint(-100, 100), rng.randint(-60, 60)
        q = serre_dual_problem(BNProblem(g, n, d, k))
        check(beta_untwisted(g, q.n, q.d, q.k) == beta_untwisted(g, n, d, k),
              f"count moved under duality at {(g, n, d, k)}")
        pt = SlopePoint(Q(d, n), Q(k, n))
        check(serre_dual_point(g, serre_dual_point(g, pt)) == pt,
              f"point reflection is not an involution at {(g, d, n, k)}")
        u = UniversalProblem(g, n, d, rng.randint(1, 10), rng.randint(-100, 100), k)
        chi = chi_pairing(g, u.n1, u.d1, u.n2, u.d2)
        beta = beta_universal(g, u.n1, u.d1, u.n2, u.d2, k)
        v = universal_serre_dual(u)
        check(beta_universal(g, v.n1, v.d1, v.n2, v.d2, v.k) == beta,
              f"universal count moved under duality at {u}")
        for name, w in (("swap", swap_factors(u)),
                        ("shift", shift_line_bundle(u, rng.randint(-5, 5)))):
            check(chi_pairing(g, w.n1, w.d1, w.n2, w.d2) == chi,
                  f"pairing moved under {name} at {u}")
            check(beta_universal(g, w.n1, w.d1, w.n2, w.d2, w.k) == beta,
                  f"count moved under {name} at {u}")


def degree_counts(check: Check) -> None:
    """07: admissible-degree counts and the genus-2 rejection."""
    for n1 in range(3, 11):
        check(len(c6_enumerate(3, n1, n1 + 2)) == n1 - 2, f"degree count moved at {n1}")
    check(c6_enumerate(3, 3, 5) == [8] and c6_enumerate(4, 2, 6) == [11]
          and c6_enumerate(3, 2, 4) == [], "degree enumeration moved")
    try:
        c6_enumerate(2, 3, 5)
        rejected = False
    except ConstructError:
        rejected = True
    check(rejected, "genus 2 was not rejected")


def known_and_special_cases(check: Check) -> list[Decision]:
    """08: known emptiness, canonical, hyperelliptic and fixed decisions."""
    emitted = []

    def expect(p: BNProblem, cc: CurveClass, kind: StabilityKind,
               status: Status) -> Decision:
        dec = decide_untwisted(p, cc, kind)
        check(dec.status is status, f"unexpected status for {p} ({cc.value}, {kind.value})")
        emitted.append(dec)
        return dec

    known = expect(BNProblem(3, 2, 6, 4), ANY, STABLE, Status.EMPTY)
    check(known.beta == 1, "known-empty count moved")
    for g in range(3, 11):
        expect(BNProblem(g, g - 1, 2 * g - 2, g), CurveClass.NON_HYPERELLIPTIC, STABLE,
               Status.NONEMPTY)
    for g in range(2, 9):
        for n in range(2, 6):
            for k in range(n + 1, n + 4):
                expect(BNProblem(g, n, 2 * n, k), CurveClass.HYPERELLIPTIC, STABLE,
                       Status.EMPTY)
    expect(BNProblem(4, 2, 11, 6), ANY, STABLE, Status.NONEMPTY)
    expect(BNProblem(10, 5, 15, 5), ANY, StabilityKind.SEMISTABLE, Status.NONEMPTY)
    expect(BNProblem(7, 1, 12, 7), CurveClass.PETRI, STABLE, Status.NONEMPTY)
    return emitted


def small_slope_equivalence(check: Check) -> list[Decision]:
    """09: the exhaustive small-slope window agrees with the count curve."""
    emitted = []
    for g in range(2, 13):
        for n in range(2, 9):
            for d in range(1, 2 * n):
                top = fg_eval(g, Q(d, n))
                check(Q(2 * n + 4, n) > top, f"the box ends below the curve at {(g, n, d)}")
                for k in range(-3, 2 * n + 5):
                    dec = decide_untwisted(BNProblem(g, n, d, k), ANY, STABLE)
                    emitted.append(dec)
                    predicted = Q(k, n) <= top and (d, k) != (n, n)
                    check((dec.status is Status.NONEMPTY) == predicted,
                          f"window status disagrees with the count curve at {(g, n, d, k)}")
    return emitted


def certificate_soundness(check: Check, rng: random.Random,
                          emitted: list[Decision]) -> None:
    """10: emitted and 400 random decisions re-verify; Empty is two-directional."""
    check(bool(emitted), "no decisions to re-verify")
    for i, dec in enumerate(emitted):
        check(verify_decision(dec), f"emitted decision {i} failed re-check")
        check(dec.status is Status.UNKNOWN or bool(dec.certificates),
              f"emitted decision {i} has no certificate")
    for _ in range(400):
        g = rng.randint(2, 9)
        cc = rng.choice(list(CurveClass))
        if g == 2 and cc is CurveClass.NON_HYPERELLIPTIC:
            cc = ANY
        p = BNProblem(g, rng.randint(1, 6), rng.randint(-4, 40), rng.randint(-2, 24))
        dec = decide_untwisted(p, cc, rng.choice(list(StabilityKind)))
        check(verify_decision(dec), f"random decision failed re-check at {p}")
        check(dec.status is not Status.EMPTY
              or all(c.rule in TWO_DIRECTIONAL for c in dec.certificates),
              f"emptiness cited a one-directional rule at {p}")


def run(seed: int, trials: int) -> tuple[str, bool]:
    """Run the ten criteria in order: one `ok` line each, or stop at the first
    failed check with a `FAIL` line.  `trials` sizes criterion 06."""
    rng = random.Random(seed)
    emitted: list[Decision] = []
    calls = ((product_threshold,), (boundary_parabola,), (new_point,), (kernel_family,),
             (threshold_oracles,), (duality_invariances, rng, trials), (degree_counts,),
             (known_and_special_cases,), (small_slope_equivalence,),
             (certificate_soundness, rng, emitted))
    lines, total = [], 0
    for num, (criterion, *args) in enumerate(calls, 1):
        name = f"{num:02d} {criterion.__name__.replace('_', ' ')}"
        check = Checks()
        try:
            emitted += criterion(check, *args) or []
        except CheckFailed as exc:
            lines.append(f"FAIL {name}: {exc}")
            return "\n".join(lines) + "\n", False
        total += check.count
        lines.append(f"ok {name} ({check.count} checks)")
    lines.append(f"selftest passed ({total} checks)")
    return "\n".join(lines) + "\n", True
