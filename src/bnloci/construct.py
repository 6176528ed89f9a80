"""Witness constructions and the product boundary curve.

Products of small-slope bundles, kernels of evaluation-style surjections,
and the induced boundary curve in the (slope, section density) plane.
Everything is exact: boundaries are piecewise-rational, suprema over open
windows are computed symbolically with attainment tracked separately.
A boundary query runs on ints over one common denominator of its genus
and slope, and builds Fractions only for its answer.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from math import ceil, floor, isqrt, lcm
from typing import Optional

from .bncore import (
    BNProblem,
    beta_tensor,
    beta_universal,
    kernel_budget,
    tensor_problem,
)
from .exactq import (
    DomainError,
    Quadratic,
    Rational,
    RationalLike,
    as_rational,
    pw_max,
)
from .regions import StabilityKind, fg_piecewise, fg_eval, tg_piecewise, tg_eval
from . import oracle
from .oracle import Certificate, CurveClass, Decision, Scope, Status


class ConstructError(ValueError):
    """A construction precondition failed; the message names the premise."""


# ---------------------------------------------------------------------------
# products


@dataclass(frozen=True)
class ProductWitness:
    factor1: BNProblem
    factor2: BNProblem
    k: int
    window: str
    factor1_decision: Decision
    factor2_decision: Decision
    tensor: BNProblem
    beta_universal: int
    beta_tensor: int
    # the ProductConstruction certificate, the factors' ones under "inner"
    certificate: Certificate


def product_construct(g: int, p1: BNProblem, p2: BNProblem,
                      cc: CurveClass = CurveClass.ANY_SMOOTH,
                      kind: StabilityKind = StabilityKind.STABLE) -> ProductWitness:
    """Certify the pair locus at k = k1*k2 from two nonempty factors.

    The ProductConstruction judge certifies the pair at shift 0.  The first
    factor must sit at slope below 2 (at most 2 in the relaxed window,
    which needs a non-hyperelliptic curve) and the second at slope at
    most 2g (strictly below 2g in the relaxed window); then each factor
    locus, in turn, must be decided nonempty at its rank.
    """
    if p1.g != g or p2.g != g:
        raise ConstructError("factor problems must live on the same genus-g curve")
    # the judge states these two premises too, but after the window, whose
    # refusal they must come before
    if p1.n < 2 or p2.n < 2:
        raise ConstructError("factor ranks must both be at least 2")
    if p1.d < 1 or p2.d < 1 or p1.k < 1 or p2.k < 1:
        raise ConstructError("factor degrees and section counts must be positive")
    windows = oracle.product_windows(g, p1.n, p1.d, p2.n, p2.d, cc)
    window = oracle.first_window(windows)
    if window is None:
        # each window's first premise compares d1 with 2*n1
        below, at_most = (prem[0].holds for prem in windows.values())
        raise ConstructError(
            "second factor degree exceeds 2g*n2" if below else
            "first factor slope exactly 2 needs a non-hyperelliptic curve with "
            "d2 < 2g*n2" if at_most else "first factor slope exceeds 2")
    decisions = []
    for which, factor in (("first", p1), ("second", p2)):
        dec = oracle.decide_untwisted(factor, cc, kind)
        if dec.status is not Status.NONEMPTY or dec.scope is not Scope.THIS_RANK:
            raise ConstructError(f"{which} factor locus is not certified nonempty "
                                 "at its rank")
        decisions.append(dec)
    k = p1.k * p2.k
    params = {"g": g, "kind": kind.value, "cc": cc.value,
              "pair": {"n1": p1.n, "d1": p1.d, "n2": p2.n, "d2": p2.d},
              "ell": 0, "k": k, "k1": p1.k, "k2": p2.k,
              "d1_shifted": p1.d, "d2_shifted": p2.d, "window": window,
              "beta_universal": beta_universal(g, p1.n, p1.d, p2.n, p2.d, k),
              "beta_tensor": beta_tensor(g, p1.n, p1.d, p2.n, p2.d, k)}
    cert = oracle._certify(oracle.RULE_PRODUCT, {
        **params, "inner": [c for dec in decisions for c in dec.certificates]})
    return ProductWitness(
        factor1=p1, factor2=p2, k=k, window=window, factor1_decision=decisions[0],
        factor2_decision=decisions[1], tensor=tensor_problem(g, p1.n, p1.d, p2.n, p2.d, k),
        beta_universal=params["beta_universal"], beta_tensor=params["beta_tensor"],
        certificate=cert)


@dataclass(frozen=True)
class NegativityWitness:
    g: int
    mu1: Rational
    lam1: Rational
    mu2: Rational
    lam2: Rational
    n1: int
    n2: int
    d1: int
    d2: int
    k1: int
    k2: int
    k: int
    beta_universal: int
    bound: int


def _least_root(x: Rational) -> int:
    """The least m >= 1 with m*m >= x."""
    m = isqrt(max(ceil(x), 1))
    return m if m * m >= x else m + 1


# the most work one product negativity scan may do, counted as rank
# levels tried plus ranks listed plus rank pairs visited
MAX_NEGATIVITY_WORK = 1_000_000


def product_negativity_search(g: int, mu1: RationalLike, lam1: RationalLike,
                              mu2: RationalLike, lam2: RationalLike) -> NegativityWitness:
    """Find ranks realizing two slope points whose pair count goes negative.

    Requires mu1 + mu2 < lam1*lam2 + g - 1; the expected count then fails
    quartically in the rank scale while the trivial bound grows only
    quadratically, so the scan terminates.  Its provable cap grows with
    the slopes' denominators and with 1/c, c = lam1*lam2*(lam1*lam2 -
    (mu1 + mu2) + g - 1), so a scan that passes MAX_NEGATIVITY_WORK
    without a witness is refused.
    """
    if g < 2:
        raise ConstructError(f"genus must be at least 2, got {g}")
    mu1, lam1 = as_rational(mu1), as_rational(lam1)
    mu2, lam2 = as_rational(mu2), as_rational(lam2)
    if lam1 <= 0 or lam2 <= 0:
        raise ConstructError("section densities must be positive")
    c = lam1 * lam2 * (lam1 * lam2 - (mu1 + mu2) + (g - 1))
    if mu1 + mu2 >= lam1 * lam2 + g - 1:
        raise ConstructError("negativity criterion fails: "
                             "mu1 + mu2 >= lam1*lam2 + g - 1")
    bound = _least_root(Fraction(2 * g) / c)
    den1 = lcm(mu1.denominator, lam1.denominator)
    den2 = lcm(mu2.denominator, lam2.denominator)
    dmax = max(den1, den2)
    m_guar = _least_root(Fraction(2 * dmax * dmax * (g - 1) + 2) / c)
    cap = max(2, m_guar * dmax) + 1
    work = 0
    for top in range(2, cap + 1):
        opts1 = [n for n in range(den1, top + 1, den1) if n >= 2]
        opts2 = [n for n in range(den2, top + 1, den2) if n >= 2]
        work += 1 + len(opts1) + len(opts2) + len(opts1) * len(opts2)
        if work > MAX_NEGATIVITY_WORK:
            raise ConstructError(
                f"negativity scan needs more than {MAX_NEGATIVITY_WORK} steps of "
                f"work: no witness below rank {top}, provable cap rank {cap}")
        for n1 in opts1:
            for n2 in opts2:
                if max(n1, n2) != top:
                    continue
                d1, d2 = int(mu1 * n1), int(mu2 * n2)
                k1, k2 = int(lam1 * n1), int(lam2 * n2)
                k = k1 * k2
                beta = beta_universal(g, n1, d1, n2, d2, k)
                if beta < 0:
                    return NegativityWitness(
                        g=g, mu1=mu1, lam1=lam1, mu2=mu2, lam2=lam2,
                        n1=n1, n2=n2, d1=d1, d2=d2, k1=k1, k2=k2, k=k,
                        beta_universal=beta, bound=bound)
    raise RuntimeError("negativity scan exhausted its provable cap")


# ---------------------------------------------------------------------------
# the product boundary curve


@lru_cache(maxsize=None)
def _envelope_table(g: int) -> tuple:
    """The envelope F = max(f_g, t_g) as (D, breaks, values, slopes,
    intercepts): D is the lcm of every denominator in F, then come int
    lists of its breakpoints and its values there, and of the slope and
    intercept of each open gap, each times D.  `breaks` is the key list
    queries bisect."""
    env = pw_max(fg_piecewise(g), tg_piecewise(g))
    cols = (env.breaks, env.values, [a for a, _ in env.pieces], [b for _, b in env.pieces])
    den = lcm(*{x.denominator for col in cols for x in col})
    return (den, *([x.numerator * (den // x.denominator) for x in col] for col in cols))


def _bpn_direct(g: int, mu: Rational) -> tuple:
    """Exact sup of F(t)*F(mu - t) over the open window t in (0, min(2, mu)).

    With w = min(2, mu), the grid is {0, w}, the envelope breakpoints b
    with 0 < b < w, and the reflections mu - b of those with
    mu - w < b < mu.  Both slices are bisected out of the envelope
    table's breakpoints, and each factor's pieces are found by walking
    in from an end of its window.  Once the genus's O(g) table exists, a
    query therefore costs O(log g) plus the few breakpoints inside the
    width-2 window.

    Between grid points both factors are affine, so each gap is
    maximized as an exact quadratic (ties toward the smaller t); a
    maximum sitting on an open edge is recorded as a limit
    (attained=False).  Grid points interior to the window contribute
    their true values, a breakpoint's own value where F has one there,
    which is how isolated spikes of F enter.  The best candidate,
    returned as (value, attained, t, F(t), F(mu - t)), has the largest
    (value, attained, -t); among equal keys the leftmost gap wins.

    The walk runs on ints: for mu = p/q and the table's denominator D,
    t = T/M with M = D*q puts every grid point at an int T and every
    value of F at an int over E = D*M; only the winner becomes Fractions.
    """
    p, q = mu.numerator, mu.denominator
    den, xs, ys, slopes, icpts = _envelope_table(g)
    m = den * q
    mu_m = p * den
    w = min(2 * m, mu_m)
    mu_end = bisect_left(xs, -(-mu_m // q))
    pts = {0, w}
    pts.update(x * q for x in xs[1:bisect_left(xs, -(-w // q))])
    pts.update(mu_m - x * q for x in xs[bisect_right(xs, (mu_m - w) // q):mu_end])
    grid = sorted(pts)
    # piece indices: `left` walks rightward over t from the first gap,
    # `right` leftward over mu - t from the gap ending at or past mu
    left, right = 0, mu_end - 1
    # a candidate (v, d, attained, t, l1, l2) stands for the value v/(d*E)**2
    # at t/(d*M) with factors l1/(d*E) and l2/(d*E)
    best: Optional[tuple] = None

    def consider(v: int, d: int, attained: bool, t: int, l1: int, l2: int) -> None:
        nonlocal best
        if best is not None:
            bv, bd, b_attained, bt = best[:4]
            x, y = v * bd * bd, bv * d * d
            if x < y or x == y and (attained, bt * d) <= (b_attained, t * bd):
                return
        best = (v, d, attained, t, l1, l2)

    last = len(grid) - 2
    for k, (lo, hi) in enumerate(zip(grid, grid[1:])):
        # the open gap (lo, hi) holds no breakpoint of either factor
        while xs[left + 1] * q <= lo:
            left += 1
        v = mu_m - lo
        while xs[right] * q >= v:
            right -= 1
        a1, b1 = slopes[left], icpts[left] * m
        a2 = slopes[right]
        c2 = a2 * mu_m + icpts[right] * m
        # F(t) = (a1*T + b1)/E and F(mu - t) = (c2 - a2*T)/E on the gap
        vden = 2 * a1 * a2
        vnum = a1 * c2 - a2 * b1
        if vden > 0 and lo * vden < vnum < hi * vden:
            l1, l2 = a1 * vnum + b1 * vden, c2 * vden - a2 * vnum
            consider(l1 * l2, vden, True, vnum, l1, l2)
        else:
            lo1, lo2 = a1 * lo + b1, c2 - a2 * lo
            hi1, hi2 = a1 * hi + b1, c2 - a2 * hi
            if hi1 * hi2 > lo1 * lo2:
                consider(hi1 * hi2, 1, False, hi, hi1, hi2)
            else:
                consider(lo1 * lo2, 1, False, lo, lo1, lo2)
        if k == last:
            break
        # the grid point hi is interior to the window: each factor takes
        # its breakpoint's value there, or else its gap's affine value
        y = mu_m - hi
        l1 = ys[left + 1] * m if xs[left + 1] * q == hi else a1 * hi + b1
        l2 = ys[right] * m if xs[right] * q == y else c2 - a2 * hi
        consider(l1 * l2, 1, True, hi, l1, l2)
    v, d, attained, t, l1, l2 = best
    de = d * den * m
    return (Fraction(v, de * de), attained, Fraction(t, d * m),
            Fraction(l1, de), Fraction(l2, de))


@dataclass(frozen=True)
class BPNQuery:
    g: int
    mu: Rational
    lam: Optional[Rational]
    boundary: Rational
    attained: bool
    decomposition: tuple[Rational, Rational, Rational, Rational]
    branch: str
    member: Optional[bool] = None


def bpn_boundary(g: int, mu: RationalLike) -> BPNQuery:
    """Boundary value of the product region at slope mu.

    Takes the better of the direct decomposition branch, the sup of
    F(t)*F(mu - t) over t in (0, min(2, mu)), and the Serre reflection
    of the opposite slope; ties go to the direct branch.  The
    decomposition records (mu1, mu2, lam1, lam2) on the branch's own
    side, so for the reflected branch it describes the dual slope.

    The first query at a genus builds the O(g) envelope F as an int
    table; every later query reads only the envelope breakpoints inside
    its window and costs O(log g).
    """
    if g < 2:
        raise DomainError(f"genus must be at least 2, got {g}")
    mu = as_rational(mu)
    if not 0 <= mu <= 2 * g - 2:
        raise DomainError(f"slope {mu} outside [0, {2 * g - 2}]")
    direct = _bpn_direct(g, mu) if mu > 0 else None
    mirror = _bpn_direct(g, 2 * g - 2 - mu) if mu < 2 * g - 2 else None
    shift = mu - (g - 1)
    if mirror is not None and (direct is None or mirror[0] + shift > direct[0]):
        best, side, branch = mirror, 2 * g - 2 - mu, "serre-dual"
    else:
        best, side, branch, shift = direct, mu, "direct", 0
    value, attained, t, lam1, lam2 = best
    return BPNQuery(g=g, mu=mu, lam=None, boundary=value + shift, attained=attained,
                    decomposition=(t, side - t, lam1, lam2), branch=branch)


def bpn_membership(g: int, mu: RationalLike, lam: RationalLike) -> BPNQuery:
    """Closed membership test against the product boundary.

    The region convention is closed (lam equal to the boundary counts as
    inside); whether the boundary value itself arises from an attained
    decomposition is reported separately by the attained flag.
    """
    lam = as_rational(lam)
    query = bpn_boundary(g, mu)
    return replace(query, lam=lam, member=0 < lam <= query.boundary)


# the most grid slopes one scan of (0, 2g-2] may visit
MAX_GRID_SLOPES = 10_000


def grid_slopes(g: int, step: RationalLike) -> list[Rational]:
    """The grid slopes i*step, i = 1, 2, ..., on (0, 2g-2].

    A step that is not positive is refused, and so is one that puts more
    than MAX_GRID_SLOPES slopes there, before any slope is listed.
    """
    step = as_rational(step)
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    count = floor((2 * g - 2) / step)
    if count > MAX_GRID_SLOPES:
        raise ValueError(f"step {step} gives {count} grid slopes on "
                         f"(0, {2 * g - 2}], at most {MAX_GRID_SLOPES} allowed")
    return [i * step for i in range(1, count + 1)]


@dataclass(frozen=True)
class NewPointWitness:
    g: int
    mu: Rational
    boundary: Rational
    t_value: Rational
    f_value: Rational
    margin_t: Rational
    margin_f: Rational
    attained: bool
    decomposition: tuple[Rational, Rational, Rational, Rational]
    branch: str


def bpn_new_points(g: int, step: RationalLike = Fraction(1, 8)) -> list[NewPointWitness]:
    """Grid slopes where the product boundary beats both known regions.

    Scans the grid_slopes of step and returns a witness with exact
    margins wherever the product boundary strictly exceeds the staircase
    and the sawtooth values.  Below genus 5 the product boundary never
    does, so small genera are rejected, and so is a step grid_slopes
    refuses.
    """
    if g < 5:
        raise ValueError(f"the product region only exceeds the known ones "
                         f"from genus 5 on; got g={g}")
    out = []
    for mu in grid_slopes(g, step):
        query = bpn_boundary(g, mu)
        tv, fv = tg_eval(g, mu), fg_eval(g, mu)
        if query.boundary > tv and query.boundary > fv:
            out.append(NewPointWitness(
                g=g, mu=mu, boundary=query.boundary, t_value=tv, f_value=fv,
                margin_t=query.boundary - tv, margin_f=query.boundary - fv,
                attained=query.attained, decomposition=query.decomposition,
                branch=query.branch))
    return out


# ---------------------------------------------------------------------------
# kernel constructions


@dataclass(frozen=True)
class KernelWitness:
    k: int
    n2: int
    d2: int
    k_max: int
    base_decision: Decision
    beta_universal: int
    # the KernelConstruction certificate, the base's ones under "inner"
    certificate: Certificate


def _check_kernel_base(n1: int, k1: int, n: int) -> None:
    """Refuse a kernel family whose base or generator rank is out of range."""
    if n1 < 2:
        raise ConstructError(f"base rank must be at least 2, got {n1}")
    if k1 <= n1:
        raise ConstructError(f"base section count {k1} must exceed the base rank {n1}")
    if n < 1:
        raise ConstructError(f"generator rank must be positive, got {n}")


def kernel_construct(g: int, n1: int, d1: int, k1: int, n: int, d: int, k: int,
                     cc: CurveClass = CurveClass.ANY_SMOOTH,
                     kind: StabilityKind = StabilityKind.STABLE) -> KernelWitness:
    """Certify the pair locus via a kernel of a twisted evaluation map.

    The second member of the pair is forced to (n2, d2) = (d - ng, -d).
    The KernelConstruction judge certifies the pair: the twist degree must
    reach the window d >= 2ng, then the base locus must be decided
    nonempty at its rank, then k must fit under the kernel budget.
    """
    _check_kernel_base(n1, k1, n)
    n2, d2 = d - n * g, -d
    # the last kernel premise is the twist window
    if not oracle.kernel_premises(g, n, d, n2, d2, cc, kind)[-1].holds:
        if kind is StabilityKind.STABLE:
            raise ConstructError(f"twist degree {d} must exceed 2ng = {2 * n * g} "
                                 "(equality needs a non-hyperelliptic curve)")
        raise ConstructError(f"twist degree {d} must be at least 2ng = {2 * n * g}")
    base = oracle.decide_untwisted(BNProblem(g, n1, d1, k1), cc, kind)
    if base.status is not Status.NONEMPTY or base.scope is not Scope.THIS_RANK:
        raise ConstructError("base locus is not certified nonempty at its rank")
    # the judge's budget premise fails too, but with the budget's text
    if k <= 0:
        raise ConstructError(f"section count must be positive, got {k}")
    params = {"g": g, "kind": kind.value, "cc": cc.value,
              "n1": n1, "d1": d1, "k1": k1, "n": n, "d": d, "k": k, "n2": n2, "d2": d2,
              "k_max": kernel_budget(g, n1, d1, k1, n, d),
              "beta_universal": beta_universal(g, n1, d1, n2, d2, k)}
    cert = oracle._certify(oracle.RULE_KERNEL, {**params, "inner": list(base.certificates)})
    if cert is None:
        # only k <= k_max can still fail
        raise ConstructError(f"section count {k} exceeds the kernel budget "
                             f"k_max = {params['k_max']}")
    return KernelWitness(
        k=k, n2=n2, d2=d2, k_max=params["k_max"], base_decision=base,
        beta_universal=params["beta_universal"], certificate=cert)


def kernel_beta_quadratic(g: int, n1: int, d1: int, k1: int, n: int,
                          e: int) -> Quadratic:
    """Expected pair count along the kernel family, as a quadratic in d.

    The family fixes the base (n1, d1, k1) and generator rank n, letting
    the twist degree d vary; the demanded section count is k(d) = w*d - e
    with w = k1 - n1; the full budget is e = n*(w*(g-1) + d1).
    """
    if g < 2:
        raise ConstructError(f"genus must be at least 2, got {g}")
    _check_kernel_base(n1, k1, n)
    w = k1 - n1
    c1 = d1 - n1 * g
    c0 = n * g * (n1 * (g - 1) - d1)
    a = (g - 1) - w * (w - c1)
    b = -2 * n * g * (g - 1) + w * (e + c0) + e * (w - c1)
    c = n1 * n1 * (g - 1) + 2 + n * n * g * g * (g - 1) - e * (e + c0)
    return Quadratic(a, b, c)


@dataclass(frozen=True)
class KernelNegativityWitness:
    g: int
    n1: int
    d1: int
    k1: int
    n: int
    e: int
    quadratic: Quadratic
    d_min: int
    beta: int
    k: int
    scan_start: int
    scan_stop: int


def kernel_negativity_min_d(g: int, n1: int, d1: int, k1: int, n: int, e: int,
                            cc: CurveClass = CurveClass.ANY_SMOOTH) -> KernelNegativityWitness:
    """First admissible twist degree where the kernel family count is negative.

    Requires the section family to fit under the budget for every degree
    (e large enough) and the quadratic's leading coefficient to be
    negative, which pins down the base degree window.  The degree comes
    from the quadratic's larger root in O(1) integer steps; scan_start is
    the first admissible degree and scan_stop a root bound past which the
    count stays negative.
    """
    w = k1 - n1
    quad = kernel_beta_quadratic(g, n1, d1, k1, n, e)
    e_min = n * (w * (g - 1) + d1)
    if e < e_min:
        raise ConstructError(f"family parameter e = {e} must be at least "
                             f"n*(w*(g-1) + d1) = {e_min}")
    lead_cap = k1 + n1 * (g - 1) - Fraction(g - 1, w)
    if d1 >= lead_cap:
        raise ConstructError(f"leading coefficient is nonnegative: need "
                             f"d1 < k1 + n1*(g-1) - (g-1)/(k1-n1) = {lead_cap}")
    window_start = 2 * n * g + (0 if oracle.implies_nonhyperelliptic(cc, g) else 1)
    start = max(window_start, e // w + 1)
    stop = ceil(Fraction(abs(quad.b) + abs(quad.c), abs(quad.a))) + 1
    d = start
    if quad(start) >= 0:
        # start lies between the roots, so the answer is the least integer
        # above the larger root (b + sqrt(D)) / (2|a|); for integer
        # coefficients the floor of that root is exact with isqrt(D) in
        # place of sqrt(D)
        a, b, c = int(quad.a), int(quad.b), int(quad.c)
        d = (b + isqrt(b * b - 4 * a * c)) // (-2 * a) + 1
    return KernelNegativityWitness(
        g=g, n1=n1, d1=d1, k1=k1, n=n, e=e, quadratic=quad,
        d_min=d, beta=int(quad(d)), k=w * d - e,
        scan_start=start, scan_stop=stop)


# ---------------------------------------------------------------------------
# admissible-degree enumeration


def c6_enumerate(g: int, n1: int, k1: int) -> list[int]:
    """Base degrees admissible for the negative-count kernel family.

    The window combines the budget constraint from below and the leading
    coefficient constraint from above; degrees divisible by n1 are
    excluded.  In genus 2 the window is always empty, so it is rejected.
    """
    if g == 2:
        raise ConstructError("no admissible base degrees exist in genus 2")
    if g < 2:
        raise ConstructError(f"genus must be at least 2, got {g}")
    if n1 < 2:
        raise ConstructError(f"base rank must be at least 2, got {n1}")
    if not n1 < k1 <= n1 * (g - 1):
        raise ConstructError(f"need n1 < k1 <= n1*(g-1), got k1 = {k1}")
    s = ceil(Fraction(k1, n1))
    lo = k1 + n1 * (g - 1) - n1 * ((g - 1) // s)
    hi = k1 + n1 * (g - 1) - Fraction(g - 1, k1 - n1)
    return [d1 for d1 in range(lo, ceil(hi)) if d1 % n1 != 0]
