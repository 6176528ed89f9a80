from __future__ import annotations

import random
import re
import sys
from collections import Counter
from bisect import bisect_right
from dataclasses import dataclass, replace
from fractions import Fraction as Q
from functools import lru_cache
from math import ceil, lcm
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnloci import construct, oracle
from bnloci.bncore import BNProblem, beta_tensor, beta_universal, kernel_budget, tensor_problem
from bnloci.construct import (
    MAX_GRID_SLOPES,
    MAX_NEGATIVITY_WORK,
    KernelNegativityWitness,
    NegativityWitness,
    BPNQuery,
    ConstructError,
    bpn_boundary,
    bpn_membership,
    bpn_new_points,
    c6_enumerate,
    grid_slopes,
    kernel_beta_quadratic,
    kernel_construct,
    kernel_negativity_min_d,
    product_construct,
    product_negativity_search,
)
from bnloci.exactq import (
    MAX_DIGITS,
    DomainError,
    PiecewiseFn,
    Quadratic,
    Rational,
    RationalLike,
    as_rational,
    pw_max,
    too_long,
)
from bnloci.oracle import (CurveClass, Decision, Scope, Status, verify_certificate,
                           verify_decision)
from bnloci.regions import StabilityKind, fg_eval, fg_piecewise, tg_eval, tg_piecewise
from timing import time_limit

STABLE = StabilityKind.STABLE
SEMI = StabilityKind.SEMISTABLE
ANY = CurveClass.ANY_SMOOTH
NONHYP = CurveClass.NON_HYPERELLIPTIC


def envelope(g: int, x: Q) -> Q:
    """Pointwise best of the staircase and sawtooth bounds."""
    return max(tg_eval(g, x), fg_eval(g, x))


# ---------------------------------------------------------------------------
# products


def test_product_standard_window():
    w = product_construct(6, BNProblem(6, 2, 3, 2), BNProblem(6, 2, 3, 2))
    assert w.window == "standard"
    assert w.k == 4
    assert w.beta_universal == -6
    assert w.beta_tensor == 33
    assert w.tensor == BNProblem(6, 4, 12, 4)
    assert w.factor1_decision.status is Status.NONEMPTY


def test_product_relaxed_window_needs_nonhyperelliptic():
    w = product_construct(6, BNProblem(6, 2, 4, 2), BNProblem(6, 2, 3, 2), NONHYP)
    assert w.window == "relaxed"
    assert w.k == 4
    with pytest.raises(ConstructError, match="non-hyperelliptic"):
        product_construct(6, BNProblem(6, 2, 4, 2), BNProblem(6, 2, 3, 2), ANY)


def test_product_semistable_example():
    w = product_construct(5, BNProblem(5, 6, 11, 7), BNProblem(5, 7, 12, 8),
                          ANY, SEMI)
    assert w.k == 56
    assert w.tensor == BNProblem(5, 42, 149, 56)
    assert w.beta_tensor == 2857


def test_product_genus_two_example():
    w = product_construct(2, BNProblem(2, 4, 2, 3), BNProblem(2, 4, 2, 3))
    assert w.k == 9
    assert w.beta_universal == -47


def test_product_rejections():
    with pytest.raises(ConstructError, match="same genus"):
        product_construct(6, BNProblem(5, 2, 3, 2), BNProblem(6, 2, 3, 2))
    with pytest.raises(ConstructError, match="at least 2"):
        product_construct(6, BNProblem(6, 1, 1, 1), BNProblem(6, 2, 3, 2))
    with pytest.raises(ConstructError, match="positive"):
        product_construct(6, BNProblem(6, 2, 3, 0), BNProblem(6, 2, 3, 2))
    with pytest.raises(ConstructError, match="slope exceeds 2"):
        product_construct(6, BNProblem(6, 2, 5, 2), BNProblem(6, 2, 3, 2))
    with pytest.raises(ConstructError, match="exceeds 2g"):
        product_construct(6, BNProblem(6, 2, 3, 2), BNProblem(6, 2, 25, 2))
    with pytest.raises(ConstructError, match="not certified nonempty"):
        product_construct(6, BNProblem(6, 2, 1, 3), BNProblem(6, 2, 3, 2))


def test_negativity_search_examples():
    w = product_negativity_search(6, Q(3, 2), 1, Q(3, 2), 1)
    assert (w.n1, w.n2) == (2, 2)
    assert (w.d1, w.d2, w.k1, w.k2, w.k) == (3, 3, 2, 2, 4)
    assert w.beta_universal == -6
    assert w.bound == 2

    w2 = product_negativity_search(2, Q(1, 2), Q(3, 4), Q(1, 2), Q(3, 4))
    assert (w2.n1, w2.n2) == (4, 4)
    assert w2.beta_universal == -47
    assert w2.bound == 4


def test_negativity_search_rejections():
    with pytest.raises(ConstructError, match="criterion fails"):
        product_negativity_search(2, 1, 1, 1, 1)
    with pytest.raises(ConstructError, match="positive"):
        product_negativity_search(6, Q(3, 2), 0, Q(3, 2), 1)
    with pytest.raises(ConstructError, match="genus"):
        product_negativity_search(1, Q(1, 2), 1, Q(1, 2), 1)


@pytest.mark.parametrize("g,mu1,lam1,mu2,lam2", [
    (6, Q(3, 2), 1, Q(3, 2), 1),
    (2, Q(1, 2), Q(3, 4), Q(1, 2), Q(3, 4)),
    (5, Q(5, 3), Q(4, 3), 1, 1),
    (3, 2, 2, 1, 1),
])
def test_negativity_witness_is_consistent(g, mu1, lam1, mu2, lam2):
    w = product_negativity_search(g, mu1, lam1, mu2, lam2)
    assert w.d1 == mu1 * w.n1 and w.d2 == mu2 * w.n2
    assert w.k1 == lam1 * w.n1 and w.k2 == lam2 * w.n2
    assert w.k == w.k1 * w.k2
    assert w.beta_universal == beta_universal(g, w.n1, w.d1, w.n2, w.d2, w.k)
    assert w.beta_universal < 0


def _ref_product_negativity_search(g, mu1, lam1, mu2, lam2) -> NegativityWitness:
    """The unbounded scan, with its square roots found by counting up."""
    mu1, lam1 = as_rational(mu1), as_rational(lam1)
    mu2, lam2 = as_rational(mu2), as_rational(lam2)
    c = lam1 * lam2 * (lam1 * lam2 - (mu1 + mu2) + (g - 1))
    bound = 1
    while bound * bound < Q(2 * g) / c:
        bound += 1
    den1 = lcm(mu1.denominator, lam1.denominator)
    den2 = lcm(mu2.denominator, lam2.denominator)
    dmax = max(den1, den2)
    target = Q(2 * dmax * dmax * (g - 1) + 2) / c
    m_guar = 1
    while m_guar * m_guar < target:
        m_guar += 1
    cap = max(2, m_guar * dmax) + 1
    for top in range(2, cap + 1):
        opts1 = [n for n in range(den1, top + 1, den1) if n >= 2]
        opts2 = [n for n in range(den2, top + 1, den2) if n >= 2]
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


def _random_negativity_inputs(seed: int, count: int) -> list[tuple]:
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        g = rng.randint(2, 12)
        mu1 = Q(rng.randint(0, 12), rng.choice((1, 2, 3, 4, 5)))
        mu2 = Q(rng.randint(0, 12), rng.choice((1, 2, 3, 4, 5)))
        lam1 = Q(rng.randint(1, 6), rng.choice((1, 2, 3)))
        lam2 = Q(rng.randint(1, 6), rng.choice((1, 2, 3)))
        if mu1 + mu2 < lam1 * lam2 + g - 1:
            out.append((g, mu1, lam1, mu2, lam2))
    return out


def test_negativity_search_matches_unbounded_scan_on_seeded_set():
    for args in _random_negativity_inputs(8, 400):
        assert product_negativity_search(*args) == _ref_product_negativity_search(*args)


def test_negativity_search_refuses_past_its_work_limit():
    # c = 10^-6 puts the provable cap near rank 3*10^15
    with time_limit(10):
        with pytest.raises(ConstructError, match=f"more than {MAX_NEGATIVITY_WORK} steps"):
            product_negativity_search(6, Q(2999999, 1000000), 1, 3, 1)


# ---------------------------------------------------------------------------
# the product boundary curve


def test_bpn_boundary_frozen_values():
    q = bpn_boundary(10, 3)
    assert q.boundary == Q(441, 400)
    assert q.attained and q.branch == "direct"
    assert q.decomposition == (Q(3, 2), Q(3, 2), Q(21, 20), Q(21, 20))

    dual = bpn_boundary(10, 15)
    assert dual.boundary == Q(2841, 400)
    assert dual.attained and dual.branch == "serre-dual"

    assert bpn_boundary(10, 0).boundary == 0
    assert bpn_boundary(10, 18).boundary == 9


def test_bpn_boundary_domain():
    with pytest.raises(DomainError):
        bpn_boundary(10, -1)
    with pytest.raises(DomainError):
        bpn_boundary(10, Q(37, 2))
    with pytest.raises(DomainError):
        bpn_boundary(1, 0)


def test_bpn_membership_is_closed():
    assert bpn_membership(10, 3, Q(441, 400)).member is True
    assert bpn_membership(10, 3, Q(111, 100)).member is False
    assert bpn_membership(10, 3, 1).member is True
    assert bpn_membership(10, 3, 0).member is False


@pytest.mark.parametrize("g", [5, 7, 10])
def test_bpn_serre_reflection(g):
    top = 2 * g - 2
    for i in range(0, 8 * top + 1):
        mu = Q(i, 8)
        assert bpn_boundary(g, top - mu).boundary == \
            bpn_boundary(g, mu).boundary - mu + (g - 1)


@pytest.mark.parametrize("mu", [Q(1, 2), 1, Q(3, 2), 2, Q(9, 4), 3, Q(7, 2), 4, 5])
def test_bpn_dominates_brute_grid(mu):
    g = 10
    q = bpn_boundary(g, mu)
    hi = min(Q(2), mu)
    best = Q(0)
    for i in range(1, int(64 * hi)):
        t = Q(i, 64)
        if not 0 < mu - t < 2 * g - 2:
            continue
        best = max(best, envelope(g, t) * envelope(g, mu - t))
    assert best <= q.boundary


@pytest.mark.parametrize("mu", [Q(1, 2), 1, Q(3, 2), 3, Q(7, 2), 15, Q(35, 2)])
def test_bpn_attained_decomposition_recomputes(mu):
    g = 10
    q = bpn_boundary(g, mu)
    assert q.attained
    t1, t2, lam1, lam2 = q.decomposition
    assert lam1 == envelope(g, t1) and lam2 == envelope(g, t2)
    if q.branch == "direct":
        assert t1 + t2 == mu
        assert q.boundary == lam1 * lam2
    else:
        assert t1 + t2 == 2 * g - 2 - mu
        assert q.boundary == lam1 * lam2 + mu - (g - 1)


def test_bpn_new_points_examples():
    points = {w.mu: w for w in bpn_new_points(10)}
    w = points[Q(3)]
    assert w.boundary == Q(441, 400)
    assert (w.t_value, w.f_value) == (1, Q(11, 10))
    assert (w.margin_t, w.margin_f) == (Q(41, 400), Q(1, 400))
    with pytest.raises(ValueError, match="genus 5"):
        bpn_new_points(4)
    with pytest.raises(ValueError, match="step"):
        bpn_new_points(10, 0)


# reference: the full-breakpoint scan that bpn_boundary replaced, kept
# as an oracle with its own quadratic maximiser; it reads every envelope
# breakpoint per slope and walks them in Fractions


@dataclass(frozen=True)
class _DirectBest:
    value: Rational
    attained: bool
    t: Rational
    lam1: Rational
    lam2: Rational


def _affine_on(fn: PiecewiseFn, lo: Rational, hi: Rational) -> tuple[Rational, Rational]:
    # the piece of the open gap holding (lo, hi)
    return fn.pieces[bisect_right(fn.breaks, (lo + hi) / 2) - 1]


def _affine_product(a1: Rational, b1: Rational, a2: Rational, b2: Rational) -> Quadratic:
    """The quadratic (a1*t + b1)*(a2*t + b2)."""
    return Quadratic(a1 * a2, a1 * b2 + a2 * b1, b1 * b2)


def _quad_max_on_interval(q: Quadratic, lo: Rational, hi: Rational) -> tuple[Rational, Rational]:
    """Exact maximiser (argmax, max) of q on the closed interval [lo, hi].

    For concave q with interior vertex the vertex wins; otherwise the
    better endpoint does.  Ties go to the smaller argument.
    """
    candidates = [lo, hi]
    if q.a < 0:
        vertex = -q.b / (2 * q.a)
        if lo < vertex < hi:
            candidates.append(vertex)
    best_t = None
    best_v = None
    for t in candidates:
        v = q(t)
        if best_v is None or v > best_v or (v == best_v and t < best_t):
            best_t, best_v = t, v
    return best_t, best_v


@given(st.fractions(min_value=-5, max_value=5, max_denominator=8),
       st.fractions(min_value=-5, max_value=5, max_denominator=8),
       st.fractions(min_value=-5, max_value=5, max_denominator=8))
def test_quad_max_dominates_brute_scan(a, b, c):
    q = Quadratic(a, b, c)
    lo, hi = Q(-2), Q(3)
    argmax, val = _quad_max_on_interval(q, lo, hi)
    assert q(argmax) == val
    step = Q(hi - lo, 1024)
    for i in range(1025):
        x = lo + i * step
        # nothing left of the maximiser ties with it
        assert q(x) < val if x < argmax else q(x) <= val


@lru_cache(maxsize=None)
def _ref_envelope(g: int) -> PiecewiseFn:
    return pw_max(fg_piecewise(g), tg_piecewise(g))


def _ref_bpn_direct(g: int, mu: Rational) -> Optional[_DirectBest]:
    w_hi = min(Q(2), mu)
    if w_hi <= 0:
        return None
    env = _ref_envelope(g)
    pts = {Q(0), w_hi}
    for b in env.breaks:
        if 0 < b < w_hi:
            pts.add(b)
        rb = mu - b
        if 0 < rb < w_hi:
            pts.add(rb)
    grid = sorted(pts)
    best: Optional[_DirectBest] = None

    def consider(cand: _DirectBest) -> None:
        nonlocal best
        if best is None or (cand.value, cand.attained, -cand.t) > (
                best.value, best.attained, -best.t):
            best = cand

    for x in grid[1:-1]:
        v1, v2 = env(x), env(mu - x)
        consider(_DirectBest(v1 * v2, True, x, v1, v2))
    for lo, hi in zip(grid, grid[1:]):
        s1, i1 = _affine_on(env, lo, hi)
        s2, i2 = _affine_on(env, mu - hi, mu - lo)
        quad = _affine_product(s1, i1, -s2, s2 * mu + i2)
        t_hat, val = _quad_max_on_interval(quad, lo, hi)
        consider(_DirectBest(val, lo < t_hat < hi, t_hat,
                             s1 * t_hat + i1, -s2 * t_hat + s2 * mu + i2))
    return best


def _ref_bpn_boundary(g: int, mu: RationalLike) -> BPNQuery:
    if g < 2:
        raise DomainError(f"genus must be at least 2, got {g}")
    mu = as_rational(mu)
    if not 0 <= mu <= 2 * g - 2:
        raise DomainError(f"slope {mu} outside [0, {2 * g - 2}]")
    direct = _ref_bpn_direct(g, mu) if mu > 0 else None
    mirror = _ref_bpn_direct(g, 2 * g - 2 - mu) if mu < 2 * g - 2 else None
    choices = []
    if direct is not None:
        choices.append(BPNQuery(
            g=g, mu=mu, lam=None, boundary=direct.value, attained=direct.attained,
            decomposition=(direct.t, mu - direct.t, direct.lam1, direct.lam2),
            branch="direct"))
    if mirror is not None:
        dual_mu = 2 * g - 2 - mu
        choices.append(BPNQuery(
            g=g, mu=mu, lam=None, boundary=mirror.value + mu - (g - 1),
            attained=mirror.attained,
            decomposition=(mirror.t, dual_mu - mirror.t, mirror.lam1, mirror.lam2),
            branch="serre-dual"))
    best = choices[0]
    for cand in choices[1:]:
        if cand.boundary > best.boundary:
            best = cand
    return best


def _assert_matches_reference(g: int, slopes) -> None:
    # repr, unlike ==, also tells an int from an equal Fraction; a slope
    # of d digits gives answers of up to about 2d, which repr refuses past
    # Python's int-to-text limit unless it is lifted
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        for mu in slopes:
            assert repr(bpn_boundary(g, mu)) == repr(_ref_bpn_boundary(g, mu))
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("g", [*range(2, 13), 20, 40])
def test_bpn_matches_full_scan_on_eighth_grid(g):
    _assert_matches_reference(g, [Q(i, 8) for i in range(8 * (2 * g - 2) + 1)])


@pytest.mark.parametrize("g", range(5, 13))
def test_bpn_matches_full_scan_on_tie_prone_slopes(g):
    # denominators where gap vertices, grid points and breakpoints meet;
    # a fixed stride keeps about 100 slopes per genus off the 1/8 grid
    dens = {*range(1, 13), g - 1, g, 2 * g, 3 * g, 24, 60}
    slopes = sorted({Q(p, q) for q in dens for p in range(q * (2 * g - 2) + 1)}
                    - {Q(i, 8) for i in range(8 * (2 * g - 2) + 1)})
    stride = len(slopes) // 100
    _assert_matches_reference(g, slopes[g % stride::stride])


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=2, max_value=40), st.data())
def test_bpn_matches_full_scan_on_random_slopes(g, data):
    q = data.draw(st.integers(min_value=1, max_value=3 * g)
                  | st.integers(min_value=1, max_value=10**6))
    p = data.draw(st.integers(min_value=0, max_value=q * (2 * g - 2)))
    _assert_matches_reference(g, [Q(p, q)])


@pytest.mark.parametrize("g", [2, 5, 10, 40])
def test_bpn_matches_full_scan_at_window_edges(g):
    # slopes in (0, 2), where the window is (0, mu), the slopes 2 and
    # 2g - 2, and a step 1/q to either side of every envelope breakpoint
    top = 2 * g - 2
    slopes = {Q(1, 10**6), Q(1, 3), Q(5, 7), Q(19, 10), Q(2), Q(top)}
    for q in (7, 10**6 + 3):
        slopes.update(b + s * Q(1, q) for b in _ref_envelope(g).breaks for s in (-1, 1))
    _assert_matches_reference(g, sorted(mu for mu in slopes if 0 <= mu <= top))


@pytest.mark.parametrize("digits", [1000, 2500, 4000])
def test_bpn_matches_full_scan_on_long_denominators(digits):
    rng = random.Random(digits)
    q = rng.randrange(10 ** (digits - 1), 10 ** digits)
    for g in (10, 40):
        top = 2 * g - 2
        _assert_matches_reference(g, [Q(rng.randrange(q * top), q), Q(q - 1, q),
                                      Q(3 * q + 1, q), top - Q(1, q)])


class _WindowOnly(list):
    """A table list that can be bisected, indexed and sliced but not walked whole."""

    def __iter__(self):
        raise AssertionError("a slope query walked the full key list")


def test_warm_bpn_query_reads_no_full_breakpoint_list(monkeypatch):
    # every list of the table: breakpoints, values, slopes and intercepts
    den, *cols = construct._envelope_table(40)
    assert len(cols) == 4
    monkeypatch.setattr(construct, "_envelope_table",
                        lambda g: (den, *map(_WindowOnly, cols)))
    for i in range(1, 51):
        assert bpn_boundary(40, Q(31 * i, 20)).boundary > 0


def test_tops_and_envelope_list_each_breakpoint_once():
    for g in (*range(2, 41), 100, 1000):
        _, breaks, values, slopes, icpts = construct._envelope_table(g)
        for keys in (tg_piecewise(g).breaks, fg_piecewise(g).breaks,
                     _ref_envelope(g).breaks, breaks):
            assert len(set(keys)) == len(keys)
        assert len(values) == len(slopes) + 1 == len(icpts) + 1 == len(breaks)
    # 79 breakpoints at g = 40; listing each cut twice would give 157
    assert len(construct._envelope_table(40)[1]) == 79


def test_grid_slopes_walk_the_step_grid():
    assert grid_slopes(3, Q(3, 2)) == [Q(3, 2), Q(3)]
    assert grid_slopes(3, "4") == [Q(4)]
    assert grid_slopes(3, 5) == []


def test_bpn_new_points_bounds_the_grid(monkeypatch):
    with pytest.raises(ValueError, match=f"at most {MAX_GRID_SLOPES} "):
        bpn_new_points(10, Q(1, 1000000))
    monkeypatch.setattr(construct, "MAX_GRID_SLOPES", 36)
    assert bpn_new_points(10, Q(1, 2))
    with pytest.raises(ValueError, match="step 1/3 gives 54 grid slopes"):
        bpn_new_points(10, Q(1, 3))


# ---------------------------------------------------------------------------
# kernels


def test_kernel_k_max_values():
    assert kernel_budget(4, 2, 11, 6, 1, 11) == 21
    assert kernel_budget(4, 2, 11, 6, 1, 8) == 9


def test_kernel_construct_example():
    w = kernel_construct(4, 2, 11, 6, 1, 11, 21)
    assert (w.n2, w.d2) == (7, -11)
    assert w.k_max == 21
    assert w.beta_universal == -7
    assert [c.rule for c in w.base_decision.certificates] == ["RegionT", "SerreDualOf"]


def test_kernel_window_rules():
    # stable at d = 2ng needs a non-hyperelliptic curve
    with pytest.raises(ConstructError, match="non-hyperelliptic"):
        kernel_construct(4, 2, 11, 6, 1, 8, 9)
    assert kernel_construct(4, 2, 11, 6, 1, 8, 9, NONHYP).k_max == 9
    # semistable admits equality outright but nothing below it
    assert kernel_construct(4, 2, 11, 6, 1, 8, 9, ANY, SEMI).k_max == 9
    with pytest.raises(ConstructError, match="at least 2ng"):
        kernel_construct(4, 2, 11, 6, 1, 7, 5, ANY, SEMI)


def test_kernel_construct_rejections():
    with pytest.raises(ConstructError, match="base rank"):
        kernel_construct(4, 1, 11, 6, 1, 11, 5)
    with pytest.raises(ConstructError, match="exceed the base rank"):
        kernel_construct(4, 2, 11, 2, 1, 11, 5)
    with pytest.raises(ConstructError, match="generator rank"):
        kernel_construct(4, 2, 11, 6, 0, 11, 5)
    with pytest.raises(ConstructError, match="budget"):
        kernel_construct(4, 2, 11, 6, 1, 11, 22)
    with pytest.raises(ConstructError, match="positive"):
        kernel_construct(4, 2, 11, 6, 1, 11, 0)
    with pytest.raises(ConstructError, match="not certified"):
        kernel_construct(4, 2, 11, 7, 1, 11, 5)


def test_kernel_quadratic_coefficients():
    quad = kernel_beta_quadratic(4, 2, 11, 6, 1, 23)
    assert (quad.a, quad.b, quad.c) == (-1, 11, -7)
    assert quad(9) == 11 and quad(10) == 3 and quad(11) == -7


def test_kernel_quadratic_matches_universal_count():
    # the closed form tracks the pair count along the full-budget family
    quad = kernel_beta_quadratic(4, 2, 11, 6, 1, 23)
    for d in range(9, 51):
        k = 4 * d - 23
        assert quad(d) == beta_universal(4, 2, 11, d - 4, -d, k)


def test_kernel_budget_monotone_in_degree():
    values = [kernel_budget(4, 2, 11, 6, 1, d) for d in range(8, 40)]
    assert all(b - a == 4 for a, b in zip(values, values[1:]))


def test_kernel_negativity_example():
    w = kernel_negativity_min_d(4, 2, 11, 6, 1, 23)
    assert (w.d_min, w.beta, w.k) == (11, -7, 21)
    assert (w.scan_start, w.scan_stop) == (9, 19)
    assert (w.quadratic.a, w.quadratic.b, w.quadratic.c) == (-1, 11, -7)
    # a non-hyperelliptic curve opens the boundary degree, same minimum
    w2 = kernel_negativity_min_d(4, 2, 11, 6, 1, 23, NONHYP)
    assert (w2.d_min, w2.scan_start) == (11, 8)


def _ref_kernel_negativity_min_d(g, n1, d1, k1, n, e, cc=ANY) -> KernelNegativityWitness:
    """The degree-by-degree scan from the first admissible degree."""
    w = k1 - n1
    quad = kernel_beta_quadratic(g, n1, d1, k1, n, e)
    window_start = 2 * n * g + (0 if oracle.implies_nonhyperelliptic(cc, g) else 1)
    start = max(window_start, e // w + 1)
    stop = ceil(Q(abs(quad.b) + abs(quad.c), abs(quad.a))) + 1
    for d in range(start, max(start, stop) + 1):
        val = quad(d)
        if val < 0:
            return KernelNegativityWitness(
                g=g, n1=n1, d1=d1, k1=k1, n=n, e=e, quadratic=quad,
                d_min=d, beta=int(val), k=w * d - e,
                scan_start=start, scan_stop=stop)
    raise RuntimeError("negativity scan passed the root bound without a hit")


def test_kernel_negativity_matches_scan_on_seeded_set():
    rng = random.Random(11)
    checked = 0
    while checked < 1500:
        g = rng.randint(3, 12)
        n1 = rng.randint(2, 6)
        k1 = n1 + rng.randint(1, n1 * (g - 2))
        d1 = rng.randint(0, k1 + n1 * (g - 1))
        n = rng.randint(1, 3)
        e = n * ((k1 - n1) * (g - 1) + d1) + rng.choice((0, 1, 5, 40, 300, 3000))
        cc = rng.choice((ANY, NONHYP))
        try:
            got = kernel_negativity_min_d(g, n1, d1, k1, n, e, cc)
        except ConstructError:
            continue
        assert got == _ref_kernel_negativity_min_d(g, n1, d1, k1, n, e, cc)
        checked += 1


def test_kernel_negativity_answers_large_family_at_once():
    # the scan would walk about 4.5*10^8 degrees
    with time_limit(10):
        w = kernel_negativity_min_d(4, 2, 11, 6, 1, 100_000_000)
    assert (w.d_min, w.beta, w.k) == (479128681, -286182523, 1816514724)
    assert w.quadratic(w.d_min) < 0 <= w.quadratic(w.d_min - 1)


def test_kernel_negativity_rejections():
    with pytest.raises(ConstructError, match="at least"):
        kernel_negativity_min_d(4, 2, 11, 6, 1, 22)
    with pytest.raises(ConstructError, match="leading coefficient"):
        kernel_negativity_min_d(4, 2, 13, 6, 1, 25)


# ---------------------------------------------------------------------------
# the product and kernel precondition chains, as they stood before both
# constructions certified through their judges: the reference for the
# witness fields and refusal texts


def _ref_product_construct(g, p1, p2, cc=ANY, kind=STABLE) -> dict:
    if p1.g != g or p2.g != g:
        raise ConstructError("factor problems must live on the same genus-g curve")
    if p1.n < 2 or p2.n < 2:
        raise ConstructError("factor ranks must both be at least 2")
    if p1.d < 1 or p2.d < 1 or p1.k < 1 or p2.k < 1:
        raise ConstructError("factor degrees and section counts must be positive")
    if too_long(2 * p1.n) or too_long(2 * g * p2.n):
        raise ConstructError(f"slope window bound 2*n1 or 2*g*n2 has more than "
                             f"{MAX_DIGITS} digits, more than can be printed")
    if p1.d < 2 * p1.n and p2.d <= 2 * g * p2.n:
        window = "standard"
    elif (p1.d <= 2 * p1.n and p2.d < 2 * g * p2.n
          and oracle.implies_nonhyperelliptic(cc, g)):
        window = "relaxed"
    elif p1.d > 2 * p1.n:
        raise ConstructError("first factor slope exceeds 2")
    elif p1.d == 2 * p1.n:
        raise ConstructError("first factor slope exactly 2 needs a "
                             "non-hyperelliptic curve with d2 < 2g*n2")
    else:
        raise ConstructError("second factor degree exceeds 2g*n2")
    dec1 = oracle.decide_untwisted(p1, cc, kind)
    if dec1.status is not Status.NONEMPTY or dec1.scope is not Scope.THIS_RANK:
        raise ConstructError("first factor locus is not certified nonempty at its rank")
    dec2 = oracle.decide_untwisted(p2, cc, kind)
    if dec2.status is not Status.NONEMPTY or dec2.scope is not Scope.THIS_RANK:
        raise ConstructError("second factor locus is not certified nonempty at its rank")
    k = p1.k * p2.k
    return dict(
        factor1=p1, factor2=p2, k=k, window=window,
        factor1_decision=dec1, factor2_decision=dec2,
        tensor=tensor_problem(g, p1.n, p1.d, p2.n, p2.d, k),
        beta_universal=beta_universal(g, p1.n, p1.d, p2.n, p2.d, k),
        beta_tensor=beta_tensor(g, p1.n, p1.d, p2.n, p2.d, k))


def _ref_kernel_construct(g, n1, d1, k1, n, d, k, cc=ANY, kind=STABLE) -> dict:
    if n1 < 2:
        raise ConstructError(f"base rank must be at least 2, got {n1}")
    if k1 <= n1:
        raise ConstructError(f"base section count {k1} must exceed the base rank {n1}")
    if n < 1:
        raise ConstructError(f"generator rank must be positive, got {n}")
    if kind is STABLE:
        if not (d > 2 * n * g or d == 2 * n * g and oracle.implies_nonhyperelliptic(cc, g)):
            raise ConstructError(f"twist degree {d} must exceed 2ng = {2 * n * g} "
                                 "(equality needs a non-hyperelliptic curve)")
    elif d < 2 * n * g:
        raise ConstructError(f"twist degree {d} must be at least 2ng = {2 * n * g}")
    base = oracle.decide_untwisted(BNProblem(g, n1, d1, k1), cc, kind)
    if base.status is not Status.NONEMPTY or base.scope is not Scope.THIS_RANK:
        raise ConstructError("base locus is not certified nonempty at its rank")
    budget = (d - n * (g - 1)) * (k1 - n1) - n * d1
    if k <= 0:
        raise ConstructError(f"section count must be positive, got {k}")
    if k > budget:
        raise ConstructError(f"section count {k} exceeds the kernel budget "
                             f"k_max = {budget}")
    n2, d2 = d - n * g, -d
    return dict(
        k=k, n2=n2, d2=d2, k_max=budget, base_decision=base,
        beta_universal=beta_universal(g, n1, d1, n2, d2, k))


def _same_outcome(construct_fn, ref_fn, *args) -> Optional[str]:
    """Run both: the same refusal text or the same witness fields.  Returns
    the refusal text, or None after checking the witness's certificate."""
    try:
        want = ref_fn(*args)
    except ConstructError as exc:
        with pytest.raises(ConstructError) as got:
            construct_fn(*args)
        assert str(got.value) == str(exc)
        return str(exc)
    w = construct_fn(*args)
    assert {**vars(w), "certificate": None} == {**want, "certificate": None}
    # the one certificate concludes the locus nonempty at this rank
    assert verify_decision(Decision(Status.NONEMPTY, Scope.THIS_RANK, w.beta_universal,
                                    (w.certificate,)))
    return None


def _template(refusal: Optional[str]) -> Optional[str]:
    return refusal and re.sub(r"-?\d+", "N", refusal)


def test_product_construct_matches_reference_chain():
    rng = random.Random(27)
    seen = Counter()
    for _ in range(2500):
        # query-mix's product box, widened past each edge
        g = rng.randint(3, 10)
        n1, n2 = (rng.choice((1, 2, 2, 3, 3, 4, 4)) for _ in range(2))
        p1 = BNProblem(g, n1, rng.randint(0, 2 * n1 + 1), rng.randint(1, n1 + 1))
        p2 = BNProblem(g, n2, rng.randint(1, 2 * (g + 1) * n2), rng.randint(1, n2 + 2))
        cc, kind = rng.choice(list(CurveClass)), rng.choice(list(StabilityKind))
        seen[_same_outcome(product_construct, _ref_product_construct,
                           g, p1, p2, cc, kind)] += 1
    # successes and each refusal past the genus and digit checks, often
    assert len(seen) == 8 and min(seen.values()) >= 20


def test_kernel_construct_matches_reference_chain():
    rng = random.Random(27)
    seen = Counter()
    base_and_budget = 0
    for _ in range(2500):
        # query-mix's kernel box, widened to reach every refusal
        g = rng.randint(3, 8)
        n1 = rng.choice((1, 2, 2, 2, 3, 3, 3))
        k1 = n1 + rng.choice((0, 1, 1, 2, 2, 3, 3))
        d1 = rng.randint(n1, n1 * (2 * g - 1))
        n = rng.choice((0, 1, 1, 1, 1, 1, 2))
        d = 2 * max(n, 1) * g + rng.randint(-1, 3)
        budget = (d - n * (g - 1)) * (k1 - n1) - n * d1
        k = rng.randint(-1, max(1, budget) + 2)
        cc, kind = rng.choice(list(CurveClass)), rng.choice(list(StabilityKind))
        refusal = _same_outcome(kernel_construct, _ref_kernel_construct,
                                g, n1, d1, k1, n, d, k, cc, kind)
        seen[_template(refusal)] += 1
        base_and_budget += (refusal is not None and refusal.startswith("base locus")
                            and not 0 < k <= budget)
    # successes and each refusal, often; the base decision is refused
    # first when the budget fails too
    assert len(seen) == 9 and min(seen.values()) >= 20
    assert base_and_budget >= 100


# ---------------------------------------------------------------------------
# admissible degrees


def test_c6_enumerate_examples():
    assert c6_enumerate(3, 3, 5) == [8]
    assert c6_enumerate(4, 2, 6) == [11]
    assert c6_enumerate(3, 2, 4) == []


def test_c6_enumerate_rejections():
    with pytest.raises(ConstructError, match="genus 2"):
        c6_enumerate(2, 3, 5)
    with pytest.raises(ConstructError, match="base rank"):
        c6_enumerate(3, 1, 2)
    with pytest.raises(ConstructError, match="n1 < k1"):
        c6_enumerate(3, 3, 3)
    with pytest.raises(ConstructError, match="n1 < k1"):
        c6_enumerate(3, 3, 7)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=3, max_value=12), st.integers(min_value=2, max_value=8),
       st.data())
def test_c6_degrees_admit_negative_families(g, n1, data):
    k1 = data.draw(st.integers(min_value=n1 + 1, max_value=n1 * (g - 1)))
    for d1 in c6_enumerate(g, n1, k1):
        assert d1 % n1 != 0
        # each admissible degree really yields a negative family
        w = kernel_negativity_min_d(g, n1, d1, k1, 1,
                                    1 * ((k1 - n1) * (g - 1) + d1))
        assert w.beta < 0
        assert w.k <= kernel_budget(g, n1, d1, k1, 1, w.d_min)


@pytest.mark.parametrize("construct_fn, args, key, value", [
    (product_construct, (6, BNProblem(6, 2, 3, 2), BNProblem(6, 2, 3, 2)), key, value)
    for key, value in [("window", "relaxed"), ("k1", 4), ("k2", 1), ("ell", 1),
                       ("beta_universal", -5), ("beta_tensor", 34)]
] + [
    (kernel_construct, (4, 2, 11, 6, 1, 11, 21), key, value)
    for key, value in [("k1", 7), ("k_max", 22), ("beta_universal", -6)]
])
def test_construction_certificate_rejects_mutation(construct_fn, args, key, value):
    cert = construct_fn(*args).certificate
    assert verify_certificate(cert)
    params = {**cert.params, key: value}
    # neither with the stored premises nor with any others
    assert not verify_certificate(replace(cert, params=params))
    assert oracle._certify(cert.rule, params) is None
