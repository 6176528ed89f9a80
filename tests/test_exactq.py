from __future__ import annotations

from fractions import Fraction as Q

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bnloci.exactq import (
    DomainError,
    PiecewiseFn,
    Quadratic,
    Segment,
    pw_max,
    rat_ceil,
    rat_floor,
)
from bnloci.regions import fg_piecewise, tg_piecewise

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=40)


def test_rat_floor_ceil_basics():
    assert rat_floor(Q(7, 2)) == 3
    assert rat_floor(Q(-7, 2)) == -4
    assert rat_ceil(Q(7, 2)) == 4
    assert rat_ceil(Q(-7, 2)) == -3
    assert rat_floor(5) == rat_ceil(5) == 5


@given(rationals)
def test_floor_ceil_sandwich(x):
    assert rat_floor(x) <= x <= rat_ceil(x)
    assert x - rat_floor(x) < 1
    assert rat_ceil(x) - x < 1


def test_quadratic_eval_and_product():
    q = Quadratic(Q(1), Q(-3), Q(2))
    assert q(0) == 2
    assert q(Q(3, 2)) == Q(-1, 4)
    # (1 + t/10)(1 + (1-t)/10) expanded
    p = Quadratic(Q(-1, 100), Q(1, 100), Q(11, 10))
    assert p(Q(1, 2)) == Q(441, 400)


def _step_fn() -> PiecewiseFn:
    return PiecewiseFn([
        Segment(Q(0), Q(0), True, True, Q(0), Q(5)),
        Segment(Q(0), Q(1), False, True, Q(1), Q(0)),
        Segment(Q(1), Q(3), False, True, Q(0), Q(2)),
    ])


def test_piecewise_eval_respects_closures():
    f = _step_fn()
    assert f(0) == 5
    assert f(Q(1, 2)) == Q(1, 2)
    assert f(1) == 1
    assert f(Q(5, 2)) == 2
    assert f(3) == 2


def test_piecewise_domain_errors():
    f = _step_fn()
    with pytest.raises(DomainError):
        f(Q(-1, 2))
    with pytest.raises(DomainError):
        f(Q(7, 2))


def test_piecewise_rejects_overlap():
    with pytest.raises(ValueError):
        PiecewiseFn([
            Segment(Q(0), Q(2), True, True, Q(0), Q(0)),
            Segment(Q(1), Q(3), True, True, Q(0), Q(0)),
        ])


def test_piecewise_rejects_gap():
    with pytest.raises(ValueError):
        PiecewiseFn([
            Segment(Q(0), Q(1), True, True, Q(0), Q(0)),
            Segment(Q(2), Q(3), True, True, Q(0), Q(0)),
        ])


def test_piecewise_rejects_doubly_carried_junction():
    with pytest.raises(ValueError):
        PiecewiseFn([
            Segment(Q(0), Q(1), True, True, Q(0), Q(0)),
            Segment(Q(1), Q(2), True, True, Q(0), Q(0)),
        ])


def test_piecewise_rejects_uncarried_junction():
    with pytest.raises(ValueError):
        PiecewiseFn([
            Segment(Q(0), Q(1), True, False, Q(0), Q(0)),
            Segment(Q(1), Q(2), False, True, Q(0), Q(0)),
        ])


def test_point_segment_must_be_closed():
    with pytest.raises(ValueError):
        Segment(Q(1), Q(1), True, False, Q(0), Q(0))


def test_pw_max_with_crossing():
    # f(x) = x and g(x) = 2 - x on [0, 2] cross at x = 1
    f = PiecewiseFn([Segment(Q(0), Q(2), True, True, Q(1), Q(0))])
    g = PiecewiseFn([Segment(Q(0), Q(2), True, True, Q(-1), Q(2))])
    h = pw_max(f, g)
    assert h(0) == 2
    assert h(1) == 1
    assert h(Q(1, 2)) == Q(3, 2)
    assert h(Q(3, 2)) == Q(3, 2)
    assert h(2) == 2
    assert Q(1) in h.ends


def test_pw_max_keeps_spikes_and_drops_uncarried_ends():
    # f is open at 0 and spikes to 3 at x = 1; g is closed on [0, 2]
    f = PiecewiseFn([
        Segment(Q(0), Q(1), False, False, Q(0), Q(0)),
        Segment(Q(1), Q(1), True, True, Q(0), Q(3)),
        Segment(Q(1), Q(2), False, True, Q(0), Q(0)),
    ])
    g = PiecewiseFn([Segment(Q(0), Q(2), True, True, Q(1), Q(0))])
    h = pw_max(f, g)
    with pytest.raises(DomainError):
        h(0)
    assert h(Q(1, 2)) == Q(1, 2)
    assert h(1) == 3
    assert h(Q(3, 2)) == Q(3, 2)
    assert h(2) == 2
    assert [(s.lo, s.hi) for s in h.segments] == [
        (0, 1), (1, 1), (1, 2), (2, 2)]
    assert h.segments == _ref_pw_max(f, g).segments


def test_pw_max_requires_same_domain():
    f = PiecewiseFn([Segment(Q(0), Q(1), True, True, Q(0), Q(0))])
    g = PiecewiseFn([Segment(Q(0), Q(2), True, True, Q(0), Q(0))])
    with pytest.raises(ValueError):
        pw_max(f, g)


@given(st.lists(st.fractions(min_value=0, max_value=4, max_denominator=16),
                min_size=2, max_size=6, unique=True),
       st.data())
def test_pw_max_matches_pointwise_scan(cuts, data):
    cuts = sorted(cuts)
    segs_f, segs_g = [], []
    for i, (u, v) in enumerate(zip(cuts, cuts[1:])):
        sf = data.draw(st.fractions(min_value=-3, max_value=3, max_denominator=8))
        bf = data.draw(st.fractions(min_value=-3, max_value=3, max_denominator=8))
        sg = data.draw(st.fractions(min_value=-3, max_value=3, max_denominator=8))
        bg = data.draw(st.fractions(min_value=-3, max_value=3, max_denominator=8))
        first = i == 0
        segs_f.append(Segment(u, v, first, True, sf, bf))
        segs_g.append(Segment(u, v, first, True, sg, bg))
    f, g = PiecewiseFn(segs_f), PiecewiseFn(segs_g)
    h = pw_max(f, g)
    lo, hi = cuts[0], cuts[-1]
    step = Q(hi - lo, 64)
    for i in range(65):
        x = lo + i * step
        assert h(x) == max(f(x), g(x))
    assert h.segments == _ref_pw_max(f, g).segments


def _ref_pw_max(f: PiecewiseFn, g: PiecewiseFn) -> PiecewiseFn:
    # reference: the pointwise maximum that finds both operands' segments
    # by bisection at every cut and every gap midpoint
    cuts = sorted({f.domain_lo, *f.ends, *g.ends})
    segs: list[Segment] = []

    def point(x):
        try:
            v1, v2 = f(x), g(x)
        except DomainError:
            return
        segs.append(Segment(x, x, True, True, Q(0), max(v1, v2)))

    def interval(u, v):
        mid = (u + v) / 2
        s1, s2 = f.segment_at(mid), g.segment_at(mid)
        a1, b1, a2, b2 = s1.slope, s1.intercept, s2.slope, s2.intercept
        x_cross = (b2 - b1) / (a1 - a2) if a1 != a2 else None
        if x_cross is None or not u < x_cross < v:
            a, b = (a1, b1) if a1 * mid + b1 >= a2 * mid + b2 else (a2, b2)
            segs.append(Segment(u, v, False, False, a, b))
            return
        left_mid = (u + x_cross) / 2
        if a1 * left_mid + b1 >= a2 * left_mid + b2:
            lo_affine, hi_affine = (a1, b1), (a2, b2)
        else:
            lo_affine, hi_affine = (a2, b2), (a1, b1)
        segs.append(Segment(u, x_cross, False, False, *lo_affine))
        segs.append(Segment(x_cross, x_cross, True, True, Q(0), a1 * x_cross + b1))
        segs.append(Segment(x_cross, v, False, False, *hi_affine))

    point(cuts[0])
    for u, v in zip(cuts, cuts[1:]):
        interval(u, v)
        point(v)
    return PiecewiseFn(segs)


def test_pw_max_matches_bisecting_reference_on_region_tops():
    for g in range(2, 61):
        f, t = fg_piecewise(g), tg_piecewise(g)
        for a, b in ((f, t), (t, f)):
            assert pw_max(a, b).segments == _ref_pw_max(a, b).segments
