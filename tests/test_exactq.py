from __future__ import annotations

from fractions import Fraction as Q

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bnloci.exactq import (
    DomainError,
    PiecewiseFn,
    Quadratic,
    pw_max,
)
from bnloci.regions import fg_piecewise, tg_piecewise


def test_quadratic_eval_and_product():
    q = Quadratic(Q(1), Q(-3), Q(2))
    assert q(0) == 2
    assert q(Q(3, 2)) == Q(-1, 4)
    # (1 + t/10)(1 + (1-t)/10) expanded
    p = Quadratic(Q(-1, 100), Q(1, 100), Q(11, 10))
    assert p(Q(1, 2)) == Q(441, 400)


def _step_fn() -> PiecewiseFn:
    # 5 at 0, then x on (0, 1], then 2 on (1, 3]
    return PiecewiseFn([Q(0), Q(1), Q(3)], [Q(5), Q(1), Q(2)],
                       [(Q(1), Q(0)), (Q(0), Q(2))])


def _parts(fn: PiecewiseFn) -> tuple:
    return fn.breaks, fn.values, fn.pieces


def test_piecewise_eval_respects_closures():
    # a breakpoint takes its own value, whatever the pieces beside it
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


def test_piecewise_rejects_non_increasing_breakpoints():
    for breaks in ([Q(0), Q(2), Q(1)], [Q(0), Q(1), Q(1)]):
        with pytest.raises(ValueError, match="strictly increase"):
            PiecewiseFn(breaks, [Q(0)] * 3, [(Q(0), Q(0))] * 2)


def test_piecewise_rejects_mismatched_lengths():
    with pytest.raises(ValueError, match="values"):
        PiecewiseFn([Q(0), Q(1)], [Q(0)], [(Q(0), Q(0))])
    with pytest.raises(ValueError, match="pieces"):
        PiecewiseFn([Q(0), Q(1)], [Q(0), Q(0)], [])
    with pytest.raises(ValueError, match="pieces"):
        PiecewiseFn([Q(0), Q(1)], [Q(0), Q(0)], [(Q(0), Q(0))] * 2)
    with pytest.raises(ValueError, match="at least one"):
        PiecewiseFn([], [], [])


def _line(slope, intercept, lo=Q(0), hi=Q(2)) -> PiecewiseFn:
    return PiecewiseFn([lo, hi], [slope * lo + intercept, slope * hi + intercept],
                       [(slope, intercept)])


def test_pw_max_with_crossing():
    # f(x) = x and g(x) = 2 - x on [0, 2] cross at x = 1
    f, g = _line(Q(1), Q(0)), _line(Q(-1), Q(2))
    h = pw_max(f, g)
    assert h(0) == 2
    assert h(1) == 1
    assert h(Q(1, 2)) == Q(3, 2)
    assert h(Q(3, 2)) == Q(3, 2)
    assert h(2) == 2
    assert h.breaks == [0, 1, 2]


def test_pw_max_keeps_spikes():
    # f is 0 on [0, 2] but spikes to 3 at x = 1; g(x) = x
    f = PiecewiseFn([Q(0), Q(1), Q(2)], [Q(0), Q(3), Q(0)],
                    [(Q(0), Q(0)), (Q(0), Q(0))])
    g = _line(Q(1), Q(0))
    h = pw_max(f, g)
    assert h(0) == 0
    assert h(Q(1, 2)) == Q(1, 2)
    assert h(1) == 3
    assert h(Q(3, 2)) == Q(3, 2)
    assert h(2) == 2
    assert _parts(h) == ([0, 1, 2], [0, 3, 2], [(1, 0), (1, 0)])
    assert _parts(h) == _parts(_ref_pw_max(f, g))


def test_pw_max_requires_same_domain():
    with pytest.raises(ValueError, match="identical domains"):
        pw_max(_line(Q(0), Q(0), hi=Q(1)), _line(Q(0), Q(0)))


def _random_fn(cuts, data) -> PiecewiseFn:
    # values drawn apart from the pieces put jumps and spikes at breakpoints
    q = st.fractions(min_value=-3, max_value=3, max_denominator=8)
    pieces = [(data.draw(q), data.draw(q)) for _ in cuts[1:]]
    values = []
    for i, x in enumerate(cuts):
        near = pieces[min(i, len(pieces) - 1)]
        values.append(data.draw(st.just(near[0] * x + near[1]) | q))
    return PiecewiseFn(cuts, values, pieces)


@given(st.lists(st.fractions(min_value=0, max_value=4, max_denominator=16),
                min_size=2, max_size=6, unique=True),
       st.data())
def test_pw_max_matches_pointwise_scan(cuts, data):
    cuts = sorted(cuts)
    f, g = _random_fn(cuts, data), _random_fn(cuts, data)
    h = pw_max(f, g)
    lo, hi = cuts[0], cuts[-1]
    step = Q(hi - lo, 64)
    for x in {*cuts, *(lo + i * step for i in range(65))}:
        assert h(x) == max(f(x), g(x))
    assert _parts(h) == _parts(_ref_pw_max(f, g))
    assert _parts(pw_max(g, f)) == _parts(_ref_pw_max(g, f))


def _ref_pw_max(f: PiecewiseFn, g: PiecewiseFn) -> PiecewiseFn:
    # reference: the pointwise maximum that only calls both operands,
    # reading each gap's affine off two interior points
    cuts = sorted({*f.breaks, *g.breaks})
    breaks, values, pieces = [], [], []

    def affine(fn, u, v):
        x1, x2 = (2 * u + v) / 3, (u + 2 * v) / 3
        slope = (fn(x2) - fn(x1)) / (x2 - x1)
        return slope, fn(x1) - slope * x1

    for u, v in zip(cuts, cuts[1:]):
        breaks.append(u)
        values.append(max(f(u), g(u)))
        (a1, b1), (a2, b2) = affine(f, u, v), affine(g, u, v)
        mid = (u + v) / 2
        x_cross = (b2 - b1) / (a1 - a2) if a1 != a2 else None
        if x_cross is None or not u < x_cross < v:
            pieces.append((a1, b1) if a1 * mid + b1 >= a2 * mid + b2 else (a2, b2))
            continue
        left_mid = (u + x_cross) / 2
        first, second = (a1, b1), (a2, b2)
        if a1 * left_mid + b1 < a2 * left_mid + b2:
            first, second = second, first
        pieces += [first, second]
        breaks.append(x_cross)
        values.append(max(f(x_cross), g(x_cross)))
    breaks.append(cuts[-1])
    values.append(max(f(cuts[-1]), g(cuts[-1])))
    return PiecewiseFn(breaks, values, pieces)


def test_pw_max_matches_bisecting_reference_on_region_tops():
    for g in range(2, 61):
        f, t = fg_piecewise(g), tg_piecewise(g)
        for a, b in ((f, t), (t, f)):
            assert _parts(pw_max(a, b)) == _parts(_ref_pw_max(a, b))
