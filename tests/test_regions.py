from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction as Q
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnloci.bncore import SlopePoint, beta_untwisted, serre_dual_point
from bnloci.exactq import as_rational
from bnloci.regions import (
    EXCLUSION_BMNO_ETA_HAT,
    EXCLUSION_BMNO_ETA_HAT_PLUS_ONE,
    EXCLUSION_SERRE_DUAL,
    EXCLUSION_T_GAP,
    RegionVerdict,
    StabilityKind,
    eta_hat,
    eta_hat_prime,
    fg_eval,
    fg_piecewise,
    membership,
    membership_BMNO,
    membership_T,
    point_text,
    region_polyline,
    tg_eval,
    tg_piecewise,
)

STABLE = StabilityKind.STABLE
SEMI = StabilityKind.SEMISTABLE


def brute_eta_hat_prime(g: int, s: int) -> int:
    """Independent scan: least d with beta(1, d+1, s) >= 1."""
    for d in range(0, 4 * g + 2 * s + 10):
        if beta_untwisted(g, 1, d + 1, s) >= 1:
            return d
    raise AssertionError("scan bound too small")


def brute_eta_hat(g: int, s: int) -> int:
    """Independent scan: least d with beta(1, d, s) >= 0."""
    for d in range(0, 4 * g + 2 * s + 10):
        if beta_untwisted(g, 1, d, s) >= 0:
            return d
    raise AssertionError("scan bound too small")


def test_eta_hat_prime_values():
    g = 11
    assert eta_hat_prime(g, 1) == 0
    assert eta_hat_prime(g, g) == 2 * g - 2
    assert eta_hat_prime(10, 2) == 6
    assert [eta_hat_prime(10, s) for s in range(1, 11)] == [0, 6, 8, 10, 12, 13, 14, 15, 16, 18]


def test_eta_hat_values():
    assert eta_hat(7, 1) == 0
    assert eta_hat(10, 2) == 6
    assert eta_hat(10, 3) == 9


def test_eta_rejects_bad_args():
    with pytest.raises(ValueError):
        eta_hat_prime(10, 0)
    with pytest.raises(ValueError):
        eta_hat(10, -1)
    with pytest.raises(ValueError):
        eta_hat_prime(1, 1)


def test_eta_matches_brute_scan_small():
    for g in range(2, 13):
        for s in range(1, g + 1):
            assert eta_hat_prime(g, s) == brute_eta_hat_prime(g, s)
            assert eta_hat(g, s) == brute_eta_hat(g, s)


def test_tables_build_for_many_genera():
    for g in range(2, 41):
        t = tg_piecewise(g)
        f = fg_piecewise(g)
        assert t.breaks[0] == f.breaks[0] == 0
        assert t.breaks[-1] == f.breaks[-1] == 2 * g - 2


def test_tg_values():
    assert tg_eval(10, 0) == 0
    assert tg_eval(10, Q(13, 2)) == Q(3, 2)
    assert tg_eval(10, 8) == 2
    assert tg_eval(10, 3) == 1
    assert tg_eval(10, 18) == 9
    assert tg_eval(4, Q(11, 2)) == 3
    for g in range(2, 21):
        assert tg_eval(g, 2 * g - 2) == g - 1


def test_fg_values():
    assert fg_eval(10, 0) == 1
    assert fg_eval(10, Q(3, 2)) == Q(21, 20)
    assert fg_eval(10, Q(11, 2)) == Q(5, 4)
    assert fg_eval(10, 3) == Q(11, 10)
    assert fg_eval(10, 6) == 2
    assert fg_eval(10, 18) == 10
    assert fg_eval(4, Q(11, 2)) == Q(27, 8)
    for g in range(2, 21):
        assert fg_eval(g, 2 * g - 2) == g


def test_fg_small_slope_window():
    # on (0, 2] the sawtooth is a single affine law through (1, 1);
    # the sole exception is genus 2, where mu = 2 is the canonical spike
    for g in range(2, 13):
        for denom in range(1, 13):
            for num in range(1, 2 * denom + 1):
                mu = Q(num, denom)
                if g == 2 and mu == 2:
                    assert fg_eval(g, mu) == 2
                    continue
                assert fg_eval(g, mu) == 1 + Q(mu - 1, g)


def test_fg_serre_consistency():
    for g in range(2, 15):
        for num in range(0, 8 * (g - 1) + 1):
            mu = Q(num, 8)
            if mu < g - 1:
                continue
            assert fg_eval(g, mu) == fg_eval(g, 2 * g - 2 - mu) + mu - (g - 1)


def test_tg_serre_consistency():
    for g in range(2, 41):
        for num in range(0, 8 * (2 * g - 2) + 1):
            mu = Q(num, 8)
            assert tg_eval(g, 2 * g - 2 - mu) + mu - (g - 1) == tg_eval(g, mu)


@settings(max_examples=300)
@given(st.integers(min_value=2, max_value=60), st.data())
def test_tg_is_serre_symmetric_at_random_slopes(g, data):
    q = data.draw(st.integers(min_value=1, max_value=3 * g))
    mu = Q(data.draw(st.integers(min_value=0, max_value=q * (2 * g - 2))), q)
    assert tg_eval(g, 2 * g - 2 - mu) + mu - (g - 1) == tg_eval(g, mu)


def test_out_of_domain_rejected():
    from bnloci.exactq import DomainError
    with pytest.raises(DomainError):
        tg_eval(10, -1)
    with pytest.raises(DomainError):
        fg_eval(10, Q(37, 2))


def test_membership_T_examples():
    v = membership_T(10, Q(13, 2), Q(3, 2), SEMI)
    assert v.inside and v.on_boundary and not v.excluded_for_stable
    v = membership_T(10, 7, Q(3, 2), STABLE)
    assert v.inside and v.excluded_for_stable and v.exclusion_reason == EXCLUSION_T_GAP
    for kind in (STABLE, SEMI):
        assert not membership_T(10, 3, Q(441, 400), kind).inside


def test_membership_T_window():
    assert not membership_T(10, -1, Q(1, 2), SEMI).inside
    assert not membership_T(10, 19, Q(1, 2), SEMI).inside
    assert not membership_T(10, 4, 0, SEMI).inside
    assert not membership_T(10, 4, Q(-1, 2), SEMI).inside


def test_membership_BMNO_examples():
    v = membership_BMNO(10, 3, Q(11, 10), SEMI)
    assert v.inside and v.on_boundary and not v.excluded_for_stable
    for kind in (STABLE, SEMI):
        assert not membership_BMNO(10, 3, Q(441, 400), kind).inside
    v = membership_BMNO(10, 6, Q(6, 5), STABLE)
    assert v.inside and v.excluded_for_stable
    assert v.exclusion_reason == EXCLUSION_BMNO_ETA_HAT
    # same point is fine in the semistable statement
    v = membership_BMNO(10, 6, Q(6, 5), SEMI)
    assert v.inside and not v.excluded_for_stable


def test_membership_BMNO_dual_and_integer_exclusions():
    # Serre dual of the excluded spike-top point (6, 6/5)
    v = membership_BMNO(10, 12, Q(21, 5), STABLE)
    assert v.inside and v.excluded_for_stable
    assert v.exclusion_reason == EXCLUSION_SERRE_DUAL
    # the isolated integer point one past the first spike
    v = membership_BMNO(10, 1, 1, STABLE)
    assert v.inside and v.excluded_for_stable
    assert v.exclusion_reason == EXCLUSION_BMNO_ETA_HAT_PLUS_ONE


def test_membership_handles_unreduced_inputs():
    a = membership_T(10, "13/2", "3/2", SEMI)
    b = membership_T(10, Q(26, 4), Q(6, 4), SEMI)
    assert a == b


# ---------------------------------------------------------------------------
# the Fraction membership body that the integer one replaced, kept as its
# reference: every comparison and exclusion on Fractions, the top read by
# evaluating the table at mu


def _ref_t_exclusion(g, mu, lam):
    s = math.ceil(lam)
    if mu.denominator != 1 or mu != eta_hat_prime(g, s) + 1:
        return None
    return EXCLUSION_T_GAP if mu != eta_hat_prime(g, s + 1) else None


def _ref_bmno_spike_excluded(g, mu, lam):
    if mu.denominator != 1 or mu > g - 1:
        return False
    s_max = math.isqrt(g)
    s = 1 + bisect_left(range(1, s_max + 1), mu, key=lambda i: eta_hat(g, i))
    if s > s_max or eta_hat(g, s) != mu:
        return False
    return lam > Q(s - 1, g) + (s - 1)


def _ref_bmno_exclusion(g, mu, lam):
    if _ref_bmno_spike_excluded(g, mu, lam):
        return EXCLUSION_BMNO_ETA_HAT
    if _ref_bmno_spike_excluded(g, 2 * (g - 1) - mu, lam - mu + (g - 1)):
        return EXCLUSION_SERRE_DUAL
    if lam.denominator == 1 and mu == eta_hat(g, int(lam)) + 1:
        return EXCLUSION_BMNO_ETA_HAT_PLUS_ONE
    return None


_REF = {"T": (tg_eval, _ref_t_exclusion), "BMNO": (fg_eval, _ref_bmno_exclusion)}


@lru_cache(maxsize=4096)
def _ref_top(region, g, mu):
    # a grid sweep asks each top at one mu for many lam in a row
    return _REF[region][0](g, mu)


def _ref_membership(region, g, mu, lam, kind):
    exclusion = _REF[region][1]
    mu, lam = as_rational(mu), as_rational(lam)
    if not (0 <= mu <= 2 * (g - 1) and lam > 0):
        return RegionVerdict(inside=False)
    lam_top = _ref_top(region, g, mu)
    if lam > lam_top:
        return RegionVerdict(inside=False)
    reason = exclusion(g, mu, lam) if kind is StabilityKind.STABLE else None
    return RegionVerdict(inside=True, on_boundary=(lam == lam_top),
                         excluded_for_stable=reason is not None,
                         exclusion_reason=reason)


def _grid(lo, hi, max_den):
    """Every rational in [lo, hi] whose denominator is at most max_den."""
    return sorted({Q(i, q) for q in range(1, max_den + 1) for i in range(lo * q, hi * q + 1)})


@pytest.mark.parametrize("g", [*range(2, 13), 17, 30])
def test_integer_membership_matches_the_fraction_reference_on_grids(g):
    # mu on the 1/1..1/7 grids and lam on the 1/1..1/3 grids, one unit past
    # the domain on every side; both regions and both kinds
    lams = _grid(-1, g + 1, 3)
    for mu in _grid(-1, 2 * g - 1, 7):
        for lam in lams:
            for region in ("T", "BMNO"):
                for kind in StabilityKind:
                    expect = _ref_membership(region, g, mu, lam, kind)
                    got = membership(region, g, mu.numerator, mu.denominator,
                                     lam.numerator, lam.denominator, kind)
                    assert got == expect, (region, g, mu, lam, kind)


@settings(max_examples=400)
@given(st.sampled_from([*range(2, 13), 17, 30]), st.integers(-60, 120),
       st.integers(1, 12), st.integers(-20, 60), st.integers(1, 5), st.integers(1, 5),
       st.sampled_from(["T", "BMNO"]), st.sampled_from([STABLE, SEMI]))
def test_integer_membership_of_unreduced_invariants(g, d, n, k, m1, m2, region, kind):
    # the oracle's call (d, n, k, n) and both fractions scaled up, unreduced
    expect = _ref_membership(region, g, Q(d, n), Q(k, n), kind)
    assert membership(region, g, d, n, k, n, kind) == expect
    assert membership(region, g, d * m1, n * m1, k * m2, n * m2, kind) == expect
    assert point_text(d * m1, n * m1, k * m2, n * m2) == f"({Q(d, n)}, {Q(k, n)})"


def test_membership_wrappers_take_numerator_and_denominator():
    for mu, lam in ((Q(13, 2), Q(3, 2)), (7, Q(3, 2)), ("12", "21/5"), (1, 1)):
        for kind in StabilityKind:
            for region, fn in (("T", membership_T), ("BMNO", membership_BMNO)):
                assert fn(10, mu, lam, kind) == _ref_membership(region, 10, mu, lam, kind)


rational_mu = st.fractions(min_value=-2, max_value=20, max_denominator=10)
rational_lam = st.fractions(min_value=-2, max_value=12, max_denominator=10)


@settings(max_examples=300)
@given(st.integers(min_value=2, max_value=12), rational_mu, rational_lam,
       st.sampled_from([STABLE, SEMI]))
def test_exclusion_implies_inside(g, mu, lam, kind):
    for fn in (membership_T, membership_BMNO):
        v = fn(g, mu, lam, kind)
        if v.excluded_for_stable:
            assert v.inside and kind is STABLE and v.exclusion_reason is not None
        if not v.inside:
            assert not v.on_boundary and not v.excluded_for_stable


@settings(max_examples=300)
@given(st.integers(min_value=2, max_value=12), rational_mu, rational_lam)
def test_bmno_is_serre_symmetric(g, mu, lam):
    # the top inequality lam <= f_g(mu) is exactly preserved by the
    # reflection; the lam > 0 window is not, and duals falling below it
    # are the trivial section-free cases handled upstream
    pt = SlopePoint(mu, lam)
    dual = serre_dual_point(g, pt)
    if not (0 <= pt.mu <= 2 * g - 2):
        return
    assert (pt.lam <= fg_eval(g, pt.mu)) == (dual.lam <= fg_eval(g, dual.mu))
    if pt.lam > 0 and dual.lam > 0:
        a = membership_BMNO(g, pt.mu, pt.lam, SEMI)
        b = membership_BMNO(g, dual.mu, dual.lam, SEMI)
        assert a.inside == b.inside


def test_region_polyline_T_vertices():
    pts = region_polyline(10, "T", 1)
    assert (Q(7), Q(2)) in pts
    assert (Q(8), Q(2)) in pts


def test_region_polyline_clifford_and_curve():
    assert region_polyline(10, "Clifford", 1) == [(Q(0), Q(1)), (Q(18), Q(10))]
    pts = region_polyline(10, "BNCurve", 4)
    assert (1.0, 1.0) in pts
    for mu, lam in pts:
        assert abs(lam * (lam - mu + 9) - 9) < 1e-9


def test_region_polyline_validation():
    with pytest.raises(ValueError):
        region_polyline(10, "T", 0)
    with pytest.raises(ValueError):
        region_polyline(10, "Nope", 1)
