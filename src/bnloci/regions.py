"""Slope-plane nonemptiness regions.

Two piecewise-affine upper envelopes are tabulated per genus:

- the staircase top t_g, under which every rank point with integer
  invariants carries semistable bundles, and
- the sawtooth-with-spikes top f_g, under which some rank along the same
  ray works.

Both are exact piecewise functions over Q, given by their breakpoints,
their values there and one affine piece per open gap; membership tests
also report the stable-case exclusions, which remove isolated points or
segments from the semistable statement.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional, Union

from .bncore import _require_genus
from .exactq import PiecewiseFn, Rational, RationalLike, as_rational, rat_ceil

EXCLUSION_T_GAP = "t-gap-family"
EXCLUSION_BMNO_ETA_HAT = "bmno-eta-hat"
EXCLUSION_BMNO_ETA_HAT_PLUS_ONE = "bmno-eta-hat-plus-one"
EXCLUSION_SERRE_DUAL = "serre-dual-of-excluded"


class StabilityKind(Enum):
    STABLE = "stable"
    SEMISTABLE = "semistable"


@dataclass(frozen=True)
class RegionVerdict:
    """Membership answer for one slope-plane point.

    excluded_for_stable implies inside: exclusions subtract isolated
    points from the stable statement, never from the semistable one.
    """

    inside: bool
    on_boundary: bool = False
    excluded_for_stable: bool = False
    exclusion_reason: Optional[str] = None


def eta_hat_prime(g: int, s: int) -> int:
    """Least degree from which a pencil-type count stays positive.

    Equals min{d : beta(1, d+1, s) >= 1} = s + g - 2 - floor((g-1)/s).
    """
    if g < 2:
        raise ValueError(f"genus must be >= 2, got {g}")
    if s < 1:
        raise ValueError(f"section count must be >= 1, got {s}")
    return s + g - 2 - (g - 1) // s


def eta_hat(g: int, s: int) -> int:
    """Least degree with nonnegative classical count.

    Equals min{d : beta(1, d, s) >= 0} = s + g - 1 - floor(g/s).
    """
    if g < 2:
        raise ValueError(f"genus must be >= 2, got {g}")
    if s < 1:
        raise ValueError(f"section count must be >= 1, got {s}")
    return s + g - 1 - g // s


def _from_steps(x0: Fraction, y0: Fraction, steps: list[tuple]) -> tuple[list, list, list]:
    # breakpoints, values and pieces from (x0, y0) and the steps rightward
    # from it, each (piece on the gap, breakpoint ending it, value there)
    pieces, breaks, values = zip(*steps)
    return [x0, *breaks], [y0, *values], list(pieces)


@lru_cache(maxsize=None)
def tg_piecewise(g: int) -> PiecewiseFn:
    """The staircase top on [0, 2g-2].

    Zero at the origin; on each band (eta'(s), eta'(s+1)] an affine ramp
    of slope one up to the next integer, then flat at level s.  The band
    index runs s = 1..g-1, ending at eta'(g) = 2g-2 with value g-1.
    """
    _require_genus(g)
    one, zero = Fraction(1), Fraction(0)
    steps = []
    for s in range(1, g):
        a = eta_hat_prime(g, s)
        b = eta_hat_prime(g, s + 1)
        level = Fraction(s)
        steps.append(((one, Fraction(s - a - 1)), Fraction(a + 1), level))
        if a + 1 < b:
            steps.append(((zero, level), Fraction(b), level))
    return PiecewiseFn(*_from_steps(zero, zero, steps))


def _fg_base_steps(g: int) -> list[tuple]:
    # steps on [0, g-1], from the spike (0, 1); spikes sit at eta(s) for s*s <= g
    top = g - 1
    steps = []
    for s in range(1, math.isqrt(g) + 1):
        e = eta_hat(g, s)
        e_next = eta_hat(g, s + 1)
        if e >= top:
            break
        level, slope = Fraction(s), Fraction(s, g)
        # ramp up to (e+1, s) with the shallow slope s/g
        steps.append(((slope, level - slope * (e + 1)), Fraction(e + 1), level))
        # unit sawtooth pieces, same slope, restarting at each integer
        tooth = level + slope
        steps += [((slope, level - slope * m), Fraction(m + 1), tooth)
                  for m in range(e + 1, min(e_next - 1, top))]
        # steeper connector rising into the spike of level s+1 at eta(s+1)
        if e_next <= top:
            rise = Fraction(e_next - s, g)
            steps.append(((rise, level - rise * (e_next - 1)), Fraction(e_next), level + 1))
    return steps


@lru_cache(maxsize=None)
def fg_piecewise(g: int) -> PiecewiseFn:
    """The sawtooth-with-spikes top on [0, 2g-2].

    Built on [0, g-1] from the band construction, then extended to
    (g-1, 2g-2] by the reflection f(mu) = f(2g-2-mu) + mu - (g-1): the
    mirror's lists are the base's, reversed.
    """
    _require_genus(g)
    breaks, values, pieces = _from_steps(Fraction(0), Fraction(1), _fg_base_steps(g))
    top, two = g - 1, 2 * (g - 1)
    # the base ends at g-1, the mirror's fixed point
    inner = range(len(breaks) - 2, -1, -1)
    return PiecewiseFn(
        breaks + [two - breaks[i] for i in inner],
        values + [values[i] + top - breaks[i] for i in inner],
        pieces + [(1 - a, a * two + b - top) for a, b in reversed(pieces)])


def tg_eval(g: int, mu: RationalLike) -> Fraction:
    return tg_piecewise(g)(as_rational(mu))


def fg_eval(g: int, mu: RationalLike) -> Fraction:
    return fg_piecewise(g)(as_rational(mu))


def _membership(g: int, mu: RationalLike, lam: RationalLike, kind: StabilityKind,
                top: Callable[[int, Fraction], Fraction],
                exclusion: Callable[[int, Fraction, Fraction], Optional[str]]
                ) -> RegionVerdict:
    # inside means 0 <= mu <= 2g-2 and 0 < lam <= top(g, mu); the stable
    # locus also loses the points the family's exclusion rule names
    mu, lam = as_rational(mu), as_rational(lam)
    if not (0 <= mu <= 2 * (g - 1) and lam > 0):
        return RegionVerdict(inside=False)
    lam_top = top(g, mu)
    if lam > lam_top:
        return RegionVerdict(inside=False)
    reason = exclusion(g, mu, lam) if kind is StabilityKind.STABLE else None
    return RegionVerdict(inside=True, on_boundary=(lam == lam_top),
                         excluded_for_stable=reason is not None,
                         exclusion_reason=reason)


def _t_exclusion(g: int, mu: Fraction, lam: Fraction) -> Optional[str]:
    s = rat_ceil(lam)
    if mu.denominator != 1 or mu != eta_hat_prime(g, s) + 1:
        return None
    return EXCLUSION_T_GAP if mu != eta_hat_prime(g, s + 1) else None


def membership_T(g: int, mu: RationalLike, lam: RationalLike,
                 kind: StabilityKind) -> RegionVerdict:
    """Membership in the staircase region, with stable-case exclusions.

    Inside means 0 <= mu <= 2g-2 and 0 < lam <= t_g(mu).  For the stable
    locus, points on the integer column mu = eta'(s)+1 with s-1 < lam <= s
    are excluded when that column is not the band's right end eta'(s+1).
    On the right end the rank-one count beta(1, mu+1, s+1) is at least 1
    by the definition of eta', so no count condition removes a point there.
    """
    return _membership(g, mu, lam, kind, tg_eval, _t_exclusion)


def _bmno_spike_excluded(g: int, mu: Fraction, lam: Fraction) -> bool:
    # the spike column mu = eta(s) <= g-1 loses its top above the incoming
    # ramp level; eta strictly increases in s, so its s is found by bisection
    if mu.denominator != 1 or mu > g - 1:
        return False
    s_max = math.isqrt(g)
    s = 1 + bisect_left(range(1, s_max + 1), mu, key=lambda i: eta_hat(g, i))
    if s > s_max or eta_hat(g, s) != mu:
        return False
    return lam > Fraction(s - 1, g) + (s - 1)


def _bmno_exclusion(g: int, mu: Fraction, lam: Fraction) -> Optional[str]:
    if _bmno_spike_excluded(g, mu, lam):
        return EXCLUSION_BMNO_ETA_HAT
    # the Serre reflection of the point, still in 0 <= mu <= 2g-2
    if _bmno_spike_excluded(g, 2 * (g - 1) - mu, lam - mu + (g - 1)):
        return EXCLUSION_SERRE_DUAL
    if lam.denominator == 1 and mu == eta_hat(g, int(lam)) + 1:
        return EXCLUSION_BMNO_ETA_HAT_PLUS_ONE
    return None


def membership_BMNO(g: int, mu: RationalLike, lam: RationalLike,
                    kind: StabilityKind) -> RegionVerdict:
    """Membership in the sawtooth region, with stable-case exclusions.

    Inside means 0 <= mu <= 2g-2 and 0 < lam <= f_g(mu).  For the stable
    locus three families are removed: the top of each spike column above
    the incoming ramp level, the Serre duals of those, and the isolated
    integer points one step past each spike at integer height.
    """
    return _membership(g, mu, lam, kind, fg_eval, _bmno_exclusion)


RegionPoint = tuple[Union[Fraction, float], Union[Fraction, float]]


def _piecewise_polyline(fn: PiecewiseFn, samples_per_unit: int) -> list[RegionPoint]:
    pts: list[RegionPoint] = []

    def push(x: Fraction, y: Fraction) -> None:
        if not pts or pts[-1] != (x, y):
            pts.append((x, y))

    step = Fraction(1, samples_per_unit)
    breaks = fn.breaks
    for i, (slope, intercept) in enumerate(fn.pieces):
        # the breakpoint's own value, then the gap's piece from end to end
        lo, hi = breaks[i], breaks[i + 1]
        push(lo, fn.values[i])
        x = lo
        while x < hi:
            push(x, slope * x + intercept)
            x += step
        push(hi, slope * hi + intercept)
    push(breaks[-1], fn.values[-1])
    return pts


def region_polyline(g: int, region: str, samples_per_unit: int) -> list[RegionPoint]:
    """Vertices for plotting one of the named region tops or reference curves.

    T and BMNO yield exact rational vertices covering every breakpoint;
    Clifford yields its two endpoints; BNCurve yields decimal samples of
    the positive branch of lam*(lam - mu + g - 1) = g - 1, accurate to
    1e-9 and used for plotting only.
    """
    if samples_per_unit < 1:
        raise ValueError("samples_per_unit must be >= 1")
    if region == "T":
        return _piecewise_polyline(tg_piecewise(g), samples_per_unit)
    if region == "BMNO":
        return _piecewise_polyline(fg_piecewise(g), samples_per_unit)
    if region == "Clifford":
        return [(Fraction(0), Fraction(1)), (Fraction(2 * (g - 1)), Fraction(g))]
    if region == "BNCurve":
        pts: list[RegionPoint] = []
        n = 2 * (g - 1) * samples_per_unit
        for i in range(n + 1):
            mu = i / samples_per_unit
            lam = (mu - (g - 1) + math.sqrt((g - 1 - mu) ** 2 + 4 * (g - 1))) / 2
            pts.append((mu, lam))
        return pts
    raise ValueError(f"unknown region {region!r}")
