"""Exact rational arithmetic kernels.

Everything downstream (Brill-Noether numbers, region tables, boundary
maximisation) is computed over Q.  This module supplies the few exact
primitives the rest of the package needs: floor/ceil on rationals,
quadratics with exact coefficients, piecewise-affine functions with
explicit endpoint closures, and their pointwise maximum.

No floating point is used anywhere in this module.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

Rational = Fraction
RationalLike = Union[Fraction, int, str]


class DomainError(ValueError):
    """Evaluation outside the declared domain of a piecewise function."""


# the most digits a number read or printed may have: Python refuses to turn
# a longer integer into text (sys.get_int_max_str_digits, 4300 by default)
MAX_DIGITS = 4300
_TOO_LONG = 10 ** MAX_DIGITS


def too_long(value: object) -> bool:
    """True when an int or Fraction has a part of more than MAX_DIGITS digits."""
    return (isinstance(value, (int, Fraction))
            and max(abs(value.numerator), value.denominator) >= _TOO_LONG)


def as_rational(x: RationalLike) -> Fraction:
    """Coerce ints, 'p/q' strings and Fractions to Fraction."""
    return x if isinstance(x, Fraction) else Fraction(x)


def rat_floor(x: RationalLike) -> int:
    return math.floor(as_rational(x))


def rat_ceil(x: RationalLike) -> int:
    return math.ceil(as_rational(x))


@dataclass(frozen=True)
class Quadratic:
    """a*t**2 + b*t + c with exact rational coefficients."""

    a: Fraction
    b: Fraction
    c: Fraction

    def __post_init__(self) -> None:
        for name in ("a", "b", "c"):
            object.__setattr__(self, name, as_rational(getattr(self, name)))

    def __call__(self, t: RationalLike) -> Fraction:
        t = as_rational(t)
        return (self.a * t + self.b) * t + self.c


@dataclass(frozen=True)
class Segment:
    """One affine piece: slope*x + intercept on an interval with explicit closures.

    A degenerate point segment (lo == hi) must be closed on both sides.
    """

    lo: Fraction
    hi: Fraction
    lo_closed: bool
    hi_closed: bool
    slope: Fraction
    intercept: Fraction

    def __post_init__(self) -> None:
        for name in ("lo", "hi", "slope", "intercept"):
            object.__setattr__(self, name, as_rational(getattr(self, name)))
        if self.lo > self.hi:
            raise ValueError(f"segment with lo={self.lo} > hi={self.hi}")
        if self.lo == self.hi and not (self.lo_closed and self.hi_closed):
            raise ValueError("point segment must be closed on both sides")

    def contains(self, x: Fraction) -> bool:
        if x < self.lo or x > self.hi:
            return False
        if x == self.lo and not self.lo_closed:
            return False
        if x == self.hi and not self.hi_closed:
            return False
        return True

    def value(self, x: RationalLike) -> Fraction:
        return self.slope * as_rational(x) + self.intercept


class PiecewiseFn:
    """Piecewise-affine function over an interval of Q.

    Segments must be sorted, pairwise disjoint, and tile the domain with
    no gaps: consecutive segments touch at a shared endpoint carried by
    exactly one of them.  Evaluation therefore selects exactly one
    segment; anything outside the domain raises DomainError.  These
    checks run at construction time, so a malformed table (overlap, gap,
    double-closed junction) cannot be built at all.

    ``ends`` lists the segments' right ends in order (a point segment
    repeats the end of the open segment before it).  Together with
    ``domain_lo`` they are every endpoint, so it is the one key list that
    evaluation and consumers bisect.
    """

    __slots__ = ("segments", "ends")

    def __init__(self, segments: Sequence[Segment]):
        segs = sorted(segments, key=lambda s: (s.lo, s.hi))
        if not segs:
            raise ValueError("piecewise function needs at least one segment")
        for prev, cur in zip(segs, segs[1:]):
            if prev.hi > cur.lo:
                raise ValueError(f"overlapping segments at [{cur.lo}, {prev.hi}]")
            if prev.hi < cur.lo:
                raise ValueError(f"gap between {prev.hi} and {cur.lo}")
            if prev.hi_closed and cur.lo_closed:
                raise ValueError(f"point {cur.lo} carried by two segments")
            if not prev.hi_closed and not cur.lo_closed:
                raise ValueError(f"point {cur.lo} carried by no segment")
        self.segments: tuple[Segment, ...] = tuple(segs)
        self.ends: list[Fraction] = [s.hi for s in segs]

    @property
    def domain_lo(self) -> Fraction:
        return self.segments[0].lo

    @property
    def domain_hi(self) -> Fraction:
        return self.segments[-1].hi

    def segment_at(self, x: RationalLike) -> Segment:
        x = as_rational(x)
        idx = bisect_left(self.ends, x)
        for j in (idx, idx + 1):
            if j < len(self.segments) and self.segments[j].contains(x):
                return self.segments[j]
        raise DomainError(f"{x} outside domain [{self.domain_lo}, {self.domain_hi}]")

    def __call__(self, x: RationalLike) -> Fraction:
        return self.segment_at(x).value(x)


def pw_max(f: PiecewiseFn, g: PiecewiseFn) -> PiecewiseFn:
    """Pointwise maximum of two piecewise functions on the same domain.

    Crossing points inside a shared open interval are solved exactly and
    become breakpoints of the result; no epsilon merging is performed.
    """
    if (f.domain_lo, f.domain_hi) != (g.domain_lo, g.domain_hi):
        raise ValueError("pw_max requires identical domains")
    cuts = sorted({f.domain_lo, *f.ends, *g.ends})
    segs: list[Segment] = []
    # one index per operand, advanced through its segments as the cuts rise
    at = [0, 0]

    def seg_past(j: int, x: Fraction, on_x: bool) -> Segment | None:
        # the first segment of operand j carrying x (on_x) or the open gap right of x
        ops = (f, g)[j].segments
        i = at[j]
        while i < len(ops) and (ops[i].hi < x or ops[i].hi == x
                                and not (on_x and ops[i].hi_closed)):
            i += 1
        at[j] = i
        return ops[i] if i < len(ops) else None

    def point(x: Fraction) -> None:
        # domain ends may be open in one operand; the max is then undefined there
        s1, s2 = seg_past(0, x, True), seg_past(1, x, True)
        if s1 is None or s2 is None or not (s1.contains(x) and s2.contains(x)):
            return
        segs.append(Segment(x, x, True, True, Fraction(0), max(s1.value(x), s2.value(x))))

    def interval(u: Fraction, v: Fraction) -> None:
        mid = (u + v) / 2
        s1, s2 = seg_past(0, u, False), seg_past(1, u, False)
        a1, b1 = s1.slope, s1.intercept
        a2, b2 = s2.slope, s2.intercept
        x_cross = (b2 - b1) / (a1 - a2) if a1 != a2 else None
        if x_cross is None or not u < x_cross < v:
            # one side wins the whole gap (with equal slopes: b1 >= b2)
            a, b = (a1, b1) if a1 * mid + b1 >= a2 * mid + b2 else (a2, b2)
            segs.append(Segment(u, v, False, False, a, b))
            return
        left_mid = (u + x_cross) / 2
        if a1 * left_mid + b1 >= a2 * left_mid + b2:
            lo_affine, hi_affine = (a1, b1), (a2, b2)
        else:
            lo_affine, hi_affine = (a2, b2), (a1, b1)
        segs.append(Segment(u, x_cross, False, False, *lo_affine))
        segs.append(Segment(x_cross, x_cross, True, True, Fraction(0), a1 * x_cross + b1))
        segs.append(Segment(x_cross, v, False, False, *hi_affine))

    point(cuts[0])
    for u, v in zip(cuts, cuts[1:]):
        interval(u, v)
        point(v)
    return PiecewiseFn(segs)
