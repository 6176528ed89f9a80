"""Exact rational arithmetic kernels.

Everything downstream (Brill-Noether numbers, region tables, boundary
maximisation) is computed over Q.  This module supplies the few exact
primitives the rest of the package needs: quadratics with exact
coefficients, piecewise-affine functions given by their breakpoints,
their values there and one affine piece per open gap, and their
pointwise maximum.

No floating point is used anywhere in this module.
"""

from __future__ import annotations

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


class PiecewiseFn:
    """Piecewise-affine function on a closed interval of Q.

    Three lists describe it: ``breaks``, the strictly increasing
    breakpoints, whose first and last are the domain ends; ``values``,
    the function's value at each breakpoint; and ``pieces``, one
    (slope, intercept) for each open gap between neighbouring
    breakpoints.  A jump or an isolated spike is a breakpoint value that
    differs from the pieces beside it, so no closure flags are needed.
    Construction checks that the breakpoints strictly increase and that
    the three lengths match, so a malformed table cannot be built;
    anything outside the domain raises DomainError.
    """

    __slots__ = ("breaks", "values", "pieces")

    def __init__(self, breaks: Sequence[Fraction], values: Sequence[Fraction],
                 pieces: Sequence[tuple[Fraction, Fraction]]):
        if not breaks:
            raise ValueError("piecewise function needs at least one breakpoint")
        for lo, hi in zip(breaks, breaks[1:]):
            if lo >= hi:
                raise ValueError(f"breakpoints must strictly increase: {lo} then {hi}")
        if len(values) != len(breaks):
            raise ValueError(f"{len(values)} values for {len(breaks)} breakpoints")
        if len(pieces) != len(breaks) - 1:
            raise ValueError(f"{len(pieces)} pieces for {len(breaks) - 1} gaps")
        self.breaks: list[Fraction] = list(breaks)
        self.values: list[Fraction] = list(values)
        self.pieces: list[tuple[Fraction, Fraction]] = list(pieces)

    def __call__(self, x: RationalLike) -> Fraction:
        x = as_rational(x)
        breaks = self.breaks
        i = bisect_left(breaks, x)
        if i < len(breaks) and breaks[i] == x:
            return self.values[i]
        if i == 0 or i == len(breaks):
            raise DomainError(f"{x} outside domain [{breaks[0]}, {breaks[-1]}]")
        slope, intercept = self.pieces[i - 1]
        return slope * x + intercept


def pw_max(f: PiecewiseFn, g: PiecewiseFn) -> PiecewiseFn:
    """Pointwise maximum of two piecewise functions on the same domain.

    The breakpoints are both operands' merged, and each value is the
    larger of the two there.  A crossing inside a shared open gap is
    solved exactly and becomes a breakpoint of the result; no epsilon
    merging is performed.  On a gap where the operands tie, f's piece
    is kept.
    """
    if (f.breaks[0], f.breaks[-1]) != (g.breaks[0], g.breaks[-1]):
        raise ValueError("pw_max requires identical domains")
    cuts = sorted({*f.breaks, *g.breaks})
    breaks: list[Fraction] = []
    values: list[Fraction] = []
    pieces: list[tuple[Fraction, Fraction]] = []
    # one index per operand: the first of its breakpoints not yet passed
    i = j = 0
    for u, v in zip(cuts, cuts[1:] + [None]):
        if f.breaks[i] == u:
            y1 = f.values[i]
            i += 1
        else:
            y1 = f.pieces[i - 1][0] * u + f.pieces[i - 1][1]
        if g.breaks[j] == u:
            y2 = g.values[j]
            j += 1
        else:
            y2 = g.pieces[j - 1][0] * u + g.pieces[j - 1][1]
        breaks.append(u)
        values.append(max(y1, y2))
        if v is None:
            break
        # the pieces of both operands on the open gap (u, v)
        (a1, b1), (a2, b2) = f.pieces[i - 1], g.pieces[j - 1]
        x_cross = (b2 - b1) / (a1 - a2) if a1 != a2 else None
        if x_cross is None or not u < x_cross < v:
            # one side wins the whole gap (with equal slopes: b1 >= b2)
            mid = (u + v) / 2
            pieces.append((a1, b1) if a1 * mid + b1 >= a2 * mid + b2 else (a2, b2))
            continue
        # the flatter piece is the larger left of the crossing
        lo, hi = ((a1, b1), (a2, b2)) if a1 < a2 else ((a2, b2), (a1, b1))
        pieces.append(lo)
        breaks.append(x_cross)
        values.append(a1 * x_cross + b1)
        pieces.append(hi)
    return PiecewiseFn(breaks, values, pieces)
