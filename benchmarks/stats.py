"""Order statistics used by the report."""

from __future__ import annotations

import math
from fractions import Fraction

# candidate tail percentiles, highest first
TAIL_LADDER = tuple(Fraction(p) for p in ("99.99", "99.9", "99", "95", "90", "75", "50"))
MIN_BEYOND = 10


def nearest_rank(n: int, pct: Fraction) -> int:
    """1-based rank of the pct-th percentile of n samples (nearest-rank rule)."""
    return max(1, math.ceil(pct * n / 100))


def tail_percentile(n: int) -> Fraction | None:
    """Highest ladder percentile with at least MIN_BEYOND samples above its rank."""
    for pct in TAIL_LADDER:
        if n - nearest_rank(n, pct) >= MIN_BEYOND:
            return pct
    return None


def tail(samples: list) -> tuple[float, str, int]:
    """(value, percentile label, samples beyond it); the maximum if n is tiny."""
    ordered = sorted(samples)
    n = len(ordered)
    pct = tail_percentile(n)
    if pct is None:
        return ordered[-1], "max", 0
    rank = nearest_rank(n, pct)
    label = "p" + str(float(pct)).removesuffix(".0")
    return ordered[rank - 1], label, n - rank


def slope(xs: list, ys: list) -> float:
    """Least-squares slope of ys against xs."""
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx
