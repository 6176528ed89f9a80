"""Expected-dimension counts for Brill-Noether loci and their dualities.

Conventions used throughout the package:

- a curve is smooth and projective of genus g >= 2 unless stated otherwise
- an untwisted problem asks for bundles of rank n and degree d carrying at
  least k independent global sections
- a twisted problem fixes a second bundle with invariants (n2, d2) and asks
  for k independent maps from its dual, equivalently sections of the tensor
  product; the universal variant lets both bundles move

All quantities are exact: integers in, integers out, except slope-plane
coordinates which are Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactq import as_rational


def _require_genus(g: int) -> None:
    if g < 2:
        raise ValueError(f"genus must be >= 2, got {g}")


def _require_rank(n: int) -> None:
    if n < 1:
        raise ValueError(f"rank must be >= 1, got {n}")


@dataclass(frozen=True)
class BNProblem:
    """Untwisted data (g, n, d, k): rank n, degree d, at least k sections."""

    g: int
    n: int
    d: int
    k: int

    def __post_init__(self) -> None:
        _require_genus(self.g)
        _require_rank(self.n)

    @property
    def slope(self) -> Fraction:
        return Fraction(self.d, self.n)

    @property
    def section_density(self) -> Fraction:
        return Fraction(self.k, self.n)


@dataclass(frozen=True)
class UniversalProblem:
    """Universal twisted data: both bundles move, k maps between them.

    Invariants (n1, d1) and (n2, d2) with n1, n2 >= 1.
    """

    g: int
    n1: int
    d1: int
    n2: int
    d2: int
    k: int

    def __post_init__(self) -> None:
        _require_genus(self.g)
        _require_rank(self.n1)
        _require_rank(self.n2)


@dataclass(frozen=True)
class SlopePoint:
    """A point (mu, lam) of the slope plane: slope and section density."""

    mu: Fraction
    lam: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "mu", as_rational(self.mu))
        object.__setattr__(self, "lam", as_rational(self.lam))


def chi_pairing(g: int, n1: int, d1: int, n2: int, d2: int) -> int:
    """Euler pairing of two bundles: n2*d1 + n1*d2 - n1*n2*(g-1)."""
    _require_genus(g)
    return n2 * d1 + n1 * d2 - n1 * n2 * (g - 1)


def moduli_dim(g: int, n: int) -> int:
    """Dimension n^2*(g-1) + 1 of the moduli space of stable bundles."""
    _require_genus(g)
    _require_rank(n)
    return n * n * (g - 1) + 1


def beta_untwisted(g: int, n: int, d: int, k: int) -> int:
    """Expected dimension of the locus of (n, d)-bundles with k sections."""
    _require_genus(g)
    _require_rank(n)
    return n * n * (g - 1) + 1 - k * (k - d + n * (g - 1))


def beta_twisted(g: int, n1: int, d1: int, k: int, n2: int, d2: int) -> int:
    """Expected dimension when the twisting bundle (n2, d2) is held fixed."""
    chi = chi_pairing(g, n1, d1, n2, d2)
    return n1 * n1 * (g - 1) + 1 - k * (k - chi)


def beta_universal(g: int, n1: int, d1: int, n2: int, d2: int, k: int) -> int:
    """Expected dimension of the universal locus, both bundles moving.

    This is the raw count (n1^2 + n2^2)(g-1) + 2 - k*(k - chi) for every
    integer k, including k <= 0 where the locus is the whole product and
    the count is merely a lower bound.  Keeping the formula unconditional
    preserves exact Serre-dual invariance.
    """
    chi = chi_pairing(g, n1, d1, n2, d2)
    return (n1 * n1 + n2 * n2) * (g - 1) + 2 - k * (k - chi)


def beta_tensor(g: int, n1: int, d1: int, n2: int, d2: int, k: int) -> int:
    """Expected dimension for the tensor-product problem of the pair."""
    chi = chi_pairing(g, n1, d1, n2, d2)
    return (n1 * n2) ** 2 * (g - 1) + 1 - k * (k - chi)


def kernel_budget(g: int, n1: int, d1: int, k1: int, n: int, d: int) -> int:
    """Kernel construction's section budget (d - n(g-1))(k1 - n1) - n*d1."""
    return (d - n * (g - 1)) * (k1 - n1) - n * d1


def tensor_problem(g: int, n1: int, d1: int, n2: int, d2: int, k: int) -> BNProblem:
    """The untwisted problem satisfied by tensor products of such pairs.

    When one factor has rank one this is the line-bundle reduction: the
    maps are the sections of the other factor twisted by that line bundle.
    """
    return BNProblem(g, n1 * n2, n1 * d2 + n2 * d1, k)


def serre_dual_problem(p: BNProblem) -> BNProblem:
    """Serre duality on untwisted data: sections trade for the canonical twist.

    (g, n, d, k) maps to (g, n, 2n(g-1) - d, k - d + n(g-1)); the map is an
    involution and preserves beta_untwisted.
    """
    g, n, d, k = p.g, p.n, p.d, p.k
    return BNProblem(g, n, 2 * n * (g - 1) - d, k - d + n * (g - 1))


def serre_dual_point(g: int, pt: SlopePoint) -> SlopePoint:
    """Slope-plane shadow of Serre duality: (mu, lam) -> (2g-2-mu, lam-mu+g-1)."""
    _require_genus(g)
    return SlopePoint(2 * (g - 1) - pt.mu, pt.lam - pt.mu + (g - 1))


def universal_serre_dual(p: UniversalProblem) -> UniversalProblem:
    """Serre duality on universal data.

    ((n1, d1), (n2, d2), k) maps to ((n1, -d1), (n2, 2 n2 (g-1) - d2), k - chi).
    The pairing negates, k*(k - chi) is preserved, so beta_universal is too.
    """
    chi = chi_pairing(p.g, p.n1, p.d1, p.n2, p.d2)
    return UniversalProblem(p.g, p.n1, -p.d1, p.n2, 2 * p.n2 * (p.g - 1) - p.d2, p.k - chi)


def swap_factors(p: UniversalProblem) -> UniversalProblem:
    """Exchange the two moving bundles; all counts are symmetric under this."""
    return UniversalProblem(p.g, p.n2, p.d2, p.n1, p.d1, p.k)


def shift_line_bundle(p: UniversalProblem, ell: int) -> UniversalProblem:
    """Twist the first bundle down and the second up by a degree-ell line bundle.

    (n1, d1) -> (n1, d1 - n1*ell), (n2, d2) -> (n2, d2 + n2*ell).  The maps
    being counted are unchanged, and so is the Euler pairing.
    """
    return UniversalProblem(p.g, p.n1, p.d1 - p.n1 * ell, p.n2, p.d2 + p.n2 * ell, p.k)
