from __future__ import annotations

from fractions import Fraction as Q

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bnloci.bncore import (
    BNProblem,
    UniversalProblem,
    beta_tensor,
    beta_twisted,
    beta_universal,
    beta_untwisted,
    chi_pairing,
    moduli_dim,
    serre_dual_problem,
    shift_line_bundle,
    swap_factors,
    tensor_problem,
    universal_serre_dual,
)

genera = st.integers(min_value=2, max_value=20)
ranks = st.integers(min_value=1, max_value=10)
degrees = st.integers(min_value=-100, max_value=100)
sections = st.integers(min_value=-60, max_value=60)


def test_chi_pairing_values():
    assert chi_pairing(6, 2, 3, 2, 3) == -8
    assert chi_pairing(4, 2, 11, 7, -11) == 13
    # rank-one against the trivial bundle recovers Riemann-Roch
    assert chi_pairing(5, 1, 7, 1, 0) == 7 - 4


def test_moduli_dim_values():
    assert moduli_dim(2, 1) == 2
    assert moduli_dim(5, 3) == 37


def test_beta_untwisted_values():
    assert beta_untwisted(4, 2, 11, 6) == 7
    assert beta_untwisted(3, 2, 6, 4) == 1
    # k = 0 leaves the whole moduli space
    assert beta_untwisted(7, 3, 5, 0) == moduli_dim(7, 3)


def test_beta_twisted_values():
    assert beta_twisted(2, 2, 3, 2, 2, 0) == 5
    assert beta_twisted(5, 3, 9, 3, 2, 0) == 10


def test_beta_universal_values():
    assert beta_universal(6, 2, 3, 2, 3, 4) == -6
    assert beta_universal(4, 2, 11, 7, -11, 21) == -7


def test_beta_tensor_values():
    assert beta_tensor(6, 2, 3, 2, 3, 4) == 33
    assert beta_tensor(5, 6, 11, 7, 12, 56) == 2857


def test_tensor_problem_invariants():
    t = tensor_problem(5, 6, 11, 7, 12, 56)
    assert (t.n, t.d, t.k) == (42, 6 * 12 + 7 * 11, 56)
    assert Q(t.d, t.n) == Q(11, 6) + Q(12, 7)
    # with a rank-one factor it is the line-bundle twist of the other factor
    assert tensor_problem(4, 1, 2, 2, 3, 2) == BNProblem(4, 2, 3 + 2 * 2, 2)
    assert tensor_problem(4, 3, 5, 1, -2, 6) == BNProblem(4, 3, 5 + 3 * -2, 6)


def test_serre_dual_problem_values():
    p = BNProblem(10, 2, 6, 2)
    q = serre_dual_problem(p)
    assert (q.n, q.d, q.k) == (2, 30, 14)


def test_serre_dual_point_values():
    # the point (6, 6/5) reflects to (12, 21/5)
    q = serre_dual_problem(BNProblem(10, 5, 30, 6))
    assert q == BNProblem(10, 5, 60, 21)
    assert (Q(q.d, q.n), Q(q.k, q.n)) == (Q(12), Q(21, 5))


def test_genus_and_rank_validation():
    with pytest.raises(ValueError):
        BNProblem(1, 2, 3, 1)
    with pytest.raises(ValueError):
        BNProblem(3, 0, 3, 1)
    with pytest.raises(ValueError):
        UniversalProblem(3, 1, 0, 0, 1, 1)
    with pytest.raises(ValueError):
        moduli_dim(1, 1)


@given(genera, ranks, degrees, sections)
def test_serre_duality_is_beta_preserving_involution(g, n, d, k):
    p = BNProblem(g, n, d, k)
    q = serre_dual_problem(p)
    assert serre_dual_problem(q) == p
    assert beta_untwisted(g, q.n, q.d, q.k) == beta_untwisted(g, n, d, k)


@given(genera, st.fractions(min_value=-30, max_value=30, max_denominator=12),
       st.fractions(min_value=-30, max_value=30, max_denominator=12))
def test_point_duality_matches_problem_duality(g, mu, lam):
    # the problem's point (d/n, k/n) moves by the reflection
    # (mu, lam) -> (2g-2-mu, lam-mu+g-1), an involution
    def reflect(mu, lam):
        return 2 * (g - 1) - mu, lam - mu + g - 1

    assert reflect(*reflect(mu, lam)) == (mu, lam)
    n = mu.denominator * lam.denominator
    p = BNProblem(g, n, mu.numerator * lam.denominator, lam.numerator * mu.denominator)
    q = serre_dual_problem(p)
    assert (Q(q.d, q.n), Q(q.k, q.n)) == reflect(mu, lam)


@given(genera, ranks, degrees, ranks, degrees, sections)
def test_universal_dual_preserves_counts(g, n1, d1, n2, d2, k):
    p = UniversalProblem(g, n1, d1, n2, d2, k)
    q = universal_serre_dual(p)
    assert universal_serre_dual(q) == p
    assert chi_pairing(g, q.n1, q.d1, q.n2, q.d2) == -chi_pairing(g, n1, d1, n2, d2)
    assert beta_universal(g, q.n1, q.d1, q.n2, q.d2, q.k) == beta_universal(g, n1, d1, n2, d2, k)


@given(genera, ranks, degrees, ranks, degrees, sections)
def test_swap_preserves_counts(g, n1, d1, n2, d2, k):
    p = UniversalProblem(g, n1, d1, n2, d2, k)
    q = swap_factors(p)
    assert swap_factors(q) == p
    assert beta_universal(g, q.n1, q.d1, q.n2, q.d2, q.k) == beta_universal(g, n1, d1, n2, d2, k)
    assert beta_tensor(g, q.n1, q.d1, q.n2, q.d2, q.k) == beta_tensor(g, n1, d1, n2, d2, k)


@given(genera, ranks, degrees, ranks, degrees, sections,
       st.integers(min_value=-5, max_value=5))
def test_shift_preserves_pairing(g, n1, d1, n2, d2, k, ell):
    p = UniversalProblem(g, n1, d1, n2, d2, k)
    q = shift_line_bundle(p, ell)
    assert chi_pairing(g, q.n1, q.d1, q.n2, q.d2) == chi_pairing(g, n1, d1, n2, d2)
    assert shift_line_bundle(q, -ell) == p
