"""Acceptance suite: the ten criteria of `bnloci.selftest`, one test each.

Each test records an "acceptance NN: PASS/FAIL" line; the lines are
echoed in the terminal summary (see conftest) so they survive pytest's
output capture.  All checks are exact; no tolerances are needed anywhere.
"""

from __future__ import annotations

import random
from contextlib import contextmanager

from bnloci import selftest
from bnloci.selftest import Checks

# decisions emitted while running criteria 1-9, re-verified by criterion 10
EMITTED = []

# one line per criterion, echoed by the conftest terminal-summary hook
REPORT_LINES = []


@contextmanager
def report(num: int, detail: str):
    try:
        yield
    except BaseException:
        REPORT_LINES.append(f"acceptance {num:02d}: FAIL - {detail}")
        raise
    REPORT_LINES.append(f"acceptance {num:02d}: PASS - {detail}")


def test_criterion_01_product_threshold():
    with report(1, "product pair count negative exactly from genus 6"):
        EMITTED.extend(selftest.product_threshold(Checks()))


def test_criterion_02_boundary_parabola():
    with report(2, "genus-10 boundary parabola matches on the 1/8 grid"):
        selftest.boundary_parabola(Checks())


def test_criterion_03_new_point():
    with report(3, "(3, 441/400) lies beyond both classical regions"):
        selftest.new_point(Checks())


def test_criterion_04_kernel_family():
    with report(4, "kernel family quadratic and scan at (4,2,11,6,1,e=23)"):
        EMITTED.extend(selftest.kernel_family(Checks()))


def test_criterion_05_threshold_oracles():
    with report(5, "threshold functions equal their brute-force definitions"):
        selftest.threshold_oracles(Checks())


def test_criterion_06_duality_invariances():
    with report(6, "10^4 randomized exact duality and symmetry identities"):
        check = Checks()
        selftest.duality_invariances(check, random.Random(2026), 10_000)
        assert check.count == 70_000


def test_criterion_07_degree_counts():
    with report(7, "admissible-degree counts and genus-2 rejection"):
        selftest.degree_counts(Checks())


def test_criterion_08_known_and_special_cases():
    with report(8, "known emptiness and canonical / hyperelliptic cases"):
        EMITTED.extend(selftest.known_and_special_cases(Checks()))


def test_criterion_09_small_slope_equivalence():
    with report(9, "exhaustive small-slope window agrees with the count curve"):
        EMITTED.extend(selftest.small_slope_equivalence(Checks()))


def test_criterion_10_certificate_soundness():
    with report(10, "all emitted and 400 seeded random decisions re-verify"):
        selftest.certificate_soundness(Checks(), random.Random(2026), EMITTED)
