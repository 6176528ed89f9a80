from __future__ import annotations

import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from fractions import Fraction
from pathlib import Path

import pytest

from bnloci import cli, selftest
from bnloci.bncore import kernel_budget
from bnloci.construct import bpn_boundary
from timing import time_limit

SVG_NS = "{http://www.w3.org/2000/svg}"


def run(capsys, argv: list[str]) -> tuple[int, str]:
    code = cli.main(argv)
    return code, capsys.readouterr().out


def run_json(capsys, argv: list[str]) -> tuple[int, dict]:
    code, out = run(capsys, argv)
    return code, json.loads(out)


def test_decide_known_empty(capsys):
    code, doc = run_json(capsys, [
        "decide", "--genus", "3", "--rank", "2", "--degree", "6",
        "--sections", "4", "--curve", "any", "--stability", "stable"])
    assert code == 0
    assert doc["decision"]["status"] == "Empty"
    assert doc["verified"] is True
    assert [c["rule"] for c in doc["decision"]["certificates"]] == \
        ["SerreDualOf", "KnownEmpty"]


def test_decide_universal_pair(capsys):
    code, doc = run_json(capsys, [
        "decide", "--genus", "4", "--p1", "2,11", "--p2", "7,-11",
        "--sections", "21"])
    assert code == 0
    assert doc["decision"]["status"] == "Nonempty"
    assert doc["decision"]["certificates"][0]["rule"] == "KernelConstruction"


def test_decide_requires_a_problem(capsys):
    code, out = run(capsys, ["decide", "--genus", "3", "--sections", "4"])
    assert code == 1
    assert out == ""


def test_product_construct(capsys):
    code, doc = run_json(capsys, [
        "product", "--genus", "6", "--p1", "2,3,2", "--p2", "2,3,2"])
    assert code == 0
    assert doc["k"] == 4
    assert doc["beta_universal"] == -6
    assert doc["status"] == "Nonempty"
    assert doc["window"] == "standard"
    assert doc["factor1"]["decision"]["status"] == "Nonempty"


def test_product_negativity(capsys):
    code, doc = run_json(capsys, [
        "product", "--genus", "6", "--negativity", "--mu1", "3/2",
        "--lam1", "1", "--mu2", "3/2", "--lam2", "1"])
    assert code == 0
    assert (doc["n1"], doc["n2"]) == (2, 2)
    assert doc["beta_universal"] == -6
    assert doc["bound"] == 2


def test_product_precondition_failure(capsys):
    code, out = run(capsys, [
        "product", "--genus", "6", "--p1", "2,5,2", "--p2", "2,3,2"])
    assert code == 1
    assert out == ""


def test_kernel_construct(capsys):
    code, doc = run_json(capsys, [
        "kernel", "--genus", "4", "--base", "2,11,6", "--gen-rank", "1",
        "--twist", "11", "--sections", "21"])
    assert code == 0
    assert doc["k_max"] == 21
    assert doc["beta_universal"] == -7
    assert doc["pair"] == {"n2": 7, "d2": -11}


def test_kernel_negativity(capsys):
    code, doc = run_json(capsys, [
        "kernel", "--genus", "4", "--base", "2,11,6", "--negativity",
        "--family-e", "23"])
    assert code == 0
    assert doc["quadratic"] == {"a": "-1", "b": "11", "c": "-7"}
    assert (doc["d_min"], doc["beta"], doc["k"]) == (11, -7, 21)


def test_kernel_budget_violation(capsys):
    code, out = run(capsys, [
        "kernel", "--genus", "4", "--base", "2,11,6", "--gen-rank", "1",
        "--twist", "11", "--sections", "22"])
    assert code == 1


def test_bpn_boundary(capsys):
    code, doc = run_json(capsys, ["bpn", "--genus", "10", "--mu", "3",
                                  "--boundary"])
    assert code == 0
    assert doc["boundary"] == "441/400"
    assert doc["branch"] == "direct"
    assert doc["decomposition"] == ["3/2", "3/2", "21/20", "21/20"]


def test_bpn_membership(capsys):
    code, doc = run_json(capsys, ["bpn", "--genus", "10", "--mu", "3",
                                  "--lam", "111/100"])
    assert code == 0
    assert doc["member"] is False
    code, doc = run_json(capsys, ["bpn", "--genus", "10", "--mu", "3",
                                  "--lam", "441/400"])
    assert doc["member"] is True


def test_bpn_new_points(capsys):
    code, doc = run_json(capsys, ["bpn", "--genus", "10", "--new-points"])
    assert code == 0
    by_mu = {p["mu"]: p for p in doc["points"]}
    assert by_mu["3"]["boundary"] == "441/400"
    assert by_mu["3"]["margin_f"] == "1/400"

    code, out = run(capsys, ["bpn", "--genus", "10", "--new-points",
                             "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "mu,boundary,t_value,f_value,margin_t,margin_f,attained,branch"
    assert any(line.startswith("3,441/400,") for line in lines[1:])


def test_bpn_boundary_at_a_slope_of_3000_digits(capsys):
    q = 10**2999 + 7
    code, doc = run_json(capsys, ["bpn", "--genus", "10", "--mu", f"{10 * q + 1}/{q}",
                                  "--boundary"])
    assert code == 0
    assert doc["boundary"] == str(bpn_boundary(10, Fraction(10 * q + 1, q)).boundary)


def test_bpn_needs_one_mode(capsys):
    assert run(capsys, ["bpn", "--genus", "10", "--mu", "3"])[0] == 1
    assert run(capsys, ["bpn", "--genus", "10", "--mu", "3", "--boundary",
                        "--new-points"])[0] == 1
    assert run(capsys, ["bpn", "--genus", "4", "--new-points"])[0] == 1


def test_beta_pair_quartet(capsys):
    code, doc = run_json(capsys, ["beta", "--genus", "6", "--p1", "2,3",
                                  "--p2", "2,3", "--sections", "4"])
    assert code == 0
    assert doc["chi"] == -8
    assert doc["beta_universal"] == -6
    assert doc["beta_tensor"] == 33
    assert doc["tensor"] == {"genus": 6, "rank": 4, "degree": 12, "sections": 4}
    assert {"beta_untwisted", "beta_twisted"} <= doc.keys()


def test_beta_single(capsys):
    code, doc = run_json(capsys, ["beta", "--genus", "3", "--rank", "2",
                                  "--degree", "6", "--sections", "4"])
    assert code == 0
    assert doc["beta_untwisted"] == 1
    assert doc["slope"] == "3"
    assert doc["moduli_dim"] == 9
    assert run(capsys, ["beta", "--genus", "3", "--sections", "4"])[0] == 1


def test_enumerate(capsys):
    code, doc = run_json(capsys, ["enumerate", "--genus", "3", "--rank", "3",
                                  "--sections", "5"])
    assert code == 0
    assert doc["degrees"] == [8]

    code, out = run(capsys, ["enumerate", "--genus", "3",
                             "--rank-range", "3,6", "--format", "csv"])
    assert code == 0
    assert out.splitlines() == [
        "rank,sections,count,degrees",
        "3,5,1,8",
        "4,6,2,10;11",
        "5,7,3,12;13;14",
        "6,8,4,14;15;16;17",
    ]
    assert run(capsys, ["enumerate", "--genus", "2", "--rank", "3",
                        "--sections", "5"])[0] == 1


def test_plot_svg(capsys):
    code, out = run(capsys, ["plot", "--genus", "10"])
    assert code == 0
    root = ET.fromstring(out)
    assert root.tag == f"{SVG_NS}svg"
    polylines = root.findall(f".//{SVG_NS}polyline")
    assert len(polylines) == 5
    assert root.findall(f".//{SVG_NS}circle")
    # standalone: no external references anywhere
    assert "href" not in out


def test_plot_csv(capsys):
    code, out = run(capsys, ["plot", "--genus", "10", "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "curve,mu,lambda"
    curves = {line.split(",")[0] for line in lines[1:]}
    assert {"T", "BMNO", "Clifford", "BNCurve", "BPN"} <= curves
    assert any(c.startswith("Excluded:") for c in curves)
    assert "Clifford,18,10" in lines


def test_plot_rejects_genus_one(capsys):
    for argv in (["plot", "--genus", "1"], ["plot", "--genus", "1", "--format", "csv"]):
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: genus must be >= 2, got 1\n"


@pytest.mark.parametrize("argv, shown", [
    (["--step", "0"], "0"),
    (["--step=-1/2", "--format", "csv"], "-1/2"),
])
def test_plot_rejects_nonpositive_step(argv, shown):
    # in a child process, so that a sampling loop that never advances
    # fails the test at the timeout instead of hanging the suite
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-m", "bnloci.cli", "plot", "--genus", "5",
                           *argv], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == f"error: step must be positive, got {shown}\n"


@pytest.mark.parametrize("argv", [
    ["bpn", "--genus", "10", "--new-points", "--step", "1/1000000"],
    ["plot", "--genus", "10", "--step", "1/1000000"],
    ["plot", "--genus", "10", "--format", "csv", "--step", "1/1000000"],
])
def test_too_fine_step_exits_at_once(capsys, argv):
    with time_limit(10):
        assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: step 1/1000000 gives 18000000 grid slopes "
                            "on (0, 18], at most 10000 allowed\n")


@pytest.mark.parametrize("argv, message", [
    (["selftest", "--trials", "1000000000"],
     "trials must be between 1 and 100000, got 1000000000"),
    (["plot", "--genus", "10", "--samples-per-unit", "1000000000"],
     "samples-per-unit 1000000000 gives 18000000000 samples per curve on [0, 18], "
     "at most 10000 allowed"),
    (["plot", "--genus", "10", "--format", "csv", "--samples-per-unit", "556"],
     "samples-per-unit 556 gives 10008 samples per curve on [0, 18], "
     "at most 10000 allowed"),
], ids=["selftest-trials", "plot-svg-samples", "plot-csv-samples"])
def test_oversized_work_exits_at_once(capsys, argv, message):
    with time_limit(10):
        assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


UNIVERSAL = ["decide", "--genus", "6", "--sections"]


@pytest.mark.parametrize("argv, message", [
    (["product", "--genus", "6", "--negativity", "--mu1", "2999999/1000000",
      "--lam1", "1", "--mu2", "3", "--lam2", "1"],
     "negativity scan needs more than 1000000 steps of work: no witness below "
     "rank 1414, provable cap rank 3162277661000001"),
    (["enumerate", "--genus", "3", "--rank-range", "2,1000000000"],
     "ranks 2..1000000000 at genus 3: up to 1000000000999999998 candidate "
     "degrees, at most 1000000 allowed"),
    (["enumerate", "--genus", "10000", "--rank-range", "2,100"],
     "ranks 2..100 at genus 10000: up to 50484951 candidate degrees, "
     "at most 1000000 allowed"),
    (["enumerate", "--genus", "100000000", "--rank", "3", "--sections", "5"],
     "rank 3 at genus 100000000: up to 299999997 candidate degrees, "
     "at most 1000000 allowed"),
    (["decide", "--genus", "10000000", "--rank", "2", "--degree", "3",
      "--sections", "1"],
     "genus 10000000 is above 100000, the largest this command builds region "
     "tables for"),
    (["bpn", "--genus", "100001", "--mu", "3", "--boundary"],
     "genus 100001 is above 100000, the largest this command builds region "
     "tables for"),
    (["product", "--genus", "100001", "--p1", "2,3,2", "--p2", "2,3,2"],
     "genus 100001 is above 100000, the largest this command builds region "
     "tables for"),
    (["kernel", "--genus", "100001", "--base", "2,11,6", "--twist", "11",
      "--sections", "21"],
     "genus 100001 is above 100000, the largest this command builds region "
     "tables for"),
], ids=["product-negativity", "enumerate-wide-range", "enumerate-large-genus-range",
        "enumerate-huge-genus", "decide-genus", "bpn-genus", "product-genus",
        "kernel-genus"])
def test_unbounded_work_exits_at_once(capsys, argv, message):
    with time_limit(10):
        assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("p1, p2, status, rules", [
    ("2,1000000", "2,-8", "Nonempty", ["TwistedScaling"]),
    ("2,1000000000000", "2,-8", "Nonempty", ["TwistedScaling"]),
    ("2,-1000000000000", "2,3", "Unknown", []),
], ids=["kernel-window-1e6", "kernel-window-1e12", "product-no-window"])
def test_universal_search_skips_constructions_without_a_window(capsys, p1, p2,
                                                               status, rules):
    # the kernel twist d = 8 is below 2ng = 12, and no product shift of the
    # huge degrees has a slope window, so neither k1 loop nor trial division runs
    with time_limit(10):
        code, doc = run_json(capsys, UNIVERSAL + ["5", "--p1", p1, "--p2", p2])
    assert code == 0
    assert doc["decision"]["status"] == status
    assert [c["rule"] for c in doc["decision"]["certificates"]] == rules
    assert doc["verified"] is True


def test_plot_without_samples_exits_before_any_work(capsys):
    with time_limit(10):
        assert cli.main(["plot", "--genus", "1000000000", "--samples-per-unit", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: samples_per_unit must be >= 1\n"


def test_unwritable_out_exits_one(capsys, tmp_path):
    target = tmp_path / "missing" / "x.json"
    argv = ["beta", "--genus", "3", "--rank", "1", "--degree", "1", "--sections", "1",
            "--out", str(target)]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot write {target}: No such file or directory\n"
    assert not target.parent.exists()


def test_kernel_negativity_of_a_large_family_answers_at_once(capsys):
    with time_limit(10):
        code, doc = run_json(capsys, [
            "kernel", "--genus", "4", "--base", "2,11,6", "--gen-rank", "1",
            "--negativity", "--family-e", "100000000"])
    assert code == 0
    assert (doc["d_min"], doc["beta"], doc["k"]) == (479128681, -286182523, 1816514724)


def test_universal_search_with_many_divisors_answers_at_once(capsys):
    with time_limit(10):
        code, doc = run_json(capsys, UNIVERSAL + ["1000000000", "--p1", "2,3",
                                                  "--p2", "2,3"])
    assert code == 0
    assert doc["decision"]["status"] == "Unknown"
    assert doc["verified"] is True


@pytest.mark.parametrize("scan, argv", [
    ("product_negativity_search",
     ["product", "--genus", "6", "--negativity", "--mu1", "3/2", "--lam1", "1",
      "--mu2", "3/2", "--lam2", "1"]),
    ("kernel_negativity_min_d",
     ["kernel", "--genus", "4", "--base", "2,11,6", "--negativity", "--family-e", "23"]),
])
def test_exhausted_scan_exits_one(capsys, monkeypatch, scan, argv):
    def exhausted(*args, **kwargs):
        raise RuntimeError("negativity scan exhausted its provable cap")

    monkeypatch.setattr(cli, scan, exhausted)
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: negativity scan exhausted its provable cap\n"


def test_output_is_deterministic(capsys):
    argv = ["plot", "--genus", "7", "--format", "csv"]
    first = run(capsys, argv)[1]
    second = run(capsys, argv)[1]
    assert first == second
    argv = ["decide", "--genus", "4", "--rank", "2", "--degree", "11",
            "--sections", "6"]
    assert run(capsys, argv)[1] == run(capsys, argv)[1]


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "figure.svg"
    code, out = run(capsys, ["plot", "--genus", "5", "--out", str(target)])
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("<?xml")


def test_selftest_passes(capsys):
    code, out = run(capsys, ["selftest", "--trials", "300"])
    assert code == 0
    assert out.splitlines() == [
        "ok 01 product threshold (24 checks)",
        "ok 02 boundary parabola (119 checks)",
        "ok 03 new point (15 checks)",
        "ok 04 kernel family (46 checks)",
        "ok 05 threshold oracles (437 checks)",
        "ok 06 duality invariances (2100 checks)",
        "ok 07 degree counts (10 checks)",
        "ok 08 known and special cases (97 checks)",
        "ok 09 small slope equivalence (14399 checks)",
        "ok 10 certificate soundness (28455 checks)",
        "selftest passed (45702 checks)"]
    assert run(capsys, ["selftest", "--trials", "0"])[0] == 1


def test_cli_import_leaves_selftest_unloaded():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", "import sys, bnloci.cli; "
                           "print('bnloci.selftest' in sys.modules)"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.stdout == "False\n"


def test_selftest_reports_the_first_failed_check(capsys, monkeypatch):
    monkeypatch.setattr(selftest, "c6_enumerate", lambda g, n1, k1: [])
    code, out = run(capsys, ["selftest", "--trials", "1"])
    assert code == 2
    assert out.splitlines()[-2:] == ["ok 06 duality invariances (7 checks)",
                                     "FAIL 07 degree counts: degree count moved at 3"]


def test_huge_exponent_is_refused_before_it_is_expanded(capsys):
    with time_limit(10):
        assert cli.main(["bpn", "--genus", "10", "--mu", "1e10000000", "--boundary"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == ("bnloci bpn: error: argument --mu: exponent "
                                             "of '1e10000000' has more than 6 digits")


def test_rational_of_too_many_digits_is_refused(capsys):
    # Python cannot print an integer of more than 4300 digits
    assert cli.main(["bpn", "--genus", "10", "--mu", "3", "--lam", "1e-5000"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == (
        "bnloci bpn: error: argument --lam: '1e-5000' has a numerator or "
        "denominator of 10^4300 or more")
    assert cli.main(["bpn", "--genus", "10", "--mu", "3", "--lam", "1e-4299"]) == 0


@pytest.mark.parametrize("argv, name", [
    (["product", "--genus", "6", "--negativity", "--mu1=-9e4299", "--lam1", "1",
      "--mu2=9e4299", "--lam2", "1"], "d1"),
    (["bpn", "--genus", "5", "--new-points", "--format", "csv",
      "--step", f"{10**4298 + 1}/{10**4298}"], "column boundary"),
    (["bpn", "--genus", "5", "--new-points",
      "--step", f"{10**4298 + 1}/{10**4298}"], "points[0].boundary"),
])
def test_output_number_of_too_many_digits_is_named(capsys, argv, name):
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: output {name} has more than 4300 digits, "
                            "more than can be printed\n")


def _text(n: int) -> str:
    """n in decimal, past Python's int-to-text limit too."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        sys.set_int_max_str_digits(limit)


def _refusal(capsys, argv: list[str]) -> str:
    """The one error line of a command that exits 1 within 10 s."""
    with time_limit(10):
        assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
    return captured.err


def test_decide_of_too_long_a_count_is_refused_after_deciding(capsys):
    # the count of this rank-one problem is near 10^8400: the decision is
    # made, and the output refuses the count by its path
    nines = "9" * 4200
    assert _refusal(capsys, [
        "decide", "--genus", "3", "--rank", "1", "--degree", f"-{nines}",
        "--sections", nines, "--curve", "petri"]) == (
        "error: output decision.beta has more than 4300 digits, "
        "more than can be printed\n")


@pytest.mark.parametrize("p1, p2, message", [
    # 2*g*n2 has 4301 digits; the first factor's slope 8/3 is out of window
    ("3,8,9", f"{'9' * 4299},5,1", "first factor slope exceeds 2"),
    # 2*n1 = 10^4300; the second factor's slope 8/3 has no certificate
    (f"5{'0' * 4299},5,1", "3,8,9",
     "second factor locus is not certified nonempty at its rank"),
], ids=["2*g*n2", "2*n1"])
def test_product_window_bound_of_too_many_digits_is_refused(capsys, p1, p2, message):
    assert _refusal(capsys, ["product", "--genus", "9", "--p1", p1, "--p2", p2]) == (
        f"error: {message}\n")


# ranks of 4300 digits whose Serre duals' slopes (2n(g-1) - d)/n have
# numerators of 4301
_N = 10**4299
_M = 12 * 10**4298 + 1
_DUAL_D = "decision.certificates[2].params.dual.d has more than 4300 digits"


@pytest.mark.parametrize("argv, message", [
    (["decide", "--genus", "9", "--rank", str(_N), "--degree", str(_N + 1),
      "--sections", str(_N)], f"output {_DUAL_D}, more than can be printed"),
    (["product", "--genus", "9", "--p1", f"{_N},{_N + 1},{_N}", "--p2", "2,3,2"],
     f"output factor1.{_DUAL_D}, more than can be printed"),
    # the base is decided nonempty through its dual; the budget fails
    (["kernel", "--genus", "9", "--base", f"{_M},{7 * _M + 1},{3 * _M // 2}",
      "--twist", "19", "--sections", "1"],
     "section count 1 exceeds the kernel budget k_max = "
     + _text(kernel_budget(9, _M, 7 * _M + 1, 3 * _M // 2, 1, 19))),
], ids=["decide", "product-factor", "kernel-base"])
def test_serre_dual_point_of_too_many_digits_is_refused(capsys, argv, message):
    assert _refusal(capsys, argv) == f"error: {message}\n"


def test_serre_dual_point_that_reduces_is_answered(capsys):
    # at d = n the dual slope reduces to 15
    code, doc = run_json(capsys, ["decide", "--genus", "9", "--rank", str(_N),
                                  "--degree", str(_N), "--sections", str(_N)])
    assert code == 0
    assert doc["verified"] is True


def test_negativity_cap_of_too_many_digits_is_named(capsys):
    err = _refusal(capsys, ["product", "--genus", "6", "--negativity", "--mu1=1/3",
                            "--lam1=1e-4299", "--mu2", "3", "--lam2", "1"])
    head = ("error: negativity scan needs more than 1000000 steps of work: no "
            "witness below rank 1414, provable cap rank ")
    # the cap is printed in full
    assert err.startswith(head) and err[len(head):-1].isdigit()
    assert len(err) == 10858


@pytest.mark.parametrize("argv, message", [
    # the first factor's small-slope threshold n + g(k - n) has 4301 digits
    (["product", "--genus", "9", "--p1", f"2,3,{2 * 10**4299}", "--p2", "2,3,2"],
     "first factor locus is not certified nonempty at its rank"),
    # the kernel premises print d - ng and 2ng, of 4304 digits
    (["kernel", "--genus", "9", "--base", "2,11,6", "--gen-rank", str(10**4299),
      "--twist", "20", "--sections", "1"],
     f"twist degree 20 must exceed 2ng = 18{'0' * 4299} "
     "(equality needs a non-hyperelliptic curve)"),
], ids=["product-factor-threshold", "kernel-generator-rank"])
def test_premise_numbers_past_the_digit_limit_are_printed(capsys, argv, message):
    assert _refusal(capsys, argv) == f"error: {message}\n"


def test_sections_of_4300_digits_reach_the_search_loop_limit(capsys):
    err = _refusal(capsys, ["decide", "--genus", "6", "--p1", "2,3", "--p2", "2,3",
                            "--sections", str(10**4299)])
    assert err.startswith("error: universal search loop over ")
    assert err.endswith(" trial divisors passed its limit of 50000 steps\n")


def test_digit_limit_is_restored_on_every_exit(capsys, monkeypatch):
    during = []

    def decide_and_raise(*args):
        during.append(sys.get_int_max_str_digits())
        raise KeyError("raised")

    decide = ["decide", "--genus", "4", "--rank", "2", "--degree", "11", "--sections", "6"]
    exits = [
        (decide, 0, None),
        (["decide", "--genus", "1", "--rank", "2", "--degree", "1", "--sections", "1"], 1,
         None),
        (["bogus"], 1, None),
        (decide, 2, ("verify_decision", lambda dec: False)),
        (decide, KeyError, ("decide_untwisted", decide_and_raise)),
    ]
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(5000)
    try:
        for argv, code, patch in exits:
            with monkeypatch.context() as m:
                if patch:
                    m.setattr(cli, *patch)
                if code is KeyError:
                    with pytest.raises(KeyError):
                        cli.main(argv)
                else:
                    assert cli.main(argv) == code
            assert sys.get_int_max_str_digits() == 5000, (argv, code)
    finally:
        sys.set_int_max_str_digits(before)
    # lifted while the command ran
    assert during == [0]
    capsys.readouterr()


def test_search_loop_past_sys_maxsize_is_refused(capsys):
    # isqrt(10^60) = 10^30 trial divisors, more than len() of a range can count
    assert cli.main(["decide", "--genus", "4", "--p1=3,4", "--p2=3,5",
                     "--sections", str(10**60)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: universal search loop over {10**30} trial divisors "
                            "passed its limit of 50000 steps\n")


def test_verification_failure_exits_two(capsys, monkeypatch):
    monkeypatch.setattr(cli, "verify_decision", lambda dec: False)
    code, doc = run_json(capsys, ["decide", "--genus", "4", "--rank", "2",
                                  "--degree", "11", "--sections", "6"])
    assert code == 2
    assert doc["verified"] is False


@pytest.mark.parametrize("argv", [
    ["product", "--genus", "6", "--p1", "2,3,2", "--p2", "2,3,2"],
    ["kernel", "--genus", "4", "--base", "2,11,6", "--twist", "11", "--sections", "21"],
], ids=["product", "kernel"])
def test_construction_verification_failure_exits_two(capsys, monkeypatch, argv):
    assert run_json(capsys, argv)[1]["verified"] is True
    monkeypatch.setattr(cli, "verify_certificate", lambda cert: False)
    code, doc = run_json(capsys, argv)
    assert code == 2
    assert doc["verified"] is False


def test_argparse_failures_exit_one(capsys):
    assert cli.main(["bogus"]) == 1
    assert cli.main(["bpn", "--genus", "10", "--mu", "x/y", "--boundary"]) == 1
    assert cli.main(["--help"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("argv, message", [
    (["decide", "--genus", "4", "--p1", "2", "--p2", "2,3", "--sections", "2"],
     "bnloci decide: error: argument --p1: expected rank,degree, got '2'"),
    (["decide", "--genus", "4", "--p1", "2,x", "--p2", "2,3", "--sections", "2"],
     "bnloci decide: error: argument --p1: expected rank,degree, got '2,x'"),
    (["product", "--genus", "4", "--negativity", "--mu1", "1", "--lam1", "1", "--mu2", "1"],
     "error: negativity search needs --mu1 --lam1 --mu2 --lam2"),
    (["kernel", "--genus", "4", "--base", "2,11,6", "--sections", "3"],
     "error: kernel construction needs --twist and --sections "
     "(or --negativity with --family-e)"),
    (["kernel", "--genus", "4", "--base", "2,11,6", "--twist", "11"],
     "error: kernel construction needs --twist and --sections "
     "(or --negativity with --family-e)"),
    (["enumerate", "--genus", "1"],
     "error: enumerate needs --rank and --sections "
     "(or --rank-range with --section-offset)"),
    (["enumerate", "--genus", "1", "--rank", "2", "--sections", "3"],
     "error: genus must be at least 2, got 1"),
    *((["kernel", "--genus", g, "--base", "2,1,4", "--negativity", "--family-e", "100"],
       f"error: genus must be at least 2, got {g}") for g in ("1", "0", "-5")),
])
def test_incomplete_or_malformed_input_exits_one_with_its_message(capsys, argv, message):
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == message
