"""The golden CLI corpus: fixed `bnloci` invocations whose output must not change.

Each case runs in-process through `bnloci.cli.main`; stdout, stderr and the
exit code are compared byte for byte with `golden/cli_corpus.json`.  A
case marked as a known defect records the behaviour the CLI should have;
its stderr is not compared, because the message has not been written yet.
"""

from __future__ import annotations

CASES: list[tuple[str, list[str]]] = [
    ("decide-known-empty", ["decide", "--genus", "3", "--rank", "2", "--degree", "6",
                            "--sections", "4"]),
    ("decide-petri", ["decide", "--genus", "6", "--rank", "1", "--degree", "5",
                      "--sections", "2", "--curve", "petri"]),
    ("decide-small-slope", ["decide", "--genus", "5", "--rank", "3", "--degree", "5",
                            "--sections", "4", "--stability", "semistable"]),
    ("decide-region", ["decide", "--genus", "10", "--rank", "2", "--degree", "13",
                       "--sections", "3", "--curve", "general"]),
    ("decide-unknown", ["decide", "--genus", "7", "--rank", "3", "--degree", "14",
                        "--sections", "6"]),
    ("decide-universal", ["decide", "--genus", "6", "--sections", "4",
                          "--p1", "2,3", "--p2", "2,3"]),
    ("decide-universal-kernel", ["decide", "--genus", "4", "--sections", "21",
                                 "--p1", "2,11", "--p2", "7,-11"]),
    ("decide-universal-unknown", ["decide", "--genus", "5", "--sections", "9",
                                  "--p1", "3,4", "--p2", "2,1"]),
    ("beta-untwisted", ["beta", "--genus", "6", "--rank", "2", "--degree", "7",
                        "--sections", "3"]),
    ("beta-pair", ["beta", "--genus", "6", "--p1", "2,3", "--p2", "2,3",
                   "--sections", "4"]),
    ("product", ["product", "--genus", "6", "--p1", "2,3,2", "--p2", "2,3,2"]),
    ("product-negativity", ["product", "--genus", "6", "--negativity", "--mu1", "3/2",
                            "--lam1", "1", "--mu2", "3/2", "--lam2", "1"]),
    ("kernel", ["kernel", "--genus", "4", "--base", "2,11,6", "--gen-rank", "1",
                "--twist", "11", "--sections", "21"]),
    ("kernel-negativity", ["kernel", "--genus", "4", "--base", "2,11,6",
                           "--gen-rank", "1", "--negativity", "--family-e", "23"]),
    ("bpn-boundary", ["bpn", "--genus", "10", "--mu", "3", "--boundary"]),
    ("bpn-boundary-dual", ["bpn", "--genus", "10", "--mu", "31/2", "--boundary"]),
    ("bpn-lam", ["bpn", "--genus", "10", "--mu", "3", "--lam", "441/400"]),
    ("bpn-new-points", ["bpn", "--genus", "6", "--new-points"]),
    ("bpn-new-points-csv", ["bpn", "--genus", "7", "--new-points", "--step", "1/4",
                            "--format", "csv"]),
    ("enumerate", ["enumerate", "--genus", "6", "--rank", "3", "--sections", "5"]),
    ("enumerate-range-csv", ["enumerate", "--genus", "5", "--rank-range", "2,4",
                             "--format", "csv"]),
    ("plot-csv-g3", ["plot", "--genus", "3", "--format", "csv"]),
    ("plot-csv-g5", ["plot", "--genus", "5", "--format", "csv", "--samples-per-unit", "2",
                     "--step", "1/2"]),
    # exit-1 paths: every one prints a message and no traceback
    ("error-genus-1", ["decide", "--genus", "1", "--rank", "2", "--degree", "3",
                       "--sections", "1"]),
    ("error-decide-shape", ["decide", "--genus", "5", "--sections", "2"]),
    ("error-bpn-no-mode", ["bpn", "--genus", "10", "--mu", "3"]),
    ("error-bpn-step-0", ["bpn", "--genus", "10", "--new-points", "--step", "0"]),
    ("error-bpn-slope-range", ["bpn", "--genus", "4", "--mu", "7", "--boundary"]),
    ("error-product-slope", ["product", "--genus", "6", "--p1", "2,5,2",
                             "--p2", "2,3,2"]),
    ("error-kernel-budget", ["kernel", "--genus", "4", "--base", "2,11,6",
                             "--gen-rank", "1", "--twist", "11", "--sections", "99"]),
    ("error-enumerate-genus-2", ["enumerate", "--genus", "2", "--rank", "3",
                                 "--sections", "5"]),
    ("error-bad-rational", ["bpn", "--genus", "10", "--mu", "x", "--boundary"]),
    ("error-nonhyperelliptic-g2", ["decide", "--genus", "2", "--rank", "2",
                                   "--degree", "3", "--sections", "2",
                                   "--curve", "nonhyperelliptic"]),
    ("plot-genus-1", ["plot", "--genus", "1"]),
]

# cases whose golden entry states the intended behaviour, which the program
# does not have yet; they are counted in cli.corpus_mismatches, not in failures
KNOWN_DEFECTS = {
    "plot-genus-1": "raises ZeroDivisionError in the SVG axes instead of exiting 1",
}

# invocations left out of the corpus, with the reason
EXCLUDED = {
    "plot --step 0": "never returns: the BPN sampling loop does not advance",
    "plot --step=-1/2": "never returns, for the same reason",
}
