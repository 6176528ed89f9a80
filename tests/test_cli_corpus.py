"""The golden CLI corpus of the benchmark, run in-process as a test.

Every case of benchmarks/corpus.py goes through bnloci.cli.main, and its
exit code and stdout (and stderr, where the golden file records it) must
match benchmarks/golden/cli_corpus.json byte for byte.
"""

from __future__ import annotations

import contextlib
import io
import sys
import traceback
from pathlib import Path

import pytest

from bnloci.cli import main

BENCH = Path(__file__).resolve().parents[1] / "benchmarks"
sys.path.insert(0, str(BENCH))

import corpus  # noqa: E402
import gate  # noqa: E402

GOLDEN = gate.load(gate.CLI_CORPUS)["cases"]


def test_corpus_and_golden_name_the_same_cases():
    assert sorted(name for name, _ in corpus.CASES) == sorted(GOLDEN)


@pytest.mark.parametrize("name, argv", corpus.CASES, ids=[name for name, _ in corpus.CASES])
def test_cli_output_matches_golden(name, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except Exception:
            code = "traceback: " + traceback.format_exc().strip().splitlines()[-1]
    got = {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
    assert gate.corpus_mismatches({name: GOLDEN[name]}, {name: got}) == [], got
