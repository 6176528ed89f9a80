"""SHA-256 pins of the drawn outputs, beyond the two plots of the CLI corpus.

tests/drawing_pins.json holds the digest of `plot --format csv` and of the
SVG for g = 2..12 at 1, 2 and 4 samples per unit (keyed "g,samples,format"),
and of the `bpn --new-points` JSON for g = 5..12.  They were recorded
before the region tops changed representation, so a drawing that moves by
one byte fails here.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from bnloci.cli import main

PINS = json.loads((Path(__file__).resolve().parent / "drawing_pins.json").read_text())


def _digest(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("g", range(2, 13))
def test_plot_outputs_match_pins(g):
    for samples in (1, 2, 4):
        for fmt in ("csv", "svg"):
            argv = ["plot", "--genus", str(g), "--format", fmt,
                    "--samples-per-unit", str(samples)]
            assert _digest(argv) == PINS["plot"][f"{g},{samples},{fmt}"], argv


@pytest.mark.parametrize("g", range(5, 13))
def test_new_points_match_pins(g):
    assert _digest(["bpn", "--genus", str(g), "--new-points"]) == PINS["new_points"][str(g)]
