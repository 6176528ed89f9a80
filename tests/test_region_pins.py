"""SHA-256 pins of the region tops' values at the genera no other test reaches.

tests/region_pins.json holds, for g = 2..200, 317, 1000 and 10^4, the digest
of `repr` of the rows (x, t_g(x), f_g(x), F(x)), F = pw_max(f_g, t_g), with
x running over every breakpoint of F and every midpoint of a gap between
two of them, in increasing order.  It also holds, for g = 100, 317 and 1000,
the digest of `repr` of the `_bpn_direct` winners at every slope i/8 on
(0, 2g-2].  The pins name evaluations, not table layouts, so they outlive
any change in how the tops are stored.

Re-record (only for a change meant to move these values) with
`PYTHONPATH=src python tests/test_region_pins.py`.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest

from bnloci.construct import _bpn_direct
from bnloci.exactq import pw_max
from bnloci.regions import fg_eval, fg_piecewise, tg_eval, tg_piecewise

PIN_FILE = Path(__file__).resolve().parent / "region_pins.json"
TOP_GENERA = [*range(2, 201), 317, 1000, 10 ** 4]
BPN_GENERA = [100, 317, 1000]


def _digest(rows: list) -> str:
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def tops_digest(g: int) -> str:
    env = pw_max(fg_piecewise(g), tg_piecewise(g))
    xs = sorted([*env.breaks, *((a + b) / 2 for a, b in zip(env.breaks, env.breaks[1:]))])
    return _digest([(x, tg_eval(g, x), fg_eval(g, x), env(x)) for x in xs])


def bpn_digest(g: int) -> str:
    return _digest([_bpn_direct(g, Fraction(i, 8)) for i in range(1, 8 * (2 * g - 2) + 1)])


if __name__ == "__main__":
    PIN_FILE.write_text(json.dumps({
        "tops": {str(g): tops_digest(g) for g in TOP_GENERA},
        "bpn": {str(g): bpn_digest(g) for g in BPN_GENERA},
    }, indent=1) + "\n")
else:
    PINS = json.loads(PIN_FILE.read_text())


@pytest.mark.parametrize("g", TOP_GENERA)
def test_region_tops_match_pins(g):
    assert tops_digest(g) == PINS["tops"][str(g)]


@pytest.mark.parametrize("g", BPN_GENERA)
def test_bpn_winners_match_pins(g):
    assert bpn_digest(g) == PINS["bpn"][str(g)]


def test_every_breakpoint_of_both_tops_is_an_integer():
    # regions.membership finds a slope's breakpoint or gap from its ceiling
    for g in TOP_GENERA:
        for fn in (tg_piecewise(g), fg_piecewise(g)):
            assert all(x.denominator == 1 for x in fn.breaks), g
