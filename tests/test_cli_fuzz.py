"""Fuzz the argparse surface in-process: every command line either gets an
answer (exit 0, or 2 on a failed re-check) or exits 1 with one `error:`
line and nothing on stdout, with no traceback and in bounded time.

Values are drawn small, negative, zero, malformed, of 4300 digits (the
most an input may have) and past each declared limit, never in the range
a limit allows but the README calls slow (a cold `bpn` near the genus
limit takes about 50 s).
"""

from __future__ import annotations

import io
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bnloci import cli
from bnloci.oracle import CurveClass
from bnloci.regions import StabilityKind
from timing import time_limit

MALFORMED = ["", "x", "1.5", "--", "3,", "1/0", "nan", "1e9999999", " "]
# an int of 4300 digits, the most argparse's int() reads
LONGEST = 10**4299
PAST_LIMITS = [cli.MAX_GENUS + 1, cli.MAX_PLOT_SAMPLES + 1, cli.MAX_SELFTEST_TRIALS + 1,
               cli.MAX_ENUMERATE_DEGREES + 1, 10**12, -10**12, 10**30, LONGEST, -LONGEST]

GENUS = st.integers(2, 12).map(str)
INT = st.sampled_from([*range(-3, 13), LONGEST]).map(str)
RATIONAL = st.one_of(
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-20, 40), st.integers(1, 8)),
    st.sampled_from(["3", "2.5", "1e2", "1e-3", "5e99", "1e-99999999"]))
SWITCH = st.none()
CURVE = st.sampled_from([c.value for c in CurveClass])
KIND = st.sampled_from([k.value for k in StabilityKind])
FORMAT = st.sampled_from(["json", "csv"])


def _tuple(arity: int) -> st.SearchStrategy[str]:
    return st.lists(INT, min_size=arity, max_size=arity).map(",".join)


# each way to call a command: (command, flags always given, flags given or
# not); a switch is drawn as None
FORMS = [
    ("beta", {"genus": GENUS, "sections": INT, "rank": INT, "degree": INT}, {}),
    ("beta", {"genus": GENUS, "sections": INT, "p1": _tuple(2), "p2": _tuple(2)}, {}),
    ("decide", {"genus": GENUS, "sections": INT, "rank": INT, "degree": INT},
     {"curve": CURVE, "stability": KIND}),
    ("decide", {"genus": GENUS, "sections": INT, "p1": _tuple(2), "p2": _tuple(2)},
     {"curve": CURVE, "stability": KIND}),
    ("product", {"genus": GENUS, "p1": _tuple(3), "p2": _tuple(3)},
     {"curve": CURVE, "stability": KIND}),
    ("product", {"genus": GENUS, "negativity": SWITCH, "mu1": RATIONAL, "lam1": RATIONAL,
                 "mu2": RATIONAL, "lam2": RATIONAL}, {}),
    ("kernel", {"genus": GENUS, "base": _tuple(3), "twist": INT, "sections": INT},
     {"gen-rank": INT, "curve": CURVE, "stability": KIND}),
    ("kernel", {"genus": GENUS, "base": _tuple(3), "negativity": SWITCH, "family-e": INT},
     {"gen-rank": INT, "curve": CURVE}),
    ("bpn", {"genus": GENUS, "mu": RATIONAL, "boundary": SWITCH}, {"format": FORMAT}),
    ("bpn", {"genus": GENUS, "mu": RATIONAL, "lam": RATIONAL}, {}),
    ("bpn", {"genus": GENUS, "new-points": SWITCH}, {"step": RATIONAL, "format": FORMAT}),
    ("enumerate", {"genus": GENUS, "rank": INT, "sections": INT}, {}),
    ("enumerate", {"genus": GENUS, "rank-range": _tuple(2)},
     {"section-offset": INT, "format": FORMAT}),
    ("plot", {"genus": GENUS}, {"format": st.sampled_from(["svg", "csv"]),
                                "samples-per-unit": INT, "step": RATIONAL}),
    ("selftest", {}, {"seed": INT}),
]
# flags added after any fault: a valid trial count runs the whole suite,
# seconds of work, so only its refusal is drawn
LAST = {"selftest": {"trials": st.sampled_from(
    ["0", "-1", str(cli.MAX_SELFTEST_TRIALS + 1)])}}


def _bad(flag: str) -> st.SearchStrategy[str]:
    # a genus between 12 and cli.MAX_GENUS is allowed but its region tables
    # take seconds, so only genera past the limit are drawn
    past = [-3, 0, 1, cli.MAX_GENUS + 1, 10**30, LONGEST] if flag == "genus" else PAST_LIMITS
    return st.sampled_from(MALFORMED + [str(v) for v in past] + ["other"])


@st.composite
def command_lines(draw) -> list[str]:
    """A well-formed command line; or one with a value malformed or past
    its limit, a flag left out, or the flags of another form added."""
    name, required, optional = draw(st.sampled_from(FORMS))
    chosen = draw(st.fixed_dictionaries(required, optional=optional))
    fault = draw(st.sampled_from(["none", "value", "missing", "extra"]))
    valued = [flag for flag, value in chosen.items() if value is not None]
    if fault == "value" and valued:
        flag = draw(st.sampled_from(valued))
        chosen[flag] = draw(_bad(flag))
    elif fault == "missing" and chosen:
        del chosen[draw(st.sampled_from(sorted(chosen)))]
    elif fault == "extra":
        other = draw(st.sampled_from([form for form in FORMS if form[0] == name]))
        chosen.update(draw(st.fixed_dictionaries(other[1])))
    chosen.update(draw(st.fixed_dictionaries(LAST.get(name, {}))))
    argv = [name]
    for flag, value in chosen.items():
        argv += [f"--{flag}"] if value is None else [f"--{flag}", value]
    return argv


OUT = st.one_of(st.none(), st.sampled_from(["x.out", "missing/x.out"]))


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(argv=command_lines(), out=OUT)
@example(argv=["plot", "--genus", "883739", "--samples-per-unit", "0"], out=None)
@example(argv=["beta", "--genus", "3", "--rank", "1", "--degree", "1", "--sections", "1"],
         out="missing/x.out")
def test_every_command_line_answers_or_exits_one(out_dir, argv, out):
    if out is not None:
        argv = argv + ["--out", str(out_dir / out)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with time_limit(10), redirect_stdout(stdout), redirect_stderr(stderr):
        code = cli.main(argv)
    assert code in (0, 1, 2)
    if code == 1:
        lines = stderr.getvalue().splitlines()
        assert stdout.getvalue() == ""
        assert [line for line in lines if "error:" in line] == lines[-1:]
