"""Command-line surface: compute counts, decide loci, search, enumerate, plot.

Exit codes: 0 on success, 1 on invalid input (the message names the
violated precondition), on work past a declared limit or on a negativity
scan that found no witness within its proven range, 2 on internal
verification failure (a produced certificate failed its re-check).  Data outputs are canonical JSON or
CSV with rationals rendered exactly as "p/q"; SVG output is standalone
and uses decimal coordinates for presentation only.
"""

from __future__ import annotations

import argparse
import io
import json
import re
import sys
from fractions import Fraction
from typing import Any, Optional

from .bncore import (
    BNProblem,
    SlopePoint,
    UniversalProblem,
    _require_genus,
    beta_tensor,
    beta_twisted,
    beta_universal,
    beta_untwisted,
    chi_pairing,
    moduli_dim,
    serre_dual_point,
    tensor_problem,
)
from .construct import (
    bpn_boundary,
    bpn_membership,
    bpn_new_points,
    c6_enumerate,
    grid_slopes,
    kernel_construct,
    kernel_negativity_min_d,
    product_construct,
    product_negativity_search,
)
from .exactq import MAX_DIGITS, too_long
from .oracle import (
    CurveClass,
    Decision,
    Status,
    decide_universal,
    decide_untwisted,
    decision_to_json,
    verify_certificate,
    verify_decision,
)
from .regions import (
    StabilityKind,
    eta_hat,
    eta_hat_prime,
    fg_eval,
    membership_BMNO,
    membership_T,
    region_polyline,
    tg_eval,
)

# ---------------------------------------------------------------------------
# argument parsing helpers


def _fraction(text: str) -> Fraction:
    # Fraction builds 10**e exactly for a written exponent e (on a 2-vCPU Xeon
    # VM 0.4 s at e = 10**6 - 1, 16 s at e = 10**7), so e stops below 10**6
    exponent = re.search(r"[eE][-+]?([\d_]+)\s*$", text)
    if exponent and len(exponent.group(1).replace("_", "").lstrip("0")) > 6:
        raise argparse.ArgumentTypeError(f"exponent of {text!r} has more than 6 digits")
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(
            f"expected a rational like 3 or 5/8, got {text!r}") from exc
    if too_long(value):
        raise argparse.ArgumentTypeError(
            f"{text!r} has a numerator or denominator of 10^{MAX_DIGITS} or more")
    return value


def _int_tuple(text: str, arity: int, shape: str) -> tuple[int, ...]:
    parts = text.split(",")
    if len(parts) != arity:
        raise argparse.ArgumentTypeError(f"expected {shape}, got {text!r}")
    try:
        return tuple(int(p) for p in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected {shape}, got {text!r}") from exc


def _rank_degree(text: str) -> tuple[int, ...]:
    return _int_tuple(text, 2, "rank,degree")


def _rank_degree_sections(text: str) -> tuple[int, ...]:
    return _int_tuple(text, 3, "rank,degree,sections")


def _int_range(text: str) -> tuple[int, ...]:
    return _int_tuple(text, 2, "low,high")


def _curve(args: argparse.Namespace) -> CurveClass:
    return CurveClass(args.curve)


def _kind(args: argparse.Namespace) -> StabilityKind:
    return StabilityKind(args.stability)


# ---------------------------------------------------------------------------
# output helpers


def _require_printable(name: str, value: Any) -> None:
    if too_long(value):
        raise ValueError(f"{name} has more than {MAX_DIGITS} digits, "
                         "more than can be printed")


def _plain(value: Any, name: str = "") -> Any:
    """Render exact values for JSON: fractions as 'p/q', problems as dicts.

    A number past MAX_DIGITS is refused, named by its path in the output.
    """
    _require_printable(f"output {name}", value)
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, BNProblem):
        return {"genus": value.g, "rank": value.n, "degree": value.d,
                "sections": value.k}
    if isinstance(value, UniversalProblem):
        return {"genus": value.g, "n1": value.n1, "d1": value.d1,
                "n2": value.n2, "d2": value.d2, "sections": value.k}
    if isinstance(value, Decision):
        return _plain(decision_to_json(value), name)
    if isinstance(value, dict):
        return {k: _plain(v, f"{name}.{k}" if name else k) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v, f"{name}[{i}]") for i, v in enumerate(value)]
    return value


def _json_text(doc: dict) -> str:
    return json.dumps(_plain(doc), indent=2, sort_keys=True) + "\n"


def _csv_text(header: list[str], rows: list[list[Any]]) -> str:
    buf = io.StringIO()
    buf.write(",".join(header) + "\n")
    for row in rows:
        buf.write(",".join(_cell(v, name) for v, name in zip(row, header)) + "\n")
    return buf.getvalue()


def _cell(value: Any, name: str) -> str:
    _require_printable(f"output column {name}", value)
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _emit(text: str, args: argparse.Namespace) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# beta


def _cmd_beta(args: argparse.Namespace) -> tuple[str, bool]:
    g, k = args.genus, args.sections
    if args.p1 is not None and args.p2 is not None:
        (n1, d1), (n2, d2) = args.p1, args.p2
        doc = {
            "genus": g, "sections": k,
            "p1": {"rank": n1, "degree": d1},
            "p2": {"rank": n2, "degree": d2},
            "chi": chi_pairing(g, n1, d1, n2, d2),
            "beta_untwisted": beta_untwisted(g, n1, d1, k),
            "beta_twisted": beta_twisted(g, n1, d1, k, n2, d2),
            "beta_universal": beta_universal(g, n1, d1, n2, d2, k),
            "beta_tensor": beta_tensor(g, n1, d1, n2, d2, k),
            "tensor": tensor_problem(g, n1, d1, n2, d2, k),
        }
    elif args.rank is not None and args.degree is not None:
        n, d = args.rank, args.degree
        doc = {
            "genus": g, "rank": n, "degree": d, "sections": k,
            "beta_untwisted": beta_untwisted(g, n, d, k),
            "moduli_dim": moduli_dim(g, n),
            "slope": Fraction(d, n),
            "section_density": Fraction(k, n),
        }
    else:
        raise ValueError("beta needs either --rank and --degree or both "
                         "--p1 and --p2")
    return _json_text(doc), True


# ---------------------------------------------------------------------------
# decide


# the largest genus of a command that builds region tables (decide, the
# product and kernel constructions, bpn); their cold O(g) build sets the cost
MAX_GENUS = 100_000


def _check_genus(g: int) -> None:
    if g > MAX_GENUS:
        raise ValueError(f"genus {g} is above {MAX_GENUS}, the largest this "
                         "command builds region tables for")


def _cmd_decide(args: argparse.Namespace) -> tuple[str, bool]:
    g, k = args.genus, args.sections
    _check_genus(g)
    cc, kind = _curve(args), _kind(args)
    if args.p1 is not None and args.p2 is not None:
        (n1, d1), (n2, d2) = args.p1, args.p2
        problem, decide = UniversalProblem(g, n1, d1, n2, d2, k), decide_universal
    elif args.rank is not None and args.degree is not None:
        problem, decide = BNProblem(g, args.rank, args.degree, k), decide_untwisted
    else:
        raise ValueError("decide needs either --rank and --degree or both "
                         "--p1 and --p2")
    decision = decide(problem, cc, kind)
    verified = verify_decision(decision)
    doc = {
        "problem": problem, "curve": cc.value, "stability": kind.value,
        "decision": decision, "verified": verified,
    }
    return _json_text(doc), verified


# ---------------------------------------------------------------------------
# product


def _cmd_product(args: argparse.Namespace) -> tuple[str, bool]:
    g = args.genus
    if args.negativity:
        missing = [f for f in ("mu1", "lam1", "mu2", "lam2")
                   if getattr(args, f) is None]
        if missing:
            raise ValueError("negativity search needs --mu1 --lam1 --mu2 --lam2")
        w = product_negativity_search(g, args.mu1, args.lam1, args.mu2, args.lam2)
        doc = {
            "genus": g, "mode": "negativity",
            "mu1": w.mu1, "lam1": w.lam1, "mu2": w.mu2, "lam2": w.lam2,
            "n1": w.n1, "d1": w.d1, "k1": w.k1,
            "n2": w.n2, "d2": w.d2, "k2": w.k2,
            "k": w.k, "beta_universal": w.beta_universal, "bound": w.bound,
        }
        return _json_text(doc), True
    if args.p1 is None or args.p2 is None:
        raise ValueError("product needs --p1 and --p2 as rank,degree,sections "
                         "(or --negativity with slope data)")
    _check_genus(g)
    (n1, d1, k1), (n2, d2, k2) = args.p1, args.p2
    cc, kind = _curve(args), _kind(args)
    w = product_construct(g, BNProblem(g, n1, d1, k1), BNProblem(g, n2, d2, k2),
                          cc, kind)
    verified = verify_certificate(w.certificate)
    doc = {
        "genus": g, "mode": "construct", "curve": cc.value,
        "stability": kind.value, "window": w.window,
        "factor1": {"rank": n1, "degree": d1, "sections": k1,
                    "decision": w.factor1_decision},
        "factor2": {"rank": n2, "degree": d2, "sections": k2,
                    "decision": w.factor2_decision},
        "k": w.k, "status": Status.NONEMPTY.value,
        "beta_universal": w.beta_universal, "beta_tensor": w.beta_tensor,
        "tensor": w.tensor, "verified": verified,
    }
    return _json_text(doc), verified


# ---------------------------------------------------------------------------
# kernel


def _cmd_kernel(args: argparse.Namespace) -> tuple[str, bool]:
    g = args.genus
    if args.base is None:
        raise ValueError("kernel needs --base as rank,degree,sections")
    n1, d1, k1 = args.base
    cc = _curve(args)
    if args.negativity:
        if args.family_e is None:
            raise ValueError("negativity scan needs --family-e")
        w = kernel_negativity_min_d(g, n1, d1, k1, args.gen_rank, args.family_e, cc)
        doc = {
            "genus": g, "mode": "negativity", "curve": cc.value,
            "base": {"rank": n1, "degree": d1, "sections": k1},
            "generator_rank": w.n, "family_e": w.e,
            "quadratic": {"a": w.quadratic.a, "b": w.quadratic.b,
                          "c": w.quadratic.c},
            "d_min": w.d_min, "beta": w.beta, "k": w.k,
            "scan_start": w.scan_start, "scan_stop": w.scan_stop,
        }
        return _json_text(doc), True
    if args.twist is None or args.sections is None:
        raise ValueError("kernel construction needs --twist and --sections "
                         "(or --negativity with --family-e)")
    _check_genus(g)
    kind = _kind(args)
    w = kernel_construct(g, n1, d1, k1, args.gen_rank, args.twist, args.sections,
                         cc, kind)
    verified = verify_certificate(w.certificate)
    doc = {
        "genus": g, "mode": "construct", "curve": cc.value,
        "stability": kind.value,
        "base": {"rank": n1, "degree": d1, "sections": k1,
                 "decision": w.base_decision},
        "generator_rank": args.gen_rank, "twist_degree": args.twist,
        "pair": {"n2": w.n2, "d2": w.d2},
        "k": w.k, "k_max": w.k_max, "status": Status.NONEMPTY.value,
        "beta_universal": w.beta_universal, "verified": verified,
    }
    return _json_text(doc), verified


# ---------------------------------------------------------------------------
# bpn


def _cmd_bpn(args: argparse.Namespace) -> tuple[str, bool]:
    g = args.genus
    modes = sum([args.boundary, args.lam is not None, args.new_points])
    if modes != 1:
        raise ValueError("choose exactly one of --boundary, --lam, --new-points")
    _check_genus(g)
    if args.new_points:
        points = bpn_new_points(g, args.step)
        if args.format == "csv":
            rows = [[w.mu, w.boundary, w.t_value, w.f_value, w.margin_t,
                     w.margin_f, w.attained, w.branch] for w in points]
            return _csv_text(["mu", "boundary", "t_value", "f_value",
                              "margin_t", "margin_f", "attained", "branch"],
                             rows), True
        doc = {
            "genus": g, "step": args.step,
            "points": [{
                "mu": w.mu, "boundary": w.boundary,
                "t_value": w.t_value, "f_value": w.f_value,
                "margin_t": w.margin_t, "margin_f": w.margin_f,
                "attained": w.attained, "branch": w.branch,
                "decomposition": list(w.decomposition),
            } for w in points],
        }
        return _json_text(doc), True
    if args.mu is None:
        raise ValueError("boundary and membership queries need --mu")
    if args.lam is not None:
        q = bpn_membership(g, args.mu, args.lam)
    else:
        q = bpn_boundary(g, args.mu)
    doc = {
        "genus": g, "mu": q.mu, "boundary": q.boundary,
        "attained": q.attained, "branch": q.branch,
        "decomposition": list(q.decomposition),
    }
    if q.lam is not None:
        doc["lambda"] = q.lam
        doc["member"] = q.member
    return _json_text(doc), True


# ---------------------------------------------------------------------------
# enumerate


# the most candidate base degrees one enumerate call may scan; rank n1 has
# a window of at most n1*(g-1) of them
MAX_ENUMERATE_DEGREES = 1_000_000


def _check_enumerate_work(g: int, lo: int, hi: int) -> None:
    """Refuse ranks lo..hi whose degree windows add up past the limit.

    Inputs that c6_enumerate rejects at its first rank (g < 3, lo < 2)
    are left to it, so they keep their message.
    """
    if g < 3 or lo < 2:
        return
    bound = (g - 1) * (lo + hi) * (hi - lo + 1) // 2
    if bound > MAX_ENUMERATE_DEGREES:
        ranks = f"rank {lo}" if lo == hi else f"ranks {lo}..{hi}"
        raise ValueError(f"{ranks} at genus {g}: up to {bound} candidate degrees, "
                         f"at most {MAX_ENUMERATE_DEGREES} allowed")


def _cmd_enumerate(args: argparse.Namespace) -> tuple[str, bool]:
    g = args.genus
    if args.rank_range is not None:
        lo, hi = args.rank_range
        if lo > hi:
            raise ValueError(f"rank range is empty: {lo} > {hi}")
        _check_enumerate_work(g, lo, hi)
        rows = []
        for n1 in range(lo, hi + 1):
            k1 = n1 + args.section_offset
            degrees = c6_enumerate(g, n1, k1)
            rows.append({"rank": n1, "sections": k1, "degrees": degrees,
                         "count": len(degrees)})
        if args.format == "csv":
            return _csv_text(
                ["rank", "sections", "count", "degrees"],
                [[r["rank"], r["sections"], r["count"],
                  ";".join(str(d) for d in r["degrees"])] for r in rows]), True
        return _json_text({"genus": g, "section_offset": args.section_offset,
                           "rows": rows}), True
    if args.rank is None or args.sections is None:
        raise ValueError("enumerate needs --rank and --sections "
                         "(or --rank-range with --section-offset)")
    _check_enumerate_work(g, args.rank, args.rank)
    degrees = c6_enumerate(g, args.rank, args.sections)
    doc = {"genus": g, "rank": args.rank, "sections": args.sections,
           "degrees": degrees, "count": len(degrees)}
    return _json_text(doc), True


# ---------------------------------------------------------------------------
# plot


def _excluded_markers(g: int) -> list[tuple[Fraction, Fraction, str]]:
    """Exact points excluded from the stable statements, with reasons."""
    candidates: list[tuple[Fraction, Fraction]] = []
    for s in range(1, g + 1):
        for mu in (Fraction(eta_hat_prime(g, s) + 1), Fraction(eta_hat(g, s)),
                   Fraction(eta_hat(g, s) + 1)):
            if not 0 < mu <= 2 * g - 2:
                continue
            for lam in (Fraction(s), tg_eval(g, mu), fg_eval(g, mu)):
                candidates.append((mu, lam))
                dual = serre_dual_point(g, SlopePoint(mu, lam))
                candidates.append((dual.mu, dual.lam))
    markers: dict[tuple[Fraction, Fraction], str] = {}
    for mu, lam in candidates:
        if not (0 < mu <= 2 * g - 2 and 0 < lam <= g):
            continue
        for probe in (membership_T, membership_BMNO):
            v = probe(g, mu, lam, StabilityKind.STABLE)
            if v.inside and v.excluded_for_stable:
                markers.setdefault((mu, lam), v.exclusion_reason)
    return sorted((mu, lam, reason) for (mu, lam), reason in markers.items())


def _bpn_samples(g: int, step: Fraction) -> list[tuple[Fraction, Fraction]]:
    slopes = [Fraction(0), *grid_slopes(g, step)]
    if slopes[-1] != 2 * g - 2:
        slopes.append(Fraction(2 * g - 2))
    return [(mu, bpn_boundary(g, mu).boundary) for mu in slopes]


_SVG_STYLE = [
    ("T", "#1f77b4", ""),
    ("BMNO", "#2ca02c", ""),
    ("Clifford", "#999999", ""),
    ("BNCurve", "#000000", ""),
    ("BPN", "#d62728", "6,4"),
]


def _svg_document(g: int, samples_per_unit: int, step: Fraction) -> str:
    width, height, margin = 880, 560, 60
    xmax, ymax = 2 * g - 2, g

    def px(x: Any) -> float:
        return margin + float(x) * (width - 2 * margin) / xmax

    def py(y: Any) -> float:
        return height - margin - float(y) * (height - 2 * margin) / ymax

    def polyline(points: list, color: str, dash: str) -> str:
        coords = " ".join(f"{px(x):.6f},{py(y):.6f}" for x, y in points)
        extra = f' stroke-dasharray="{dash}"' if dash else ""
        return (f'<polyline fill="none" stroke="{color}" stroke-width="1.5"'
                f'{extra} points="{coords}"/>')

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.6f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">'
        f'slope plane, genus {g}</text>',
    ]
    # axes with unit ticks
    parts.append(f'<line x1="{px(0):.6f}" y1="{py(0):.6f}" x2="{px(xmax):.6f}" '
                 f'y2="{py(0):.6f}" stroke="black" stroke-width="1"/>')
    parts.append(f'<line x1="{px(0):.6f}" y1="{py(0):.6f}" x2="{px(0):.6f}" '
                 f'y2="{py(ymax):.6f}" stroke="black" stroke-width="1"/>')
    for x in range(0, xmax + 1):
        parts.append(f'<line x1="{px(x):.6f}" y1="{py(0):.6f}" x2="{px(x):.6f}" '
                     f'y2="{py(0) + 4:.6f}" stroke="black" stroke-width="1"/>')
        parts.append(f'<text x="{px(x):.6f}" y="{py(0) + 18:.6f}" '
                     f'text-anchor="middle" font-family="sans-serif" '
                     f'font-size="10">{x}</text>')
    for y in range(0, ymax + 1):
        parts.append(f'<line x1="{px(0) - 4:.6f}" y1="{py(y):.6f}" '
                     f'x2="{px(0):.6f}" y2="{py(y):.6f}" stroke="black" '
                     f'stroke-width="1"/>')
        parts.append(f'<text x="{px(0) - 8:.6f}" y="{py(y) + 3:.6f}" '
                     f'text-anchor="end" font-family="sans-serif" '
                     f'font-size="10">{y}</text>')

    curves = {name: region_polyline(g, name, samples_per_unit)
              for name, _, _ in _SVG_STYLE if name != "BPN"}
    curves["BPN"] = _bpn_samples(g, step)
    for name, color, dash in _SVG_STYLE:
        parts.append(polyline(curves[name], color, dash))
    for i, (name, color, dash) in enumerate(_SVG_STYLE):
        y0 = 40 + 16 * i
        extra = f' stroke-dasharray="{dash}"' if dash else ""
        parts.append(f'<line x1="{width - 180}" y1="{y0}" x2="{width - 150}" '
                     f'y2="{y0}" stroke="{color}" stroke-width="1.5"{extra}/>')
        parts.append(f'<text x="{width - 144}" y="{y0 + 4}" '
                     f'font-family="sans-serif" font-size="11">{name}</text>')
    for mu, lam, reason in _excluded_markers(g):
        parts.append(f'<circle cx="{px(mu):.6f}" cy="{py(lam):.6f}" r="3" '
                     f'fill="#ff7f0e" stroke="black" stroke-width="0.6">'
                     f'<title>{reason} at ({mu}, {lam})</title></circle>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# the most samples one plotted curve may hold; region_polyline puts about
# 2(g-1)*samples_per_unit of them on [0, 2g-2]
MAX_PLOT_SAMPLES = 10_000


def _cmd_plot(args: argparse.Namespace) -> tuple[str, bool]:
    g = args.genus
    _require_genus(g)
    if args.samples_per_unit < 1:
        raise ValueError("samples_per_unit must be >= 1")
    count = 2 * (g - 1) * args.samples_per_unit
    if count > MAX_PLOT_SAMPLES:
        raise ValueError(f"samples-per-unit {args.samples_per_unit} gives {count} "
                         f"samples per curve on [0, {2 * g - 2}], at most "
                         f"{MAX_PLOT_SAMPLES} allowed")
    if args.format == "csv":
        rows: list[list[Any]] = []
        for name in ("T", "BMNO", "Clifford", "BNCurve"):
            for x, y in region_polyline(g, name, args.samples_per_unit):
                rows.append([name, x, y])
        for mu, lam in _bpn_samples(g, args.step):
            rows.append(["BPN", mu, lam])
        for mu, lam, reason in _excluded_markers(g):
            rows.append([f"Excluded:{reason}", mu, lam])
        return _csv_text(["curve", "mu", "lambda"], rows), True
    return _svg_document(g, args.samples_per_unit, args.step), True


# ---------------------------------------------------------------------------
# selftest


# the most trials of criterion 06: a selftest then takes about 10 s on a 2-vCPU Xeon VM
MAX_SELFTEST_TRIALS = 100_000


def _cmd_selftest(args: argparse.Namespace) -> tuple[str, bool]:
    if not 1 <= args.trials <= MAX_SELFTEST_TRIALS:
        raise ValueError(f"trials must be between 1 and {MAX_SELFTEST_TRIALS}, "
                         f"got {args.trials}")
    # imported here, so other commands do not pay for loading it
    from . import selftest
    return selftest.run(args.seed, args.trials)


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write output to a file instead of stdout")
    # the problem arguments beta and decide share
    problem = argparse.ArgumentParser(add_help=False)
    problem.add_argument("--genus", type=int, required=True)
    problem.add_argument("--rank", type=int)
    problem.add_argument("--degree", type=int)
    problem.add_argument("--sections", type=int, required=True)
    problem.add_argument("--p1", type=_rank_degree, metavar="N,D")
    problem.add_argument("--p2", type=_rank_degree, metavar="N,D")

    parser = argparse.ArgumentParser(
        prog="bnloci",
        description="Exact-rational calculus for rank-n section loci on curves.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_curve_kind(p: argparse.ArgumentParser) -> None:
        p.add_argument("--curve", default="any",
                       choices=[c.value for c in CurveClass])
        p.add_argument("--stability", default="stable",
                       choices=[k.value for k in StabilityKind])

    p = sub.add_parser("beta", parents=[common, problem],
                       help="expected-dimension counts")
    p.set_defaults(handler=_cmd_beta)

    p = sub.add_parser("decide", parents=[common, problem],
                       help="certified nonemptiness decision")
    add_curve_kind(p)
    p.set_defaults(handler=_cmd_decide)

    p = sub.add_parser("product", parents=[common],
                       help="product construction or negativity search")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--p1", type=_rank_degree_sections, metavar="N,D,K")
    p.add_argument("--p2", type=_rank_degree_sections, metavar="N,D,K")
    p.add_argument("--negativity", action="store_true")
    p.add_argument("--mu1", type=_fraction)
    p.add_argument("--lam1", type=_fraction)
    p.add_argument("--mu2", type=_fraction)
    p.add_argument("--lam2", type=_fraction)
    add_curve_kind(p)
    p.set_defaults(handler=_cmd_product)

    p = sub.add_parser("kernel", parents=[common],
                       help="kernel construction or negative-count scan")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--base", type=_rank_degree_sections, metavar="N1,D1,K1")
    p.add_argument("--gen-rank", type=int, default=1)
    p.add_argument("--twist", type=int)
    p.add_argument("--sections", type=int)
    p.add_argument("--negativity", action="store_true")
    p.add_argument("--family-e", type=int)
    add_curve_kind(p)
    p.set_defaults(handler=_cmd_kernel)

    p = sub.add_parser("bpn", parents=[common],
                       help="product-region boundary queries")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--mu", type=_fraction)
    p.add_argument("--boundary", action="store_true")
    p.add_argument("--lam", type=_fraction)
    p.add_argument("--new-points", action="store_true")
    p.add_argument("--step", type=_fraction, default=Fraction(1, 8))
    p.add_argument("--format", default="json", choices=["json", "csv"])
    p.set_defaults(handler=_cmd_bpn)

    p = sub.add_parser("enumerate", parents=[common],
                       help="admissible base degrees for negative families")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--rank", type=int)
    p.add_argument("--sections", type=int)
    p.add_argument("--rank-range", type=_int_range, metavar="LO,HI")
    p.add_argument("--section-offset", type=int, default=2)
    p.add_argument("--format", default="json", choices=["json", "csv"])
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser("plot", parents=[common],
                       help="slope-plane figure as SVG or CSV")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--format", default="svg", choices=["svg", "csv"])
    p.add_argument("--samples-per-unit", type=int, default=4)
    p.add_argument("--step", type=_fraction, default=Fraction(1, 8))
    p.set_defaults(handler=_cmd_plot)

    p = sub.add_parser("selftest", parents=[common],
                       help="run the ten acceptance criteria")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--trials", type=int, default=10000)
    p.set_defaults(handler=_cmd_selftest)

    return parser


# Python's int-to-text limit, which inputs are parsed under; Python before
# 3.10.7 has none, and then the limit is left alone
_get_digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)
_set_digit_limit = getattr(sys, "set_int_max_str_digits", lambda limit: None)


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    # the command runs with the limit lifted, so a message prints any number
    # computed from the inputs in full; _plain and _cell refuse output ones
    limit = _get_digit_limit()
    _set_digit_limit(0)
    try:
        text, verified = args.handler(args)
    except (ValueError, RuntimeError) as exc:
        # RuntimeError: a negativity scan that ran out of its provable range
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        _set_digit_limit(limit)
    try:
        _emit(text, args)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc.strerror}", file=sys.stderr)
        return 1
    return 0 if verified else 2


if __name__ == "__main__":
    sys.exit(main())
