"""Command line front end.

Subcommands and their flags, where the family pair is ``--family``,
``--theta`` and the depth pair ``--levels/-J``, ``--epsilon``:
``decompose --in --out --plot`` + family + depth (the boundary comes
from the input: curves and ``# period=`` sequences are periodic,
``index,value`` rows finite); ``reconstruct --in --out``; ``gamma
--out`` + family + depth; ``circle-demo --out --n --radius`` + depth;
``anomaly-demo --out --n --radius --amplitude --frequency
--threshold-ratio`` + depth.  Each setting has one source: its flag,
or the default the parser gives it.  Exit codes: 0 success, 2 I/O or
usage error, 3 numerical precondition failure (the message names the
precondition).  Set ``NSPYR_LOG`` to a level name (debug/info/warning)
for logging.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import svgplot
from .decimation import (DEFAULT_EPSILON, _epsilon, filter_metadata,
                         solve_gamma, write_filter_csv)
from .errors import BadParamsError, NspyrError
from .geometry import (
    DEFAULT_THRESHOLD_RATIO,
    PlanarCurve,
    WAVY_PRESETS,
    anomaly_localize,
    conic_family_for,
    curve_pyramid,
    perturb_quadrant,
    perturb_wavy,
    quadrant_window,
    read_curve_csv,
    sample_circle,
    write_curve_csv,
)
from .pyramid import (Pyramid, _levels, analyze, detail_decay_report,
                      synthesize, synthesize_array)
from .sequences import FinSeq, read_sequence_csv, write_sequence_csv
from .subdivision import Conic, NS4Point, NSCubic, Stationary

log = logging.getLogger("nspyr")


def _validate(args) -> None:
    if "levels" in args:  # reconstruct reads its depth from the pyramid
        _epsilon(args.epsilon)
        _levels(args.levels)


def _build_family(kind: str, theta, data_n=None, levels=None):
    """Family from its CLI name, inferring the tension when omitted.

    For conic analysis of periodic data the default tension matches the
    coarse sample count, which is what keeps sampled circles exact.
    """
    if kind.startswith("stationary:"):
        # a periodic file fails in Mask, which reads FinSeq taps only
        return Stationary(read_sequence_csv(kind.split(":", 1)[1]))
    if kind == "ns4pt":
        return NS4Point(0.0 if theta is None else theta)
    if kind == "nscubic":
        return NSCubic(1.0 if theta is None else math.cos(theta))
    if kind == "conic":
        if theta is None and data_n is not None:
            return conic_family_for(data_n, levels)
        return Conic(math.cos(2.0 * math.pi / 16.0 if theta is None
                              else theta))
    raise BadParamsError(f"unknown family {kind!r}")


def _read_input(path):
    """Sniff the CSV kind: curve, periodic sequence, or finite sequence.

    The first nonblank line decides.  A ``#`` header holding ``closed=``
    marks a curve and any other header a periodic sequence.  With no
    header, a first field that ``int()`` reads marks a finite sequence
    (``index,value`` rows), any other first field a curve (``x,y`` rows).
    """
    with open(path, "r", encoding="utf-8") as fh:
        first = next((ln.strip() for ln in fh if ln.strip()), "")
    if first.startswith("#"):
        curve = "closed=" in first
    else:
        try:
            int(first.split(",", 1)[0])
            curve = False
        except ValueError:
            curve = bool(first)  # an empty file stays an empty sequence
    return read_curve_csv(path) if curve else read_sequence_csv(path)


def _norms_csv(path, report) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("level,linf,l1,avg_l2\n")
        for i in range(report.levels):
            fh.write(f"{i + 1},{report.per_level_inf[i]!r},"
                     f"{report.per_level_l1[i]!r},"
                     f"{report.per_level_avg_l2[i]!r}\n")


# ---------------------------------------------------------------------------
# subcommands


def cmd_decompose(args) -> int:
    data = _read_input(args.infile)
    if isinstance(data, PlanarCurve):
        if not data.closed:
            raise BadParamsError(
                "open curve: periodic analysis needs closed=true")
        data = data.points
    periodic = not isinstance(data, FinSeq)
    family = _build_family(args.family, args.theta,
                           len(data) if periodic else None, args.levels)
    pyr = analyze(data, family, args.levels, args.epsilon,
                  "periodic" if periodic else "finite")
    out = Path(args.outfile)
    out.write_text(pyr.to_json(), encoding="utf-8")
    report = detail_decay_report(pyr)
    _norms_csv(out.with_name(out.stem + "_norms.csv"), report)
    if args.plot:
        svg = svgplot.bar_chart_svg(report.per_level_avg_l2,
                                    title="per-level average detail norm")
        out.with_name(out.stem + "_details.svg").write_text(
            svg, encoding="utf-8")
    log.info("wrote %s (%d levels)", out, pyr.levels)
    return 0


def cmd_reconstruct(args) -> int:
    pyr = Pyramid.from_json(Path(args.infile).read_text(encoding="utf-8"))
    if pyr.n_components == 2 and pyr.boundary == "periodic":
        write_curve_csv(args.outfile,
                        PlanarCurve(synthesize_array(pyr), closed=True))
    elif pyr.n_components == 1:
        write_sequence_csv(args.outfile, synthesize(pyr)[0])
    else:
        raise BadParamsError(
            f"cannot serialize {pyr.n_components}-component "
            f"{pyr.boundary} data as CSV")
    return 0


def cmd_gamma(args) -> int:
    family = _build_family(args.family, args.theta)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for level in range(1, args.levels + 1):
        mask = family.mask_at_level(level - 1)
        filt = solve_gamma(mask, args.epsilon)
        write_filter_csv(outdir / f"zeta_level_{level}.csv", filt)
        meta = filter_metadata(filt)
        meta["level"] = level
        (outdir / f"zeta_level_{level}.json").write_text(
            json.dumps(meta, indent=1), encoding="utf-8")
        log.info("level %d: %d nonzero coefficients, residual %.3e",
                 level, filt.nonzero_count, filt.residual_l1)
    return 0


def cmd_circle_demo(args) -> int:
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    n, levels, eps, radius = args.n, args.levels, args.epsilon, args.radius

    entries, l1_series, avg_series = [], {}, {}
    for name, amp, freq in [("clean", None, None), *WAVY_PRESETS]:
        curve = sample_circle(n, radius)
        if amp is None:
            entry, label = {}, "clean circle"
            # the coarse count: analysis needs n divisible by 2**levels
            title = f"circle, {n} samples, {n // 2 ** levels} coarse points"
        else:
            curve = perturb_wavy(curve, amp, freq)
            entry = {"name": name, "amplitude": amp, "frequency": freq}
            label, title = name, f"{name} (a={amp}, f={freq})"
        pyr = curve_pyramid(curve, levels, eps)
        rep = detail_decay_report(pyr)
        entry.update(per_level_l1=rep.per_level_l1,
                     per_level_avg_l2=rep.per_level_avg_l2,
                     verdict_scale=rep.verdict_scale)
        entries.append(entry)
        l1_series[name] = rep.per_level_l1
        avg_series[name] = rep.per_level_avg_l2
        (outdir / f"{name}_curve.svg").write_text(
            svgplot.curve_overlay_svg(curve.points, pyr.coarse_array(),
                                      title=title),
            encoding="utf-8")
        (outdir / f"{name}_details.svg").write_text(
            svgplot.bar_chart_svg(rep.per_level_avg_l2,
                                  title=f"{label}: avg detail norm"),
            encoding="utf-8")

    report = {"n": n, "levels": levels, "epsilon": eps, "radius": radius,
              "clean": entries[0], "wavy": entries[1:]}
    (outdir / "circle_report.json").write_text(
        json.dumps(report, indent=1), encoding="utf-8")
    (outdir / "log_l1.svg").write_text(
        svgplot.log_lines_svg(l1_series, title="detail decay (l1 norms)"),
        encoding="utf-8")
    (outdir / "log_avg_l2.svg").write_text(
        svgplot.log_lines_svg(avg_series,
                              title="detail decay (avg coefficient norms)"),
        encoding="utf-8")
    log.info("circle demo written to %s", outdir)
    return 0


def cmd_anomaly_demo(args) -> int:
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    n, levels, eps = args.n, args.levels, args.epsilon
    curve = perturb_quadrant(sample_circle(n, args.radius),
                             args.amplitude, args.frequency)
    ranges = anomaly_localize(curve, levels, eps, args.threshold_ratio)
    pyr = curve_pyramid(curve, levels, eps)
    window = quadrant_window(n) > 0.0

    report = {
        "n": n,
        "levels": levels,
        "epsilon": eps,
        "amplitude": args.amplitude,
        "frequency": args.frequency,
        "threshold_ratio": args.threshold_ratio,
        "ranges": [list(r) for r in ranges],
        "range_angles": [[2.0 * math.pi * s / n, 2.0 * math.pi * e / n]
                         for s, e in ranges],
        "perturbed_window_indices": [int(i)
                                     for i in np.nonzero(window)[0]],
    }
    (outdir / "anomaly_report.json").write_text(
        json.dumps(report, indent=1), encoding="utf-8")
    (outdir / "anomaly_curve.svg").write_text(
        svgplot.curve_overlay_svg(curve.points, pyr.coarse_array(),
                                  title="quadrant-perturbed circle"),
        encoding="utf-8")
    (outdir / "anomaly_details.svg").write_text(
        svgplot.index_profile_svg(pyr.detail_norms(levels).tolist()),
        encoding="utf-8")
    log.info("anomaly demo written to %s (%d range(s))", outdir, len(ranges))
    return 0


# ---------------------------------------------------------------------------
# parser and dispatch


def _add_family(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", default="conic",
                   help="ns4pt | nscubic | conic | stationary:<maskfile>")
    p.add_argument("--theta", type=float, default=None,
                   help="tension angle; conic/nscubic use cos(theta)")


def _add_depth(p: argparse.ArgumentParser) -> None:
    p.add_argument("--levels", "-J", type=int, default=4)
    p.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built once per process.

    Parsing leaves it unchanged: each call fills a new namespace.
    """
    ap = argparse.ArgumentParser(
        prog="nspyr",
        description="Nonstationary subdivision pyramids and "
                    "circle-geometry analysis")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="analyze a CSV into a pyramid")
    _add_family(p)
    _add_depth(p)
    p.add_argument("--in", dest="infile", required=True,
                   help="curve or sequence CSV, told apart by its first "
                        "nonblank line: a '# closed=' header marks a curve, "
                        "a '# period=' header a periodic sequence; with no "
                        "header, an integer first field marks a finite "
                        "sequence (index,value) and any other a curve (x,y)")
    p.add_argument("--out", dest="outfile", required=True)
    p.add_argument("--plot", action="store_true")

    p = sub.add_parser("reconstruct", help="synthesize a pyramid JSON")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", required=True)

    p = sub.add_parser("gamma", help="export decimation filters")
    _add_family(p)
    _add_depth(p)
    p.add_argument("--out", dest="outdir", required=True)

    p = sub.add_parser("circle-demo", help="circle and wavy-circle reports")
    _add_depth(p)
    p.add_argument("--out", dest="outdir", required=True)
    p.add_argument("--n", type=int, default=256)
    p.add_argument("--radius", type=float, default=1.0)

    p = sub.add_parser("anomaly-demo", help="quadrant-anomaly localization")
    _add_depth(p)
    p.add_argument("--out", dest="outdir", required=True)
    p.add_argument("--n", type=int, default=256)
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--amplitude", type=float, default=0.01)
    p.add_argument("--frequency", type=int, default=12)
    p.add_argument("--threshold-ratio", dest="threshold_ratio",
                   type=float, default=DEFAULT_THRESHOLD_RATIO)
    return ap


def main(argv=None) -> int:
    level = os.environ.get("NSPYR_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    args = build_parser().parse_args(argv)
    try:
        _validate(args)
        # Looked up at call time, so a handler rebound on the module (a
        # tracer's wrapper, a test's spy) is the one that runs.
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except NspyrError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (OSError, json.JSONDecodeError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
