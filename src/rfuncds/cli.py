"""Command-line interface.

Subcommands: ``demo`` (built-in geometry cases), ``identify`` (reactor
design space), ``check`` (membership query against a saved report) and
``sobol`` (sample points to stdout).  Exit codes: 0 success / point inside,
2 usage or malformed input, 3 point outside, 4 point on the boundary,
1 runtime failure (integration, fitting, IO).

Outputs are byte-deterministic: headers carry the tool version and the
invocation (for ``identify`` also the model that produced the numbers),
never timestamps.  A key=value config file (see docs/formats.md) overrides
the built-in kinetics and box.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__, ds, qmc, reactor
from .contour import grid_eval, marching_squares, slice_contours_3d
from .emit import DEFAULT_PALETTE, emit_contours_csv, emit_field_csv, emit_svg
from .errors import (
    InsufficientPoints,
    IntegratorFailure,
    RankDeficient,
    RfuncdsError,
    ToleranceNotMet,
)
from .expr import check_alpha, compose, eval_expr
from .exprtext import serialize
from .geometry import TESTCASE_NAMES, testcase

# failures of a run on valid input exit 1; every other package error is a
# usage error or malformed input and exits 2
_RUNTIME_ERRORS = (IntegratorFailure, ToleranceNotMet, RankDeficient,
                   InsufficientPoints, OSError)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rfuncds",
        description="Implicit-function algebra and analytical design-space identification.",
    )
    parser.add_argument("--version", action="version", version=f"rfuncds {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_demo = sub.add_parser("demo", help="render a built-in geometry case")
    p_demo.add_argument("name", choices=TESTCASE_NAMES)
    p_demo.add_argument("--grid", type=int, default=None,
                        help="nodes per axis (default: per-case, 256 for 2D, 64 for 3D)")
    p_demo.add_argument("--slices", type=int, default=9,
                        help="z-levels for 3D cases (default 9)")
    p_demo.add_argument("--alpha", type=float, default=None,
                        help="composition alpha (default: the case's own, 1.0)")
    p_demo.add_argument("--out", default="out", help="output directory")
    p_demo.set_defaults(func=cmd_demo)

    p_id = sub.add_parser("identify", help="identify the reactor design space")
    p_id.add_argument("--n", type=int, default=64, help="training model runs (default 64)")
    p_id.add_argument("--alpha", type=float, default=1.0)
    p_id.add_argument("--grid", type=int, default=256,
                      help="contour grid resolution (default 256)")
    p_id.add_argument("--skip", type=int, default=1, help="Sobol skip (default 1)")
    p_id.add_argument("--out", default="out", help="output directory")
    p_id.add_argument("--config", default=None,
                      help="key=value file overriding kinetics and box")
    p_id.set_defaults(func=cmd_identify)

    p_chk = sub.add_parser("check", help="membership query against a saved report")
    p_chk.add_argument("report", help="path to a ds_report.json")
    p_chk.add_argument("point", help="comma-separated values, plain ('275,280') "
                                     "or named ('T=275,t=280')")
    p_chk.set_defaults(func=cmd_check)

    p_sob = sub.add_parser("sobol", help="print Sobol points as CSV")
    p_sob.add_argument("d", type=int)
    p_sob.add_argument("n", type=int)
    p_sob.add_argument("--skip", type=int, default=1)
    p_sob.set_defaults(func=cmd_sobol)

    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(argv)
    provenance = f"rfuncds {__version__} | rfuncds {' '.join(argv)}"
    try:
        return args.func(args, provenance)
    except _RUNTIME_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RfuncdsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


# ----------------------------------------------------------------------

def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_demo(args, provenance: str) -> int:
    _, _, case = testcase(args.name)
    alpha = case.alpha if args.alpha is None else args.alpha
    grid = case.default_resolution if args.grid is None else args.grid
    if grid < 2:
        print("error: --grid must be >= 2", file=sys.stderr)
        return 2
    if args.slices < 1:
        print("error: --slices must be >= 1", file=sys.stderr)
        return 2
    regions = [(label, compose(tree, alpha)) for label, tree in case.trees]
    out = _outdir(args)
    is3d = len(case.bounds) == 3

    lines = [f"# {provenance}", f"# case {case.name}, alpha={alpha!r}", ""]
    for (label, region), color in zip(regions, DEFAULT_PALETTE):
        if not is3d:
            field = grid_eval(region, case.bounds, grid)
            contours = marching_squares(field)
            emit_svg(out / f"{label}.svg", [(contours, color)], case.bounds,
                     field=field, provenance=provenance,
                     title=f"{case.name} [{label}]")
            emit_field_csv(out / f"{label}_field.csv", field, provenance=provenance)
        else:
            slices = slice_contours_3d(region, case.bounds, grid, args.slices)
            for k, (z, contours) in enumerate(slices):
                emit_svg(out / f"{label}_slice{k:02d}.svg", [(contours, color)],
                         case.bounds[:2], provenance=provenance,
                         title=f"{case.name} [{label}] z={z:g}")
            emit_field_csv(out / f"{label}_field.csv",
                           grid_eval(region, case.bounds,
                                     (grid, grid, max(args.slices, 2))),
                           provenance=provenance)
        lines.append(f"[{label}]")
        lines.append(f"infix_sqrt = {serialize(region.expr, 'infix', alpha1_style='sqrt')}")
        lines.append(f"infix_abs = {serialize(region.expr, 'infix', alpha1_style='abs')}")
        lines.append(f"tree = {serialize(region.expr, 'tree')}")
        lines.append("")
    (out / "expressions.txt").write_text("\n".join(lines), encoding="utf-8")
    print(f"wrote {case.name} demo to {out}")
    return 0


def _load_config(path: str) -> dict:
    overrides = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        try:
            overrides[key.strip()] = float(value.strip())
        except ValueError:
            raise ValueError(f"{path}:{lineno}: value for {key.strip()!r} "
                             f"is not a number: {value.strip()!r}") from None
    return overrides


def cmd_identify(args, provenance: str) -> int:
    if args.n < len(reactor.CQA_BASIS):
        print(f"error: --n must be >= {len(reactor.CQA_BASIS)} (basis size), got {args.n}",
              file=sys.stderr)
        return 2
    if args.grid < 2:
        print("error: --grid must be >= 2", file=sys.stderr)
        return 2
    if args.skip < 0:
        print("error: --skip must be >= 0", file=sys.stderr)
        return 2
    check_alpha(args.alpha)
    params, box = reactor.DEFAULT_PARAMS, reactor.DEFAULT_BOX
    if args.config is not None:
        try:
            params, box = reactor.apply_config(_load_config(args.config), params, box)
        except (ValueError, KeyError, FileNotFoundError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    out = _outdir(args)
    provenance = f"{provenance} | model reactor.cqa_closed"

    def model(points):
        return reactor.cqa_closed(points, params)

    constraints = [
        ds.ConstraintSpec("purity", reactor.PURITY_MIN),
        ds.ConstraintSpec("profit", reactor.PROFIT_MIN),
    ]
    box_axes = [ds.BoxAxis("T", box.T[0], box.T[1], unit="K"),
                ds.BoxAxis("t", box.t[0], box.t[1], unit="min")]
    report = ds.identify(constraints, box_axes, args.n, reactor.CQA_BASIS,
                         alpha=args.alpha, model=model, skip=args.skip,
                         contour_resolution=args.grid)

    bounds = [(a.lo, a.hi) for a in box_axes]
    artifacts = {}
    joint_field = grid_eval(report.joint, bounds, args.grid)
    emit_svg(out / "joint_ds.svg", [(report.contours["joint"], DEFAULT_PALETTE[0])],
             bounds, field=joint_field, provenance=provenance,
             title="joint design space (shaded: inside)")
    artifacts["joint_svg"] = "joint_ds.svg"
    layers = [(report.contours[c.name], DEFAULT_PALETTE[k + 1])
              for k, c in enumerate(report.constraints)]
    emit_svg(out / "constraint_boundaries.svg", layers, bounds,
             provenance=provenance, title="per-constraint boundaries")
    artifacts["constraints_svg"] = "constraint_boundaries.svg"
    for c in report.constraints:
        name = f"phi_{c.name}.csv"
        emit_contours_csv(out / name, report.contours[c.name], provenance=provenance)
        artifacts[f"contour_{c.name}"] = name
    emit_contours_csv(out / "joint.csv", report.contours["joint"], provenance=provenance)
    artifacts["contour_joint"] = "joint.csv"
    ds.save_report(report, out / "ds_report.json", artifacts=artifacts,
                   provenance=provenance)

    for c in report.constraints:
        print(f"{c.name}: threshold {c.threshold:g}, "
              f"R2 train {c.fit.r_squared:.6f}, validation {c.validation_r_squared:.6f}")
    v = report.validation
    print(f"membership agreement on {v.n_points} validation points: "
          f"{v.agreement_rate:.4f} ({v.n_disagreements} disagreements)")
    print(f"report: {out / 'ds_report.json'}")
    return 0


def cmd_check(args, provenance: str) -> int:
    try:
        report = ds.load_report(args.report)
    except (RfuncdsError, ValueError, KeyError, TypeError, OSError) as exc:
        print(f"error: cannot read report {args.report!r}: {exc}", file=sys.stderr)
        return 2
    names = [a.name for a in report.box]
    tokens = [tok.strip() for tok in args.point.split(",") if tok.strip()]
    try:
        if any("=" in tok for tok in tokens):
            point = {}
            for tok in tokens:
                key, _, value = tok.partition("=")
                key = key.strip()
                if key in point:
                    print(f"error: coordinate {key!r} given twice in {args.point!r}",
                          file=sys.stderr)
                    return 2
                point[key] = float(value)
        else:
            point = dict(zip(names, (float(tok) for tok in tokens), strict=True))
    except ValueError:
        print(f"error: malformed point {args.point!r}", file=sys.stderr)
        return 2
    verdict = ds.membership(report, point)
    value = eval_expr(report.joint.expr, point)
    print(f"{verdict} (joint expression = {value!r})")
    return {"inside": 0, "outside": 3, "boundary": 4}[verdict]


def cmd_sobol(args, provenance: str) -> int:
    if args.n < 1:
        print("error: n must be >= 1", file=sys.stderr)
        return 2
    if args.skip < 0:
        print("error: --skip must be >= 0", file=sys.stderr)
        return 2
    samples = qmc.sobol(args.d, args.n, skip=args.skip)
    for row in samples.points:
        print(",".join(repr(float(v)) for v in row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
