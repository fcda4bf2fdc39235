"""Command-line interface.

Subcommands: ``demo`` (built-in geometry cases), ``identify`` (reactor
design space), ``check`` (membership query against a saved report) and
``sobol`` (sample points to stdout).  Exit codes: 0 success / point inside,
2 usage or malformed input, 3 point outside, 4 point on the boundary,
1 runtime failure (closed-form error estimate, fitting, IO).

Outputs are byte-deterministic: headers carry the tool version and the
invocation (for ``identify`` also the model that produced the numbers),
never timestamps.  A key=value config file (see docs/formats.md) overrides
the built-in kinetics and box.
"""

from __future__ import annotations

import argparse
import importlib
import sys
from pathlib import Path

from . import __version__, ds
from .errors import (
    InsufficientPoints,
    RankDeficient,
    RfuncdsError,
    ToleranceNotMet,
)
from .expr import classify, compose, eval_expr
from .exprtext import serialize

# failures of a run on valid input exit 1; every other package error is a
# usage error or malformed input and exits 2
_RUNTIME_ERRORS = (ToleranceNotMet, RankDeficient, InsufficientPoints, OSError)

# names imported when a command that draws runs, so that check loads
# neither numpy nor the modules it does not use
_LAZY = {
    **dict.fromkeys(("TESTCASE_NAMES", "testcase"), "geometry"),
    **dict.fromkeys(("grid_eval", "marching_squares", "slice_contours_3d"), "contour"),
    **dict.fromkeys(("DEFAULT_PALETTE", "emit_contours_csv", "emit_field_csv", "emit_svg"),
                    "emit"),
}


def _bind(*names: str) -> None:
    """Bind lazily imported names as module globals, keeping a binding that
    is already there (such as a wrapper installed around the function)."""
    for name in names:
        if name not in globals():
            module = importlib.import_module(f"{__package__}.{_LAZY[name]}")
            globals()[name] = getattr(module, name)


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind(name)
    return globals()[name]


def _case_name(value: str) -> str:
    """The ``demo`` case argument; geometry is imported only when it is parsed."""
    _bind("TESTCASE_NAMES")
    if value not in TESTCASE_NAMES:
        raise argparse.ArgumentTypeError(
            f"invalid choice: {value!r} (choose from {', '.join(map(repr, TESTCASE_NAMES))})")
    return value


def _at_least(k: int):
    """An argparse ``type=`` for an integer count no smaller than ``k``."""
    def count(text: str) -> int:   # a ValueError reads "invalid count value: ..."
        value = int(text)
        if value < k:
            raise argparse.ArgumentTypeError(f"must be >= {k}, got {value}")
        return value
    return count


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as one ``error:`` line (exit 2), like every
    other error; subcommand parsers inherit the class."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rfuncds",
        description="Implicit-function algebra and analytical design-space identification.",
    )
    parser.add_argument("--version", action="version", version=f"rfuncds {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_demo = sub.add_parser("demo", help="render a built-in geometry case")
    p_demo.add_argument("name", type=_case_name,
                        help="a built-in case; an unknown name lists them all")
    p_demo.add_argument("--grid", type=_at_least(2), default=None,
                        help="nodes per axis (default 256 for 2D cases, 64 for 3D)")
    p_demo.add_argument("--slices", type=_at_least(1), default=9,
                        help="z-levels for 3D cases (default 9)")
    p_demo.add_argument("--alpha", type=float, default=1.0,
                        help="composition alpha (default 1.0)")
    p_demo.add_argument("--out", default="out", help="output directory")
    p_demo.set_defaults(func=cmd_demo)

    p_id = sub.add_parser("identify", help="identify the reactor design space")
    p_id.add_argument("--n", type=int, default=64, help="training model runs (default 64)")
    p_id.add_argument("--alpha", type=float, default=1.0)
    p_id.add_argument("--grid", type=_at_least(2), default=256,
                      help="contour grid resolution (default 256)")
    p_id.add_argument("--skip", type=_at_least(0), default=1, help="Sobol skip (default 1)")
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
    p_sob.add_argument("n", type=_at_least(1))
    p_sob.add_argument("--skip", type=_at_least(0), default=1)
    p_sob.set_defaults(func=cmd_sobol)

    return parser


def _escaped(text: str) -> str:
    """``text`` as one line of valid UTF-8: control characters, line
    separators and the lone surrogates that stand for argv bytes that are not
    UTF-8 become escapes ("\\n", "\\u2028", "\\udcff")."""
    return "".join(c if c.isprintable() else repr(c)[1:-1] for c in text)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(argv)
    provenance = _escaped(f"rfuncds {__version__} | rfuncds {' '.join(argv)}")
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
    _bind("testcase", "grid_eval", "marching_squares", "slice_contours_3d", "DEFAULT_PALETTE",
          "emit_svg", "emit_field_csv")
    _, _, case = testcase(args.name)
    is3d = len(case.bounds) == 3
    grid = (64 if is3d else 256) if args.grid is None else args.grid
    regions = [(label, compose(tree, args.alpha)) for label, tree in case.trees]
    out = _outdir(args)

    lines = [f"# {provenance}", f"# case {case.name}, alpha={args.alpha!r}", ""]
    for (label, region), color in zip(regions, DEFAULT_PALETTE):
        field = grid_eval(region, case.bounds, (grid, grid, args.slices) if is3d else grid)
        if is3d:
            for k, (z, contours) in enumerate(slice_contours_3d(field)):
                emit_svg(out / f"{label}_slice{k:02d}.svg", [(contours, color)],
                         case.bounds[:2], provenance=provenance,
                         title=f"{case.name} [{label}] z={z:g}")
        else:
            emit_svg(out / f"{label}.svg", [(marching_squares(field), color)], case.bounds,
                     field=field, provenance=provenance,
                     title=f"{case.name} [{label}]")
        emit_field_csv(out / f"{label}_field.csv", field, provenance=provenance)
        lines.append(f"[{label}]")
        lines.append(f"infix_sqrt = {serialize(region.expr, 'infix', alpha1_style='sqrt')}")
        lines.append(f"infix_abs = {serialize(region.expr, 'infix', alpha1_style='abs')}")
        lines.append(f"tree = {serialize(region.expr, 'tree')}")
        lines.append("")
    (out / "expressions.txt").write_text("\n".join(lines), encoding="utf-8")
    print(f"wrote {case.name} demo to {_escaped(str(out))}")
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
        key = key.strip()
        if key in overrides:
            raise ValueError(f"{path}:{lineno}: key {key!r} given twice")
        try:
            overrides[key] = float(value.strip())
        except ValueError:
            raise ValueError(f"{path}:{lineno}: value for {key!r} "
                             f"is not a number: {value.strip()!r}") from None
    return overrides


def cmd_identify(args, provenance: str) -> int:
    from . import reactor
    _bind("grid_eval", "marching_squares", "DEFAULT_PALETTE", "emit_svg", "emit_contours_csv")
    if args.n < len(reactor.CQA_BASIS):
        print(f"error: --n must be >= {len(reactor.CQA_BASIS)} (basis size), got {args.n}",
              file=sys.stderr)
        return 2
    try:
        params, box = reactor.apply_config(
            _load_config(args.config) if args.config is not None else {})
    except (ValueError, KeyError, OSError) as exc:   # OSError: a config that cannot be read
        print(f"error: {exc}", file=sys.stderr)
        return 2
    provenance = f"{provenance} | model reactor.cqa_closed"

    def model(points):
        return reactor.cqa_closed(points, params)

    constraints = [
        ds.ConstraintSpec("purity", reactor.PURITY_MIN),
        ds.ConstraintSpec("profit", reactor.PROFIT_MIN),
    ]
    report = ds.identify(constraints, box, args.n, reactor.CQA_BASIS,
                         alpha=args.alpha, model=model, skip=args.skip)
    out = _outdir(args)

    # each field is evaluated once, for its contours and (joint) the shading
    bounds = [(a.lo, a.hi) for a in box]
    joint_field = grid_eval(report.joint, bounds, args.grid)
    joint_contours = marching_squares(joint_field)
    contours = {c.name: marching_squares(grid_eval(c.phi, bounds, args.grid))
                for c in report.constraints}
    artifacts = {}
    emit_svg(out / "joint_ds.svg", [(joint_contours, DEFAULT_PALETTE[0])],
             bounds, field=joint_field, provenance=provenance,
             title="joint design space (shaded: inside)")
    artifacts["joint_svg"] = "joint_ds.svg"
    layers = [(contours[c.name], DEFAULT_PALETTE[k + 1])
              for k, c in enumerate(report.constraints)]
    emit_svg(out / "constraint_boundaries.svg", layers, bounds,
             provenance=provenance, title="per-constraint boundaries")
    artifacts["constraints_svg"] = "constraint_boundaries.svg"
    for c in report.constraints:
        name = f"phi_{c.name}.csv"
        emit_contours_csv(out / name, contours[c.name], provenance=provenance)
        artifacts[f"contour_{c.name}"] = name
    emit_contours_csv(out / "joint.csv", joint_contours, provenance=provenance)
    artifacts["contour_joint"] = "joint.csv"
    ds.save_report(report, out / "ds_report.json", artifacts=artifacts,
                   provenance=provenance)

    for c in report.constraints:
        print(f"{c.name}: threshold {c.threshold:g}, "
              f"R2 train {c.fit.r_squared:.6f}, validation {c.validation_r_squared:.6f}")
    v = report.validation
    print(f"membership agreement on {v.n_points} validation points: "
          f"{v.agreement_rate:.4f} ({v.n_disagreements} disagreements)")
    print(f"report: {_escaped(str(out / 'ds_report.json'))}")
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
    value = eval_expr(report.joint, ds.box_point(report, point))
    verdict = classify(value)
    print(f"{verdict} (joint expression = {value!r})")
    return {"inside": 0, "outside": 3, "boundary": 4}[verdict]


def cmd_sobol(args, provenance: str) -> int:
    from . import qmc
    for row in qmc.sobol(args.d, args.n, skip=args.skip):
        print(",".join(repr(float(v)) for v in row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
