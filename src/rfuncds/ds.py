"""Analytical design-space identification.

The identifier fits one polynomial metamodel per constraint from a shared
set of model runs at Sobol points, shifts each by its threshold to get an
implicit function phi_i (inside iff phi_i >= 0), and joins all constraints
into a single closed-form expression with an R-conjunction.  Membership
queries against the resulting report evaluate that one expression and never
touch the underlying model.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from . import exprtext
from .contour import ContourSet, grid_eval, marching_squares
from .errors import DTooSmall, EmptyConstraintList, ModelOutputShape, OutOfBox
from .expr import (
    And, Const, Leaf, Region, Sub, check_alpha, compose, eval_arrays, sign_class,
)
from .polyfit import BasisSpec, FitResult, fit_least_squares, r_squared, to_expr
from .qmc import scale, sobol

REPORT_FORMAT = "rfuncds-ds-report/1"


@dataclass(frozen=True)
class BoxAxis:
    name: str
    lo: float
    hi: float
    unit: str | None = None


@dataclass(frozen=True)
class ConstraintSpec:
    """A quality attribute with its acceptance threshold (direction fixed >=).

    The model passed to ``identify`` computes the attribute values.  Express
    a <= constraint by negating both the model's column and the threshold.
    """

    name: str
    threshold: float


@dataclass(frozen=True)
class ConstraintReport:
    name: str
    threshold: float
    fit: FitResult
    phi: Region                      # fitted metamodel minus threshold
    validation_r_squared: float | None = None


@dataclass(frozen=True)
class SamplingMeta:
    n_train: int
    skip: int
    n_validation: int
    validation_skip: int


@dataclass(frozen=True)
class ValidationStats:
    agreement_rate: float
    n_points: int
    n_disagreements: int


@dataclass(frozen=True)
class DSReport:
    box: tuple[BoxAxis, ...]
    alpha: float
    constraints: tuple[ConstraintReport, ...]
    joint: Region
    sampling: SamplingMeta | None = None
    validation: ValidationStats | None = None
    contours: Mapping[str, ContourSet] | None = None


def plot_count(d: int) -> int:
    """Number of 2D projection plots needed to present a d-dimensional space."""
    if d < 2:
        raise DTooSmall(d)
    return d * (d - 1) // 2 * 3 ** (d - 2)


def identify(constraints: Sequence[ConstraintSpec], box: Sequence[BoxAxis],
             n_samples: int, basis: BasisSpec, alpha: float = 1.0, *,
             model: Callable[[np.ndarray], np.ndarray],
             n_validation: int = 256, skip: int = 1,
             contour_resolution: int | None = 256) -> DSReport:
    """Identify the joint design space as one analytical expression.

    ``model`` maps an ``(n, d)`` array of parameter rows (columns ordered
    like the box axes) to an ``(n, k)`` array holding every constraint's
    value at each row, columns ordered like ``constraints``; any other
    shape raises ModelOutputShape.  It is called exactly twice: once on the
    training block and once on the validation block.  Validation uses a
    Sobol block disjoint from training (skip range starts right after the
    training points) and records per-constraint R^2 plus the rate at which
    the sign of the joint expression agrees with direct thresholding of the
    model output.
    """
    constraints = list(constraints)
    if not constraints:
        raise EmptyConstraintList("need at least one constraint")
    check_alpha(alpha)
    box = tuple(box)
    names = tuple(axis.name for axis in box)
    units = tuple(axis.unit for axis in box)
    if basis.vars != names:
        raise ValueError(f"basis variables {basis.vars} != box axes {names}")

    def run_model(points):
        values = np.asarray(model(points), dtype=float)
        expected = (points.shape[0], len(constraints))
        if values.shape != expected:
            raise ModelOutputShape(f"model returned shape {values.shape} for "
                                   f"{expected[0]} points, expected {expected}")
        return values

    bounds = [(axis.lo, axis.hi) for axis in box]
    train = scale(sobol(len(box), n_samples, skip), bounds).points
    y_train = run_model(train)

    reports = []
    leaves = []
    for k, spec in enumerate(constraints):
        fit = fit_least_squares(train, y_train[:, k], basis)
        phi = Region(
            expr=Sub(to_expr(fit), Const(float(spec.threshold))),
            vars=names, units=units,
            description=f"metamodel of {spec.name} minus threshold {spec.threshold}",
        )
        reports.append((spec, fit, phi))
        leaves.append(Leaf(phi))

    joint = compose(And(*leaves), alpha)

    validation_skip = skip + n_samples
    val = scale(sobol(len(box), n_validation, validation_skip), bounds).points
    y_val = run_model(val)
    env = {name: val[:, i] for i, name in enumerate(names)}
    predicted_in = eval_arrays(joint.expr, env) >= 0.0
    actual_in = np.all(
        y_val >= np.array([spec.threshold for spec, _, _ in reports]), axis=1)
    agree = predicted_in == actual_in
    stats = ValidationStats(
        agreement_rate=float(agree.mean()),
        n_points=int(val.shape[0]),
        n_disagreements=int((~agree).sum()),
    )

    constraint_reports = tuple(
        ConstraintReport(
            name=spec.name, threshold=float(spec.threshold), fit=fit, phi=phi,
            validation_r_squared=r_squared(fit, val, y_val[:, k]),
        )
        for k, (spec, fit, phi) in enumerate(reports)
    )

    contours = None
    if contour_resolution is not None and len(box) == 2:
        contours = {}
        for rep in constraint_reports:
            fld = grid_eval(rep.phi, bounds, contour_resolution)
            contours[rep.name] = marching_squares(fld)
        contours["joint"] = marching_squares(grid_eval(joint, bounds, contour_resolution))

    return DSReport(
        box=box, alpha=float(alpha), constraints=constraint_reports, joint=joint,
        sampling=SamplingMeta(n_train=n_samples, skip=skip,
                              n_validation=n_validation, validation_skip=validation_skip),
        validation=stats, contours=contours,
    )


def membership(report: DSReport, u, tol: float = 1e-9) -> str:
    """Classify a point against the identified joint expression.

    Never calls the underlying model.  Raises OutOfBox for points outside
    the report's parameter box, and for a mapping that misses a box
    coordinate or names one the box does not have.
    """
    names = [axis.name for axis in report.box]
    if isinstance(u, Mapping):
        unknown = [k for k in u if k not in names]
        if unknown:
            raise OutOfBox(f"point has coordinate {unknown[0]!r}, which the box "
                           f"({', '.join(names)}) does not have")
        try:
            values = [float(u[n]) for n in names]
        except KeyError as exc:
            raise OutOfBox(f"point is missing coordinate {exc.args[0]!r}") from None
    else:
        values = [float(v) for v in u]
        if len(values) != len(names):
            raise OutOfBox(f"point has {len(values)} coordinates, box has {len(names)}")
    for axis, v in zip(report.box, values):
        if not axis.lo <= v <= axis.hi:
            raise OutOfBox(
                f"{axis.name} = {v!r} outside [{axis.lo}, {axis.hi}]")
    return sign_class(report.joint, dict(zip(names, values)), tol=tol)


def joint_expression(report: DSReport, format: str = "infix",
                     alpha1_style: str = "sqrt") -> str:
    """The joint design-space expression as text (see exprtext formats)."""
    return exprtext.serialize(report.joint.expr, format=format, alpha1_style=alpha1_style)


# ----------------------------------------------------------------------
# persistence

def _report_obj(report: DSReport, artifacts: Mapping[str, str] | None,
                provenance: str) -> dict:
    obj: dict = {"format": REPORT_FORMAT}
    if provenance:
        obj["provenance"] = provenance
    obj["alpha"] = report.alpha
    obj["box"] = [
        {"name": a.name, "lo": a.lo, "hi": a.hi, "unit": a.unit} for a in report.box
    ]
    if report.sampling is not None:
        s = report.sampling
        obj["sampling"] = {"n_train": s.n_train, "skip": s.skip,
                           "n_validation": s.n_validation,
                           "validation_skip": s.validation_skip}
    obj["constraints"] = [
        {
            "name": c.name,
            "threshold": c.threshold,
            "basis": {"vars": list(c.fit.basis.vars),
                      "monomials": [list(m) for m in c.fit.basis.monomials]},
            "coefficients": [float(v) for v in c.fit.coefficients],
            "r_squared": c.fit.r_squared,
            "residual_max_abs": c.fit.residual_max_abs,
            "n_points": c.fit.n_points,
            "validation_r_squared": c.validation_r_squared,
            "phi_infix": exprtext.to_infix(c.phi.expr),
            "phi_tree": json.loads(exprtext.to_tree_text(c.phi.expr)),
        }
        for c in report.constraints
    ]
    obj["joint"] = {
        "infix_sqrt": exprtext.to_infix(report.joint.expr, alpha1_style="sqrt"),
        "infix_abs": exprtext.to_infix(report.joint.expr, alpha1_style="abs"),
        "tree": json.loads(exprtext.to_tree_text(report.joint.expr)),
    }
    if report.validation is not None:
        v = report.validation
        obj["validation"] = {"agreement_rate": v.agreement_rate,
                             "n_points": v.n_points,
                             "n_disagreements": v.n_disagreements}
    if artifacts:
        obj["files"] = dict(artifacts)
    return obj


def save_report(report: DSReport, path, artifacts: Mapping[str, str] | None = None,
                provenance: str = "") -> None:
    """Write the report as structured JSON (full float precision)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(_report_obj(report, artifacts, provenance), fh, indent=2)
        fh.write("\n")


def load_report(path) -> DSReport:
    """Reload a saved report (metamodels and expressions; no contours)."""
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    if obj.get("format") != REPORT_FORMAT:
        raise ValueError(f"not a {REPORT_FORMAT} file: {path}")
    box = tuple(BoxAxis(a["name"], float(a["lo"]), float(a["hi"]), a.get("unit"))
                for a in obj["box"])
    names = tuple(a.name for a in box)
    units = tuple(a.unit for a in box)
    constraints = []
    for c in obj["constraints"]:
        basis = BasisSpec(vars=tuple(c["basis"]["vars"]),
                          monomials=tuple(tuple(m) for m in c["basis"]["monomials"]))
        fit = FitResult(basis=basis,
                        coefficients=np.array(c["coefficients"], dtype=float),
                        r_squared=float(c["r_squared"]),
                        n_points=int(c["n_points"]),
                        residual_max_abs=float(c["residual_max_abs"]))
        phi = Region(expr=exprtext.parse_tree_text(json.dumps(c["phi_tree"])),
                     vars=names, units=units,
                     description=f"metamodel of {c['name']} minus threshold")
        constraints.append(ConstraintReport(
            name=c["name"], threshold=float(c["threshold"]), fit=fit, phi=phi,
            validation_r_squared=c.get("validation_r_squared")))
    joint = Region(expr=exprtext.parse_tree_text(json.dumps(obj["joint"]["tree"])),
                   vars=names, units=units, description="joint design space")
    sampling = None
    if "sampling" in obj:
        s = obj["sampling"]
        sampling = SamplingMeta(n_train=int(s["n_train"]), skip=int(s["skip"]),
                                n_validation=int(s["n_validation"]),
                                validation_skip=int(s["validation_skip"]))
    validation = None
    if "validation" in obj:
        v = obj["validation"]
        validation = ValidationStats(agreement_rate=float(v["agreement_rate"]),
                                     n_points=int(v["n_points"]),
                                     n_disagreements=int(v["n_disagreements"]))
    return DSReport(box=box, alpha=float(obj["alpha"]),
                    constraints=tuple(constraints), joint=joint,
                    sampling=sampling, validation=validation, contours=None)
