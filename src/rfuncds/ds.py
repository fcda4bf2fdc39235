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
import math
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

from . import exprtext
from .errors import (
    AlphaOutOfRange, BoundsMismatch, DTooSmall, EmptyConstraintList, ModelOutputShape, OutOfBox,
    ParseError,
)
from .expr import (
    And, Const, Leaf, Region, Sub, check_alpha, compose, eval_arrays, sign_class,
)
from .polyfit import BasisSpec, FitResult, fit_least_squares, r_squared, to_expr
from .qmc import scale, sobol
from .record import Record

if TYPE_CHECKING:
    import numpy as np

REPORT_FORMAT = "rfuncds-ds-report/1"


class BoxAxis(Record):
    """One parameter range of the box that the Sobol points fill.

    ``lo`` and ``hi`` are stored as floats and must be finite with
    ``lo < hi``; anything else raises BoundsMismatch.
    """

    __slots__ = ("name", "lo", "hi", "unit")

    def __init__(self, name: str, lo: float, hi: float, unit: str | None = None):
        lo, hi = float(lo), float(hi)
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise BoundsMismatch(f"box axis {name!r} needs finite bounds with "
                                 f"lo < hi, got [{lo!r}, {hi!r}]")
        super().__init__(name, lo, hi, unit)


class ConstraintSpec(Record):
    """A quality attribute with its acceptance threshold (direction fixed >=).

    The model passed to ``identify`` computes the attribute values.  Express
    a <= constraint by negating both the model's column and the threshold.
    """

    __slots__ = ("name", "threshold")


class ConstraintReport(Record):
    """One constraint's fit; ``phi`` is the fitted metamodel minus the
    threshold, as a Region."""

    __slots__ = ("name", "threshold", "fit", "phi", "validation_r_squared")


class SamplingMeta(Record):
    __slots__ = ("n_train", "skip", "n_validation", "validation_skip")


class ValidationStats(Record):
    __slots__ = ("agreement_rate", "n_points", "n_disagreements")


class DSReport(Record):
    __slots__ = ("box", "alpha", "constraints", "joint", "sampling", "validation")

    def __init__(self, box: tuple[BoxAxis, ...], alpha: float,
                 constraints: tuple[ConstraintReport, ...], joint: Region,
                 sampling: SamplingMeta | None = None,
                 validation: ValidationStats | None = None):
        names = tuple(axis.name for axis in box)
        if joint.vars != names:
            raise ValueError(f"joint region variables {joint.vars} "
                             f"differ from the box axes {names}")
        super().__init__(box, alpha, constraints, joint, sampling, validation)


def plot_count(d: int) -> int:
    """Number of 2D projection plots needed to present a d-dimensional space."""
    if d < 2:
        raise DTooSmall(d)
    return d * (d - 1) // 2 * 3 ** (d - 2)


def identify(constraints: Sequence[ConstraintSpec], box: Sequence[BoxAxis],
             n_samples: int, basis: BasisSpec, alpha: float = 1.0, *,
             model: Callable[[np.ndarray], np.ndarray],
             n_validation: int = 256, skip: int = 1) -> DSReport:
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
    import numpy as np
    constraints = list(constraints)
    if not constraints:
        raise EmptyConstraintList("need at least one constraint")
    check_alpha(alpha)
    box = tuple(box)
    names = tuple(axis.name for axis in box)
    if basis.vars != names:
        raise ValueError(f"basis variables {basis.vars} != box axes {names}")

    def run_model(points):
        values = np.asarray(model(points), dtype=float)
        expected = (points.shape[0], len(constraints))
        if values.shape != expected:
            raise ModelOutputShape(f"model returned shape {values.shape} for "
                                   f"{expected[0]} points, expected {expected}")
        return values

    # both Sobol blocks are drawn before the first model run, so a skip
    # beyond the sequence fails before any model time is spent
    bounds = [(axis.lo, axis.hi) for axis in box]
    validation_skip = skip + n_samples
    train = scale(sobol(len(box), n_samples, skip), bounds)
    val = scale(sobol(len(box), n_validation, validation_skip), bounds)
    y_train = run_model(train)

    reports = []
    leaves = []
    for k, spec in enumerate(constraints):
        fit = fit_least_squares(train, y_train[:, k], basis)
        phi = Region(Sub(to_expr(fit), Const(float(spec.threshold))), names)
        reports.append((spec, fit, phi))
        leaves.append(Leaf(phi))

    joint = compose(And(*leaves), alpha)

    y_val = run_model(val)
    predicted_in = eval_arrays(joint, val.T) >= 0.0
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

    return DSReport(
        box=box, alpha=float(alpha), constraints=constraint_reports, joint=joint,
        sampling=SamplingMeta(n_train=n_samples, skip=skip,
                              n_validation=n_validation, validation_skip=validation_skip),
        validation=stats,
    )


def membership(report: DSReport, u, tol: float = 1e-9) -> str:
    """Classify a point against the identified joint expression.

    Never calls the underlying model.  Raises OutOfBox as ``box_point``.
    """
    # the joint region's inputs are the box axes in order (DSReport checks it)
    return sign_class(report.joint, box_point(report, u), tol=tol)


def box_point(report: DSReport, u) -> list[float]:
    """The coordinates of ``u`` as floats in box-axis order.

    ``u`` is a name -> value mapping or the values in box-axis order.
    Raises OutOfBox for points outside the report's parameter box, and for
    a mapping that misses a box coordinate or names one the box does not
    have.
    """
    box = report.box
    # lists and tuples skip the slower abstract-class check
    if not isinstance(u, (list, tuple)) and isinstance(u, Mapping):
        names = [axis.name for axis in box]
        unknown = [k for k in u if k not in names]
        if unknown:
            raise OutOfBox(f"point has coordinate {unknown[0]!r}, which the box "
                           f"({', '.join(names)}) does not have")
        try:
            values = [float(u[n]) for n in names]
        except KeyError as exc:
            raise OutOfBox(f"point is missing coordinate {exc.args[0]!r}") from None
    else:
        values = list(map(float, u))
        if len(values) != len(box):
            raise OutOfBox(f"point has {len(values)} coordinates, box has {len(box)}")
    for axis, v in zip(box, values):
        if not axis.lo <= v <= axis.hi:
            raise OutOfBox(
                f"{axis.name} = {v!r} outside [{axis.lo}, {axis.hi}]")
    return values


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
            "phi_tree": exprtext.to_tree_obj(c.phi.expr),
        }
        for c in report.constraints
    ]
    obj["joint"] = {
        "infix_sqrt": exprtext.to_infix(report.joint.expr, alpha1_style="sqrt"),
        "infix_abs": exprtext.to_infix(report.joint.expr, alpha1_style="abs"),
        "tree": exprtext.to_tree_obj(report.joint.expr),
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
    """Reload a saved report (metamodels and expressions).

    Expression trees may nest at most ``exprtext.MAX_DEPTH`` levels; the
    file is checked for that before it is decoded.  A file that is not
    UTF-8 text, a missing or wrong ``format`` key, a missing field, a value that does not convert (such as
    an integer beyond the float range), a coefficient list that does not
    match its basis, an alpha outside (-1, 1], a box axis without finite
    ``lo < hi`` and a too-deep tree raise ParseError.  Coefficients load as
    a tuple of floats; nothing here imports numpy.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(None, f"{path} is not UTF-8 text: {exc.reason} "
                               f"at byte {exc.start}") from None
    # a phi_tree sits three levels down (report, constraints, constraint)
    obj = exprtext.load_json(text, 2 * exprtext.MAX_DEPTH + 2)
    if not isinstance(obj, dict) or obj.get("format") != REPORT_FORMAT:
        raise ParseError(None, f"not a {REPORT_FORMAT} file: {path}")
    try:
        return _report_from_obj(obj)
    except KeyError as exc:
        raise ParseError(None, f"report has no field {exc.args[0]!r}") from None
    except (AlphaOutOfRange, BoundsMismatch, OverflowError, TypeError, ValueError) as exc:
        raise ParseError(None, str(exc)) from None


def _report_from_obj(obj: dict) -> DSReport:
    alpha = check_alpha(obj["alpha"])
    box = tuple(BoxAxis(a["name"], a["lo"], a["hi"], a.get("unit")) for a in obj["box"])
    names = tuple(a.name for a in box)
    constraints = []
    for c in obj["constraints"]:
        basis = BasisSpec(vars=tuple(c["basis"]["vars"]),
                          monomials=tuple(tuple(m) for m in c["basis"]["monomials"]))
        coefficients = tuple(float(v) for v in c["coefficients"])
        if len(coefficients) != len(basis):
            raise ValueError(f"{len(coefficients)} coefficients for "
                             f"{len(basis)} monomials")
        fit = FitResult(basis=basis, coefficients=coefficients,
                        r_squared=float(c["r_squared"]),
                        n_points=int(c["n_points"]),
                        residual_max_abs=float(c["residual_max_abs"]))
        phi = Region(exprtext.from_tree_obj(c["phi_tree"]), names)
        constraints.append(ConstraintReport(
            name=c["name"], threshold=float(c["threshold"]), fit=fit, phi=phi,
            validation_r_squared=c.get("validation_r_squared")))
    joint = Region(exprtext.from_tree_obj(obj["joint"]["tree"]), names)
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
    return DSReport(box=box, alpha=alpha,
                    constraints=tuple(constraints), joint=joint,
                    sampling=sampling, validation=validation)
