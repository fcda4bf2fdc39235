"""Analytical design-space identification.

The identifier fits one polynomial metamodel per constraint from a shared
set of model runs at Sobol points, shifts each by its threshold to get an
implicit function phi_i (inside iff phi_i >= 0), and joins all constraints
into a single closed-form expression with an R-conjunction.  Membership
queries against the resulting report evaluate that one expression and never
touch the underlying model.
"""

from __future__ import annotations

import functools
import json
import math
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

from . import exprtext
from .errors import (
    AlphaOutOfRange, BoundsMismatch, DTooSmall, EmptyConstraintList, InsufficientPoints,
    ModelOutputShape, NonFiniteValue, OutOfBox, ParseError,
)
from .expr import (
    And, Const, Leaf, Region, Sub, Var, check_alpha, classify, compile_verdict, compose, depth,
    eval_arrays, eval_expr,
)
# perfbench's tracer wraps ds.sign_class by name (perfbench/spans.py WRAPS)
from .expr import sign_class  # noqa: F401
from .polyfit import BasisSpec, FitResult, fit_least_squares, r_squared, to_expr
from .qmc import scale, sobol
from .record import Record

if TYPE_CHECKING:
    import numpy as np

REPORT_FORMAT = "rfuncds-ds-report/1"

# Sobol points in the validation block that ``identify`` draws
N_VALIDATION = 256


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
    # the instance dict holds only the compiled verdict function
    __slots__ = ("box", "alpha", "constraints", "joint", "sampling", "validation", "__dict__")

    def __init__(self, box: tuple[BoxAxis, ...], alpha: float,
                 constraints: tuple[ConstraintReport, ...], joint: Region,
                 sampling: SamplingMeta, validation: ValidationStats):
        names = tuple(axis.name for axis in box)
        if joint.vars != names:
            raise ValueError(f"joint region variables {joint.vars} "
                             f"differ from the box axes {names}")
        super().__init__(box, alpha, constraints, joint, sampling, validation)

    @functools.cached_property
    def verdict(self) -> Callable:
        """The box test around the body of the joint's ``scalar_program``,
        compiled on first use (``expr.compile_verdict`` with the box): the
        ``membership`` of a list or tuple point, or a dict holding exactly
        the box names, inside the box, and None for every other point."""
        return compile_verdict(self.joint, [(axis.lo, axis.hi) for axis in self.box])


def plot_count(d: int) -> int:
    """Number of 2D projection plots needed to present a d-dimensional space."""
    if d < 2:
        raise DTooSmall(d)
    return d * (d - 1) // 2 * 3 ** (d - 2)


def identify(constraints: Sequence[ConstraintSpec], box: Sequence[BoxAxis],
             n_samples: int, basis: BasisSpec, alpha: float = 1.0, *,
             model: Callable[[np.ndarray], np.ndarray], skip: int = 1) -> DSReport:
    """Identify the joint design space as one analytical expression.

    ``model`` maps an ``(n, d)`` array of parameter rows (columns ordered
    like the box axes) to an ``(n, k)`` array holding every constraint's
    value at each row, columns ordered like ``constraints``; any other
    shape raises ModelOutputShape, and an inf or nan value NonFiniteValue.
    It is called exactly twice: once on the training block and once on the
    validation block.  Validation uses a
    Sobol block of ``N_VALIDATION`` points disjoint from training (skip
    range starts right after the training points) and records
    per-constraint R^2 plus the rate at which the sign of the joint
    expression agrees with direct thresholding of the model output.  An
    inf or nan threshold raises ValueError, and ``n_samples`` below the
    number of basis monomials InsufficientPoints, before the first Sobol
    draw; a joint expression deeper than the tree format holds
    (``exprtext.check_depth``) raises before the validation run.
    """
    import numpy as np
    constraints = list(constraints)
    if not constraints:
        raise EmptyConstraintList("need at least one constraint")
    check_alpha(alpha)
    thresholds = [float(spec.threshold) for spec in constraints]
    for spec, threshold in zip(constraints, thresholds):
        if not math.isfinite(threshold):
            raise ValueError(f"constraint {spec.name!r} needs a finite threshold, "
                             f"got {threshold!r}")
    box = tuple(box)
    names = tuple(axis.name for axis in box)
    if basis.vars != names:
        raise ValueError(f"basis variables {basis.vars} != box axes {names}")
    if n_samples < len(basis):   # as fit_least_squares would, after the model runs
        raise InsufficientPoints(f"{n_samples} points for {len(basis)} monomials")

    def run_model(points):
        with np.errstate(all="ignore"):   # a non-finite value is refused below instead
            values = np.asarray(model(points), dtype=float)
        expected = (points.shape[0], len(constraints))
        if values.shape != expected:
            raise ModelOutputShape(f"model returned shape {values.shape} for "
                                   f"{expected[0]} points, expected {expected}")
        bad = ~np.isfinite(values).all(axis=1)
        if bad.any():
            raise NonFiniteValue(f"model returned inf or nan at {int(bad.sum())} of "
                                 f"{expected[0]} points, the first {points[bad][0].tolist()}")
        return values

    # both Sobol blocks are drawn before the first model run, so a skip
    # beyond the sequence fails before any model time is spent
    bounds = [(axis.lo, axis.hi) for axis in box]
    validation_skip = skip + n_samples
    train = scale(sobol(len(box), n_samples, skip), bounds)
    val = scale(sobol(len(box), N_VALIDATION, validation_skip), bounds)
    y_train = run_model(train)

    fits = [fit_least_squares(train, y_train[:, k], basis) for k in range(len(constraints))]
    phis, joint = _regions(fits, thresholds, names, alpha)
    exprtext.check_depth(depth(joint.expr),
                         f"a basis of {len(basis)} monomials gives a joint expression")

    y_val = run_model(val)
    predicted_in = eval_arrays(joint, val.T) >= 0.0
    actual_in = np.all(y_val >= np.array(thresholds), axis=1)
    agree = predicted_in == actual_in
    stats = ValidationStats(
        agreement_rate=float(agree.mean()),
        n_points=int(val.shape[0]),
        n_disagreements=int((~agree).sum()),
    )

    constraint_reports = tuple(
        ConstraintReport(
            name=spec.name, threshold=threshold, fit=fit, phi=phi,
            validation_r_squared=r_squared(fit, val, y_val[:, k]),
        )
        for k, (spec, threshold, fit, phi) in enumerate(zip(constraints, thresholds, fits, phis))
    )

    return DSReport(
        box=box, alpha=float(alpha), constraints=constraint_reports, joint=joint,
        sampling=SamplingMeta(n_train=n_samples, skip=skip,
                              n_validation=N_VALIDATION, validation_skip=validation_skip),
        validation=stats,
    )


def _regions(fits: Sequence[FitResult], thresholds: Sequence[float], names: tuple[str, ...],
             alpha: float) -> tuple[list[Region], Region]:
    """Each constraint's phi, its fitted polynomial minus its threshold, and
    the joint region, the R-conjunction of the phis at ``alpha``.

    The one rule for a report's expressions: ``identify`` builds them with
    it, and ``load_report`` rebuilds them from the saved fits."""
    phis = [Region(Sub(to_expr(fit), Const(threshold)), names)
            for fit, threshold in zip(fits, thresholds)]
    return phis, conjunction(phis, alpha)


def conjunction(phis: Sequence[Region], alpha: float) -> Region:
    """The joint region of ``phis``: their R-conjunction at ``alpha``, a left
    fold of RAnd nodes.

    The one joint rule: ``_regions`` applies it to the fitted phis, and
    ``joint_values`` to variables that stand for the phis' values."""
    return compose(And(*map(Leaf, phis)), alpha)


def joint_values(phi_values: Sequence[np.ndarray], alpha: float) -> np.ndarray:
    """The joint expression's values from its phis' values (broadcast-compatible
    arrays, one per constraint in report order).

    The joint's program computes each phi and then applies the RAnd nodes, so
    this applies the same nodes to the same values: on a grid it equals
    ``grid_eval`` of the report's joint region bit for bit, and each phi is
    evaluated once."""
    names = tuple(f"phi{k}" for k in range(len(phi_values)))
    return eval_arrays(conjunction([Region(Var(name), names) for name in names], alpha),
                       list(phi_values))


def membership(report: DSReport, u) -> str:
    """Classify a point against the joint expression, as ``sign_class`` does.

    Never calls the underlying model.  Raises OutOfBox as ``box_point``,
    and TypeError for a ``str``, ``bytes``, ``bytearray`` or ``memoryview``
    point, which is not read as its characters or bytes.  A list or tuple
    point, or a dict holding exactly the box names, inside the box is
    answered by the report's ``verdict`` function; every other point
    (another mapping or iterable, a wrong count or set of names, a value
    that is not a number, nan or out of the box) takes the checked path,
    ``classify(eval_expr(report.joint, box_point(report, u)))``.  Both run
    the joint's ``scalar_program``, so they give the same verdicts and
    raise the same errors.
    """
    # verdict gives None where it does not answer; the joint region's inputs
    # are the box axes in order (DSReport checks it)
    return report.verdict(u) or classify(eval_expr(report.joint, box_point(report, u)))


def box_point(report: DSReport, u) -> list[float]:
    """The coordinates of ``u`` as floats in box-axis order.

    ``u`` is a name -> value mapping or the values in box-axis order.
    Raises OutOfBox for points outside the report's parameter box (a value
    beyond the float range, such as the int 10**400, included), and
    for a mapping that misses a box coordinate or names one the box does
    not have, or a sequence of another length; a ``str``, ``bytes``,
    ``bytearray`` or ``memoryview`` point raises TypeError rather than
    being read as its characters or bytes.  This is the checked path of
    ``membership`` and of the ``check`` command.
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
            values = [u[n] for n in names]
        except KeyError as exc:
            raise OutOfBox(f"point is missing coordinate {exc.args[0]!r}") from None
    elif isinstance(u, (str, bytes, bytearray, memoryview)):
        raise TypeError(f"point must be a sequence or mapping of numbers, "
                        f"not {type(u).__name__}")
    else:
        values = list(u)
        if len(values) != len(box):
            raise OutOfBox(f"point has {len(values)} coordinates, box has {len(box)}")
    values = [_coordinate(axis, v) for axis, v in zip(box, values)]
    for axis, v in zip(box, values):
        if not axis.lo <= v <= axis.hi:
            raise OutOfBox(
                f"{axis.name} = {v!r} outside [{axis.lo}, {axis.hi}]")
    return values


def _coordinate(axis: BoxAxis, value) -> float:
    try:
        return float(value)
    except OverflowError:   # an int beyond the floats, whose repr may be too long to print
        raise OutOfBox(f"{axis.name} is beyond the float range, outside "
                       f"[{axis.lo}, {axis.hi}]") from None


# ----------------------------------------------------------------------
# persistence

def _expression_fields(report: DSReport) -> tuple[list[dict], dict]:
    """The fields a saved report holds for its expressions: each
    constraint's ``phi_infix`` and ``phi_tree``, and the ``joint`` block,
    from one fold over the joint, which holds each phi by identity."""
    (infix_abs, infix_sqrt, tree), *phis = exprtext.expression_fields(
        report.joint.expr, *(c.phi.expr for c in report.constraints))
    return ([{"phi_infix": infix, "phi_tree": phi_tree} for infix, _, phi_tree in phis],
            {"infix_sqrt": infix_sqrt, "infix_abs": infix_abs, "tree": tree})


def _report_obj(report: DSReport, artifacts: Mapping[str, str] | None,
                provenance: str) -> dict:
    phis, joint = _expression_fields(report)
    obj: dict = {"format": REPORT_FORMAT}
    if provenance:
        obj["provenance"] = provenance
    obj["alpha"] = report.alpha
    obj["box"] = [
        {"name": a.name, "lo": a.lo, "hi": a.hi, "unit": a.unit} for a in report.box
    ]
    s = report.sampling
    obj["sampling"] = {"n_train": s.n_train, "skip": s.skip, "n_validation": s.n_validation,
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
            **phi,
        }
        for c, phi in zip(report.constraints, phis)
    ]
    obj["joint"] = joint
    v = report.validation
    obj["validation"] = {"agreement_rate": v.agreement_rate, "n_points": v.n_points,
                         "n_disagreements": v.n_disagreements}
    if artifacts:
        obj["files"] = dict(artifacts)
    return obj


def save_report(report: DSReport, path, artifacts: Mapping[str, str] | None = None,
                provenance: str = "") -> None:
    """Write the report as structured JSON (full float precision) in the
    layout of ``json.dumps(indent=2)``, each leaf encoded by json's C
    encoders (``exprtext.dump_json``); a tree too deep to read back raises
    ValueError before the file is opened."""
    text = exprtext.dump_json(_report_obj(report, artifacts, provenance)) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def load_report(path) -> DSReport:
    """Reload a saved report (metamodels and expressions).

    The expressions are rebuilt from the fields, as ``identify`` builds
    them: each phi from its constraint's basis, coefficients and
    threshold, and the joint from the phis and ``alpha``.  Each stored
    ``phi_tree`` and ``phi_infix`` and the whole ``joint`` block must equal,
    as JSON text, what ``save_report`` writes for the rebuilt expressions,
    so a report cannot answer from a tree, or be read from a text, that its
    own coefficients contradict.

    Expression trees may nest at most ``exprtext.MAX_DEPTH`` levels; the
    file is checked for that before it is decoded.  A file that is not
    UTF-8 text, a missing or wrong ``format`` key, a missing field, an
    empty constraint list, a field not of its kind in
    ``exprtext.FIELD_KINDS`` (number, count, name or unit), an inf or nan
    threshold or coefficient, a coefficient list that does not match its
    basis, basis variables that are not a JSON list of names or not the
    box axes, an alpha outside (-1, 1], a box axis without finite
    ``lo < hi``, a too-deep tree and a stored expression field that
    differs from the rebuilt one raise ParseError.
    Coefficients load as a tuple of floats; nothing here imports numpy.
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
    except (AlphaOutOfRange, BoundsMismatch, TypeError, ValueError) as exc:
        raise ParseError(None, str(exc)) from None


def _finite(value, subject: str) -> float:
    """A report number that must also be finite; JSON's NaN and Infinity
    tokens raise ParseError naming ``subject``."""
    number = exprtext.read_field(value, "number", subject)
    if not math.isfinite(number):
        raise ParseError(None, f"{subject} must be a finite number, got {number!r}")
    return number


def _report_from_obj(obj: dict) -> DSReport:
    field = exprtext.read_field
    alpha = check_alpha(field(obj["alpha"], "number", "alpha"))
    box = tuple(BoxAxis(field(a["name"], "name", "box axis name"),
                        field(a["lo"], "number", "lo"), field(a["hi"], "number", "hi"),
                        field(a.get("unit"), "unit", "box axis unit"))
                for a in obj["box"])
    names = tuple(a.name for a in box)
    rows = []   # (name, threshold, fit, validation R^2) per constraint
    for c in obj["constraints"]:
        monomials = tuple(tuple(field(e, "count", "basis exponent") for e in m)
                          for m in c["basis"]["monomials"])
        basis_vars = c["basis"]["vars"]
        if not isinstance(basis_vars, list):
            raise ParseError(None, f"basis variables must be a list, got {basis_vars!r}")
        basis = BasisSpec(vars=tuple(field(v, "name", "basis variable") for v in basis_vars),
                          monomials=monomials)
        if basis.vars != names:
            raise ParseError(None, f"basis variables {basis.vars} != box axes {names}")
        coefficients = tuple(_finite(v, "coefficient") for v in c["coefficients"])
        if len(coefficients) != len(basis):
            raise ValueError(f"{len(coefficients)} coefficients for "
                             f"{len(basis)} monomials")
        fit = FitResult(basis=basis, coefficients=coefficients,
                        r_squared=field(c["r_squared"], "number", "r_squared"),
                        n_points=field(c["n_points"], "count", "n_points"),
                        residual_max_abs=field(c["residual_max_abs"], "number",
                                               "residual_max_abs"))
        rows.append((field(c["name"], "name", "constraint name"),
                     _finite(c["threshold"], "threshold"), fit,
                     field(c["validation_r_squared"], "number", "validation_r_squared")))
    if not rows:
        raise ParseError(None, "report has no constraints")
    s = obj["sampling"]
    sampling = SamplingMeta(*[field(s[key], "count", key) for key in SamplingMeta._fields])
    v = obj["validation"]
    validation = ValidationStats(*[field(v[key], kind, key) for key, kind in zip(
        ValidationStats._fields, ("number", "count", "count"))])

    constraint_names, thresholds, fits, r2s = zip(*rows)
    phis, joint = _regions(fits, thresholds, names, alpha)
    constraints = tuple(map(ConstraintReport, constraint_names, thresholds, fits, phis, r2s))
    report = DSReport(box=box, alpha=alpha, constraints=constraints, joint=joint,
                      sampling=sampling, validation=validation)
    _check_derived(obj, report)
    return report


def _check_derived(stored: dict, report: DSReport) -> None:
    """Refuse a report whose expression fields differ from those its fits
    give: an infix text as a string, a tree as JSON text, in which ``2.0``
    is not the exponent ``2``."""
    def differs(field, mine) -> bool:
        if isinstance(mine, str):
            return field != mine
        return json.dumps(field) != json.dumps(mine)

    phis, joint = _expression_fields(report)
    for c, spec, mine in zip(stored["constraints"], report.constraints, phis):
        for key in ("phi_tree", "phi_infix"):
            if differs(c[key], mine[key]):
                raise ParseError(None, f"{key} of constraint {spec.name!r} differs from "
                                       f"the one of its coefficients minus its threshold")
    saved = stored["joint"]
    for key in ("tree", "infix_sqrt", "infix_abs"):
        if differs(saved[key], joint[key]):
            raise ParseError(None, f"joint.{key} differs from the one of the constraints' "
                                   f"phi joined at the report's alpha")
    if list(saved) != list(joint):
        raise ParseError(None, f"joint holds {', '.join(map(repr, saved))}; a report's "
                               f"joint holds 'infix_sqrt', 'infix_abs' and 'tree', "
                               f"in that order")
