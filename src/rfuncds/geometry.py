"""Implicit primitives and the built-in demo cases composed from them."""

from __future__ import annotations

import math

from .errors import InvalidSpec, UnknownTestCase
from .expr import And, Const, Leaf, Not, Or, Pow, Region, Sub, Var, compose
from .record import Record

_XY = ("x", "y")
_XYZ = ("x", "y", "z")


def _require(shape: str, positive: tuple[str, ...], **fields):
    """Every field must be finite; those named in ``positive`` also > 0."""
    for name, value in fields.items():
        if not math.isfinite(value):
            raise InvalidSpec(f"{shape}.{name} must be finite, got {value!r}")
        if name in positive and value <= 0:
            raise InvalidSpec(f"{shape}.{name} must be > 0, got {value!r}")


def circle(cx: float, cy: float, radius: float) -> Region:
    _require("circle", ("radius",), cx=cx, cy=cy, radius=radius)
    return Region(Const(radius**2) - (Var("x") - cx) ** 2 - (Var("y") - cy) ** 2, _XY)


def parabola(a: float, x0: float, c: float, orientation: str = "opens-up") -> Region:
    """Region above the parabola y = a*(x-x0)^2 - c (opens-up) or
    y = -a*(x-x0)^2 - c (opens-down)."""
    _require("parabola", ("a",), x0=x0, c=c, a=a)
    shifted = Pow(Sub(Var("x"), Const(x0)), 2)
    if orientation == "opens-up":
        expr = Var("y") - a * shifted + c
    elif orientation == "opens-down":
        expr = Var("y") + a * shifted + c
    else:
        raise InvalidSpec(f"orientation must be 'opens-up' or 'opens-down', got {orientation!r}")
    return Region(expr, _XY)


def slab(axis: str, half_thickness: float) -> Region:
    """|axis| <= half_thickness, unbounded along the other two axes."""
    if axis not in _XYZ:
        raise InvalidSpec(f"slab axis must be x, y or z, got {axis!r}")
    _require("slab", ("half_thickness",), half_thickness=half_thickness)
    return Region(Const(half_thickness**2) - Var(axis) ** 2, _XYZ)


def paraboloid(side: str, coeff: float) -> Region:
    """side='under': z <= coeff*(1-x^2-y^2); side='above': z >= -coeff*(1-x^2-y^2)."""
    _require("paraboloid", ("coeff",), coeff=coeff)
    bowl = coeff * (Const(1.0) - Var("x") ** 2 - Var("y") ** 2)
    if side == "under":
        expr = -Var("z") + bowl
    elif side == "above":
        expr = Var("z") + bowl
    else:
        raise InvalidSpec(f"paraboloid side must be 'under' or 'above', got {side!r}")
    return Region(expr, _XYZ)


def cylinder_z(radius: float) -> Region:
    _require("cylinder_z", ("radius",), radius=radius)
    return Region(Const(radius**2) - Var("x") ** 2 - Var("y") ** 2, _XYZ)


class TestCase(Record):
    """A named demo: the composition trees as (label, tree) pairs and the
    plot window.  ``testcase`` composes its trees at alpha = 1."""

    __slots__ = ("name", "trees", "bounds")


def _case_circles() -> TestCase:
    c0 = Leaf(circle(1.0, 2.0, 1.5))
    c1 = Leaf(circle(1.0, 1.0, 1.0))
    return TestCase(
        name="circles-4.1",
        trees=(("and", And(c0, c1)), ("or", Or(c0, c1))),
        bounds=((-1.0, 3.0), (-0.5, 4.0)),
    )


def _case_parabolas() -> TestCase:
    # region of interest: above the opens-up parabola AND below the
    # opens-down one, i.e. phi1 >= 0 and phi2 <= 0
    p1 = Leaf(parabola(1.0, 1.0, 3.0, "opens-up"))
    p2 = Leaf(parabola(1.0, 1.0, 1.5, "opens-down"))
    return TestCase(
        name="parabolas-4.2",
        trees=(("and", And(p1, Not(p2))), ("or", Or(p1, Not(p2)))),
        bounds=((-2.0, 4.0), (-6.0, 2.0)),
    )


def _case_slabs() -> TestCase:
    s = [Leaf(slab(axis, half)) for axis, half in (("x", 2.0), ("y", 1.0), ("z", 2.0))]
    return TestCase(
        name="slabs-A1",
        trees=(("and", And(*s)), ("or", Or(*s))),
        bounds=((-3.0, 3.0), (-3.0, 3.0), (-3.0, 3.0)),
    )


def _case_paraboloid_cylinders() -> TestCase:
    # lens between two paraboloids, optionally with an annular cylindrical
    # cut-out: keep the core of radius 0.3, remove the ring out to 0.5
    f1 = Leaf(paraboloid("under", 0.6))
    f2 = Leaf(paraboloid("above", 0.6))
    f3 = Leaf(cylinder_z(0.5))
    f4 = Leaf(cylinder_z(0.3))
    return TestCase(
        name="paraboloid-cylinders-A2",
        trees=(
            ("and", And(f1, f2)),
            ("cutout", And(f1, f2, Or(Not(f3), f4))),
        ),
        bounds=((-1.2, 1.2), (-1.2, 1.2), (-1.2, 1.2)),
    )


_CASES = {
    "circles-4.1": _case_circles,
    "parabolas-4.2": _case_parabolas,
    "slabs-A1": _case_slabs,
    "paraboloid-cylinders-A2": _case_paraboloid_cylinders,
}

TESTCASE_NAMES = tuple(_CASES)


def testcase(name: str) -> tuple[Region, Region, TestCase]:
    """Return both composed regions of a named demo case plus its definition."""
    try:
        case = _CASES[name]()
    except KeyError:
        raise UnknownTestCase(name, TESTCASE_NAMES) from None
    first = compose(case.trees[0][1])
    second = compose(case.trees[1][1])
    return first, second, case
