"""Implicit primitives and the built-in demo cases composed from them."""

from __future__ import annotations

import math
from typing import Union

from .errors import InvalidSpec, UnknownTestCase
from .expr import And, BoolTree, Const, Leaf, Not, Or, Pow, Region, Sub, Var, compose
from .record import Record


class Circle(Record):
    __slots__ = ("cx", "cy", "radius")


class Parabola(Record):
    """Region above the parabola y = a*(x-x0)^2 - c (opens-up) or
    y = -a*(x-x0)^2 - c (opens-down)."""

    __slots__ = ("a", "x0", "c", "orientation")

    def __init__(self, a: float, x0: float, c: float, orientation: str = "opens-up"):
        super().__init__(a, x0, c, orientation)


class Slab(Record):
    """|axis| <= half_thickness, unbounded along the other two axes."""

    __slots__ = ("axis", "half_thickness")


class Paraboloid(Record):
    """side='under': z <= coeff*(1-x^2-y^2); side='above': z >= -coeff*(1-x^2-y^2)."""

    __slots__ = ("side", "coeff")


class CylinderZ(Record):
    __slots__ = ("radius",)


PrimitiveSpec = Union[Circle, Parabola, Slab, Paraboloid, CylinderZ]

_XY = ("x", "y")
_XYZ = ("x", "y", "z")


def _require_finite(spec, **fields):
    for name, value in fields.items():
        if not math.isfinite(value):
            raise InvalidSpec(f"{type(spec).__name__}.{name} must be finite, got {value!r}")


def _require_positive(spec, **fields):
    _require_finite(spec, **fields)
    for name, value in fields.items():
        if value <= 0:
            raise InvalidSpec(f"{type(spec).__name__}.{name} must be > 0, got {value!r}")


def primitive(spec: PrimitiveSpec) -> Region:
    """Build the implicit region for an elementary shape."""
    x, y, z = Var("x"), Var("y"), Var("z")
    if isinstance(spec, Circle):
        _require_finite(spec, cx=spec.cx, cy=spec.cy)
        _require_positive(spec, radius=spec.radius)
        expr = Const(spec.radius**2) - (x - spec.cx) ** 2 - (y - spec.cy) ** 2
        return Region(expr, _XY)
    if isinstance(spec, Parabola):
        _require_finite(spec, x0=spec.x0, c=spec.c)
        _require_positive(spec, a=spec.a)
        shifted = Pow(Sub(x, Const(spec.x0)), 2)
        if spec.orientation == "opens-up":
            expr = y - spec.a * shifted + spec.c
        elif spec.orientation == "opens-down":
            expr = y + spec.a * shifted + spec.c
        else:
            raise InvalidSpec(f"orientation must be 'opens-up' or 'opens-down', got {spec.orientation!r}")
        return Region(expr, _XY)
    if isinstance(spec, Slab):
        if spec.axis not in ("x", "y", "z"):
            raise InvalidSpec(f"slab axis must be x, y or z, got {spec.axis!r}")
        _require_positive(spec, half_thickness=spec.half_thickness)
        expr = Const(spec.half_thickness**2) - Var(spec.axis) ** 2
        return Region(expr, _XYZ)
    if isinstance(spec, Paraboloid):
        _require_positive(spec, coeff=spec.coeff)
        bowl = spec.coeff * (Const(1.0) - x**2 - y**2)
        if spec.side == "under":
            expr = -z + bowl
        elif spec.side == "above":
            expr = z + bowl
        else:
            raise InvalidSpec(f"paraboloid side must be 'under' or 'above', got {spec.side!r}")
        return Region(expr, _XYZ)
    if isinstance(spec, CylinderZ):
        _require_positive(spec, radius=spec.radius)
        expr = Const(spec.radius**2) - x**2 - y**2
        return Region(expr, _XYZ)
    raise InvalidSpec(f"unknown primitive {spec!r}")


class TestCase(Record):
    """A named demo: the composition trees as (label, tree) pairs and the
    plot window.  ``testcase`` composes its trees at alpha = 1."""

    __slots__ = ("name", "trees", "bounds")


def _case_circles() -> TestCase:
    c0 = Leaf(primitive(Circle(1.0, 2.0, 1.5)))
    c1 = Leaf(primitive(Circle(1.0, 1.0, 1.0)))
    return TestCase(
        name="circles-4.1",
        trees=(("and", And(c0, c1)), ("or", Or(c0, c1))),
        bounds=((-1.0, 3.0), (-0.5, 4.0)),
    )


def _case_parabolas() -> TestCase:
    # region of interest: above the opens-up parabola AND below the
    # opens-down one, i.e. phi1 >= 0 and phi2 <= 0
    p1 = Leaf(primitive(Parabola(1.0, 1.0, 3.0, "opens-up")))
    p2 = Leaf(primitive(Parabola(1.0, 1.0, 1.5, "opens-down")))
    return TestCase(
        name="parabolas-4.2",
        trees=(("and", And(p1, Not(p2))), ("or", Or(p1, Not(p2)))),
        bounds=((-2.0, 4.0), (-6.0, 2.0)),
    )


def _case_slabs() -> TestCase:
    s = [Leaf(primitive(Slab(axis, half))) for axis, half in (("x", 2.0), ("y", 1.0), ("z", 2.0))]
    return TestCase(
        name="slabs-A1",
        trees=(("and", And(*s)), ("or", Or(*s))),
        bounds=((-3.0, 3.0), (-3.0, 3.0), (-3.0, 3.0)),
    )


def _case_paraboloid_cylinders() -> TestCase:
    # lens between two paraboloids, optionally with an annular cylindrical
    # cut-out: keep the core of radius 0.3, remove the ring out to 0.5
    f1 = Leaf(primitive(Paraboloid("under", 0.6)))
    f2 = Leaf(primitive(Paraboloid("above", 0.6)))
    f3 = Leaf(primitive(CylinderZ(0.5)))
    f4 = Leaf(primitive(CylinderZ(0.3)))
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
