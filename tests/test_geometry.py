import numpy as np
import pytest

from conftest import boolean_oracle, grid_env

from rfuncds.errors import InvalidSpec, UnknownTestCase
from rfuncds.expr import compose, eval_arrays, eval_expr
from rfuncds.exprtext import to_tree_text
from rfuncds.geometry import (
    TESTCASE_NAMES, circle, cylinder_z, parabola, paraboloid, slab, testcase as load_case,
)


def test_circle_value_at_center():
    region = circle(1.0, 2.0, 1.5)
    assert eval_expr(region.expr, {"x": 1.0, "y": 2.0}) == 2.25


def test_slab_boundary():
    region = slab("x", 2.0)
    assert eval_expr(region.expr, {"x": 2.0, "y": 9.0, "z": -4.0}) == 0.0


def test_cylinder_boundary():
    region = cylinder_z(0.5)
    assert eval_expr(region.expr, {"x": 0.3, "y": 0.4, "z": 11.0}) == pytest.approx(0.0, abs=1e-15)


# (function, args) pairs
@pytest.mark.parametrize("spec", [
    (circle, (0.0, 0.0, 0.0)),
    (circle, (float("nan"), 0.0, 1.0)),
    (parabola, (-1.0, 0.0, 1.0)),
    (parabola, (1.0, 0.0, 1.0, "sideways")),
    (slab, ("w", 1.0)),
    (slab, ("x", -2.0)),
    (paraboloid, ("between", 0.6)),
    (paraboloid, ("under", 0.0)),
    (cylinder_z, (float("inf"),)),
])
def test_invalid_specs_rejected(spec):
    make, args = spec
    with pytest.raises(InvalidSpec):
        make(*args)


def test_unknown_testcase():
    with pytest.raises(UnknownTestCase):
        load_case("circles-nope")


def test_parabolas_match_closed_form():
    f_and, f_or, case = load_case("parabolas-4.2")
    env = grid_env(case.bounds, 50)
    x, y = env["x"], env["y"]
    expected_and = 2 * x - x**2 - np.abs(4 * y + 9) / 4 - 0.25
    expected_or = 2 * x - x**2 + np.abs(4 * y + 9) / 4 - 0.25
    assert np.abs(eval_arrays(f_and.expr, env) - expected_and).max() <= 1e-9
    assert np.abs(eval_arrays(f_or.expr, env) - expected_or).max() <= 1e-9


def test_slabs_and_is_min_at_origin():
    f_and, _, _ = load_case("slabs-A1")
    assert eval_expr(f_and.expr, {"x": 0.0, "y": 0.0, "z": 0.0}) == 1.0


def test_slabs_and_equals_cuboid():
    f_and, _, case = load_case("slabs-A1")
    env = grid_env(case.bounds, 33)
    inside = eval_arrays(f_and.expr, env) >= 0
    cuboid = (np.abs(env["x"]) <= 2) & (np.abs(env["y"]) <= 1) & (np.abs(env["z"]) <= 2)
    assert np.array_equal(inside, cuboid)


def test_slabs_or_membership():
    _, f_or, case = load_case("slabs-A1")
    env = grid_env(case.bounds, 33)
    inside = eval_arrays(f_or.expr, env) >= 0
    in_any = (np.abs(env["x"]) <= 2) | (np.abs(env["y"]) <= 1) | (np.abs(env["z"]) <= 2)
    assert np.array_equal(inside, in_any)


def test_paraboloid_cylinders_points():
    lens, composite, _ = load_case("paraboloid-cylinders-A2")
    origin = {"x": 0.0, "y": 0.0, "z": 0.0}
    assert eval_expr(composite.expr, origin) == pytest.approx(0.09, abs=1e-12)
    # inside the annular cut-out: kept by the plain lens, dropped by the composite
    ring = {"x": 0.4, "y": 0.0, "z": 0.0}
    assert eval_expr(lens.expr, ring) > 0
    assert eval_expr(composite.expr, ring) < 0


def test_circles_subset_superset():
    f_and, f_or, case = load_case("circles-4.1")
    env = grid_env(case.bounds, 128)
    v_and = eval_arrays(f_and.expr, env)
    v_or = eval_arrays(f_or.expr, env)
    phi1 = eval_arrays(circle(1, 2, 1.5).expr, env)
    phi2 = eval_arrays(circle(1, 1, 1.0).expr, env)
    assert np.all((v_and >= 0) <= (phi1 >= 0))          # intersection inside each disc
    assert np.all((v_and >= 0) <= (phi2 >= 0))
    assert np.all((phi1 >= 0) <= (v_or >= 0))           # union contains each disc
    assert np.all((phi2 >= 0) <= (v_or >= 0))


@pytest.mark.parametrize("name", ["circles-4.1", "parabolas-4.2", "slabs-A1",
                                  "paraboloid-cylinders-A2"])
def test_composition_sign_matches_boolean_oracle(name):
    first, second, case = load_case(name)
    env = grid_env(case.bounds, 33 if len(case.bounds) == 3 else 128)
    band = 1e-9
    for region, (label, tree) in zip((first, second), case.trees):
        values = eval_arrays(region.expr, env)
        keep = np.abs(values) > band
        assert np.array_equal((values >= 0)[keep], boolean_oracle(tree, env)[keep])


def _written(case):
    """A demo case as its name, bounds and each tree's composed tree text."""
    return (case.name, case.bounds,
            [(label, to_tree_text(compose(tree).expr)) for label, tree in case.trees])


def test_demo_cases_build_the_same_expressions_and_are_immutable():
    for name in TESTCASE_NAMES:
        first, second = (load_case(name)[2] for _ in range(2))
        assert first is not second and _written(first) == _written(second)
    cutout = load_case("paraboloid-cylinders-A2")[2].trees[1][1]   # And(f1, f2, Or(Not(f3), f4))
    with pytest.raises(AttributeError):
        cutout.children = ()
    with pytest.raises(AttributeError):
        cutout.children[2].children[0].child = cutout
