import csv
import io
from pathlib import Path

import numpy as np
import pytest

from rfuncds import contour
from rfuncds.contour import (
    ContourSet, Polyline, ScalarField, grid_eval, inside_fraction, marching_squares,
    slice_contours_3d,
)
from rfuncds.ds import load_report
from rfuncds.emit import (
    contour_texts, emit_contours_csv, emit_field_csv, emit_svg, value_texts,
)
from rfuncds.errors import DimensionMismatch
from rfuncds.expr import Const, Leaf, Or, Pow, Region, Var, compose, eval_arrays, eval_expr
from rfuncds.geometry import TESTCASE_NAMES, circle, testcase as load_case

FIXTURES = Path(__file__).resolve().parents[1] / "perfbench" / "fixtures"

UNIT_CIRCLE = circle(0.0, 0.0, 1.0)
SQUARE_BOUNDS = ((-2.0, 2.0), (-2.0, 2.0))


def test_grid_eval_constant():
    region = Region(Const(1.0), ("x", "y"))
    field = grid_eval(region, SQUARE_BOUNDS, 16)
    assert field.values.shape == (16, 16)
    assert np.all(field.values == 1.0)


def test_grid_eval_node_placement():
    field = grid_eval(UNIT_CIRCLE, SQUARE_BOUNDS, 5)
    # node 2 of 5 on [-2, 2] sits at 0, the circle center
    assert field.values[2, 2] == 1.0
    assert field.axis(0)[0] == -2.0 and field.axis(0)[-1] == 2.0


def test_grid_eval_dimension_checks():
    with pytest.raises(DimensionMismatch):
        grid_eval(UNIT_CIRCLE, ((-1, 1),), 8)
    with pytest.raises(DimensionMismatch):
        grid_eval(UNIT_CIRCLE, ((-1, 1), (-1, 1), (-1, 1)), 8)
    with pytest.raises(ValueError):
        grid_eval(UNIT_CIRCLE, ((-1, 1), (1, -1)), 8)


def test_grid_eval_one_node_axis_sits_at_the_middle():
    field = grid_eval(Region(Var("z"), ("x", "y", "z")), ((-1, 1), (0, 2), (-3.0, 5.0)), (3, 4, 1))
    assert field.values.shape == (3, 4, 1)
    assert field.axis(2).tolist() == [1.0]
    assert np.all(field.values == 1.0)
    with pytest.raises(ValueError, match="resolution must be >= 1"):
        grid_eval(UNIT_CIRCLE, SQUARE_BOUNDS, (4, 0))


# ----------------------------------------------------------------------
# open meshes: grid_eval against a dense evaluation

X, Y, Z = Var("x"), Var("y"), Var("z")


def _dense_values(region, field):
    """``region`` evaluated on the dense coordinate grids of ``field``'s nodes."""
    mesh = np.meshgrid(*[field.axis(k) for k in range(field.values.ndim)], indexing="ij")
    return np.broadcast_to(eval_arrays(region, mesh), field.values.shape)


def _power_sum(e):
    # each axis raised on its own and the product of two raised together
    return Pow(X, e) - Pow(Y, e) * 0.3 + Pow(X * Y - 0.7, e) * 1.9


CASES = {
    "constant": (Region(Const(2.5), ("x", "y")), (7, 5)),
    "one-variable": (Region(Y * 3.7 - Pow(Y, 2) * 0.45, ("x", "y")), (9, 13)),
    "circle": (circle(0.1, -0.2, 1.3), (17, 9)),
    "one-node-x": (circle(0.1, -0.2, 1.3), (1, 11)),
    "one-node-y": (circle(0.1, -0.2, 1.3), (11, 1)),
    **{f"pow-{e}": (Region(_power_sum(e), ("x", "y")), (15, 21)) for e in range(3, 8)},
    "3d": (Region(Pow(X, 3) * 0.5 + Y * Z - Pow(Z, 5), ("x", "y", "z")), (9, 7, 5)),
    "3d-one-node-z": (Region(X * X + Y * Z - Pow(Z, 3), ("x", "y", "z")), (9, 7, 1)),
    "3d-pow": (Region(Pow(X * Y * Z - 0.2, 7) - Pow(Y, 4), ("x", "y", "z")), (5, 11, 3)),
    "3d-z-only": (Region(Pow(Z, 6) - Z, ("x", "y", "z")), (3, 5, 7)),
}


@pytest.mark.parametrize("name", CASES)
def test_grid_eval_equals_a_dense_evaluation_bit_for_bit(name):
    region, resolution = CASES[name]
    bounds = ((-1.7, 2.3), (-2.1, 1.9), (-0.9, 1.3))[: len(resolution)]
    field = grid_eval(region, bounds, resolution)
    assert field.values.shape == resolution and field.values.flags.writeable
    assert np.array_equal(field.values.view(np.uint64),
                          _dense_values(region, field).view(np.uint64))


def test_grid_eval_equals_a_dense_evaluation_on_the_demo_cases():
    for name in TESTCASE_NAMES:
        first, second, case = load_case(name)
        resolution = (19, 17, 3) if len(case.bounds) == 3 else (19, 17)
        for region in (first, second, *[compose(tree, alpha) for _, tree in case.trees
                                        for alpha in (1.0, 0.5, -0.5)]):
            field = grid_eval(region, case.bounds, resolution)
            assert np.array_equal(field.values.view(np.uint64),
                                  _dense_values(region, field).view(np.uint64)), name


def test_marching_squares_empty():
    region = Region(Const(2.0), ("x", "y"))
    contours = marching_squares(grid_eval(region, SQUARE_BOUNDS, 32))
    assert contours.polylines == ()


def test_marching_squares_planar_interface():
    region = Region(Var("x") - 0.123, ("x", "y"))
    contours = marching_squares(grid_eval(region, SQUARE_BOUNDS, 64))
    assert len(contours.polylines) == 1
    line = contours.polylines[0]
    assert not line.closed
    assert np.allclose(line.points[:, 0], 0.123, atol=1e-12)
    ys = line.points[:, 1]
    assert ys.min() == -2.0 and ys.max() == 2.0


def test_marching_squares_circle():
    contours = marching_squares(grid_eval(UNIT_CIRCLE, SQUARE_BOUNDS, 256))
    assert len(contours.polylines) == 1
    line = contours.polylines[0]
    assert line.closed
    radius = np.hypot(line.points[:, 0], line.points[:, 1])
    cell_diag = np.hypot(4 / 255, 4 / 255)
    assert np.abs(radius - 1.0).max() <= 2 * cell_diag


def test_marching_squares_saddle_center_rule():
    # 2x2 checkerboard: center value 0 counts as inside, so the positive
    # diagonal stays connected and the cell splits into two segments
    field = ScalarField(bounds=((0.0, 1.0), (0.0, 1.0)),
                        values=np.array([[1.0, -1.0], [-1.0, 1.0]]), vars=("x", "y"))
    contours = marching_squares(field)
    assert len(contours.polylines) == 2
    for line in contours.polylines:
        assert len(line.points) == 2


def test_contour_points_near_zero_level():
    f_and, _, case = load_case("circles-4.1")
    field = grid_eval(f_and, case.bounds, 128)
    contours = marching_squares(field)
    h = np.hypot((case.bounds[0][1] - case.bounds[0][0]) / 127,
                 (case.bounds[1][1] - case.bounds[1][0]) / 127)
    gx, gy = np.gradient(field.values, field.axis(0), field.axis(1))
    lipschitz = float(np.hypot(gx, gy).max())
    for line in contours.polylines:
        for x, y in line.points:
            assert abs(eval_expr(f_and, {"x": x, "y": y})) <= 4 * lipschitz * h


def test_sign_stability_under_refinement():
    f_and, _, case = load_case("circles-4.1")
    coarse = grid_eval(f_and, case.bounds, 65)
    fine = grid_eval(f_and, case.bounds, 129)
    assert np.array_equal(coarse.values >= 0, (fine.values >= 0)[::2, ::2])


def test_inside_fraction_converges():
    f_and, _, case = load_case("circles-4.1")
    area = (case.bounds[0][1] - case.bounds[0][0]) * (case.bounds[1][1] - case.bounds[1][0])
    est256 = inside_fraction(grid_eval(f_and, case.bounds, 256)) * area
    est512 = inside_fraction(grid_eval(f_and, case.bounds, 512)) * area
    assert abs(est256 - est512) / est512 < 0.005


# ----------------------------------------------------------------------
# equivalence with the per-cell reference implementation
#
# The reference below is the original cell-by-cell marching squares, kept
# here as an oracle only.  The table-driven implementation must reproduce
# its polylines exactly: same order, same closed flags, same bytes.

def _reference_edge_key(n0, n1):
    return (n0, n1) if n0 <= n1 else (n1, n0)


def reference_marching_squares(field):
    vals = field.values
    nx, ny = field.values.shape
    xs, ys = field.axis(0), field.axis(1)
    inside = vals >= 0.0
    crossings = {}

    def crossing(n0, n1):
        key = _reference_edge_key(n0, n1)
        pt = crossings.get(key)
        if pt is None:
            v0 = vals[n0]
            v1 = vals[n1]
            t = v0 / (v0 - v1)
            x = xs[n0[0]] + t * (xs[n1[0]] - xs[n0[0]])
            y = ys[n0[1]] + t * (ys[n1[1]] - ys[n0[1]])
            pt = (float(x), float(y))
            crossings[key] = pt
        return key

    segments = []
    for i in range(nx - 1):
        for j in range(ny - 1):
            n00, n10, n01, n11 = (i, j), (i + 1, j), (i, j + 1), (i + 1, j + 1)
            cell_edges = ((n00, n10), (n10, n11), (n01, n11), (n00, n01))
            crossed = [(a, b) for (a, b) in cell_edges if inside[a] != inside[b]]
            if not crossed:
                continue
            if len(crossed) == 2:
                segments.append((crossing(*crossed[0]), crossing(*crossed[1])))
            else:
                center_in = (vals[n00] + vals[n10] + vals[n01] + vals[n11]) / 4.0 >= 0.0
                targets = [c for c in (n00, n10, n01, n11) if inside[c] != center_in]
                for c in targets:
                    adjacent = [(a, b) for (a, b) in crossed if c in (a, b)]
                    segments.append((crossing(*adjacent[0]), crossing(*adjacent[1])))

    incident = {}
    for idx, (e0, e1) in enumerate(segments):
        incident.setdefault(e0, []).append(idx)
        incident.setdefault(e1, []).append(idx)
    used = [False] * len(segments)
    polylines = []

    def walk(start_edge, first_idx):
        used[first_idx] = True
        e0, e1 = segments[first_idx]
        keys = [start_edge, e1 if e0 == start_edge else e0]
        while True:
            tail = keys[-1]
            nxt = next((s for s in incident[tail] if not used[s]), None)
            if nxt is None:
                break
            used[nxt] = True
            a, b = segments[nxt]
            keys.append(b if a == tail else a)
        closed = len(keys) > 2 and keys[0] == keys[-1]
        if closed:
            keys = keys[:-1]
        return Polyline(points=np.array([crossings[k] for k in keys], dtype=float),
                        closed=closed)

    for endpoint in sorted(k for k, ids in incident.items() if len(ids) == 1):
        idx = next((s for s in incident[endpoint] if not used[s]), None)
        if idx is not None:
            polylines.append(walk(endpoint, idx))
    for idx, seg in enumerate(segments):
        if not used[idx]:
            polylines.append(walk(seg[0], idx))
    return ContourSet(polylines=tuple(polylines))


def assert_same_contours(got, want):
    assert len(got.polylines) == len(want.polylines)
    for g, w in zip(got.polylines, want.polylines):
        assert g.closed == w.closed
        assert g.points.shape == w.points.shape
        assert g.points.dtype == w.points.dtype
        assert g.points.tobytes() == w.points.tobytes()


def assert_matches_reference(field):
    assert_same_contours(marching_squares(field), reference_marching_squares(field))


def _field(values, bounds=((0.0, 1.0), (-1.0, 2.0))):
    values = np.asarray(values, dtype=float)
    return ScalarField(bounds=bounds, values=values,
                       vars=("x", "y"))


@pytest.mark.parametrize("shape", [(24, 24), (9, 31), (31, 9), (2, 17), (17, 2), (2, 2)])
@pytest.mark.parametrize("seed", range(4))
def test_matches_reference_random_with_zeros(shape, seed):
    # small integers make exact zeros and saddles common; the scaled
    # normal draws give non-trivial interpolation weights
    rng = np.random.default_rng(seed)
    assert_matches_reference(_field(rng.integers(-2, 3, size=shape)))
    values = rng.normal(size=shape)
    values[rng.random(size=shape) < 0.15] = 0.0
    values[rng.random(size=shape) < 0.05] = -0.0
    assert_matches_reference(_field(values))


@pytest.mark.parametrize("values", [
    [[1.0, -1.0], [-1.0, 1.0]],     # centre mean exactly 0, n00 and n11 inside
    [[-1.0, 1.0], [1.0, -1.0]],     # centre mean exactly 0, n10 and n01 inside
    [[2.0, -1.0], [-1.0, 1.0]],     # centre inside
    [[1.0, -2.0], [-1.0, 1.0]],     # centre outside
    [[-1.0, 2.0], [1.0, -1.0]],
    [[-2.0, 1.0], [1.0, -1.0]],
    [[0.0, -1.0], [-1.0, 0.0]],     # zero corners count as inside
])
def test_matches_reference_saddle_cells(values):
    field = _field(values)
    assert_matches_reference(field)
    assert len(marching_squares(field).polylines) == 2


def test_matches_reference_checkerboard_tiles():
    board = np.indices((7, 12)).sum(axis=0) % 2 * 2.0 - 1.0
    assert_matches_reference(_field(board))
    assert_matches_reference(_field(-board))


@pytest.mark.parametrize("value", [0.0, 3.5, -0.25])
def test_matches_reference_uniform_fields(value):
    field = _field(np.full((5, 8), value))
    assert marching_squares(field).polylines == ()
    assert_matches_reference(field)


INF, NAN = float("inf"), float("nan")


@pytest.mark.parametrize("v0, v1, t", [
    (INF, -1.0, 1.0),       # only v0 infinite: the limit of v0 / (v0 - v1)
    (-1.0, INF, 0.0),       # only v1 infinite
    (INF, -INF, 0.5),       # both infinite: midpoint
    (-INF, INF, 0.5),
    (NAN, 1.0, 0.5),        # a nan end (outside): midpoint
    (2.0, NAN, 0.5),
    (INF, NAN, 0.5),
    (2.0, -6.0, 0.25),      # finite ends keep t = v0 / (v0 - v1)
])
def test_nonfinite_crossings_take_limiting_positions(v0, v1, t):
    # one edge along y between nodes (0, 0) and (0, 1); the x neighbours
    # repeat the values, so the crossing lies on both vertical edges
    field = _field([[v0, v1], [v0, v1]], bounds=((0.0, 1.0), (0.0, 4.0)))
    with np.errstate(invalid="raise"):
        contours = marching_squares(field)
    (line,) = contours.polylines
    assert sorted(map(tuple, line.points.tolist())) == [(0.0, 4.0 * t), (1.0, 4.0 * t)]


@pytest.mark.parametrize("name", TESTCASE_NAMES)
def test_matches_reference_demo_cases(name, monkeypatch):
    f_and, f_or, case = load_case(name)
    for region in (f_and, f_or):
        # demo's default grid
        if len(case.bounds) == 2:
            assert_matches_reference(grid_eval(region, case.bounds, 256))
        else:
            field = grid_eval(region, case.bounds, (64, 64, 9))
            got = slice_contours_3d(field)
            monkeypatch.setattr(contour, "marching_squares", reference_marching_squares)
            want = slice_contours_3d(field)
            monkeypatch.undo()
            assert [z for z, _ in got] == [z for z, _ in want]
            for (_, g), (_, w) in zip(got, want):
                assert_same_contours(g, w)


@pytest.mark.parametrize("fixture", ["kelvin-alpha0.json", "kelvin-alpha1.json"])
def test_matches_reference_report_fields(fixture):
    report = load_report(FIXTURES / fixture)
    bounds = [(a.lo, a.hi) for a in report.box]
    for region in [c.phi for c in report.constraints] + [report.joint]:
        assert_matches_reference(grid_eval(region, bounds, 256))


# ----------------------------------------------------------------------
# chaining: contour._chain against the dict-based walk it replaced

def reference_chain(segments, points):
    """Segments, pairs of rows of ``points``, joined by a dict of incident
    segments per crossing, one segment a step."""
    incident = {}
    for idx, (e0, e1) in enumerate(segments):
        incident.setdefault(e0, []).append(idx)
        incident.setdefault(e1, []).append(idx)
    used = [False] * len(segments)
    polylines = []

    def walk(start_edge, first_idx):
        used[first_idx] = True
        e0, e1 = segments[first_idx]
        keys = [start_edge, e1 if e0 == start_edge else e0]
        while True:
            tail = keys[-1]
            nxt = next((s for s in incident[tail] if not used[s]), None)
            if nxt is None:
                break
            used[nxt] = True
            a, b = segments[nxt]
            keys.append(b if a == tail else a)
        closed = len(keys) > 2 and keys[0] == keys[-1]
        if closed:
            keys = keys[:-1]
        return Polyline(points=points[keys], closed=closed)

    for endpoint in sorted(k for k, ids in incident.items() if len(ids) == 1):
        idx = next((s for s in incident[endpoint] if not used[s]), None)
        if idx is not None:
            polylines.append(walk(endpoint, idx))
    for idx, seg in enumerate(segments):
        if not used[idx]:
            polylines.append(walk(seg[0], idx))
    return polylines


def assert_chain_matches_reference(ends, points):
    assert_same_contours(ContourSet(tuple(contour._chain(ends, points))),
                         ContourSet(tuple(reference_chain(ends.tolist(), points))))


def chain_inputs(fields, monkeypatch):
    """The (ends, points) of every _chain call that contouring ``fields`` makes."""
    calls, chain = [], contour._chain
    monkeypatch.setattr(contour, "_chain", lambda ends, points: calls.append((ends, points))
                        or chain(ends, points))
    with np.errstate(invalid="ignore"):   # saddle centers of inf and -inf corners
        for field in fields:
            if field.values.ndim == 2:
                marching_squares(field)
            else:
                slice_contours_3d(field)
    monkeypatch.undo()
    return calls


def _chain_fields():
    rng = np.random.default_rng(34)
    special = np.array([0.0, -0.0, 1.0, -1.0, INF, -INF, NAN, 2.5, -0.5])
    yield _field([[1.0, -1.0], [-1.0, 1.0]])                     # one saddle cell
    yield _field(np.indices((7, 12)).sum(axis=0) % 2 * 2.0 - 1.0)   # saddles only
    yield _field(rng.integers(-1, 2, size=(2, 40)))              # one cell wide
    yield _field(rng.integers(-1, 2, size=(40, 2)))
    for shape in [(24, 24), (9, 31), (31, 9)]:
        yield _field(rng.integers(-2, 3, size=shape))             # exact zeros
        yield _field(special[rng.integers(len(special), size=shape)])   # nan and inf
    # open chains at the box edge together with closed loops
    yield grid_eval(compose(Or(Leaf(UNIT_CIRCLE), Leaf(circle(2.5, 2.5, 0.8)))), SQUARE_BOUNDS, 48)


def test_chain_matches_reference(monkeypatch):
    calls = chain_inputs(_chain_fields(), monkeypatch)
    kinds = set()
    for ends, points in calls:
        assert_chain_matches_reference(ends, points)
        kinds.update(line.closed for line in contour._chain(ends, points))
    assert kinds == {False, True}


@pytest.mark.parametrize("name", TESTCASE_NAMES)
def test_chain_matches_reference_on_demo_fields(name, monkeypatch):
    _, _, case = load_case(name)
    shape = (64, 64, 9) if len(case.bounds) == 3 else 256
    fields = [grid_eval(compose(tree), case.bounds, shape) for _, tree in case.trees]
    calls = chain_inputs(fields, monkeypatch)
    assert len(calls) == len(fields) * (9 if len(case.bounds) == 3 else 1)
    for ends, points in calls:
        assert_chain_matches_reference(ends, points)


@pytest.mark.parametrize("seed", range(6))
def test_chain_matches_reference_on_shuffled_paths_and_cycles(seed):
    # random paths and cycles over crossing ids, segments and their two ends
    # in random order: every crossing ends one or two segments
    rng = np.random.default_rng(seed)
    crossings = rng.permutation(300).tolist()
    segments = []
    while len(crossings) > 3:
        n = int(rng.integers(2, 20))
        run, crossings = crossings[:n], crossings[n:]
        if rng.random() < 0.5 and n > 2:
            run = run + run[:1]          # a cycle
        segments += [[a, b] if rng.random() < 0.5 else [b, a] for a, b in zip(run, run[1:])]
    ends = np.array([segments[k] for k in rng.permutation(len(segments))], dtype=np.intp)
    assert_chain_matches_reference(ends, rng.normal(size=(300, 2)))


# ----------------------------------------------------------------------
# 3D slices

def test_slabs_slice_rectangle():
    f_and, _, case = load_case("slabs-A1")
    slices = slice_contours_3d(grid_eval(f_and, case.bounds, (97, 97, 1)))
    (z, contours), = slices
    assert z == 0.0
    assert len(contours.polylines) == 1
    pts = contours.polylines[0].points
    cell = 6 / 96
    assert abs(pts[:, 0].min() - -2.0) <= cell and abs(pts[:, 0].max() - 2.0) <= cell
    assert abs(pts[:, 1].min() - -1.0) <= cell and abs(pts[:, 1].max() - 1.0) <= cell


def test_slabs_slice_outside_is_empty():
    f_and, _, case = load_case("slabs-A1")
    slices = slice_contours_3d(grid_eval(f_and, ((-3, 3), (-3, 3), (2.5, 3.5)), (33, 33, 1)))
    assert slices[0][1].polylines == ()


def test_annular_cutout_slice_radii():
    _, composite, case = load_case("paraboloid-cylinders-A2")
    slices = slice_contours_3d(grid_eval(composite, case.bounds, (201, 201, 1)))
    (z, contours), = slices
    radii = sorted(
        float(np.hypot(line.points[:, 0], line.points[:, 1]).mean())
        for line in contours.polylines
    )
    assert len(radii) == 3
    assert radii[0] == pytest.approx(0.3, abs=0.02)
    assert radii[1] == pytest.approx(0.5, abs=0.02)
    assert radii[2] == pytest.approx(1.0, abs=0.02)
    assert all(line.closed for line in contours.polylines)


def test_slice_levels_cover_bounds():
    f_and, _, case = load_case("slabs-A1")
    slices = slice_contours_3d(grid_eval(f_and, case.bounds, (17, 17, 9)))
    zs = [z for z, _ in slices]
    assert zs[0] == -3.0 and zs[-1] == 3.0 and zs[4] == 0.0


# ----------------------------------------------------------------------
# emission

def test_svg_empty_contours(tmp_path):
    path = tmp_path / "empty.svg"
    emit_svg(path, [], SQUARE_BOUNDS, provenance="test")
    text = path.read_text()
    assert text.startswith("<?xml")
    assert "<svg" in text and "</svg>" in text
    assert "<path" not in text


def test_svg_single_square_polyline(tmp_path):
    square = marching_squares(grid_eval(circle(0, 0, 1.2), SQUARE_BOUNDS, 64))
    path = tmp_path / "one.svg"
    emit_svg(path, [(square, "#123456")], SQUARE_BOUNDS)
    assert path.read_text().count("<path") == 1


def test_svg_shading_deterministic(tmp_path):
    field = grid_eval(UNIT_CIRCLE, SQUARE_BOUNDS, 256)
    contours = marching_squares(field)
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    emit_svg(a, [(contours, "#000")], SQUARE_BOUNDS, field=field, provenance="p")
    emit_svg(b, [(contours, "#000")], SQUARE_BOUNDS, field=field, provenance="p")
    assert a.read_bytes() == b.read_bytes()
    assert "<rect" in a.read_text()


def test_field_csv_round_trip(tmp_path):
    field = grid_eval(UNIT_CIRCLE, SQUARE_BOUNDS, 17)
    path = tmp_path / "field.csv"
    [texts] = value_texts([field])
    emit_field_csv(path, field, texts, provenance="prov")
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    reader = csv.DictReader(io.StringIO("\n".join(lines)))
    rows = list(reader)
    assert len(rows) == 17 * 17
    for row in rows[:50] + rows[-50:]:
        x, y, v = float(row["x"]), float(row["y"]), float(row["value"])
        assert v == pytest.approx(1.0 - x * x - y * y, abs=1e-12)


def test_contours_csv_lists_polylines(tmp_path):
    contours = marching_squares(grid_eval(UNIT_CIRCLE, SQUARE_BOUNDS, 64))
    path = tmp_path / "c.csv"
    emit_contours_csv(path, contours, *contour_texts([contours]), provenance="prov")
    body = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    assert body[0] == "polyline,point,x,y,closed"
    assert len(body) == 1 + sum(len(l.points) for l in contours.polylines)
    assert body[1].split(",")[0] == "0"
    assert body[1].split(",")[-1] == "1"  # the circle is closed
