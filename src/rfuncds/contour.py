"""Grid evaluation and zero-level-set extraction.

``grid_eval`` is the one place a region is evaluated on a grid; a 3D field
is drawn as the contours of its z-slabs.  Marching squares works on 2D
fields.  It is the 2D case of Lorensen & Cline's marching cubes
(SIGGRAPH 1987) and runs table-driven in numpy: the inside mask gives every
cell a 4-bit corner code, a 16-case table maps the code to the segments
joining its crossed edges, saddle cells are resolved for all cells at once,
and each crossed edge is interpolated once.  Only the chaining of segments
into polylines runs in Python, over boundary segments alone.

Conventions: a node value of exactly 0 counts as inside when building cell
codes; ambiguous saddle cells are resolved by the sign of the cell-center
average (a center value of exactly 0 is inside); a crossing is interpolated
from the lower-index node of its edge, ``t = v0 / (v0 - v1)``.  Where that
``t`` is not finite, the crossing takes its limiting position: ``t = 1``
when only ``v0`` is infinite, and the edge midpoint when both ends are
infinite or either end is nan (nan counts as outside).  Polylines
come out in a fixed order: open chains by their lower end edge first,
then closed loops in the C order of their first cell.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch
from .expr import Region, eval_arrays
from .record import Record


class ScalarField(Record):
    """Values of a region's expression on a regular grid.

    ``values[i, j(, k)]`` corresponds to axis-0 index i, axis-1 index j, ...;
    the shape of ``values`` is the grid's resolution.  Node i along an axis
    of n nodes sits at ``lo + i*(hi-lo)/(n-1)``; an axis of one node sits at
    the middle, ``(lo + hi)/2``.
    """

    __slots__ = ("bounds", "values", "vars")

    def axis(self, k: int) -> np.ndarray:
        return _axis(*self.bounds[k], self.values.shape[k])


class Polyline(Record):
    __slots__ = ("points", "closed")   # points: (m, 2) array


class ContourSet(Record):
    """Zero-level-set polylines of a 2D field."""

    __slots__ = ("polylines",)


def _axis(lo: float, hi: float, n: int) -> np.ndarray:
    return np.array([(lo + hi) / 2.0]) if n == 1 else np.linspace(lo, hi, n)


def grid_eval(region: Region, bounds, resolution) -> ScalarField:
    """Evaluate a region on a regular 2D or 3D grid."""
    bounds = tuple((float(lo), float(hi)) for lo, hi in bounds)
    if np.ndim(resolution) == 0:
        resolution = (int(resolution),) * len(bounds)
    else:
        resolution = tuple(int(n) for n in resolution)
    if len(resolution) != len(bounds):
        raise DimensionMismatch("resolution and bounds dimension differ")
    if len(bounds) not in (2, 3):
        raise DimensionMismatch(f"grids are 2D or 3D, got {len(bounds)} axes")
    if len(region.vars) != len(bounds):
        raise DimensionMismatch(
            f"region has {len(region.vars)} variables but bounds have {len(bounds)} axes")
    for (lo, hi) in bounds:
        if not lo < hi:
            raise ValueError(f"bounds must have lo < hi, got ({lo}, {hi})")
    for n in resolution:
        if n < 1:
            raise ValueError("resolution must be >= 1 per axis")
    mesh = np.meshgrid(*[_axis(lo, hi, n) for (lo, hi), n in zip(bounds, resolution)],
                       indexing="ij")
    # constant subexpressions stay scalar, so broadcast to the grid shape
    values = np.broadcast_to(eval_arrays(region, mesh), resolution).copy()
    return ScalarField(bounds=bounds, values=values, vars=region.vars)


# ----------------------------------------------------------------------
# marching squares
#
# Cell (i, j) has corners n00 = (i, j), n10 = (i+1, j), n01 = (i, j+1) and
# n11 = (i+1, j+1).  Its case code sets bit 0..3 for each of n00, n10, n01,
# n11 that is inside.  Local edges are numbered 0 = n00-n10, 1 = n10-n11,
# 2 = n01-n11, 3 = n00-n01, and each segment joins two crossed edges in
# that order.  Codes 6 and 9 are saddles: the rows below pair the crossings
# for a center outside; a center inside pairs them like the complementary
# saddle (code ^ 15).
_SEGMENTS = np.array([
    [[0, 0], [0, 0]],  # 0: no crossing
    [[0, 3], [0, 0]],  # 1
    [[0, 1], [0, 0]],  # 2
    [[1, 3], [0, 0]],  # 3
    [[2, 3], [0, 0]],  # 4
    [[0, 2], [0, 0]],  # 5
    [[0, 1], [2, 3]],  # 6: saddle, n10 and n01 inside
    [[1, 2], [0, 0]],  # 7
    [[1, 2], [0, 0]],  # 8
    [[0, 3], [1, 2]],  # 9: saddle, n00 and n11 inside
    [[0, 2], [0, 0]],  # 10
    [[2, 3], [0, 0]],  # 11
    [[1, 3], [0, 0]],  # 12
    [[0, 1], [0, 0]],  # 13
    [[0, 3], [0, 0]],  # 14
    [[0, 0], [0, 0]],  # 15: no crossing
], dtype=np.intp)
_N_SEGMENTS = np.array([0, 1, 1, 1, 1, 1, 2, 1, 1, 2, 1, 1, 1, 1, 1, 0], dtype=np.intp)


def marching_squares(field: ScalarField) -> ContourSet:
    """Extract iso-0 polylines from a 2D field by per-cell linear interpolation."""
    if field.values.ndim != 2:
        raise DimensionMismatch("marching squares needs a 2D field")
    vals = field.values
    ny = vals.shape[1]
    inside = (vals >= 0.0).astype(np.uint8)
    code = (inside[:-1, :-1] | inside[1:, :-1] << 1
            | inside[:-1, 1:] << 2 | inside[1:, 1:] << 3)
    cells = np.flatnonzero((code != 0) & (code != 15))  # boundary cells, C order
    i, j = np.divmod(cells, ny - 1)
    case = code.ravel()[cells]

    saddles = np.flatnonzero((case == 6) | (case == 9))
    si, sj = i[saddles], j[saddles]
    center = (vals[si, sj] + vals[si + 1, sj] + vals[si, sj + 1] + vals[si + 1, sj + 1]) / 4.0
    case[saddles[center >= 0.0]] ^= 15

    # The edge from node (i, j) towards +y has id 2*(i*ny + j), towards +x
    # one more, so ids sort like (lower node, upper node) pairs; _chain
    # relies on that order.  Local edges 0..3 sit at these offsets from the
    # id of the cell's n00 towards +y.
    n_segments = _N_SEGMENTS[case]
    local = _SEGMENTS[case][np.arange(2) < n_segments[:, None]]
    edge_offsets = np.array([1, 2 * ny, 3, 0])
    edge_ids = np.repeat(2 * (i * ny + j), n_segments)[:, None] + edge_offsets[local]
    ids, ends = np.unique(edge_ids, return_inverse=True)
    points = _crossings(vals, ids, field.axis(0), field.axis(1))
    return ContourSet(polylines=tuple(_chain(ends.reshape(-1, 2).tolist(), points)))


def _crossings(vals, edge_ids, xs, ys) -> np.ndarray:
    """Zero crossings of the given edges, interpolated from the lower node."""
    node, towards_x = np.divmod(edge_ids, 2)
    i0, j0 = np.divmod(node, vals.shape[1])
    i1, j1 = i0 + towards_x, j0 + (1 - towards_x)
    v0, v1 = vals[i0, j0], vals[i1, j1]
    with np.errstate(invalid="ignore"):
        t = v0 / (v0 - v1)
    odd = ~np.isfinite(t)
    if odd.any():
        t[odd] = np.where(np.isinf(v0[odd]) & np.isfinite(v1[odd]), 1.0, 0.5)
    return np.column_stack((xs[i0] + t * (xs[i1] - xs[i0]),
                            ys[j0] + t * (ys[j1] - ys[j0])))


def _chain(segments, points) -> list[Polyline]:
    """Join segments, given as pairs of rows of ``points``, into open chains
    and closed loops."""
    incident: dict[int, list[int]] = {}
    for idx, (e0, e1) in enumerate(segments):
        incident.setdefault(e0, []).append(idx)
        incident.setdefault(e1, []).append(idx)

    used = [False] * len(segments)
    polylines: list[Polyline] = []

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

    # open chains first, starting from degree-1 endpoints, then loops;
    # iteration over the sorted keys keeps the output deterministic
    for endpoint in sorted(k for k, ids in incident.items() if len(ids) == 1):
        idx = next((s for s in incident[endpoint] if not used[s]), None)
        if idx is not None:
            polylines.append(walk(endpoint, idx))
    for idx, seg in enumerate(segments):
        if not used[idx]:
            polylines.append(walk(seg[0], idx))
    return polylines


def slice_contours_3d(field: ScalarField) -> list[tuple[float, ContourSet]]:
    """Contour each z-slab of a 3D field, as (z, contours) pairs in z order."""
    if field.values.ndim != 3:
        raise DimensionMismatch("slice contours need a 3D field")
    bounds, vars = field.bounds[:2], field.vars[:2]
    return [(z, marching_squares(ScalarField(bounds, field.values[:, :, k], vars)))
            for k, z in enumerate(field.axis(2).tolist())]


def inside_fraction(field: ScalarField) -> float:
    """Fraction of grid nodes with value >= 0 (quick area/volume estimate)."""
    return float(np.count_nonzero(field.values >= 0.0)) / field.values.size
