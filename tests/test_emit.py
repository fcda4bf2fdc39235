"""The writers in rfuncds.emit against the per-node writers they replaced.

The ``reference_*`` functions below are the scalar writers kept as oracles:
they format one grid node, rect or point at a time.  Every test requires
the files written by both to be byte-identical.
"""

import filecmp
import itertools
import math
from pathlib import Path
from xml.etree import ElementTree
from xml.sax.saxutils import escape

import numpy as np
import pytest

from rfuncds.contour import (
    ContourSet,
    Polyline,
    ScalarField,
    grid_eval,
    marching_squares,
    slice_contours_3d,
)
from rfuncds import __version__, cli
from rfuncds.ds import load_report
from rfuncds.emit import (
    DEFAULT_PALETTE,
    contour_texts,
    emit_contours_csv,
    emit_field_csv,
    emit_svg,
    value_texts,
)
from rfuncds.expr import compose
from rfuncds.geometry import TESTCASE_NAMES, circle, testcase as load_case

FIXTURES = Path(__file__).resolve().parents[1] / "perfbench" / "fixtures"
PROVENANCE = "rfuncds 0.1.0 | rfuncds demo circles-4.1 --out out"


# ----------------------------------------------------------------------
# reference writers (one node, rect or point at a time)

def _fmt(v):
    return f"{v:.2f}"


SIZE, MARGIN, STROKE_WIDTH, SHADE_FILL, MAX_SHADE_CELLS = 800, 60.0, 2.0, "#bcd8f0", 96
NOT_XML = [chr(c) for c in range(32) if chr(c) not in "\t\n\r"] + ["\ufffe", "\uffff"]


def xml_text(text):
    text = escape(text, {"\r": "&#13;"})
    for char in NOT_XML:
        text = text.replace(char, "\ufffd")
    return text


def reference_emit_svg(path, layers, bounds, field=None, provenance="", title=""):
    (xlo, xhi), (ylo, yhi) = bounds
    span = SIZE - 2 * MARGIN

    def to_px(x, y):
        px = MARGIN + (x - xlo) / (xhi - xlo) * span
        py = SIZE - MARGIN - (y - ylo) / (yhi - ylo) * span
        return px, py

    parts = ['<?xml version="1.0" encoding="UTF-8"?>']
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SIZE}" height="{SIZE}" '
        f'viewBox="0 0 {SIZE} {SIZE}">'
    )
    if provenance:
        parts.append(f"<desc>{xml_text(provenance)}</desc>")
    parts.append(f'<rect width="{SIZE}" height="{SIZE}" fill="white"/>')

    if field is not None:
        parts.append(_reference_shading(field, to_px))

    x0, y0 = to_px(xlo, ylo)
    x1, y1 = to_px(xhi, yhi)
    parts.append(
        f'<rect x="{_fmt(min(x0, x1))}" y="{_fmt(min(y0, y1))}" '
        f'width="{_fmt(abs(x1 - x0))}" height="{_fmt(abs(y1 - y0))}" '
        f'fill="none" stroke="#444" stroke-width="1"/>'
    )
    parts.append(f'<text x="{_fmt(x0)}" y="{_fmt(y0 + 20)}" font-size="14">{xlo:g}</text>')
    parts.append(f'<text x="{_fmt(x1 - 10)}" y="{_fmt(y0 + 20)}" font-size="14">{xhi:g}</text>')
    parts.append(f'<text x="{_fmt(x0 - 45)}" y="{_fmt(y0)}" font-size="14">{ylo:g}</text>')
    parts.append(f'<text x="{_fmt(x0 - 45)}" y="{_fmt(y1 + 5)}" font-size="14">{yhi:g}</text>')
    if title:
        parts.append(f'<text x="{_fmt(SIZE / 2)}" y="30" font-size="18" '
                     f'text-anchor="middle">{xml_text(title)}</text>')

    for contours, color in layers:
        for line in contours.polylines:
            cmds = []
            for k, (x, y) in enumerate(line.points):
                px, py = to_px(x, y)
                cmds.append(f"{'M' if k == 0 else 'L'} {_fmt(px)} {_fmt(py)}")
            if line.closed:
                cmds.append("Z")
            parts.append(
                f'<path d="{" ".join(cmds)}" fill="none" stroke="{color}" '
                f'stroke-width="{STROKE_WIDTH:g}"/>'
            )

    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")


def _reference_shading(field, to_px):
    nx, ny = field.values.shape
    sx = max(1, math.ceil((nx - 1) / MAX_SHADE_CELLS))
    sy = max(1, math.ceil((ny - 1) / MAX_SHADE_CELLS))
    ix = np.arange(0, nx, sx)
    iy = np.arange(0, ny, sy)
    if ix[-1] != nx - 1:
        ix = np.append(ix, nx - 1)
    if iy[-1] != ny - 1:
        iy = np.append(iy, ny - 1)
    sub = field.values[np.ix_(ix, iy)] >= 0.0
    xs = field.axis(0)[ix]
    ys = field.axis(1)[iy]
    rects = [f'<g fill="{SHADE_FILL}" stroke="none">']
    full = sub[:-1, :-1] & sub[1:, :-1] & sub[:-1, 1:] & sub[1:, 1:]
    for i, j in zip(*np.nonzero(full)):
        px0, py0 = to_px(xs[i], ys[j + 1])
        px1, py1 = to_px(xs[i + 1], ys[j])
        rects.append(
            f'<rect x="{_fmt(px0)}" y="{_fmt(py0)}" '
            f'width="{_fmt(px1 - px0)}" height="{_fmt(py1 - py0)}"/>'
        )
    rects.append("</g>")
    return "\n".join(rects)


def reference_emit_field_csv(path, field, provenance=""):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if provenance:
            fh.write(f"# {provenance}\n")
        fh.write(",".join(field.vars) + ",value\n")
        axes = [field.axis(k) for k in range(len(field.values.shape))]
        for idx in np.ndindex(*field.values.shape):
            coords = ",".join(repr(float(axes[k][i])) for k, i in enumerate(idx))
            fh.write(f"{coords},{repr(float(field.values[idx]))}\n")


def reference_emit_contours_csv(path, contours, provenance=""):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if provenance:
            fh.write(f"# {provenance}\n")
        fh.write("polyline,point,x,y,closed\n")
        for pid, line in enumerate(contours.polylines):
            flag = "1" if line.closed else "0"
            for k, (x, y) in enumerate(line.points):
                fh.write(f"{pid},{k},{repr(float(x))},{repr(float(y))},{flag}\n")


# ----------------------------------------------------------------------
# helpers

def field_csv(path, field, provenance=""):
    """``emit_field_csv`` with a value table of the one field."""
    [texts] = value_texts([field])
    emit_field_csv(path, field, texts, provenance=provenance)


def contours_csv(path, contours, provenance=""):
    """``emit_contours_csv`` with a coordinate table of the one contour set."""
    [texts] = contour_texts([contours])
    emit_contours_csv(path, contours, texts, provenance=provenance)


_ORACLES = {
    emit_svg: reference_emit_svg,
    field_csv: reference_emit_field_csv,
    contours_csv: reference_emit_contours_csv,
}
_serial = itertools.count()


def assert_same_bytes(tmp_path, writer, *args, **kwargs):
    """Write with ``writer`` and its reference; the two files must be equal."""
    # fresh names: filecmp caches verdicts by (size, mtime) of the pair
    n = next(_serial)
    got, want = tmp_path / f"got{n}", tmp_path / f"want{n}"
    writer(got, *args, **kwargs)
    _ORACLES[writer](want, *args, **kwargs)
    assert want.stat().st_size > 0
    assert filecmp.cmp(got, want, shallow=False)


def _field(values):
    values = np.asarray(values)
    return ScalarField(bounds=((-1.5, 2.0), (0.25, 3.0), (-7.0, -1.0), (0.5, 9.0))[: values.ndim],
                       values=values,
                       vars=("x", "y", "z", "w")[: values.ndim])


def assert_field_outputs_same(tmp_path, field, bounds, provenance=PROVENANCE, title=""):
    assert_same_bytes(tmp_path, field_csv, field, provenance=provenance)
    if len(field.values.shape) == 2:
        contours = marching_squares(field)
        assert_same_bytes(tmp_path, emit_svg, [(contours, DEFAULT_PALETTE[0])], bounds,
                          field=field, provenance=provenance, title=title)
        assert_same_bytes(tmp_path, contours_csv, contours, provenance=provenance)


# ----------------------------------------------------------------------
# fields the CLI writes

@pytest.mark.parametrize("name", TESTCASE_NAMES)
def test_demo_cases(name, tmp_path):
    f_and, f_or, case = load_case(name)
    res = 256 if len(case.bounds) == 2 else 64   # demo's default grid
    for (label, _), region in zip(case.trees, (f_and, f_or)):
        title = f"{case.name} [{label}]"
        if len(case.bounds) == 2:
            field = grid_eval(region, case.bounds, res)
            assert_field_outputs_same(tmp_path, field, case.bounds, title=title)
        else:
            field = grid_eval(region, case.bounds, (res, res, 9))
            for z, contours in slice_contours_3d(field):
                assert_same_bytes(tmp_path, emit_svg, [(contours, DEFAULT_PALETTE[1])],
                                  case.bounds[:2], provenance=PROVENANCE,
                                  title=f"{title} z={z:g}")
            assert_field_outputs_same(tmp_path, field, case.bounds)


@pytest.mark.parametrize("argv", [[], ["--alpha", "0.5", "--grid", "32", "--slices", "3"]],
                         ids=["defaults", "alpha-grid-slices"])
@pytest.mark.parametrize("name", TESTCASE_NAMES)
def test_demo_command_field_csvs(name, argv, tmp_path, capsys):
    # the command writes its fields through one shared value table
    out = tmp_path / "demo"
    argv = ["demo", name, *argv, "--out", str(out)]
    assert cli.main(argv) == 0
    args = cli.build_parser().parse_args(argv)
    case = load_case(name)[2]
    is3d = len(case.bounds) == 3
    grid = (64 if is3d else 256) if args.grid is None else args.grid
    for label, tree in case.trees:
        field = grid_eval(compose(tree, args.alpha), case.bounds,
                          (grid, grid, args.slices) if is3d else grid)
        want = tmp_path / f"{label}_want.csv"
        reference_emit_field_csv(want, field, provenance=f"rfuncds {__version__} | rfuncds "
                                                         + " ".join(argv))
        assert filecmp.cmp(out / f"{label}_field.csv", want, shallow=False)


@pytest.mark.parametrize("fixture", ["kelvin-alpha0.json", "kelvin-alpha1.json"])
def test_report_fields(fixture, tmp_path):
    report = load_report(FIXTURES / fixture)
    bounds = [(a.lo, a.hi) for a in report.box]
    regions = [c.phi for c in report.constraints] + [report.joint]
    fields = [grid_eval(region, bounds, 256) for region in regions]
    for field in fields:
        assert_field_outputs_same(tmp_path, field, bounds)
    # the per-constraint plot: several layers, no shading
    layers = [(marching_squares(f), color) for f, color in zip(fields, DEFAULT_PALETTE[1:])]
    assert_same_bytes(tmp_path, emit_svg, layers, bounds, provenance=PROVENANCE,
                      title="per-constraint boundaries")


# ----------------------------------------------------------------------
# shapes and values

@pytest.mark.parametrize("shape", [(2, 2), (2, 9), (9, 2), (5, 13), (3, 4, 5), (7,), (1,),
                                   (1, 6), (3, 1, 4), (2, 3, 2, 4)])
@pytest.mark.parametrize("provenance", ["", PROVENANCE])
def test_small_and_nonsquare_fields(shape, provenance, rng, tmp_path):
    values = rng.normal(size=shape)
    values[np.abs(values) < 0.3] = 0.0  # exact zeros sit on the boundary
    field = _field(values)
    assert_field_outputs_same(tmp_path, field, field.bounds[:2], provenance=provenance)


SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1.5e-310,
           math.inf, -math.inf, math.nan, 1e300, -1e300, 1.0, -1.0,
           float(np.float32(0.1)), float(np.float32(-1.0 / 3.0)),
           float(np.float32(1e38)), 0.1, 1.0 / 3.0, 123456789.125, 2.0 ** 60]


def test_special_values(tmp_path):
    values = np.array(SPECIAL).reshape(4, 5)
    assert_field_outputs_same(tmp_path, _field(values), ((-1.5, 2.0), (0.25, 3.0)))
    assert_field_outputs_same(tmp_path, _field(values.T), ((1e-300, 1e300), (-2.0, 7.0)))
    assert_field_outputs_same(tmp_path, _field(values.reshape(2, 2, 5)), None)


def test_special_values_give_no_nan_coordinates(tmp_path):
    # edges with inf and nan ends cross at limiting positions, never at nan
    values = np.array(SPECIAL).reshape(4, 5)
    for field in (_field(values), _field(values.T)):
        contours = marching_squares(field)
        points = np.concatenate([p.points for p in contours.polylines])
        assert len(points) > 0 and np.isfinite(points).all()
        contours_csv(tmp_path / "c.csv", contours)
        assert "nan" not in (tmp_path / "c.csv").read_text()


# NaNs with different payloads, signs and the signalling bit: each prints "nan"
NAN_BITS = [0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000001, 0x7FF0000000000001,
            0xFFFC0000DEADBEEF]


@pytest.mark.parametrize("shape", [(240,), (12, 20), (4, 6, 10), (2, 3, 4, 10)])
def test_repeated_values(shape, rng, tmp_path):
    # a field formats each distinct value once, so every repeat must keep its own text
    nans = np.array(NAN_BITS, dtype=np.uint64).view(np.float64)
    pool = np.concatenate([[0.0, -0.0, math.inf, -math.inf, 1.0, -1.0, 0.1], nans,
                           np.float32([0.1, -1.0 / 3.0, 1e38, 0.1]).astype(float)])
    values = pool[rng.integers(len(pool), size=shape)]
    values.ravel()[: 2 * len(pool)] = np.tile(pool, 2)   # every value, at least twice
    with np.errstate(invalid="ignore"):   # NaNs cast to float32
        single = values.astype(np.float32)
    for field in (_field(values), _field(single),
                  _field(np.where(np.indices(shape).sum(axis=0) % 2, 0.0, -0.0)),
                  _field(np.full(shape, -0.0))):
        assert_same_bytes(tmp_path, field_csv, field, provenance=PROVENANCE)


def assert_shared_table_same(tmp_path, fields):
    """Write ``fields`` through one value table; each file must equal its reference."""
    texts = value_texts(fields)
    bits = np.concatenate([np.ascontiguousarray(f.values, dtype=np.float64).ravel()
                           for f in fields]).view(np.uint64)
    # one text per distinct bit pattern, shared by every node that holds it
    assert len({id(t) for node_texts in texts for t in node_texts.tolist()}) \
        == len(np.unique(bits))
    for field, node_texts in zip(fields, texts):
        n = next(_serial)
        got, want = tmp_path / f"got{n}", tmp_path / f"want{n}"
        emit_field_csv(got, field, provenance=PROVENANCE, texts=node_texts)
        reference_emit_field_csv(want, field, provenance=PROVENANCE)
        assert filecmp.cmp(got, want, shallow=False)


def test_shared_table_float64_and_float32(rng, tmp_path):
    single = rng.normal(size=(6, 8)).astype(np.float32)
    double = rng.normal(size=(5, 3, 4))
    double.ravel()[::3] = single.ravel()[:20]   # values the two fields share
    assert_shared_table_same(tmp_path, [_field(double), _field(single)])


def test_shared_table_special_values(rng, tmp_path):
    nans = np.array(NAN_BITS, dtype=np.uint64).view(np.float64)
    pool = np.concatenate([[0.0, -0.0, math.inf, -math.inf, 5e-324, -1.5e-310], nans])
    fields = [_field(np.array(SPECIAL).reshape(4, 5)),
              _field(pool[rng.integers(len(pool), size=(7, 9))]),
              _field(np.concatenate([pool, SPECIAL]))]
    assert_shared_table_same(tmp_path, fields)
    assert_shared_table_same(tmp_path, fields[::-1])


def test_float32_and_noncontiguous_values(rng, tmp_path):
    values = rng.normal(size=(6, 8))
    assert_same_bytes(tmp_path, field_csv, _field(values.astype(np.float32)))
    assert_same_bytes(tmp_path, field_csv, _field(np.asfortranarray(values)))
    assert_same_bytes(tmp_path, field_csv, _field(values[::2, ::-1]))
    assert_same_bytes(tmp_path, field_csv, _field(values.T))


# ----------------------------------------------------------------------
# SVG specifics

CIRCLE = circle(0.0, 0.0, 1.0)


@pytest.mark.parametrize("shape", [(97, 97), (98, 98), (300, 41), (41, 300), (256, 256)],
                         ids=["unstrided", "strided-98", "strided-x", "strided-y", "demo"])
def test_svg_shading_strides(shape, tmp_path):
    bounds = ((-1.3, 1.1), (-1.2, 1.25))
    field = grid_eval(CIRCLE, bounds, shape)
    contours = marching_squares(field)
    assert_same_bytes(tmp_path, emit_svg, [(contours, "#000")], bounds, field=field,
                      provenance=PROVENANCE, title="circle")
    assert_same_bytes(tmp_path, emit_svg, [], bounds, field=field)


@pytest.mark.parametrize("shape", [(5, 5), (200, 130)], ids=["unstrided", "strided"])
def test_svg_shading_nothing_inside(shape, tmp_path):
    field = _field(-np.ones(shape))
    assert_same_bytes(tmp_path, emit_svg, [], field.bounds, field=field)


@pytest.mark.parametrize("shape", [(97, 60), (2, 2), (1, 9), (193, 250)],
                         ids=["unstrided", "one-cell", "one-column", "strided"])
def test_svg_shading_of_scattered_cells(shape, tmp_path, rng):
    # rects in no row or column order, a share of them isolated cells
    field = _field(rng.uniform(-0.2, 1.0, shape))
    assert_same_bytes(tmp_path, emit_svg, [], field.bounds, field=field)


OPEN_AND_CLOSED = ContourSet((
    Polyline(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]), True),
    Polyline(np.array([[-0.5, 0.25], [0.123456, 0.987654], [2.0, -1.0]]), False),
    Polyline(np.array([[0.3, 0.3]]), False),
    Polyline(np.array([[0, 0], [1, 1]]), True),  # integer coordinates
))


def test_svg_polylines_and_layers(tmp_path):
    bounds = ((0, 2), (-1.5, 1.5))  # integer bounds, as some demo cases give
    field = grid_eval(CIRCLE, bounds, 40)
    other = marching_squares(field)
    assert other.polylines and not any(line.closed for line in other.polylines)  # leaves the box
    for layers in ([], [(OPEN_AND_CLOSED, "#123456")],
                   [(OPEN_AND_CLOSED, "red"), (other, "blue"), (ContourSet(()), "green")]):
        assert_same_bytes(tmp_path, emit_svg, layers, bounds)
        assert_same_bytes(tmp_path, emit_svg, layers, bounds, field=field,
                          provenance=PROVENANCE, title="t")


@pytest.mark.parametrize("provenance, readback", [
    (PROVENANCE, PROVENANCE),
    ("rfuncds demo circles-4.1 --out 'a&b <c>--' --x ]]> -->", None),
    ("tab\there, LF\nthere, CR\rthere, CRLF\r\nthere", None),
    ("nul\x00 bell\x07 esc\x1b nonchars\ufffe\uffff end-", "nul\ufffd bell\ufffd esc\ufffd "
                                                          "nonchars\ufffd\ufffd end-"),
], ids=["plain", "markup", "line-ends", "not-xml"])
def test_svg_provenance_is_well_formed_and_reads_back(provenance, readback, tmp_path):
    assert_same_bytes(tmp_path, emit_svg, [], ((0.0, 1.0), (0.0, 1.0)), provenance=provenance)
    path = tmp_path / "p.svg"
    emit_svg(path, [(OPEN_AND_CLOSED, "red")], ((0.0, 1.0), (0.0, 1.0)), provenance=provenance)
    desc = ElementTree.parse(path).getroot()[0]
    assert desc.tag == "{http://www.w3.org/2000/svg}desc"
    assert desc.text == (provenance if readback is None else readback)


@pytest.mark.parametrize("title", ["x < y & z", "a > b\r\nnext", "nul\x00 end"])
def test_svg_title_is_well_formed_and_reads_back(title, tmp_path):
    assert_same_bytes(tmp_path, emit_svg, [], ((0.0, 1.0), (0.0, 1.0)), title=title)
    path = tmp_path / "t.svg"
    emit_svg(path, [(OPEN_AND_CLOSED, "red")], ((0.0, 1.0), (0.0, 1.0)), title=title)
    [heading] = [e for e in ElementTree.parse(path).getroot()
                 if e.get("text-anchor") == "middle"]
    assert heading.text == title.replace("\x00", "\ufffd")


# ----------------------------------------------------------------------
# contour CSV specifics

@pytest.mark.parametrize("provenance", ["", PROVENANCE])
def test_contours_csv(provenance, tmp_path):
    assert_same_bytes(tmp_path, contours_csv, ContourSet(()), provenance=provenance)
    assert_same_bytes(tmp_path, contours_csv, OPEN_AND_CLOSED, provenance=provenance)
    special = np.array(SPECIAL).reshape(-1, 2)
    assert_same_bytes(tmp_path, contours_csv,
                      ContourSet((Polyline(special, False), Polyline(special[::-1], True))),
                      provenance=provenance)


def assert_contour_table_same(tmp_path, contour_sets):
    """Write ``contour_sets`` through one coordinate table; each file must
    equal its reference, and each text the repr of its coordinate."""
    texts = contour_texts(contour_sets)
    points = [np.array([p for line in cs.polylines for p in np.asarray(line.points).tolist()],
                       dtype=float).reshape(-1, 2) for cs in contour_sets]
    for coords, point_texts in zip(points, texts):
        assert point_texts.shape == coords.shape
        assert point_texts.ravel().tolist() == [repr(v) + "," for v in coords.ravel().tolist()]
    # one text per distinct bit pattern, shared by every coordinate that holds it
    bits = np.concatenate(points).view(np.uint64)
    assert len({id(t) for point_texts in texts for t in point_texts.ravel().tolist()}) \
        == len(np.unique(bits))
    for contours, point_texts in zip(contour_sets, texts):
        n = next(_serial)
        got, want = tmp_path / f"got{n}", tmp_path / f"want{n}"
        emit_contours_csv(got, contours, point_texts, provenance=PROVENANCE)
        reference_emit_contours_csv(want, contours, provenance=PROVENANCE)
        assert filecmp.cmp(got, want, shallow=False)


def test_contour_table_keeps_signed_zeros_and_empty_sets_apart(tmp_path):
    zeros = ContourSet((Polyline(np.array([[0.0, -0.0], [-0.0, 0.0], [0.0, 0.0]]), False),
                        Polyline(np.array([[-0.0, -0.0], [1.0, -0.0]]), True)))
    special = np.array(SPECIAL).reshape(-1, 2)
    assert_contour_table_same(tmp_path, [ContourSet(()), zeros, OPEN_AND_CLOSED,
                                         ContourSet((Polyline(special, True),)), ContourSet(())])
    assert [t.shape for t in contour_texts([ContourSet(())])] == [(0, 2)]
    [texts] = contour_texts([zeros])
    assert texts[:2].tolist() == [["0.0,", "-0.0,"], ["-0.0,", "0.0,"]]


def test_contour_table_of_the_identify_contours(tmp_path):
    # the joint contours share points with the phi contours (at alpha 1 the
    # joint boundary is the purity one), so the table is smaller than the points
    report = load_report(FIXTURES / "kelvin-alpha1.json")
    bounds = [(a.lo, a.hi) for a in report.box]
    sets = [marching_squares(grid_eval(r, bounds, 64))
            for r in [c.phi for c in report.constraints] + [report.joint]]
    assert_contour_table_same(tmp_path, sets)
    texts = [t for point_texts in contour_texts(sets) for t in point_texts.ravel().tolist()]
    assert len({id(t) for t in texts}) < len(texts) / 2
