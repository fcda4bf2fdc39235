"""SVG and CSV emission for fields and contours.

Output is byte-deterministic for identical inputs: no timestamps, fixed
float formatting (SVG coordinates at 1/100 px, CSV values at full repr()
precision).  Every file starts with the provenance supplied by the caller
(tool version + invocation): a comment line in a CSV, an XML-escaped
``<desc>`` as the first child of an SVG's root.

Each writer builds its file from arrays, not one node or point at a time:
pixel coordinates are computed with numpy in the same operation order as
the scalar mapping.  CSV numbers come from one value table per command:
repr() depends only on a float's bits, so each distinct bit pattern is
formatted once, among all the fields a command writes (``value_texts``)
or among all its contour sets (``contour_texts``).  A field CSV formats
each grid coordinate once too.  Rows are put together by list slice
assignment and one join (per slab of a field's first axis, per contour
file), so no per-row Python code runs.  The format is unchanged; see
docs/formats.md.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .contour import ContourSet, ScalarField

DEFAULT_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b")

_SIZE = 800              # SVG width and height, px
_MARGIN = 60.0
_STROKE_WIDTH = 2.0
_SHADE_FILL = "#bcd8f0"
_MAX_SHADE_CELLS = 96    # per axis; denser fields are strided down

# SVG text: markup characters as entities, CR as a character reference (a
# parser reads a literal one as LF), and the characters XML 1.0 cannot hold
# at all (the other C0 controls, U+FFFE, U+FFFF) as U+FFFD
_XML_TEXT = {ord("&"): "&amp;", ord("<"): "&lt;", ord(">"): "&gt;", ord("\r"): "&#13;",
             **dict.fromkeys([c for c in range(32) if chr(c) not in "\t\n\r"]
                             + [0xFFFE, 0xFFFF], "\ufffd")}


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def emit_svg(path, layers, bounds, field: ScalarField | None = None,
             provenance: str = "", title: str = "") -> None:
    """Write contour layers as an SVG plot.

    ``layers`` is a list of (ContourSet, stroke-color) pairs; pass colors
    from DEFAULT_PALETTE or any CSS color.  If ``field`` is given, grid
    cells whose four corners are all inside are shaded first.
    """
    (xlo, xhi), (ylo, yhi) = bounds
    span = _SIZE - 2 * _MARGIN

    def to_px(x, y):  # scalars or arrays, same arithmetic for both
        px = _MARGIN + (x - xlo) / (xhi - xlo) * span
        py = _SIZE - _MARGIN - (y - ylo) / (yhi - ylo) * span
        return px, py

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" height="{_SIZE}" '
        f'viewBox="0 0 {_SIZE} {_SIZE}">',
    ]
    if provenance:
        parts.append(f"<desc>{provenance.translate(_XML_TEXT)}</desc>")
    parts.append(f'<rect width="{_SIZE}" height="{_SIZE}" fill="white"/>')

    if field is not None:
        parts.append(_shading(field, to_px))

    # frame and corner labels
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
        parts.append(f'<text x="{_fmt(_SIZE / 2)}" y="30" font-size="18" '
                     f'text-anchor="middle">{title.translate(_XML_TEXT)}</text>')

    for contours, color in layers:
        for line in contours.polylines:
            px, py = to_px(*np.asarray(line.points).reshape(-1, 2).T)
            cmds = list(map("L {:.2f} {:.2f}".format, px.tolist(), py.tolist()))
            if cmds:
                cmds[0] = "M" + cmds[0][1:]
            if line.closed:
                cmds.append("Z")
            parts.append(
                f'<path d="{" ".join(cmds)}" fill="none" stroke="{color}" '
                f'stroke-width="{_STROKE_WIDTH:g}"/>'
            )

    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")


def _shading(field: ScalarField, to_px) -> str:
    nx, ny = field.values.shape
    sx = max(1, math.ceil((nx - 1) / _MAX_SHADE_CELLS))
    sy = max(1, math.ceil((ny - 1) / _MAX_SHADE_CELLS))
    ix = np.arange(0, nx, sx)
    iy = np.arange(0, ny, sy)
    if ix[-1] != nx - 1:
        ix = np.append(ix, nx - 1)
    if iy[-1] != ny - 1:
        iy = np.append(iy, ny - 1)
    sub = field.values[np.ix_(ix, iy)] >= 0.0
    xs = field.axis(0)[ix]
    ys = field.axis(1)[iy]
    full = sub[:-1, :-1] & sub[1:, :-1] & sub[:-1, 1:] & sub[1:, 1:]
    # x and width depend only on the column, y and height only on the row:
    # cell (i, j) spans px[i]..px[i+1] and py[j+1]..py[j], so each column's
    # and row's texts are formatted once and each rect joins four of them
    px, py = to_px(xs, ys)
    x = list(map(_fmt, px[:-1].tolist()))
    width = list(map(_fmt, (px[1:] - px[:-1]).tolist()))
    y = list(map(_fmt, py[1:].tolist()))
    height = list(map(_fmt, (py[:-1] - py[1:]).tolist()))
    rects = [f'<rect x="{x[i]}" y="{y[j]}" width="{width[i]}" height="{height[j]}"/>'
             for i, j in zip(*[k.tolist() for k in np.nonzero(full)])]
    return "\n".join([f'<g fill="{_SHADE_FILL}" stroke="none">', *rects, "</g>"])


def _repr_texts(arrays, suffix: str) -> list[np.ndarray]:
    """``repr(v) + suffix`` for every element of each array, C order, from one
    table: each distinct bit pattern among all of them is formatted once, and
    every element holding it gets the same string.  Keying on bits keeps 0.0
    and -0.0 (and nan payloads) apart."""
    bits = [np.ascontiguousarray(a, dtype=np.float64).ravel().view(np.uint64) for a in arrays]
    distinct, which = np.unique(np.concatenate(bits), return_inverse=True)
    texts = np.array([r + suffix for r in map(repr, distinct.view(np.float64).tolist())],
                     dtype=object)
    return np.split(texts[which], np.cumsum([b.size for b in bits[:-1]]))


def value_texts(fields) -> list[np.ndarray]:
    """The value text ``repr(v) + "\n"`` of every node of each field, C order,
    one table for all ``fields``."""
    return _repr_texts([f.values for f in fields], "\n")


def contour_texts(contour_sets) -> list[np.ndarray]:
    """The coordinate texts ``repr(x) + ","`` and ``repr(y) + ","`` of every
    point of each contour set, an ``(n, 2)`` array over its polylines in
    order, one table for all ``contour_sets``.  A crossing on an edge keeps
    that edge's grid-axis value, and the joint's contours share points with
    the phis', so most coordinates repeat."""
    points = [np.concatenate([np.asarray(line.points, dtype=float).reshape(-1, 2)
                              for line in cs.polylines] or [np.empty((0, 2))])
              for cs in contour_sets]
    return [t.reshape(-1, 2) for t in _repr_texts(points, ",")]


def emit_field_csv(path, field: ScalarField, texts: np.ndarray, provenance: str = "") -> None:
    """One row per grid node, row-major over the axes, full float precision.

    ``texts`` is this field's entry of ``value_texts`` over all the fields a
    command writes, so a value they share is formatted once.
    """
    first, *rest = [[c + "," for c in map(repr, field.axis(k).tolist())]
                    for k in range(field.values.ndim)]
    # the rows of one slab of the first axis, each up to its value: "y,z," ...;
    # product() yields them in C order, matching ravel()
    heads = ["".join(row) for row in itertools.product(*rest)]
    # a slab is "x," head value-text, row after row: the heads stay in place
    # and each slab sets its x and its values
    rows = [""] * (3 * len(heads))
    rows[1::3] = heads
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if provenance:
            fh.write(f"# {provenance}\n")
        fh.write(",".join(field.vars) + ",value\n")
        for x, slab in zip(first, texts.reshape(len(first), len(heads))):
            rows[0::3] = [x] * len(heads)
            rows[2::3] = slab.tolist()
            fh.write("".join(rows))


def emit_contours_csv(path, contours: ContourSet, texts: np.ndarray, provenance: str = "") -> None:
    """Polyline points keyed by polyline id, with a closed flag per row.

    ``texts`` is this set's entry of ``contour_texts`` over all the contour
    sets a command writes, so a coordinate they share is formatted once.
    """
    sizes = [len(line.points) for line in contours.polylines]
    index = list(map("{},".format, range(max(sizes, default=0))))
    ids, points, flags = [], [], []
    for pid, (line, m) in enumerate(zip(contours.polylines, sizes)):
        ids += [f"{pid},"] * m
        points += index[:m]
        flags += ["1\n" if line.closed else "0\n"] * m
    # a row is "polyline," "point," x-text y-text flag: one column per slot
    rows = [""] * (5 * len(ids))
    rows[0::5], rows[1::5], rows[4::5] = ids, points, flags
    rows[2::5], rows[3::5] = texts.T.tolist()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if provenance:
            fh.write(f"# {provenance}\n")
        fh.write("polyline,point,x,y,closed\n")
        fh.write("".join(rows))
