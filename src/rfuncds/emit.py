"""SVG and CSV emission for fields and contours.

Output is byte-deterministic for identical inputs: no timestamps, fixed
float formatting (SVG coordinates at 1/100 px, CSV values at full repr()
precision).  Every file starts with the provenance supplied by the caller
(tool version + invocation): a comment line in a CSV, an XML-escaped
``<desc>`` as the first child of an SVG's root.

Each writer builds its file from arrays, not one node or point at a time:
pixel coordinates are computed with numpy in the same operation order as
the scalar mapping.  A field CSV formats each distinct value once (repr()
depends only on a float's bits) and each coordinate once, and fills one
prebuilt ``%s`` template per slab of the first axis, so no per-row Python
code runs.  The format is unchanged; see docs/formats.md.
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
                     f'text-anchor="middle">{title}</text>')

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
    i, j = np.nonzero(full)
    px0, py0 = to_px(xs[i], ys[j + 1])
    px1, py1 = to_px(xs[i + 1], ys[j])
    rects = map('<rect x="{:.2f}" y="{:.2f}" width="{:.2f}" height="{:.2f}"/>'.format,
                px0.tolist(), py0.tolist(), (px1 - px0).tolist(), (py1 - py0).tolist())
    return "\n".join([f'<g fill="{_SHADE_FILL}" stroke="none">', *rects, "</g>"])


def emit_field_csv(path, field: ScalarField, provenance: str = "") -> None:
    """One row per grid node, row-major over the axes, full float precision."""
    first, *rest = [list(map(repr, field.axis(k).tolist())) for k in range(field.values.ndim)]
    # the rows of one slab of the first axis, each up to its value: "y,z," ...;
    # product() yields them in C order, matching ravel()
    heads = ["".join(row) for row in itertools.product(*[[c + "," for c in ax] for ax in rest])]
    # repr() depends only on a float's bits, so each distinct bit pattern is
    # formatted once; keying on bits keeps 0.0 and -0.0 (and nan payloads) apart
    bits = np.ascontiguousarray(field.values, dtype=np.float64).ravel().view(np.uint64)
    distinct, which = np.unique(bits, return_inverse=True)
    reprs = np.array(list(map(repr, distinct.view(np.float64).tolist())), dtype=object)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if provenance:
            fh.write(f"# {provenance}\n")
        fh.write(",".join(field.vars) + ",value\n")
        for x, slab in zip(first, which.reshape(len(first), len(heads))):
            # "x,head0%s\nx,head1%s\n..." filled with this slab's value texts
            template = x + "," + ("%s\n" + x + ",").join(heads) + "%s\n"
            fh.write(template % tuple(reprs[slab].tolist()))


def emit_contours_csv(path, contours: ContourSet, provenance: str = "") -> None:
    """Polyline points keyed by polyline id, with a closed flag per row."""
    rows = []
    for pid, line in enumerate(contours.polylines):
        xs, ys = np.asarray(line.points, dtype=float).reshape(-1, 2).T.tolist()
        flag = "1" if line.closed else "0"
        rows.extend(map(f"{pid},{{}},{{!r}},{{!r}},{flag}\n".format, itertools.count(), xs, ys))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if provenance:
            fh.write(f"# {provenance}\n")
        fh.write("polyline,point,x,y,closed\n")
        fh.write("".join(rows))
