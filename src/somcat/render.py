"""Deterministic SVG and plain-text rendering of trained maps.

The SVG is assembled by hand from a fixed template: element order follows
unit order, coordinates are emitted with repr (shortest round-trip float
form), and no timestamps or ids are generated, so the same inputs always
produce byte-identical files.  Maps and pies share one writer: a white page
sized to the unit grid, an outlined square per unit, and an optional legend
of swatches below the grid.  The SVG map and the text map list the same
lines per unit: the individual count, when asked for, then the short
modality labels.

Pie geometry: wedge angles grow clockwise from 12 o'clock, and the point at
angle theta (degrees) on a circle of radius r around (cx, cy) is
(cx + r*sin, cy - r*cos).  A modality holding the whole population becomes a
plain circle, since an arc with coincident endpoints would collapse.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from .crossing import PieGrid
from .errors import RenderError
from .macrocluster import MacroClassing

PALETTE = (
    "#4477aa", "#ee6677", "#228833", "#ccbb44",
    "#66ccee", "#aa3377", "#bbbbbb", "#222255",
    "#225555", "#552200", "#997700", "#cc3311",
)
FONT_SIZE = 10
CELL_SIZE = 120         # pixels per unit, the default map cell and every pie cell
MIN_CELL_SIZE = 40      # smallest map cell that still holds two label lines
LABEL_SOURCES = ("auto", "modalities", "modalities+counts", "none")
MAX_LABELS = 12         # lines per unit cell of the SVG map
TEXT_MAX_LINES = 6      # lines per unit box of the text map


def grey_palette(k: int) -> tuple[str, ...]:
    """k light greys, light to mid, all dark-text friendly."""
    if k < 1:
        raise RenderError("palette size must be positive")
    if k == 1:
        return ("#f0f0f0",)
    out = []
    for i in range(k):
        v = 245 - round(i * (245 - 176) / (k - 1))
        out.append(f"#{v:02x}{v:02x}{v:02x}")
    return tuple(out)


def _f(x: float) -> str:
    return repr(float(x))


def _esc(s: str) -> str:
    s = s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return s.replace('"', "&quot;")


def display_labels(names) -> dict[str, str]:
    """Short forms: bare modality label when unique across variables."""
    bare = [n.split(".", 1)[1] if "." in n else n for n in names]
    freq = Counter(bare)
    return {n: (b if freq[b] == 1 else n) for n, b in zip(names, bare)}


def _shown(entries: list[str], limit: int) -> list[str]:
    if len(entries) <= limit:
        return entries
    kept = entries[: limit - 1]
    return kept + [f"+{len(entries) - len(kept)} more"]


def _unit_lines(result, counts: bool) -> list[list[str]]:
    """Each unit's lines: its individual count ("12 ind") when ``counts`` is
    set and the individuals were mapped, then its modalities' short labels."""
    short = display_labels(result.modalities.labels)
    ind = result.individuals
    n = ind.counts if counts and ind is not None else None
    return [([f"{int(n[u])} ind"] if n is not None else []) + [short[m] for m in names]
            for u, names in result.modalities.members_by_unit().items()]


def _cells(topo, cell: int):
    """Each unit with the top-left corner of its square, in unit order."""
    for u in range(topo.n_units):
        r, c = divmod(u, topo.cols)
        yield u, c * cell, r * cell


def _square(x: int, y: int, size: int, fill: str) -> str:
    """An outlined square: a unit's cell or a legend swatch."""
    return (f'<rect x="{x}" y="{y}" width="{size}" height="{size}" '
            f'fill="{fill}" stroke="#333333"/>')


def _text(x, y, text: str, attrs: str = "") -> str:
    return (f'<text x="{x}" y="{y}" font-family="monospace" '
            f'font-size="{FONT_SIZE}" fill="#111111"{attrs}>{_esc(text)}</text>')


def _legend(top: int, rows: list[tuple[str, str]]) -> list[str]:
    """A swatch and its caption per (fill, text) row, 16 pixels apart."""
    out = []
    for i, (fill, text) in enumerate(rows):
        y = top + 16 * i
        out += [_square(4, y, 10, fill), _text(20, y + 9, text)]
    return out


def _page(topo, cell: int, body: list[str], legend: list | None) -> str:
    """The SVG document: a white page holding the unit grid's ``body`` and,
    when ``legend`` is given, its rows below the grid."""
    width, grid_h = topo.cols * cell, topo.rows * cell
    height = grid_h if legend is None else grid_h + 12 + 16 * len(legend)
    return "\n".join([
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
        *body,
        *_legend(grid_h + 8, legend or []),
        "</svg>\n",
    ])


def render_map(result, macro: MacroClassing | None = None,
               cell_size: int = CELL_SIZE, labels: str = "auto") -> str:
    """SVG of the unit grid: a ``cell_size`` square per unit listing its items,
    shaded by macro-class with a legend below when ``macro`` is given.

    ``labels`` picks the list: "modalities" (short labels), "modalities+counts"
    (the unit's individual count first), "none", or "auto" (counts exactly
    when the individuals were mapped).  A cell shows at most MAX_LABELS lines,
    fewer when small, the last of them "+N more" when items are left out.
    """
    if cell_size < MIN_CELL_SIZE:
        raise RenderError(f"cell size below {MIN_CELL_SIZE} leaves no room for labels")
    if labels not in LABEL_SOURCES:
        raise RenderError(f"unknown label source {labels!r}")
    if labels == "auto":
        labels = "modalities+counts" if result.individuals is not None else "modalities"
    cell, line_h = cell_size, FONT_SIZE + 2
    limit = min(MAX_LABELS, max(2, (cell - 18) // line_h))
    fills = grey_palette(macro.k) if macro is not None else None
    entries = _unit_lines(result, labels == "modalities+counts")
    body = []
    for u, x, y in _cells(result.topology, cell):
        body.append(_square(x, y, cell, fills[macro.labels[u]] if macro else "#ffffff"))
        if labels != "none":
            body += [_text(x + 4, y + 4 + FONT_SIZE + i * line_h, text)
                     for i, text in enumerate(_shown(entries[u], limit))]
    legend = None if macro is None else [
        (fills[i], f"class {i} ({len(members)} units, "
                   f"{'connected' if macro.connected[i] else 'split'})")
        for i, members in enumerate(macro.classes)
    ]
    return _page(result.topology, cell, body, legend)


def _wedge_path(cx: float, cy: float, r: float, a0: float, a1: float) -> str:
    x0 = cx + r * math.sin(math.radians(a0))
    y0 = cy - r * math.cos(math.radians(a0))
    x1 = cx + r * math.sin(math.radians(a1))
    y1 = cy - r * math.cos(math.radians(a1))
    large = 1 if (a1 - a0) > 180.0 else 0
    return (
        f"M {_f(cx)} {_f(cy)} L {_f(x0)} {_f(y0)} "
        f"A {_f(r)} {_f(r)} 0 {large} 1 {_f(x1)} {_f(y1)} Z"
    )


def render_pies(pies: PieGrid) -> str:
    """SVG pie per unit: the external variable's spread over the map."""
    cell = CELL_SIZE
    colors = [PALETTE[i % len(PALETTE)] for i in range(len(pies.labels))]
    radius = 0.38 * cell
    pops = pies.populations
    body = []
    for u, x, y in _cells(pies.topology, cell):
        cx, cy = x + cell / 2.0, y + cell / 2.0 - 6.0
        body.append(_square(x, y, cell, "none"))
        pop = int(pops[u])
        nonzero = np.flatnonzero(pies.counts[u])
        disc = f'<circle cx="{_f(cx)}" cy="{_f(cy)}" r="{_f(radius)}" '
        if pop == 0:
            body.append(disc + 'fill="none" stroke="#cccccc" stroke-dasharray="3 3"/>')
        elif nonzero.size == 1:
            body.append(disc + f'fill="{colors[int(nonzero[0])]}" stroke="#ffffff"/>')
        else:
            running = 0
            for v in nonzero:
                a0 = 360.0 * running / pop
                running += int(pies.counts[u, v])
                a1 = 360.0 * running / pop
                body.append(
                    f'<path d="{_wedge_path(cx, cy, radius, a0, a1)}" '
                    f'fill="{colors[int(v)]}" stroke="#ffffff"/>'
                )
        body.append(_text(_f(cx), y + cell - 6, f"n={pop}", ' text-anchor="middle"'))
    legend = [(color, f"{label} ({int(n)})")
              for color, label, n in zip(colors, pies.labels, pies.global_counts)]
    return _page(pies.topology, cell, body, legend)


def render_text(result, macro: MacroClassing | None = None) -> str:
    """Fixed-width character grid of the map, one box per unit: its
    macro-class ("#2") when ``macro`` is given, its individual count when the
    individuals were mapped, then its modalities."""
    topo = result.topology
    cells = [
        _shown(([f"#{macro.class_of(u)}"] if macro is not None else []) + lines,
               TEXT_MAX_LINES)
        for u, lines in enumerate(_unit_lines(result, counts=True))
    ]
    width = max(8, min(18, max((len(e) for cell in cells for e in cell), default=8)))
    depth = max(len(cell) for cell in cells)

    def clip(s: str) -> str:
        return s if len(s) <= width else s[: width - 2] + ".."

    rule = "+" + "+".join(["-" * width] * topo.cols) + "+"
    out = [rule]
    for r in range(topo.rows):
        for line in range(depth):
            row_cells = []
            for c in range(topo.cols):
                cell = cells[r * topo.cols + c]
                text = clip(cell[line]) if line < len(cell) else ""
                row_cells.append(text.ljust(width))
            out.append("|" + "|".join(row_cells) + "|")
        out.append(rule)
    return "\n".join(out) + "\n"
