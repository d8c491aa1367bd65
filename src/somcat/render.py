"""Deterministic SVG and plain-text rendering of trained maps.

The SVG is assembled by hand from a fixed template: element order follows
unit order, coordinates are emitted with repr (shortest round-trip float
form), and no timestamps or ids are generated, so the same inputs always
produce byte-identical files.

Pie geometry: wedge angles grow clockwise from 12 o'clock, and the point at
angle theta (degrees) on a circle of radius r around (cx, cy) is
(cx + r*sin, cy - r*cos).  A modality holding the whole population becomes a
plain circle, since an arc with coincident endpoints would collapse.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from xml.sax.saxutils import escape

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


@dataclass(frozen=True)
class MapRenderSpec:
    """Knobs of the SVG map; defaults fit a 4x4 map on one screen."""

    cell_size: int = CELL_SIZE
    label_source: str = "auto"      # auto | modalities | modalities+counts | none

    def __post_init__(self):
        if self.cell_size < 40:
            raise RenderError("cell size below 40 leaves no room for labels")
        if self.label_source not in ("auto", "modalities", "modalities+counts", "none"):
            raise RenderError(f"unknown label source {self.label_source!r}")


def _f(x: float) -> str:
    return repr(float(x))


def _esc(s: str) -> str:
    return escape(s, {'"': "&quot;"})


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


def render_map(result, macro: MacroClassing | None = None,
               spec: MapRenderSpec | None = None) -> str:
    """SVG of the unit grid with macro-class shading and item labels."""
    spec = spec or MapRenderSpec()
    topo = result.topology
    cell, fs = spec.cell_size, FONT_SIZE
    line_h = fs + 2
    width, grid_h = topo.cols * cell, topo.rows * cell
    legend_h = 8 + 16 * macro.k + 4 if macro is not None else 0
    height = grid_h + legend_h

    if macro is not None:
        fills = grey_palette(macro.k)

    source = spec.label_source
    if source == "auto":
        source = "modalities+counts" if result.individuals is not None else "modalities"

    short = display_labels(result.modalities.labels)
    members = result.modalities.members_by_unit()
    ind_counts = result.individuals.counts if result.individuals is not None else None

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
    ]
    max_fit = max(2, (cell - 18) // line_h)
    limit = min(MAX_LABELS, max_fit)
    for u in range(topo.n_units):
        r, c = divmod(u, topo.cols)
        x, y = c * cell, r * cell
        fill = fills[macro.class_of(u)] if macro is not None else "#ffffff"
        lines.append(
            f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" '
            f'fill="{fill}" stroke="#333333"/>'
        )
        if source == "none":
            continue
        entries = []
        if source == "modalities+counts" and ind_counts is not None:
            entries.append(f"{int(ind_counts[u])} ind")
        entries.extend(short[name] for name in members[u])
        ty = y + 4 + fs
        for text in _shown(entries, limit):
            lines.append(
                f'<text x="{x + 4}" y="{ty}" font-family="monospace" '
                f'font-size="{fs}" fill="#111111">{_esc(text)}</text>'
            )
            ty += line_h
    if macro is not None:
        ly = grid_h + 8
        for i in range(macro.k):
            tag = "connected" if macro.connected[i] else "split"
            lines.append(
                f'<rect x="4" y="{ly}" width="10" height="10" '
                f'fill="{fills[i]}" stroke="#333333"/>'
            )
            lines.append(
                f'<text x="20" y="{ly + 9}" font-family="monospace" '
                f'font-size="{fs}" fill="#111111">class {i} '
                f'({len(macro.classes[i])} units, {tag})</text>'
            )
            ly += 16
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


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
    topo = pies.topology
    cell, fs = CELL_SIZE, FONT_SIZE
    colors = [PALETTE[i % len(PALETTE)] for i in range(len(pies.labels))]
    width, grid_h = topo.cols * cell, topo.rows * cell
    legend_h = 8 + 16 * len(pies.labels) + 4
    height = grid_h + legend_h
    radius = 0.38 * cell
    pops = pies.populations

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
    ]
    for u in range(topo.n_units):
        r, c = divmod(u, topo.cols)
        x, y = c * cell, r * cell
        cx, cy = x + cell / 2.0, y + cell / 2.0 - 6.0
        lines.append(
            f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" '
            f'fill="none" stroke="#333333"/>'
        )
        pop = int(pops[u])
        if pop == 0:
            lines.append(
                f'<circle cx="{_f(cx)}" cy="{_f(cy)}" r="{_f(radius)}" '
                f'fill="none" stroke="#cccccc" stroke-dasharray="3 3"/>'
            )
        else:
            counts = pies.counts[u]
            nonzero = np.flatnonzero(counts)
            if nonzero.size == 1:
                v = int(nonzero[0])
                lines.append(
                    f'<circle cx="{_f(cx)}" cy="{_f(cy)}" r="{_f(radius)}" '
                    f'fill="{colors[v]}" stroke="#ffffff"/>'
                )
            else:
                running = 0
                for v in nonzero:
                    a0 = 360.0 * running / pop
                    running += int(counts[v])
                    a1 = 360.0 * running / pop
                    lines.append(
                        f'<path d="{_wedge_path(cx, cy, radius, a0, a1)}" '
                        f'fill="{colors[int(v)]}" stroke="#ffffff"/>'
                    )
        lines.append(
            f'<text x="{_f(cx)}" y="{y + cell - 6}" font-family="monospace" '
            f'font-size="{fs}" fill="#111111" text-anchor="middle">'
            f"n={pop}</text>"
        )
    ly = grid_h + 8
    for i, label in enumerate(pies.labels):
        lines.append(
            f'<rect x="4" y="{ly}" width="10" height="10" '
            f'fill="{colors[i]}" stroke="#333333"/>'
        )
        lines.append(
            f'<text x="20" y="{ly + 9}" font-family="monospace" '
            f'font-size="{fs}" fill="#111111">{_esc(label)} '
            f"({int(pies.global_counts[i])})</text>"
        )
        ly += 16
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def render_text(result, macro: MacroClassing | None = None) -> str:
    """Fixed-width character grid of the map, one box per unit."""
    topo = result.topology
    short = display_labels(result.modalities.labels)
    members = result.modalities.members_by_unit()
    ind_counts = result.individuals.counts if result.individuals is not None else None

    cells: list[list[str]] = []
    for u in range(topo.n_units):
        entries = []
        if macro is not None:
            entries.append(f"#{macro.class_of(u)}")
        if ind_counts is not None:
            entries.append(f"{int(ind_counts[u])} ind")
        entries.extend(short[name] for name in members[u])
        cells.append(_shown(entries, TEXT_MAX_LINES))

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
