"""SVG and text rendering: wedge geometry, labels, determinism."""

import math
import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from somcat.analyses import kdisj, kmca
from somcat.crossing import PieGrid
from somcat.errors import RenderError
from somcat.macrocluster import cut, unit_weights, ward_cluster
from somcat.render import (
    display_labels,
    grey_palette,
    render_map,
    render_pies,
    render_text,
)
from somcat.som import Topology, TrainConfig

WEDGE = re.compile(
    r'<path d="M (?P<cx>[-\d.e]+) (?P<cy>[-\d.e]+) '
    r"L (?P<x0>[-\d.e]+) (?P<y0>[-\d.e]+) "
    r"A [-\d.e]+ [-\d.e]+ 0 (?P<large>[01]) 1 "
    r'(?P<x1>[-\d.e]+) (?P<y1>[-\d.e]+) Z"'
)


def wedge_angles(svg):
    """Recover (start, span) degrees of every pie wedge from the raw paths."""
    out = []
    for m in WEDGE.finditer(svg):
        cx, cy = float(m["cx"]), float(m["cy"])
        x0, y0 = float(m["x0"]), float(m["y0"])
        x1, y1 = float(m["x1"]), float(m["y1"])
        a0 = math.degrees(math.atan2(x0 - cx, cy - y0)) % 360.0
        a1 = math.degrees(math.atan2(x1 - cx, cy - y1)) % 360.0
        span = (a1 - a0) % 360.0
        if span == 0.0:
            span = 360.0
        out.append((a0, span))
    return out


def pie_fixture(counts, labels=None, topo=None):
    counts = np.asarray(counts)
    labels = labels or tuple(f"m{i}" for i in range(counts.shape[1]))
    topo = topo or Topology.grid(1, counts.shape[0])
    return PieGrid(topology=topo, variable="v", labels=labels, counts=counts)


# ----------------------------------------------------------------------- pies

def test_three_equal_modalities_make_three_120_degree_wedges():
    pies = pie_fixture([[4, 4, 4], [0, 0, 0]])
    svg = render_pies(pies)
    angles = wedge_angles(svg)
    assert len(angles) == 3
    for _, span in angles:
        assert abs(span - 120.0) <= 1e-6
    starts = sorted(a for a, _ in angles)
    assert starts == pytest.approx([0.0, 120.0, 240.0], abs=1e-6)


def test_uneven_wedges_match_count_shares():
    pies = pie_fixture([[1, 3], [0, 0]])
    svg = render_pies(pies)
    angles = sorted(wedge_angles(svg), key=lambda t: t[0])
    assert angles[0][1] == pytest.approx(90.0, abs=1e-6)
    assert angles[1][1] == pytest.approx(270.0, abs=1e-6)
    # the majority wedge crosses 180 degrees and must set the large-arc flag
    flags = [m["large"] for m in WEDGE.finditer(svg)]
    assert sorted(flags) == ["0", "1"]


def test_single_modality_renders_full_circle_not_path():
    pies = pie_fixture([[7, 0], [0, 0]])
    svg = render_pies(pies)
    assert wedge_angles(svg) == []
    # one full disc for the populated unit, one dashed ring for the empty one
    assert svg.count("<circle") == 2
    assert svg.count("stroke-dasharray") == 1


def test_empty_unit_renders_dashed_placeholder():
    pies = pie_fixture([[0, 0], [3, 1]])
    svg = render_pies(pies)
    assert 'stroke-dasharray="3 3"' in svg
    assert "n=0" in svg and "n=4" in svg


def test_pie_legend_carries_global_counts():
    pies = pie_fixture([[2, 0], [1, 5]], labels=("alpha", "beta"))
    svg = render_pies(pies)
    assert "alpha (3)" in svg
    assert "beta (5)" in svg


def test_pie_svg_is_well_formed_and_deterministic():
    pies = pie_fixture([[4, 4, 4], [1, 2, 3]])
    a, b = render_pies(pies), render_pies(pies)
    assert a == b
    ET.fromstring(a)  # parses as XML


# ------------------------------------------------------------------ map views

@pytest.fixture(scope="module")
def run_and_macro(marriage):
    res = kdisj(marriage, Topology.grid(3, 3), TrainConfig(seed=0, t_max=400))
    dendro = ward_cluster(res.unit_distances, unit_weights(res), res.topology)
    return res, cut(dendro, min(4, dendro.n_leaves))


def test_render_map_structure(run_and_macro):
    res, macro = run_and_macro
    svg = render_map(res, macro)
    ET.fromstring(svg)
    assert svg.count('class="unit"') == 9 or svg.count("<rect") >= 9
    # every modality label is somewhere on the map (bare names are unique)
    for bare in ("MFARM", "FFARM", "MWORK", "FCLER"):
        assert bare in svg


def test_render_map_deterministic(run_and_macro):
    res, macro = run_and_macro
    assert render_map(res, macro) == render_map(res, macro)


def test_render_map_without_macro(run_and_macro):
    res, _ = run_and_macro
    svg = render_map(res)
    ET.fromstring(svg)
    assert "class 0" not in svg  # no legend without a macro classing


def test_render_map_escapes_labels(marriage):
    res = kmca(marriage, Topology.grid(2, 2), TrainConfig(seed=0, t_max=100))
    res.modalities.labels = tuple(
        lab if i else "husband.<FARM&CO>" for i, lab in enumerate(res.modalities.labels)
    )
    svg = render_map(res)
    assert "<FARM&CO>" not in svg
    assert "&lt;FARM&amp;CO&gt;" in svg
    ET.fromstring(svg)


def test_display_labels_bare_when_unique():
    short = display_labels(("husband.MFARM", "wife.FFARM", "wife.FWORK"))
    assert short["husband.MFARM"] == "MFARM"
    short2 = display_labels(("a.SAME", "b.SAME", "b.OTHER"))
    assert short2["a.SAME"] == "a.SAME"
    assert short2["b.SAME"] == "b.SAME"
    assert short2["b.OTHER"] == "OTHER"


def test_label_overflow_marker(run_and_macro):
    res, _ = run_and_macro
    svg = render_map(res, cell_size=40)  # room for 2 lines
    assert "more" in svg


def test_grey_palette_distinct_and_light_to_dark():
    greys = grey_palette(5)
    assert len(set(greys)) == 5
    values = [int(g[1:3], 16) for g in greys]
    assert values == sorted(values, reverse=True)


def test_render_spec_validation(run_and_macro):
    res, _ = run_and_macro
    with pytest.raises(RenderError):
        render_map(res, cell_size=10)


def test_render_text_grid(run_and_macro):
    res, macro = run_and_macro
    txt = render_text(res, macro)
    assert txt.count("+") >= 16  # box corners of a 3x3 grid
    assert "MFARM" in txt
    assert "#" in txt  # macro class tag line
    plain = render_text(res)
    assert "MFARM" in plain


def test_render_text_marks_individual_counts(run_and_macro):
    res, _ = run_and_macro
    txt = render_text(res)
    # per-unit individual totals appear as "N ind"
    assert re.search(r"\d+ ind", txt)
