"""Style sampling, layout geometry, SVG determinism, raster plumbing."""

from __future__ import annotations

import json
import math
import random
import re
import xml.etree.ElementTree as ET
from importlib import resources

import pytest

from tablekit.core import AnchorCell, Table, table_from_dict
from tablekit.render import (
    DEFAULT_STYLE_MIX,
    Box,
    CommandRasterizer,
    MIN_COL_WIDTH,
    RasterizerUnavailable,
    StyleFamily,
    StyleMix,
    StyleSpec,
    layout,
    raster_dimensions,
    rasterize,
    render_svg,
    sample_style,
)
from tablekit.textmetrics import line_height, paragraph_advances, text_width, wrap_text

import oracles
from oracles import random_table_dict

SVG_NS = "{http://www.w3.org/2000/svg}"


def style(**overrides) -> StyleSpec:
    base = dict(
        family=StyleFamily.WEB_PAGE,
        font_family="Arial",
        font_size=12,
        header_fill="#e8ecf3",
        zebra_fill=None,
        border_width=1,
        cell_padding=4,
        max_col_width=200,
    )
    base.update(overrides)
    return StyleSpec(**base)


def two_by_two(**kw) -> Table:
    return Table(2, 2, (
        AnchorCell(1, 1, content="h1", is_header=True),
        AnchorCell(1, 2, content="h2", is_header=True),
        AnchorCell(2, 1, content="a"),
        AnchorCell(2, 2, content="b"),
    ), **kw)


# ----------------------------------------------------------------- styles


def test_style_spec_validation():
    with pytest.raises(ValueError):
        style(font_size=0)
    with pytest.raises(ValueError):
        style(header_fill="red")
    with pytest.raises(ValueError):
        style(header_fill="#GGGGGG")
    with pytest.raises(ValueError):
        style(max_col_width=8, cell_padding=4)


def test_style_mix_validation():
    with pytest.raises(ValueError):
        StyleMix({StyleFamily.WEB_PAGE: 0.5, StyleFamily.EXCEL: 0.4})
    with pytest.raises(ValueError):
        StyleMix({StyleFamily.WEB_PAGE: 1.5, StyleFamily.EXCEL: -0.5})
    assert sum(w for _, w in DEFAULT_STYLE_MIX.ordered()) == pytest.approx(1.0, abs=1e-9)


def test_sample_style_deterministic():
    for seed in (0, 1, 77, 123456):
        a = sample_style(DEFAULT_STYLE_MIX, seed)
        b = sample_style(DEFAULT_STYLE_MIX, seed)
        assert a == b
    specs = {sample_style(DEFAULT_STYLE_MIX, s) for s in range(50)}
    assert len(specs) > 10


def test_sample_style_respects_degenerate_mix():
    mix = StyleMix({StyleFamily.EXCEL: 1.0})
    for seed in range(30):
        assert sample_style(mix, seed).family is StyleFamily.EXCEL


def test_sample_style_mix_frequencies():
    counts = {f: 0 for f in StyleFamily}
    n = 10_000
    for seed in range(n):
        counts[sample_style(DEFAULT_STYLE_MIX, seed).family] += 1
    assert abs(counts[StyleFamily.WEB_PAGE] / n - 0.708) < 0.015
    assert abs(counts[StyleFamily.EXCEL] / n - 0.194) < 0.015
    assert abs(counts[StyleFamily.MARKDOWN] / n - 0.098) < 0.015


# ----------------------------------------------------------------- layout


def test_layout_column_width_tracks_content():
    s = style()
    narrow = Table(1, 1, (AnchorCell(1, 1, content="ab"),))
    wide = Table(1, 1, (AnchorCell(1, 1, content="a much longer cell"),))
    w_narrow = layout(narrow, s).col_widths[0]
    w_wide = layout(wide, s).col_widths[0]
    assert w_narrow < w_wide <= s.max_col_width
    assert w_narrow >= MIN_COL_WIDTH


def test_layout_clamps_to_max_col_width_and_wraps():
    s = style(max_col_width=80)
    table = Table(1, 1, (AnchorCell(1, 1, content="word " * 30),))
    plan = layout(table, s)
    assert plan.col_widths[0] == 80
    assert len(plan.wrapped[0]) > 1
    # row height follows the wrapped line count
    assert plan.row_heights[0] == len(plan.wrapped[0]) * line_height(s.font_size) + 2 * s.cell_padding


def test_layout_spanned_box_covers_columns_plus_border():
    s = style()
    table = Table(2, 2, (
        AnchorCell(1, 1, col_span=2, content="wide"),
        AnchorCell(2, 1, content="a"),
        AnchorCell(2, 2, content="b"),
    ))
    plan = layout(table, s)
    w1, w2 = plan.col_widths
    box = dict(plan.boxes)[table.anchors[0]]
    assert box.w == w1 + w2 + s.border_width


def test_layout_boxes_disjoint_and_inside_total():
    rng = random.Random(3210)
    s = style()
    for _ in range(60):
        table = table_from_dict(random_table_dict(rng))
        plan = layout(table, s)
        tw, th = plan.total_size
        boxes = [b for _, b in plan.boxes]
        for b in boxes:
            assert 0 <= b.x and b.x + b.w <= tw
            assert 0 <= b.y and b.y + b.h <= th
        for i, b1 in enumerate(boxes):
            for b2 in boxes[i + 1:]:
                overlap_w = min(b1.x + b1.w, b2.x + b2.w) - max(b1.x, b2.x)
                overlap_h = min(b1.y + b1.h, b2.y + b2.h) - max(b1.y, b2.y)
                assert overlap_w <= 0 or overlap_h <= 0, (b1, b2)


def test_layout_caption_only_for_web_page():
    table = two_by_two(caption="a caption")
    assert layout(table, style()).caption_height > 0
    assert layout(table, style(family=StyleFamily.EXCEL)).caption_height == 0
    assert layout(table, style(family=StyleFamily.MARKDOWN, font_family="Menlo")).caption_height == 0


def test_wrap_text_breaks_at_word_boundaries():
    lines = wrap_text("alpha beta gamma", "Arial", 12, text_width("alpha beta", "Arial", 12) + 1)
    assert lines == ["alpha beta", "gamma"]
    # unbreakable word gets hard-broken rather than overflowing
    lines2 = wrap_text("aaaaaaaaaaaaaaaaaaaaaaaa", "Arial", 12, 40)
    assert len(lines2) > 1
    assert all(text_width(ln, "Arial", 12) <= 40 for ln in lines2)


def _style_fonts() -> list[str]:
    data = json.loads(resources.files("tablekit.data").joinpath("default_styles.json").read_text())
    fonts = sorted({f for fam in data["families"].values() for f in fam["fonts"]})
    return fonts + ["Some Unlisted Face"]


_TEXT_ALPHABET = "aeimnrstwW0123456789.,-_!@%" + "éß€中Ω" + "  " + "\n"


def _random_text(rng: random.Random) -> str:
    """Words of 0-20 characters (long runs exceed narrow limits), runs of
    spaces, newlines and non-ASCII characters."""
    parts = []
    for _ in range(rng.randint(0, 8)):
        parts.append("".join(rng.choice(_TEXT_ALPHABET) for _ in range(rng.randint(0, 20))))
    return rng.choice(["", " ", "  "]).join(parts)


def _limits(rng: random.Random, text: str, font: str, size) -> list[float]:
    """Random limits, and limits at which a candidate line is exactly as wide
    as the limit or one float step either side of it."""
    limits = [rng.uniform(1, 300), rng.randint(1, 120), 1]
    words = text.split("\n")[0].split(" ")
    k = rng.randint(1, len(words))
    exact = oracles.text_width(" ".join(words[:k]), font, size)
    if exact > 0:
        limits += [exact, math.nextafter(exact, 0), math.nextafter(exact, math.inf)]
    return limits


def test_text_metrics_match_the_per_character_oracle():
    rng = random.Random(9001)
    for font in _style_fonts():
        for size in (10, 11, 12, 13, 14, 16, 11.5, 12.25):
            chars = _TEXT_ALPHABET.replace("\n", "") + "~{}"
            assert paragraph_advances(chars, font, size) == [[oracles.char_advance(ch, font, size) for ch in chars]]
            for _ in range(16):
                text = _random_text(rng)
                assert text_width(text, font, size) == oracles.text_width(text, font, size)
                for limit in _limits(rng, text, font, size):
                    assert wrap_text(text, font, size, limit) == oracles.wrap_text(
                        text, font, size, limit
                    ), (text, font, size, limit)


# -------------------------------------------------------------------- svg


def parse_svg(svg: str) -> ET.Element:
    return ET.fromstring(svg)


def test_render_svg_deterministic_and_counts():
    table = two_by_two(caption="numbers")
    s = style()
    svg1 = render_svg(table, s)
    svg2 = render_svg(table, s)
    assert svg1 == svg2
    root = parse_svg(svg1)
    rects = root.findall(f"{SVG_NS}rect")
    texts = root.findall(f"{SVG_NS}text")
    assert len(rects) == len(table.anchors)
    assert len(texts) == len(table.anchors) + 1  # + caption
    assert texts[0].get("class") == "caption"


def test_render_svg_row_major_rect_order():
    table = Table(2, 2, (
        AnchorCell(2, 2, content="d"), AnchorCell(1, 1, content="a"),
        AnchorCell(2, 1, content="c"), AnchorCell(1, 2, content="b"),
    ))
    root = parse_svg(render_svg(table, style()))
    rects = root.findall(f"{SVG_NS}rect")
    ys = [int(r.get("y")) for r in rects]
    xs = [int(r.get("x")) for r in rects]
    assert ys == sorted(ys)
    assert xs[0] < xs[1] and xs[2] < xs[3]


def test_render_svg_header_and_zebra_fills():
    table = Table(3, 1, (
        AnchorCell(1, 1, content="h", is_header=True),
        AnchorCell(2, 1, content="d1"),
        AnchorCell(3, 1, content="d2"),
    ))
    s = style(zebra_fill="#f5f7fa")
    rects = parse_svg(render_svg(table, s)).findall(f"{SVG_NS}rect")
    assert rects[0].get("fill") == s.header_fill
    assert rects[1].get("fill") == "#ffffff"  # first data row plain
    assert rects[2].get("fill") == s.zebra_fill  # second data row striped


def test_render_svg_markdown_rules_only():
    table = two_by_two(caption="hidden in markdown")
    s = style(family=StyleFamily.MARKDOWN, font_family="Menlo", zebra_fill=None)
    root = parse_svg(render_svg(table, s))
    rects = root.findall(f"{SVG_NS}rect")
    assert all(r.get("stroke") is None for r in rects)
    lines = root.findall(f"{SVG_NS}line")
    assert len(lines) == table.n_rows + 1
    assert len(root.findall(f"{SVG_NS}text")) == len(table.anchors)  # no caption text


def test_render_svg_escapes_content():
    table = Table(1, 1, (AnchorCell(1, 1, content='a<b & "c"'),))
    svg = render_svg(table, style())
    assert "a&lt;b &amp; &quot;c&quot;" in svg
    parse_svg(svg)  # well-formed XML


def test_render_svg_dimensions_match_layout():
    table = two_by_two()
    s = style()
    plan = layout(table, s)
    root = parse_svg(render_svg(table, s))
    assert int(root.get("width")) == plan.total_size[0]
    assert int(root.get("height")) == plan.total_size[1]


def test_styles_change_output():
    table = two_by_two()
    assert render_svg(table, style()) != render_svg(table, style(font_size=14))


# ------------------------------------------------------------------ raster


def test_rasterize_without_backend_raises():
    svg = render_svg(two_by_two(), style())
    with pytest.raises(RasterizerUnavailable):
        rasterize(svg)


def test_raster_dimensions_scaling():
    svg = '<svg xmlns="http://www.w3.org/2000/svg" width="96" height="50" viewBox="0 0 96 50"></svg>'
    assert raster_dimensions(svg, 96) == (96, 50)
    assert raster_dimensions(svg, 144) == (144, 75)
    assert raster_dimensions(svg, 100) == (100, 53)  # ceil(50 * 100/96) = ceil(52.08)


@pytest.mark.parametrize("dpi", [0, -96])
def test_a_dpi_below_one_is_refused_before_the_backend_runs(dpi):
    svg = render_svg(two_by_two(), style())
    calls = []
    with pytest.raises(ValueError, match="dpi must be >= 1"):
        raster_dimensions(svg, dpi)
    with pytest.raises(ValueError, match="dpi must be >= 1"):
        rasterize(svg, dpi=dpi, backend=lambda *args: calls.append(args) or b"PNGDATA")
    assert calls == []


def test_rasterize_calls_backend_with_scaled_dims():
    svg = render_svg(two_by_two(), style())
    seen = {}

    def backend(text, width, height, dpi):
        seen.update(width=width, height=height, dpi=dpi)
        return b"PNGDATA"

    out = rasterize(svg, dpi=192, backend=backend)
    assert out == b"PNGDATA"
    expect = raster_dimensions(svg, 192)
    assert (seen["width"], seen["height"]) == expect


def test_command_rasterizer_round_trip(tmp_path):
    script = tmp_path / "fake_raster.py"
    script.write_text(
        "import sys, shutil\n"
        "src, dst, w = sys.argv[1], sys.argv[2], sys.argv[3]\n"
        "open(dst, 'wb').write(b'PNG' + w.encode())\n"
    )
    backend = CommandRasterizer(f"python3 {script} {{input}} {{output}} {{width}}")
    svg = render_svg(two_by_two(), style())
    out = rasterize(svg, dpi=96, backend=backend)
    w, _ = raster_dimensions(svg, 96)
    assert out == b"PNG" + str(w).encode()


@pytest.mark.parametrize("template, reason", [
    ("echo {inptu} {output}", "unknown placeholder {inptu}"),
    ("echo {output:{bogus}}", "unknown placeholder {bogus}"),
    ("echo {} {output}", "Replacement index 0 out of range"),
    ("echo { {output}", "Single '{' encountered in format string"),
    ("echo {dpi:q} {output}", "Unknown format code 'q'"),
    ("", "names no command"),
    ("  ", "names no command"),
])  # fmt: skip
def test_command_rasterizer_refuses_a_template_that_does_not_format(template, reason):
    with pytest.raises(ValueError, match=re.escape(f"raster command template {template!r}: {reason}")):
        CommandRasterizer(template)


def test_command_rasterizer_missing_command():
    backend = CommandRasterizer("definitely-not-a-real-binary {input} {output}")
    svg = render_svg(two_by_two(), style())
    with pytest.raises(RasterizerUnavailable):
        rasterize(svg, backend=backend)
