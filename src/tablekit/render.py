"""Deterministic table rendering: style sampling, layout, SVG, rasterization.

The SVG route is canonical and byte-stable for a given (table, style).
Rasterization is delegated to a pluggable backend so the toolkit itself
never depends on a native graphics stack.
"""

from __future__ import annotations

import enum
import functools
import json
import math
import random
import re
import subprocess
import tempfile
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Callable, Mapping, NamedTuple

from .core import AnchorCell, Table, expand_grid
from .numeric import check_weights, left_sum
from .textmetrics import line_height, paragraph_advances, wrap_measured, wrap_text

MIN_COL_WIDTH = 24

_COLOR = re.compile(r"^#[0-9a-f]{6}$")


class RasterizerUnavailable(RuntimeError):
    """No raster backend is configured or the configured one cannot run."""


class StyleFamily(enum.Enum):
    WEB_PAGE = "web_page"
    EXCEL = "excel"
    MARKDOWN = "markdown"


@dataclass(frozen=True)
class StyleSpec:
    family: StyleFamily
    font_family: str
    font_size: int  # points
    header_fill: str
    zebra_fill: str | None
    border_width: int
    cell_padding: int
    max_col_width: int

    def __post_init__(self) -> None:
        if self.font_size <= 0:
            raise ValueError(f"font_size must be > 0, got {self.font_size}")
        if self.border_width < 0 or self.cell_padding < 0:
            raise ValueError("border_width and cell_padding must be >= 0")
        if self.max_col_width <= 2 * self.cell_padding:
            raise ValueError("max_col_width must exceed twice the cell padding")
        for color in (self.header_fill, self.zebra_fill):
            if color is not None and not _COLOR.match(color):
                raise ValueError(f"colors must be #rrggbb, got {color!r}")


@dataclass(frozen=True)
class StyleMix:
    weights: Mapping[StyleFamily, float]

    def __post_init__(self) -> None:
        check_weights(self.weights, "style_mix")

    def ordered(self) -> list[tuple[StyleFamily, float]]:
        return [(f, self.weights.get(f, 0.0)) for f in StyleFamily]


DEFAULT_STYLE_MIX = StyleMix(
    {StyleFamily.WEB_PAGE: 0.708, StyleFamily.EXCEL: 0.194, StyleFamily.MARKDOWN: 0.098}
)

# what sample_style reads from a family's ranges: the lists it draws one
# value from, and the [low, high] integers it draws one integer between, each
# by the StyleSpec field it fills
_STYLE_CHOICES = {
    "fonts": "font_family",
    "header_fills": "header_fill",
    "zebra_fills": "zebra_fill",
    "border_widths": "border_width",
}
_STYLE_RANGES = {"font_size": "font_size", "cell_paddings": "cell_padding", "max_col_widths": "max_col_width"}


def _check_family(family: StyleFamily, cfg: object) -> None:
    """Raises ValueError unless every style sample_style can draw from cfg is
    one that StyleSpec accepts."""
    if not isinstance(cfg, dict):
        raise ValueError(f"family {family.value!r} must be an object")
    for key in (*_STYLE_CHOICES, *_STYLE_RANGES, "zebra_probability"):
        if key not in cfg:
            raise ValueError(f"family {family.value!r} lacks {key!r}")
    for key in _STYLE_CHOICES:
        if not isinstance(cfg[key], list) or not (cfg[key] or key == "zebra_fills"):
            raise ValueError(f"family {family.value!r}: {key} must be a list of choices")
    for key in _STYLE_RANGES:
        ends = cfg[key]
        if not (isinstance(ends, list) and len(ends) == 2 and all(type(v) is int for v in ends) and ends[0] <= ends[1]):
            raise ValueError(f"family {family.value!r}: {key} must be [low, high] integers")
    if not all(isinstance(font, str) for font in cfg["fonts"]):
        raise ValueError(f"family {family.value!r}: fonts must be strings")
    if type(cfg["zebra_probability"]) not in (int, float):
        raise ValueError(f"family {family.value!r}: zebra_probability must be a number")
    # StyleSpec checks each field alone, but for the column width against the
    # padding: so try every value of one field at a time, from the widest
    # padding with the narrowest column
    base = {field: cfg[key][0] for key, field in _STYLE_RANGES.items()}
    base["cell_padding"] = cfg["cell_paddings"][1]
    base.update((field, cfg[key][0] if cfg[key] else None) for key, field in _STYLE_CHOICES.items())
    try:
        for key, field in (*_STYLE_CHOICES.items(), *_STYLE_RANGES.items()):
            for value in cfg[key]:
                StyleSpec(family, **{**base, field: value})
    except (TypeError, ValueError) as exc:
        raise ValueError(f"family {family.value!r}: {exc}")


def load_style_ranges(path: str | Path) -> dict:
    """The style ranges of a JSON file, once every family's draws are sound."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(data, dict) or not isinstance(data.get("families"), dict):
        raise ValueError("style config must have a 'families' section")
    for fam in StyleFamily:
        if fam.value not in data["families"]:
            raise ValueError(f"style config missing family {fam.value!r}")
        _check_family(fam, data["families"][fam.value])
    return data


@functools.cache
def default_style_ranges() -> dict:
    """The shipped style ranges, read and checked once."""
    return load_style_ranges(resources.files("tablekit.data").joinpath("default_styles.json"))


def sample_style(mix: StyleMix, seed: int, ranges: dict | None = None) -> StyleSpec:
    """Draw one style deterministically from per-family parameter ranges."""
    ranges = ranges or default_style_ranges()
    rng = random.Random(seed)
    families, weights = zip(*mix.ordered())
    family = rng.choices(families, weights=weights, k=1)[0]
    cfg = ranges["families"][family.value]
    font = rng.choice(cfg["fonts"])
    size = rng.randint(cfg["font_size"][0], cfg["font_size"][1])
    header_fill = rng.choice(cfg["header_fills"])
    zebra = None
    if cfg["zebra_fills"] and rng.random() < cfg["zebra_probability"]:
        zebra = rng.choice(cfg["zebra_fills"])
    border = rng.choice(cfg["border_widths"])
    padding = rng.randint(cfg["cell_paddings"][0], cfg["cell_paddings"][1])
    max_col = rng.randint(cfg["max_col_widths"][0], cfg["max_col_widths"][1])
    return StyleSpec(
        family=family,
        font_family=font,
        font_size=size,
        header_fill=header_fill,
        zebra_fill=zebra,
        border_width=border,
        cell_padding=padding,
        max_col_width=max_col,
    )


class Box(NamedTuple):
    x: int
    y: int
    w: int
    h: int


@dataclass(frozen=True)
class LayoutPlan:
    col_widths: tuple[int, ...]
    row_heights: tuple[int, ...]
    boxes: tuple[tuple[AnchorCell, Box], ...]  # row-major
    wrapped: tuple[tuple[str, ...], ...]  # lines per anchor, aligned with boxes
    caption_lines: tuple[str, ...]
    caption_height: int
    total_size: tuple[int, int]


def layout(table: Table, style: StyleSpec) -> LayoutPlan:
    """Column widths from unwrapped text estimates (clamped), row heights from
    wrapped line counts. Spanned anchors wrap inside their combined extent and
    do not drive the per-column/per-row derivation."""
    grid = expand_grid(table)
    pad = style.cell_padding
    border = style.border_width
    lh = line_height(style.font_size)

    # each distinct cell text is measured once, for its width estimate and its wrap
    measured: dict[str, list[list[float]]] = {}
    estimates = [0.0] * table.n_cols
    for a in table.anchors:
        paragraphs = measured.get(a.content)
        if paragraphs is None:
            paragraphs = paragraph_advances(a.content, style.font_family, style.font_size)
            measured[a.content] = paragraphs
        if a.col_span == 1:
            # text_width(a.content, ...): the widest paragraph, unwrapped
            estimates[a.col - 1] = max(estimates[a.col - 1], *map(left_sum, paragraphs))
    widths = [
        max(MIN_COL_WIDTH, min(math.ceil(est) + 2 * pad, style.max_col_width)) for est in estimates
    ]

    xs = [border]  # left edge of each column, and the grid's right border
    for w in widths:
        xs.append(xs[-1] + w + border)

    anchors = grid.anchors()
    wrapped: list[tuple[str, ...]] = []
    n_lines = [1] * table.n_rows
    for a in anchors:
        avail = xs[a.col - 1 + a.col_span] - xs[a.col - 1] - border - 2 * pad
        lines = tuple(
            wrap_measured(
                a.content, measured[a.content], style.font_family, style.font_size, max(avail, 1)
            )
        )
        wrapped.append(lines)
        if a.row_span == 1:
            n_lines[a.row - 1] = max(n_lines[a.row - 1], len(lines))
    heights = [n * lh + 2 * pad for n in n_lines]

    grid_w = xs[-1]
    caption_lines: tuple[str, ...] = ()
    caption_height = 0
    if table.caption is not None and style.family is StyleFamily.WEB_PAGE:
        caption_lines = tuple(
            wrap_text(table.caption, style.font_family, style.font_size, max(grid_w - 2 * pad, 1))
        )
        caption_height = len(caption_lines) * lh + 2 * pad

    ys = [caption_height + border]  # top edge of each row, and the grid's bottom border
    for h in heights:
        ys.append(ys[-1] + h + border)

    boxes = tuple(
        (
            a,
            Box(
                xs[a.col - 1],
                ys[a.row - 1],
                xs[a.col - 1 + a.col_span] - xs[a.col - 1] - border,
                ys[a.row - 1 + a.row_span] - ys[a.row - 1] - border,
            ),
        )
        for a in anchors
    )

    return LayoutPlan(
        col_widths=tuple(widths),
        row_heights=tuple(heights),
        boxes=boxes,
        wrapped=tuple(wrapped),
        caption_lines=caption_lines,
        caption_height=caption_height,
        total_size=(grid_w, ys[-1]),
    )


_GRID_STROKE = {StyleFamily.WEB_PAGE: "#c4ccd4", StyleFamily.EXCEL: "#808080"}
_TEXT_COLOR = "#1c1e21"
_RULE_COLOR = "#9aa4ad"
_DATA_FILL = "#ffffff"


def _esc(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;").replace('"', "&quot;")
    )


def _header_row_count(table: Table) -> int:
    """How many leading rows hold header cells only."""
    count = 0
    for row in expand_grid(table).cells:
        if not all(a.is_header for a in row):
            break
        count += 1
    return count


def render_svg(table: Table, style: StyleSpec) -> str:
    """Byte-stable SVG: one rect and one text element per anchor, row-major;
    header fill on header cells, zebra fill on every second data row when set;
    the markdown family draws horizontal rules instead of cell borders; the
    caption is shown (centered, above the grid) for the web_page family only."""
    plan = layout(table, style)
    pad = style.cell_padding
    lh = line_height(style.font_size)
    total_w, total_h = plan.total_size
    header_rows = _header_row_count(table)
    is_md = style.family is StyleFamily.MARKDOWN

    out: list[str] = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{total_w}" height="{total_h}" '
        f'viewBox="0 0 {total_w} {total_h}">'
    )
    font_attr = f'font-family="{_esc(style.font_family)}" font-size="{style.font_size}pt"'

    if plan.caption_lines:
        spans = "".join(
            f'<tspan x="{total_w // 2}" y="{pad + (i + 1) * lh - lh // 4}">{_esc(line)}</tspan>'
            for i, line in enumerate(plan.caption_lines)
        )
        out.append(
            f'<text class="caption" text-anchor="middle" {font_attr} fill="{_TEXT_COLOR}">{spans}</text>'
        )

    stroke = _GRID_STROKE.get(style.family)
    stroke_attr = (
        f' stroke="{stroke}" stroke-width="{style.border_width}"' if stroke and not is_md else ""
    )
    for (a, box), lines in zip(plan.boxes, plan.wrapped):
        if a.is_header:
            fill = style.header_fill
        elif style.zebra_fill and (a.row - header_rows) % 2 == 0:
            fill = style.zebra_fill
        else:
            fill = _DATA_FILL
        out.append(
            f'<rect x="{box.x}" y="{box.y}" width="{box.w}" height="{box.h}" fill="{fill}"{stroke_attr}/>'
        )
        weight = ' font-weight="bold"' if a.is_header else ""
        spans = "".join(
            f'<tspan x="{box.x + pad}" y="{box.y + pad + (i + 1) * lh - lh // 4}">{_esc(line)}</tspan>'
            for i, line in enumerate(lines)
        )
        out.append(f'<text {font_attr}{weight} fill="{_TEXT_COLOR}">{spans}</text>')

    if is_md:
        # horizontal rules only, at every row boundary
        y = plan.caption_height
        rule = f'stroke="{_RULE_COLOR}" stroke-width="{style.border_width}"'
        out.append(f'<line x1="0" y1="{y}" x2="{total_w}" y2="{y}" {rule}/>')
        for h in plan.row_heights:
            y += h + style.border_width
            out.append(f'<line x1="0" y1="{y}" x2="{total_w}" y2="{y}" {rule}/>')

    out.append("</svg>")
    return "".join(out)


_SVG_SIZE = re.compile(r'<svg[^>]*\swidth="(\d+)"\s+height="(\d+)"')


def raster_dimensions(svg_text: str, dpi: int) -> tuple[int, int]:
    """Pixel dimensions of the raster output: ceil(css_size * dpi / 96).
    A dpi below 1 raises ValueError; every raster path comes through here."""
    if dpi < 1:
        raise ValueError(f"dpi must be >= 1, got {dpi}")
    m = _SVG_SIZE.search(svg_text)
    if not m:
        raise ValueError("svg has no width/height attributes")
    w, h = int(m.group(1)), int(m.group(2))
    return math.ceil(w * dpi / 96), math.ceil(h * dpi / 96)


RasterBackend = Callable[[str, int, int, int], bytes]


class CommandRasterizer:
    """Backend that shells out to an external converter.

    The template gets {input}, {output}, {width}, {height}, {dpi} substituted,
    e.g. "rsvg-convert -w {width} -h {height} -o {output} {input}". A
    template that names no command, or does not format with these five,
    such as one that names another placeholder, raises ValueError here,
    before any command runs.
    """

    def __init__(self, template: str):
        self.template = template
        if not template.split():
            raise ValueError(f"raster command template {template!r}: names no command")
        try:
            self._argv(input="table.svg", output="table.png", width=1, height=1, dpi=96)
        except KeyError as exc:
            raise ValueError(f"raster command template {template!r}: unknown placeholder {{{exc.args[0]}}}") from None
        except (AttributeError, IndexError, ValueError) as exc:
            raise ValueError(f"raster command template {template!r}: {exc}") from None

    def _argv(self, **fields: object) -> list[str]:
        return [part.format(**fields) for part in self.template.split()]

    def __call__(self, svg_text: str, width: int, height: int, dpi: int) -> bytes:
        with tempfile.TemporaryDirectory(prefix="tablekit-raster-") as tmp:
            src = Path(tmp) / "table.svg"
            dst = Path(tmp) / "table.png"
            src.write_text(svg_text, encoding="utf-8")
            cmd = self._argv(input=str(src), output=str(dst), width=width, height=height, dpi=dpi)
            try:
                proc = subprocess.run(cmd, capture_output=True, timeout=120)
            except FileNotFoundError as exc:
                raise RasterizerUnavailable(f"raster command not found: {cmd[0]}") from exc
            except subprocess.TimeoutExpired as exc:
                raise RasterizerUnavailable(f"raster command timed out: {cmd[0]}") from exc
            if proc.returncode != 0:
                detail = proc.stderr.decode(errors="replace")[:200]
                raise RasterizerUnavailable(f"raster command failed ({proc.returncode}): {detail}")
            if not dst.exists():
                raise RasterizerUnavailable("raster command produced no output file")
            return dst.read_bytes()


def rasterize(svg_text: str, dpi: int = 96, backend: RasterBackend | None = None) -> bytes:
    """Rasterize via the configured backend; raises RasterizerUnavailable
    when none is set so callers can degrade to SVG-only output."""
    if backend is None:
        raise RasterizerUnavailable("no raster backend configured")
    width, height = raster_dimensions(svg_text, dpi)
    return backend(svg_text, width, height, dpi)
