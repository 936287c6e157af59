"""Parsing, serialization and conversion across the supported table formats.

parse() is strict: it raises ParseError (with location and reason) and only
pads ragged right edges, recording a warning.  parse_tolerant() is the
tolerant route: it extracts the table portion from surrounding junk, repairs
spans and raggedness, and returns a valid Table or None instead of raising.
convert() is parse_tolerant() followed by serialize_html(), with the sentinel
empty table for unrecoverable input; each also returns the warnings.
"""

from __future__ import annotations

from pathlib import Path

from ..core import Table, expand_grid
from .common import (
    SENTINEL_HTML,
    ParseError,
    TableFormat,
    UnrepresentableInFormat,
    UnsupportedConstruct,
)
from .html import parse_html, serialize_html
from .latex import parse_latex, serialize_latex
from .markdown import parse_markdown, serialize_markdown

__all__ = [
    "TableFormat",
    "ParseError",
    "UnsupportedConstruct",
    "UnrepresentableInFormat",
    "SENTINEL_HTML",
    "parse",
    "parse_tolerant",
    "serialize",
    "convert",
    "detect_format",
    "sniff_format",
]

_PARSERS = {
    TableFormat.HTML: parse_html,
    TableFormat.MARKDOWN: parse_markdown,
    TableFormat.LATEX: parse_latex,
}

_SERIALIZERS = {
    TableFormat.HTML: serialize_html,
    TableFormat.MARKDOWN: serialize_markdown,
    TableFormat.LATEX: serialize_latex,
}

_EXTENSIONS = {
    ".html": TableFormat.HTML,
    ".htm": TableFormat.HTML,
    ".md": TableFormat.MARKDOWN,
    ".markdown": TableFormat.MARKDOWN,
    ".tex": TableFormat.LATEX,
}


def detect_format(path: str | Path) -> TableFormat | None:
    return _EXTENSIONS.get(Path(path).suffix.lower())


def sniff_format(table_text: str) -> TableFormat:
    """The format a table's text is written in, judged from the text alone.

    A leading "<" means HTML and a leading "|" Markdown, whatever the cells
    hold; otherwise a \\begin{tabular} anywhere means LaTeX.
    """
    head = table_text.lstrip()[:1]
    if head == "<":
        return TableFormat.HTML
    if head == "|":
        return TableFormat.MARKDOWN
    if "\\begin{tabular}" in table_text:
        return TableFormat.LATEX
    return TableFormat.MARKDOWN


def parse(src: str, fmt: TableFormat) -> tuple[Table, list[str]]:
    """Strict parse of one table in the given format, with its warnings."""
    return _PARSERS[fmt](src, tolerant=False)


def serialize(table: Table, fmt: TableFormat) -> str:
    """Deterministic canonical text for a valid table."""
    return _SERIALIZERS[fmt](table)


def parse_tolerant(src: str, fmt: TableFormat) -> tuple[Table | None, list[str]]:
    """Tolerant parse: the valid table recovered from possibly messy input,
    or None, with the parser's warnings. Never raises on string input. The
    one place a failed tolerant parse (a ParseError too) becomes None; the
    warnings then give the reason."""
    try:
        table, warnings = _PARSERS[fmt](src, tolerant=True)
        expand_grid(table)  # raises InvalidTable if the repair left no tiling
    except (RecursionError, ValueError) as exc:
        return None, [f"tolerant parse failed: {exc}"]
    return table, warnings


def convert(src: str, from_fmt: TableFormat) -> tuple[str, list[str]]:
    """Tolerant conversion of possibly messy input into canonical HTML, with
    the warnings; SENTINEL_HTML exactly when no table was recovered.

    Idempotent on its own output. Never raises on string input.
    """
    if not isinstance(src, str):
        return SENTINEL_HTML, ["input is not text"]
    table, warnings = parse_tolerant(src, from_fmt)
    if table is None:
        return SENTINEL_HTML, warnings + ["no table recovered"]
    return serialize_html(table), warnings
