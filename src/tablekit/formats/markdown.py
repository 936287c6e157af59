"""Pipe-table Markdown: header row, separator, data rows. No spans."""

from __future__ import annotations

import re

from ..core import Table, expand_grid
from .common import ParseError, RawCell, RowBuffer, UnrepresentableInFormat, assemble, refuse

_SEPARATOR_CELL = re.compile(r"^:?-+:?$")


def _split_row(line: str) -> list[str]:
    """Split on unescaped pipes; unescape \\| and \\\\ inside cells."""
    cells: list[str] = []
    current: list[str] = []
    i = 0
    while i < len(line):
        ch = line[i]
        if ch == "\\" and i + 1 < len(line) and line[i + 1] in ("|", "\\"):
            current.append(line[i + 1])
            i += 2
            continue
        if ch == "|":
            cells.append("".join(current).strip())
            current = []
            i += 1
            continue
        current.append(ch)
        i += 1
    cells.append("".join(current).strip())
    # leading/trailing pipes produce empty edge fields
    if cells and cells[0] == "" and line.lstrip().startswith("|"):
        cells = cells[1:]
    if cells and cells[-1] == "" and line.rstrip().endswith("|") and not line.rstrip().endswith("\\|"):
        cells = cells[:-1]
    return cells


def _is_separator(cells: list[str]) -> bool:
    return bool(cells) and all(_SEPARATOR_CELL.match(c) for c in cells if c) and any(c for c in cells)


def parse_markdown(src: str, *, tolerant: bool = False) -> tuple[Table, list[str]]:
    # lines end at "\n" only (not where str.splitlines ends them), so a cell keeps U+2028
    lines = [ln.strip() for ln in src.split("\n")]

    table_lines: list[str] = []
    if tolerant:
        # first contiguous block of pipe lines, junk around it dropped
        for ln in lines:
            if "|" in ln:
                table_lines.append(ln)
            elif table_lines:
                break
    else:
        for idx, ln in enumerate(lines):
            if ln == "":
                continue
            if "|" not in ln:
                raise ParseError(f"line {idx + 1}", "not a table row")
            table_lines.append(ln)

    if not table_lines:
        raise ParseError("input", "no table rows found")

    rows: list[list[str]] = []
    for pos, ln in enumerate(table_lines):
        cells = _split_row(ln)
        if _is_separator(cells):
            if pos != 1:
                refuse(tolerant, f"line {pos + 1}", "separator row out of place")
            continue
        if pos == 1:
            refuse(tolerant, "line 2", "missing separator row")
        rows.append(cells)

    if not rows:
        raise ParseError("input", "no data rows found")
    if len(table_lines) < 2:
        refuse(tolerant, "input", "missing separator row")

    buffer = RowBuffer([[RawCell(content=c, is_header=(i == 0)) for c in cells] for i, cells in enumerate(rows)])
    return assemble(buffer, tolerant=tolerant, skip_occupied=True), buffer.warnings


def _escape_cell(text: str) -> str:
    return text.replace("\\", "\\\\").replace("|", "\\|").replace("\n", " ")


def serialize_markdown(table: Table) -> str:
    """Canonical pipe table. Row 1 becomes the header line; merged cells and
    captions have no representation here."""
    grid = expand_grid(table)
    if table.has_spans():
        raise UnrepresentableInFormat("markdown cannot express merged cells")
    lines = []
    for r in range(1, table.n_rows + 1):
        cells = [_escape_cell(a.content) for a in grid.row(r)]
        lines.append("| " + " | ".join(cells) + " |")
        if r == 1:
            lines.append("| " + " | ".join(["---"] * table.n_cols) + " |")
    return "\n".join(lines)
