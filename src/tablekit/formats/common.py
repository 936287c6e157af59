"""Shared plumbing for the textual table formats."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..core import MAX_COLS, MAX_ROWS, AnchorCell, Table

SENTINEL_HTML = "<table></table>"


class TableFormat(enum.Enum):
    HTML = "html"
    MARKDOWN = "markdown"
    LATEX = "latex"


class ParseError(ValueError):
    """Strict parsing failed: unbalanced structure, unfixable raggedness,
    span attributes that break the tiling, or a table past the size limit."""

    def __init__(self, location: str, reason: str):
        self.location = location
        self.reason = reason
        super().__init__(f"{location}: {reason}")

    def __reduce__(self):
        # rebuilt from both arguments, so that one raised in a synth shard
        # process reaches the caller as itself
        return type(self), (self.location, self.reason)


class UnsupportedConstruct(ParseError):
    """Input uses a construct outside the supported subset (e.g. nested tables)."""


class UnrepresentableInFormat(ValueError):
    """The table cannot be expressed in the requested format."""


@dataclass
class RawCell:
    content: str
    row_span: int = 1
    col_span: int = 1
    is_header: bool = False


@dataclass
class RowBuffer:
    """Accumulates source rows before grid placement."""

    rows: list[list[RawCell]] = field(default_factory=list)
    caption: str | None = None
    warnings: list[str] = field(default_factory=list)


def refuse(tolerant: bool, location: str, reason: str, error: type[ParseError] = ParseError) -> None:
    """The one decision between the modes: strict mode raises error at
    location for reason, tolerant mode returns, and the caller repairs."""
    if not tolerant:
        raise error(location, reason)


def _free_column(line: list[AnchorCell | None], c: int, col_span: int) -> int:
    """Leftmost column from c where a cell col_span wide covers no occupied
    position of line, its row's list in assemble's grid.

    The cell's own row is enough for a cell of any row span: cells are
    placed row by row, left to right, so a position right of the cursor that
    is occupied in a later row belongs to a span from an earlier row, which
    covers this row in the same column."""
    cc = c
    while cc < c + col_span and cc <= len(line):
        if line[cc - 1] is not None:
            c = cc + 1
        cc += 1
    return c


def assemble(buffer: RowBuffer, *, tolerant: bool, skip_occupied: bool = True) -> Table:
    """Place source cells onto the grid left to right, top to bottom.

    With skip_occupied (HTML semantics) a cell slides right past positions
    covered by spans from above.  Without it (LaTeX semantics) the source is
    expected to carry empty placeholder cells at covered positions, which are
    consumed instead of placed.  Either way a cell then slides right until
    none of the positions it would cover is occupied, so the result never
    overlaps.

    Strict mode raises ParseError for spans below 1 or past the last row, for
    placeholder collisions, for a cell that had to slide, for interior gaps
    and for a table past MAX_ROWS x MAX_COLS; tolerant mode repairs each of
    them.  No position past the limit is ever marked.  Ragged right edges are
    padded with empty cells and recorded as warnings in both modes, and a
    buffer with no rows is a ParseError in both.
    """
    rows = buffer.rows
    warn = buffer.warnings
    if len(rows) > MAX_ROWS:
        refuse(tolerant, "table", f"more than {MAX_ROWS} rows")
        warn.append(f"table truncated to {MAX_ROWS} rows")
        rows = rows[:MAX_ROWS]
    n_rows = len(rows)
    if n_rows == 0:
        raise ParseError("table", "no rows found")

    # grid[r - 1][c - 1] is the anchor covering (r, c), None where none does;
    # each row's list ends at its rightmost covered column
    grid: list[list[AnchorCell | None]] = [[] for _ in rows]
    for r, row in enumerate(rows, 1):
        line = grid[r - 1]
        c = 1
        for cell in row:
            row_span = cell.row_span
            col_span = cell.col_span
            if row_span < 1 or col_span < 1:
                refuse(tolerant, f"row {r}", f"span must be >= 1 at column {c}")
                row_span = max(1, row_span)
                col_span = max(1, col_span)

            if skip_occupied:
                while c <= len(line) and line[c - 1] is not None:
                    c += 1
            elif c <= len(line) and line[c - 1] is not None:
                # LaTeX continuation slot: must hold an empty placeholder
                if cell.content == "" and row_span == 1:
                    c += col_span
                    continue
                refuse(tolerant, f"row {r}", f"overlapping span at column {c}")

            if row_span > n_rows - r + 1:
                refuse(tolerant, f"row {r}", f"row span runs past the last row at column {c}")
                row_span = n_rows - r + 1
            free = _free_column(line, c, col_span)
            if free != c:
                refuse(tolerant, f"row {r}", f"overlapping span at column {c}")
                c = free
            if c + col_span - 1 > MAX_COLS:
                refuse(tolerant, f"row {r}", f"cells beyond column {MAX_COLS}")
                if c > MAX_COLS:
                    warn.append(f"cells beyond column {MAX_COLS} dropped")
                    break
                col_span = MAX_COLS - c + 1
            anchor = AnchorCell(r, c, row_span, col_span, cell.content, cell.is_header)
            end = c + col_span - 1
            for covered in grid[r - 1 : r - 1 + row_span]:
                covered.extend([None] * (end - len(covered)))
                covered[c - 1 : end] = [anchor] * col_span
            c += col_span

    # pad each row to the widest: trailing runs are ordinary raggedness,
    # interior holes are a structural fault in strict mode
    n_cols = max(map(len, grid)) or 1
    anchors: list[AnchorCell] = []
    padded = False
    for r, line in enumerate(grid, 1):
        covered_to = len(line)
        line.extend([None] * (n_cols - covered_to))
        for c, anchor in enumerate(line, 1):
            if anchor is None:
                if c < covered_to:
                    refuse(tolerant, f"row {r}", f"gap at column {c} cannot be padded")
                anchors.append(AnchorCell(r, c))
                padded = True
            elif anchor.col == c and anchor.row == r:
                anchors.append(anchor)
    if padded:
        warn.append("ragged rows padded with empty cells")

    return Table(n_rows=n_rows, n_cols=n_cols, anchors=tuple(anchors), caption=buffer.caption)
