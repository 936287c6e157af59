"""Shared plumbing for the textual table formats."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..core import AnchorCell, Table

SENTINEL_HTML = "<table></table>"

# tolerant-mode guard rails so arbitrary junk can never allocate huge grids
MAX_SPAN = 1000
MAX_ROWS = 512
MAX_COLS = 512


class TableFormat(enum.Enum):
    HTML = "html"
    MARKDOWN = "markdown"
    LATEX = "latex"


class ParseError(ValueError):
    """Strict parsing failed: unbalanced structure, unfixable raggedness,
    or span attributes that break the tiling."""

    def __init__(self, location: str, reason: str):
        self.location = location
        self.reason = reason
        super().__init__(f"{location}: {reason}")


class UnsupportedConstruct(ParseError):
    """Input uses a construct outside the supported subset (e.g. nested tables)."""


class UnrepresentableInFormat(ValueError):
    """The table cannot be expressed in the requested format."""


@dataclass(frozen=True)
class ParseDiagnostics:
    warnings: tuple[str, ...] = ()
    recovered: bool = True


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


def _free_column(occupied: dict[tuple[int, int], AnchorCell], r: int, c: int, col_span: int) -> int:
    """Leftmost column from c where a cell col_span wide covers no occupied
    position of row r.

    Row r is enough for a cell of any row span: cells are placed row by row,
    left to right, so a position right of the cursor that is occupied in a
    later row belongs to a span from an earlier row, which covers row r in
    the same column."""
    cc = c
    while cc < c + col_span:
        if (r, cc) in occupied:
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
    placeholder collisions, for a cell that had to slide and for interior
    gaps; tolerant mode repairs each of them.  Ragged right edges are padded
    with empty cells and recorded as warnings in both modes, and a buffer
    with no rows is a ParseError in both.
    """
    rows = buffer.rows
    warn = buffer.warnings
    if tolerant and len(rows) > MAX_ROWS:
        warn.append(f"table truncated to {MAX_ROWS} rows")
        rows = rows[:MAX_ROWS]
    n_rows = len(rows)
    if n_rows == 0:
        raise ParseError("table", "no rows found")

    occupied: dict[tuple[int, int], AnchorCell] = {}
    anchors: list[AnchorCell] = []

    for r0, row in enumerate(rows):
        r = r0 + 1
        c = 1
        for cell in row:
            row_span = cell.row_span
            col_span = cell.col_span
            if row_span < 1 or col_span < 1:
                refuse(tolerant, f"row {r}", f"span must be >= 1 at column {c}")
                row_span = max(1, row_span)
                col_span = max(1, col_span)
            if tolerant:
                row_span = min(row_span, MAX_SPAN)
                col_span = min(col_span, MAX_SPAN)

            if skip_occupied:
                while (r, c) in occupied:
                    c += 1
            elif (r, c) in occupied:
                # LaTeX continuation slot: must hold an empty placeholder
                if cell.content == "" and row_span == 1:
                    c += col_span
                    continue
                refuse(tolerant, f"row {r}", f"overlapping span at column {c}")

            if row_span > n_rows - r + 1:
                refuse(tolerant, f"row {r}", f"row span runs past the last row at column {c}")
                row_span = n_rows - r + 1
            free = _free_column(occupied, r, c, col_span)
            if free != c:
                refuse(tolerant, f"row {r}", f"overlapping span at column {c}")
                c = free
            if tolerant and c + col_span - 1 > MAX_COLS:
                col_span = max(1, MAX_COLS - c + 1)
                if c > MAX_COLS:
                    warn.append(f"cells beyond column {MAX_COLS} dropped")
                    break
            anchor = AnchorCell(r, c, row_span, col_span, cell.content, cell.is_header)
            anchors.append(anchor)
            for rr in range(r, r + row_span):
                for cc in range(c, c + col_span):
                    occupied[(rr, cc)] = anchor
            c += col_span

    # the rightmost covered column of each row; padding only adds positions
    # left of the ones still to be checked, so it never moves this mark
    last_covered = [0] * (n_rows + 1)
    for r, c in occupied:
        if c > last_covered[r]:
            last_covered[r] = c
    n_cols = max(last_covered) or 1
    # pad uncovered positions: trailing runs are ordinary raggedness, interior
    # holes are a structural fault in strict mode
    padded = False
    for r in range(1, n_rows + 1):
        for c in range(1, n_cols + 1):
            if (r, c) in occupied:
                continue
            if c < last_covered[r]:
                refuse(tolerant, f"row {r}", f"gap at column {c} cannot be padded")
            anchor = AnchorCell(r, c)
            anchors.append(anchor)
            occupied[(r, c)] = anchor
            padded = True
    if padded:
        warn.append("ragged rows padded with empty cells")

    anchors.sort(key=lambda a: (a.row, a.col))
    return Table(n_rows=n_rows, n_cols=n_cols, anchors=tuple(anchors), caption=buffer.caption)
