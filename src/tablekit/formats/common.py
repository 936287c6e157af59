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


def _free_column(
    occupied: dict[tuple[int, int], AnchorCell], r: int, c: int, row_span: int, col_span: int
) -> int:
    """Leftmost column from c where a row_span x col_span cell at row r
    covers no occupied position, looking no further than MAX_COLS."""
    cc = c
    while cc < c + col_span and cc <= MAX_COLS:
        if any((rr, cc) in occupied for rr in range(r, r + row_span)):
            c = cc + 1
        cc += 1
    return c


def assemble(
    buffer: RowBuffer,
    *,
    tolerant: bool,
    skip_occupied: bool = True,
) -> Table | None:
    """Place source cells onto the grid left to right, top to bottom.

    With skip_occupied (HTML semantics) a cell slides right past positions
    covered by spans from above.  Without it (LaTeX semantics) the source is
    expected to carry empty placeholder cells at covered positions, which are
    consumed instead of placed.  In tolerant mode either way a cell then
    slides right until none of the positions it would cover is occupied, so
    the result never overlaps.

    Strict mode raises ParseError for spans that run past the last row, for
    interior gaps, for placeholder collisions and for a cell any of whose
    positions is already covered; ragged right edges are padded with empty
    cells and recorded as warnings in both modes.
    """
    rows = buffer.rows
    warn = buffer.warnings
    if tolerant and len(rows) > MAX_ROWS:
        warn.append(f"table truncated to {MAX_ROWS} rows")
        rows = rows[:MAX_ROWS]
    n_rows = len(rows)
    if n_rows == 0:
        if tolerant:
            return None
        raise ParseError("table", "no rows found")

    occupied: dict[tuple[int, int], AnchorCell] = {}
    anchors: list[AnchorCell] = []

    for r0, row in enumerate(rows):
        r = r0 + 1
        c = 1
        for cell in row:
            row_span = cell.row_span
            col_span = cell.col_span
            if tolerant:
                row_span = max(1, min(row_span, MAX_SPAN))
                col_span = max(1, min(col_span, MAX_SPAN))
            elif row_span < 1 or col_span < 1:
                raise ParseError(f"row {r}", f"span must be >= 1 at column {c}")

            if skip_occupied:
                while (r, c) in occupied:
                    c += 1
            elif (r, c) in occupied:
                # LaTeX continuation slot: must hold an empty placeholder
                if cell.content == "" and row_span == 1:
                    c += col_span
                    continue
                if not tolerant:
                    raise ParseError(f"row {r}", f"overlapping span at column {c}")

            if row_span > n_rows - r + 1:
                if tolerant:
                    row_span = n_rows - r + 1
                else:
                    raise ParseError(f"row {r}", f"row span runs past the last row at column {c}")
            if tolerant:
                c = _free_column(occupied, r, c, row_span, col_span)
            elif col_span > 1 and any((r, cc) in occupied for cc in range(c + 1, c + col_span)):
                # (r, c) is free here, and a span from an earlier row that
                # covers a position of this cell covers row r as well
                raise ParseError(f"row {r}", f"overlapping span at column {c}")
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
            if c < last_covered[r] and not tolerant:
                raise ParseError(f"row {r}", f"gap at column {c} cannot be padded")
            anchor = AnchorCell(r, c)
            anchors.append(anchor)
            occupied[(r, c)] = anchor
            padded = True
    if padded:
        warn.append("ragged rows padded with empty cells")

    anchors.sort(key=lambda a: (a.row, a.col))
    return Table(
        n_rows=n_rows,
        n_cols=n_cols,
        anchors=tuple(anchors),
        caption=buffer.caption,
    )
