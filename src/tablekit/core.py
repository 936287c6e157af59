"""Canonical merged-cell-aware table model.

A table is a rectangular grid of n_rows x n_cols positions, 1-based.
Every grid position is covered by exactly one anchor cell; an anchor
occupies the rectangle [row, row + row_span) x [col, col + col_span).
Empty content is a real cell, not a missing one. A grid is at most
MAX_ROWS x MAX_COLS positions, the one size limit of every table.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, NamedTuple

from .numeric import json_int

MAX_ROWS = 512
MAX_COLS = 512


class InvalidTable(ValueError):
    """An operation required a valid table but validation failed."""


class CellRef(NamedTuple):
    row_id: int
    col_id: int


@dataclass(frozen=True)
class AnchorCell:
    """Top-left cell of a (possibly merged) region."""

    row: int
    col: int
    row_span: int = 1
    col_span: int = 1
    content: str = ""
    is_header: bool = False

    def bottom_right(self) -> CellRef:
        return CellRef(self.row + self.row_span - 1, self.col + self.col_span - 1)


@dataclass(frozen=True)
class Table:
    n_rows: int
    n_cols: int
    anchors: tuple[AnchorCell, ...]
    caption: str | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.anchors, tuple):
            object.__setattr__(self, "anchors", tuple(self.anchors))

    def has_spans(self) -> bool:
        return any(a.row_span > 1 or a.col_span > 1 for a in self.anchors)


@dataclass(frozen=True)
class ValidationVerdict:
    ok: bool
    problem: str | None = None
    position: CellRef | None = None
    grid: Grid | None = field(default=None, repr=False, compare=False)  # set when ok

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class Grid:
    """Expanded view: one entry per grid position, resolving to its anchor."""

    n_rows: int
    n_cols: int
    cells: tuple[tuple[AnchorCell, ...], ...]

    def anchor_at(self, row: int, col: int) -> AnchorCell:
        if not (1 <= row <= self.n_rows and 1 <= col <= self.n_cols):
            raise IndexError(f"position ({row},{col}) outside {self.n_rows}x{self.n_cols} grid")
        return self.cells[row - 1][col - 1]

    def content_at(self, row: int, col: int) -> str:
        return self.anchor_at(row, col).content

    def row(self, row: int) -> tuple[AnchorCell, ...]:
        return self.cells[row - 1]

    def column(self, col: int) -> tuple[AnchorCell, ...]:
        return tuple(r[col - 1] for r in self.cells)

    def row_anchors(self, row: int) -> list[AnchorCell]:
        """The anchors whose top-left corner is in this row, left to right."""
        return [a for c, a in enumerate(self.cells[row - 1], 1) if a.row == row and a.col == c]

    def anchors(self) -> list[AnchorCell]:
        """Every anchor once, row-major by top-left corner."""
        return [a for r in range(1, self.n_rows + 1) for a in self.row_anchors(r)]


def validate(table: Table) -> ValidationVerdict:
    """Check the tiling invariants; report the first violation found.

    Anchors are placed in their given order, so the first overlapping
    grid position and the first uncovered position are deterministic.
    A grid past MAX_ROWS x MAX_COLS is refused before anything is allocated.
    A valid verdict carries the expanded Grid.
    """
    if table.n_rows < 1:
        return ValidationVerdict(False, f"n_rows must be >= 1, got {table.n_rows}")
    if table.n_cols < 1:
        return ValidationVerdict(False, f"n_cols must be >= 1, got {table.n_cols}")
    if table.n_rows > MAX_ROWS or table.n_cols > MAX_COLS:
        return ValidationVerdict(
            False, f"grid {table.n_rows}x{table.n_cols} exceeds the {MAX_ROWS}x{MAX_COLS} limit"
        )
    matrix: list[list[AnchorCell | None]] = [[None] * table.n_cols for _ in range(table.n_rows)]
    for a in table.anchors:
        if a.row_span < 1 or a.col_span < 1:
            return ValidationVerdict(False, f"span must be >= 1 at ({a.row},{a.col})", CellRef(a.row, a.col))
        if a.row < 1 or a.col < 1:
            return ValidationVerdict(False, f"anchor outside grid at ({a.row},{a.col})", CellRef(a.row, a.col))
        last_row = a.row + a.row_span - 1
        last_col = a.col + a.col_span - 1
        if last_row > table.n_rows or last_col > table.n_cols:
            return ValidationVerdict(False, f"span exceeds grid bounds at ({a.row},{a.col})", CellRef(a.row, a.col))
        for r in range(a.row, last_row + 1):
            for c in range(a.col, last_col + 1):
                if matrix[r - 1][c - 1] is not None:
                    return ValidationVerdict(False, f"overlap at ({r},{c})", CellRef(r, c))
                matrix[r - 1][c - 1] = a
    for r in range(1, table.n_rows + 1):
        for c in range(1, table.n_cols + 1):
            if matrix[r - 1][c - 1] is None:
                return ValidationVerdict(False, f"gap at ({r},{c})", CellRef(r, c))
    cells = tuple(tuple(row) for row in matrix)
    return ValidationVerdict(True, grid=Grid(table.n_rows, table.n_cols, cells))  # type: ignore[arg-type]


def checked(table: Table) -> ValidationVerdict:
    """validate(table), run at most once per Table instance.

    A Table is frozen, so its verdict cannot change; it is kept on the
    instance. dataclasses.replace builds a new instance, checked afresh.
    """
    verdict = table.__dict__.get("_verdict")
    if verdict is None:
        verdict = validate(table)
        object.__setattr__(table, "_verdict", verdict)
    return verdict


def expand_grid(table: Table) -> Grid:
    """The table's positional matrix, resolved once per Table instance.

    Raises InvalidTable when the table does not validate.
    """
    verdict = checked(table)
    if verdict.grid is None:
        raise InvalidTable(verdict.problem)
    return verdict.grid


def merged_regions(table: Table) -> list[tuple[CellRef, CellRef]]:
    """(top_left, bottom_right) for every anchor spanning more than one position.

    Ordered row-major by top-left corner. Empty for span-free tables.
    """
    regions = [
        (CellRef(a.row, a.col), a.bottom_right())
        for a in table.anchors
        if a.row_span > 1 or a.col_span > 1
    ]
    regions.sort(key=lambda pair: pair[0])
    return regions


def table_to_dict(table: Table) -> dict[str, Any]:
    return {
        "n_rows": table.n_rows,
        "n_cols": table.n_cols,
        "caption": table.caption,
        "anchors": [
            {
                "row": a.row,
                "col": a.col,
                "row_span": a.row_span,
                "col_span": a.col_span,
                "content": a.content,
                "is_header": a.is_header,
            }
            for a in table.anchors
        ],
    }


# the JSON types of table fields that are not integers (numeric.json_int)
_JSON_TYPES = {"a string": str, "a boolean": bool, "a string or null": (str, type(None))}
_REQUIRED = object()


def _read(obj: dict[str, Any], key: str, kind: str, default: Any = _REQUIRED) -> Any:
    """obj[key], or the default when key is absent and one is given, if it
    has the JSON type kind: "an integer" or a key of _JSON_TYPES."""
    value = obj[key] if default is _REQUIRED else obj.get(key, default)
    try:
        if kind == "an integer":
            return json_int(value)
        if isinstance(value, _JSON_TYPES[kind]):
            return value
        raise TypeError(f"expected {kind}, got {value!r}")
    except TypeError as exc:
        raise TypeError(f"{key}: {exc}") from None


def table_from_dict(data: dict[str, Any]) -> Table:
    """A table from its JSON object, with the JSON types as written: integers,
    never booleans, for sizes, positions and spans; a string for content; a
    boolean for is_header; a string or null for caption. Anything else
    raises InvalidTable("malformed table object: ..."); a key the object
    does not define is ignored."""
    try:
        if not isinstance(data["anchors"], list) or not all(isinstance(a, dict) for a in data["anchors"]):
            raise TypeError("anchors: expected a list of objects")
        anchors = tuple(
            AnchorCell(
                row=_read(a, "row", "an integer"),
                col=_read(a, "col", "an integer"),
                row_span=_read(a, "row_span", "an integer", 1),
                col_span=_read(a, "col_span", "an integer", 1),
                content=_read(a, "content", "a string", ""),
                is_header=_read(a, "is_header", "a boolean", False),
            )
            for a in data["anchors"]
        )
        return Table(
            n_rows=_read(data, "n_rows", "an integer"),
            n_cols=_read(data, "n_cols", "an integer"),
            anchors=anchors,
            caption=_read(data, "caption", "a string or null", None),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidTable(f"malformed table object: {exc}") from exc


def table_from_json(text: str) -> Table:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidTable(f"not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InvalidTable("table JSON must be an object")
    return table_from_dict(data)
