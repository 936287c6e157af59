"""HTML table subset: table, caption, thead, tbody, tr, td, th with
colspan/rowspan. Everything else is stripped with a warning; inside a cell,
<br>, block tags and the rows and cells of a nested table become line
breaks."""

from __future__ import annotations

from html.parser import HTMLParser

from ..core import Table, expand_grid
from .common import (
    ParseError,
    RawCell,
    RowBuffer,
    UnsupportedConstruct,
    assemble,
    refuse,
)

_STRUCTURAL = {"table", "caption", "thead", "tbody", "tfoot", "tr", "td", "th"}
# tags that end a line of a cell's text, start or end tag alike
_BLOCK = {"p", "div", "li", "ul", "ol", "h1", "h2", "h3", "h4", "h5", "h6", "blockquote", "pre", "hr"}
_NESTED_CELL = {"tr", "td", "th"}


class _TableHTMLParser(HTMLParser):
    def __init__(self, tolerant: bool):
        super().__init__(convert_charrefs=True)
        self.tolerant = tolerant
        self.buffer = RowBuffer()
        self.table_depth = 0
        self.finished_table = False
        self.in_caption = False
        self.caption_parts: list[str] = []
        self.current_row: list[RawCell] | None = None
        self.current_cell: RawCell | None = None
        self.cell_parts: list[str] = []
        # a block boundary was passed in the open cell: the next text starts
        # a new line, unless it is the cell's first text
        self.line_break = False

    def _loc(self) -> str:
        line, col = self.getpos()
        return f"line {line}, column {col + 1}"

    def _warn(self, message: str) -> None:
        self.buffer.warnings.append(f"{self._loc()}: {message}")

    def _repair(self, reason: str, warning: str, error: type[ParseError] = ParseError) -> None:
        """Strict mode raises error for reason here; tolerant mode warns and
        the caller repairs."""
        refuse(self.tolerant, self._loc(), reason, error)
        self._warn(warning)

    def _span_attr(self, attrs, name: str) -> int:
        for key, value in attrs:
            if key == name:
                try:
                    span = int(str(value).strip())
                except (TypeError, ValueError):
                    self._repair(f"unreadable {name}={value!r}", f"unreadable {name} ignored")
                    return 1
                return span  # assemble refuses or repairs a span below 1
        return 1

    def _close_cell(self) -> None:
        if self.current_cell is not None:
            text = "".join(self.cell_parts).strip()
            self.current_cell.content = text
            self.current_cell = None
            self.cell_parts = []
            self.line_break = False

    def _close_row(self) -> None:
        self._close_cell()
        if self.current_row is not None:
            self.buffer.rows.append(self.current_row)
            self.current_row = None

    def _mark_line_break(self, tag: str) -> None:
        if self.current_cell is not None and (
            tag in _BLOCK or (self.table_depth > 1 and tag in _NESTED_CELL)
        ):
            self.line_break = True

    def handle_starttag(self, tag, attrs):
        tag = tag.lower()
        self._mark_line_break(tag)
        if tag == "table":
            if self.table_depth == 0 and not self.finished_table:
                self.table_depth = 1
            elif self.table_depth >= 1:
                self._repair("nested table", "nested table flattened", UnsupportedConstruct)
                self.table_depth += 1
            elif self.finished_table:
                self._repair("more than one table", "extra table ignored")
            return
        if self.table_depth != 1 or self.finished_table:
            if self.table_depth == 0 and not self.finished_table and tag in ("tr", "td", "th"):
                # fragment without a <table> wrapper
                self._repair(f"<{tag}> outside a table", "missing <table> wrapper assumed")
                self.table_depth = 1
            else:
                return
        if tag == "caption":
            self.in_caption = True
            return
        if tag in _STRUCTURAL:
            # rows end a caption: HTML5 lets </caption> be left out
            self.in_caption = False
        if tag in ("thead", "tbody", "tfoot"):
            return
        if tag == "tr":
            self._close_row()
            self.current_row = []
            return
        if tag in ("td", "th"):
            if self.current_row is None:
                self._repair(f"<{tag}> outside a row", "cell outside a row starts an implicit row")
                self.current_row = []
            self._close_cell()
            self.current_cell = RawCell(
                content="",
                row_span=self._span_attr(attrs, "rowspan"),
                col_span=self._span_attr(attrs, "colspan"),
                is_header=(tag == "th"),
            )
            self.current_row.append(self.current_cell)
            return
        # anything else is outside the subset
        if tag == "br" and self.current_cell is not None:
            self.cell_parts.append("\n")
        self._warn(f"tag <{tag}> stripped")

    def handle_startendtag(self, tag, attrs):
        self.handle_starttag(tag, attrs)

    def handle_endtag(self, tag):
        tag = tag.lower()
        self._mark_line_break(tag)
        if tag == "table":
            if self.table_depth > 1:
                self.table_depth -= 1
            elif self.table_depth == 1:
                self._close_row()
                self.table_depth = 0
                self.finished_table = True
            return
        if self.table_depth != 1:
            return
        if tag == "caption":
            self.in_caption = False
            return
        if tag == "tr":
            self._close_row()
        elif tag in ("td", "th"):
            self._close_cell()

    def handle_data(self, data):
        if self.in_caption:
            self.caption_parts.append(data)
        elif self.current_cell is not None:
            if self.line_break:
                if not data.strip():
                    return
                # one break between the texts, in place of the spaces at it
                text = "".join(self.cell_parts).rstrip()
                self.cell_parts = [text + "\n"] if text else []
                data = data.lstrip()
                self.line_break = False
            self.cell_parts.append(data)
        elif self.table_depth == 1 and data.strip():
            self._warn("stray text inside table ignored")


def parse_html(src: str, *, tolerant: bool = False) -> tuple[Table, list[str]]:
    parser = _TableHTMLParser(tolerant)
    try:
        parser.feed(src)
        parser.close()
    except ParseError:
        raise
    except Exception as exc:  # html.parser internals on hostile input
        raise ParseError("input", f"unparseable HTML: {exc}")
    if parser.table_depth > 0:
        refuse(tolerant, "input", "unclosed <table>")
        parser._close_row()
        parser.buffer.warnings.append("unclosed <table>")
    elif not parser.finished_table:
        raise ParseError("input", "no <table> found")
    caption = "".join(parser.caption_parts).strip()
    parser.buffer.caption = caption if caption else None
    return assemble(parser.buffer, tolerant=tolerant, skip_occupied=True), parser.buffer.warnings


def escape_html(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def serialize_html(table: Table) -> str:
    """Canonical single-line form: rowspan before colspan, spans only when > 1,
    minimal entity encoding."""
    grid = expand_grid(table)
    parts = ["<table>"]
    if table.caption is not None:
        parts.append(f"<caption>{escape_html(table.caption)}</caption>")
    for r in range(1, table.n_rows + 1):
        parts.append("<tr>")
        for a in grid.row_anchors(r):
            tag = "th" if a.is_header else "td"
            attrs = ""
            if a.row_span > 1:
                attrs += f' rowspan="{a.row_span}"'
            if a.col_span > 1:
                attrs += f' colspan="{a.col_span}"'
            parts.append(f"<{tag}{attrs}>{escape_html(a.content)}</{tag}>")
        parts.append("</tr>")
    parts.append("</table>")
    return "".join(parts)
