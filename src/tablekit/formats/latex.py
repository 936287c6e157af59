"""LaTeX tabular subset: & / \\\\ delimiters, \\multicolumn and \\multirow,
rules ignored, a small escape set unescaped into content."""

from __future__ import annotations

import re

from ..core import Table, expand_grid
from .common import ParseError, RawCell, RowBuffer, assemble, refuse

_ESCAPES = {"&": "\\&", "%": "\\%", "#": "\\#", "_": "\\_", "{": "\\{", "}": "\\}"}
_RULE = re.compile(r"\\(?:hline|toprule|midrule|bottomrule)\b|\\cline\s*\{[^}]*\}")
_LENGTH = r"\[\s*[-+]?(?:\d+(?:\.\d*)?|\.\d+)\s*(?:pt|mm|cm|in|ex|em|bp|pc|dd|cc|sp|mu)\s*\]"
# a row break, with its optional [<length>] argument; a bracket group that
# holds no TeX length is the next row's text
_ROW_SPLIT = re.compile(r"\\\\(?:\s*" + _LENGTH + ")?")
# row text that the row break before it would read as its argument
_LEADING_LENGTH = re.compile(r"\s*" + _LENGTH)
_MULTICOLUMN = re.compile(r"\\multicolumn\s*")
_MULTIROW = re.compile(r"\\multirow\s*")
# a comment: an unescaped % to the end of its line, which ends at "\n" only
_COMMENT = re.compile(r"(?<!\\)%[^\n]*")


def _read_brace_group(text: str, start: int) -> tuple[str, int]:
    """Return the contents of the brace group opening at text[start] and the
    index just past its closing brace. Escaped braces do not nest."""
    if start >= len(text) or text[start] != "{":
        raise ParseError("cell", "expected '{'")
    depth = 0
    i = start
    while i < len(text):
        ch = text[i]
        if ch == "\\" and i + 1 < len(text):
            i += 2
            continue
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth == 0:
                return text[start + 1 : i], i + 1
        i += 1
    raise ParseError("cell", "unbalanced braces")


def _split_cells(row: str) -> list[str]:
    cells: list[str] = []
    current: list[str] = []
    i = 0
    while i < len(row):
        ch = row[i]
        if ch == "\\" and i + 1 < len(row):
            current.append(row[i : i + 2])
            i += 2
            continue
        if ch == "&":
            cells.append("".join(current))
            current = []
            i += 1
            continue
        current.append(ch)
        i += 1
    cells.append("".join(current))
    return cells


def _unescape(text: str) -> str:
    out: list[str] = []
    i = 0
    while i < len(text):
        if text[i] == "\\" and i + 1 < len(text) and text[i + 1] in "&%#_{}":
            out.append(text[i + 1])
            i += 2
        else:
            out.append(text[i])
            i += 1
    return "".join(out)


def _parse_cell(raw: str, tolerant: bool) -> RawCell:
    text = raw.strip()
    col_span = 1
    row_span = 1
    mc = _MULTICOLUMN.match(text)
    if mc:
        try:
            n_text, after = _read_brace_group(text, mc.end())
            _, after = _read_brace_group(text, after)  # alignment spec, ignored
            inner, _ = _read_brace_group(text, after)
            col_span = int(n_text.strip())
        except (ParseError, ValueError):
            refuse(tolerant, "cell", f"malformed \\multicolumn in {raw!r}")
            return RawCell(content=_unescape(text))
        text = inner.strip()
    mr = _MULTIROW.match(text)
    if mr:
        try:
            m_text, after = _read_brace_group(text, mr.end())
            _, after = _read_brace_group(text, after)  # width, ignored
            inner, _ = _read_brace_group(text, after)
            row_span = int(m_text.strip())
        except (ParseError, ValueError):
            refuse(tolerant, "cell", f"malformed \\multirow in {raw!r}")
            return RawCell(content=_unescape(text), col_span=max(col_span, 1))
        text = inner.strip()
    return RawCell(content=_unescape(text), row_span=row_span, col_span=col_span)


def parse_latex(src: str, *, tolerant: bool = False) -> tuple[Table, list[str]]:
    buffer = RowBuffer()
    cleaned = _COMMENT.sub("", src)
    begin = re.search(r"\\begin\s*\{tabular\}", cleaned)
    if begin is None:
        raise ParseError("input", "no tabular environment found")
    if cleaned[: begin.start()].strip():
        refuse(tolerant, "input", "content before \\begin{tabular}")
        buffer.warnings.append("content before \\begin{tabular} ignored")
    if re.search(r"\\begin\s*\{tabular\}", cleaned[begin.end():]):
        refuse(tolerant, "input", "more than one tabular environment")
        buffer.warnings.append("only the first tabular environment read")
    try:
        _, body_start = _read_brace_group(cleaned, begin.end())  # column spec, ignored
    except ParseError:
        refuse(tolerant, "input", "missing column spec after \\begin{tabular}")
        buffer.warnings.append("missing column spec")
        body_start = begin.end()
    end = re.search(r"\\end\s*\{tabular\}", cleaned[body_start:])
    if end is None:
        refuse(tolerant, "input", "missing \\end{tabular}")
        buffer.warnings.append("missing \\end{tabular}")
        body = cleaned[body_start:]
    else:
        body = cleaned[body_start : body_start + end.start()]
        if cleaned[body_start + end.end():].strip():
            refuse(tolerant, "input", "content after \\end{tabular}")
            buffer.warnings.append("content after \\end{tabular} ignored")

    body = _RULE.sub(" ", body)
    segments = _ROW_SPLIT.split(body)
    if segments and not segments[-1].strip():
        segments = segments[:-1]  # after the final row terminator
    for seg in segments:
        # a whitespace-only interior segment is a real row of one empty cell
        # (single-column rowspan continuations look exactly like that)
        cells = [_parse_cell(c, tolerant) for c in _split_cells(seg)]
        buffer.rows.append(cells)
    return assemble(buffer, tolerant=tolerant, skip_occupied=False), buffer.warnings


def escape_latex(text: str) -> str:
    out: list[str] = []
    for ch in text:
        out.append(_ESCAPES.get(ch, ch))
    return "".join(out)


def serialize_latex(table: Table) -> str:
    """Canonical tabular: plain c columns, anchors carry \\multicolumn and
    \\multirow, covered continuation slots hold empty placeholders. A row
    break takes an explicit [0pt] when the next row's text starts with a
    bracketed TeX length. Header flags and captions have no representation
    here."""
    grid = expand_grid(table)
    lines = ["\\begin{tabular}{" + "c" * table.n_cols + "}"]
    rows: list[str] = []
    for r in range(1, table.n_rows + 1):
        cells: list[str] = []
        c = 1
        while c <= table.n_cols:
            a = grid.anchor_at(r, c)
            if a.row == r and a.col == c:
                text = escape_latex(a.content)
                if a.row_span > 1:
                    text = f"\\multirow{{{a.row_span}}}{{*}}{{{text}}}"
                if a.col_span > 1:
                    text = f"\\multicolumn{{{a.col_span}}}{{c}}{{{text}}}"
                cells.append(text)
            elif a.col == c:
                # continuation slot below a rowspan anchor
                if a.col_span > 1:
                    cells.append(f"\\multicolumn{{{a.col_span}}}{{c}}{{}}")
                else:
                    cells.append("")
            c += a.col_span
        rows.append(" & ".join(cells))
    for row, following in zip(rows, rows[1:] + [""]):
        # an explicit [0pt] keeps text such as "[2pt]" at the start of the
        # next row from being read as this break's argument
        lines.append(row + (" \\\\[0pt]" if _LEADING_LENGTH.match(following) else " \\\\"))
    lines.append("\\end{tabular}")
    return "\n".join(lines)
