"""LaTeX tabular subset: & / \\\\ delimiters, \\multicolumn and \\multirow,
rules ignored, a small escape set unescaped into content."""

from __future__ import annotations

import re

from ..core import Table, expand_grid
from .common import ParseError, RawCell, RowBuffer, UnsupportedConstruct, assemble, refuse

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


_BEGIN = re.compile(r"\\begin\s*\{tabular\}")
_ENVIRONMENT = re.compile(r"\\(begin|end)\s*\{tabular\}")
# a nested tabular's column spec, with one level of inner braces (p{2cm})
_SPEC = re.compile(r"\{(?:[^{}]|\{[^{}]*\})*\}")


def _environment_end(text: str, start: int) -> re.Match | None:
    """The \\end{tabular} that closes the environment whose body starts at
    start, past the environments nested in it; None if there is none."""
    depth = 0
    for m in _ENVIRONMENT.finditer(text, start):
        if m.group(1) == "begin":
            depth += 1
        elif depth == 0:
            return m
        else:
            depth -= 1
    return None


def _cells(body: str, tolerant: bool) -> list[list[RawCell]]:
    """The cells of a tabular body free of nested tabulars, row by row."""
    segments = _ROW_SPLIT.split(_RULE.sub(" ", body))
    if segments and not segments[-1].strip():
        segments = segments[:-1]  # after the final row terminator
    # a whitespace-only interior segment is a real row of one empty cell
    # (single-column rowspan continuations look exactly like that)
    return [[_parse_cell(c, tolerant) for c in _split_cells(seg)] for seg in segments]


def _flatten(text: str, tolerant: bool, warnings: list[str]) -> str:
    """A nested tabular, from its \\begin to its \\end, as escaped text for
    the cell it sits in: each non-empty cell of it, or of a tabular nested
    in it, one line. One pass, so deep nesting costs what its length does."""
    pieces: list[str] = []
    pos = 0
    while (m := _ENVIRONMENT.search(text, pos)) is not None:
        pieces += [text[pos : m.start()], " & "]  # an environment's edge ends a cell
        pos = m.end()
        if m.group(1) == "begin":
            refuse(tolerant, "input", "nested tabular environment", UnsupportedConstruct)
            warnings.append("nested tabular flattened")
            spec = _SPEC.match(text, pos)
            pos = spec.end() if spec else pos
    pieces.append(text[pos:])
    cells = [c.content for row in _cells("".join(pieces), tolerant) for c in row]
    return escape_latex("\n".join(c for c in cells if c))


def _rows(body: str, tolerant: bool, warnings: list[str]) -> list[list[RawCell]]:
    """The cells of a tabular body, row by row; a tabular nested in it
    becomes the text of the cell it sits in (see _flatten)."""
    parts: list[str] = []
    pos = 0
    while (inner := _BEGIN.search(body, pos)) is not None:
        end = _environment_end(body, inner.end())
        stop = len(body) if end is None else end.start()
        parts += [body[pos : inner.start()], _flatten(body[inner.start() : stop], tolerant, warnings)]
        pos = len(body) if end is None else end.end()
    return _cells("".join(parts) + body[pos:], tolerant)


def parse_latex(src: str, *, tolerant: bool = False) -> tuple[Table, list[str]]:
    buffer = RowBuffer()
    cleaned = _COMMENT.sub("", src)
    begin = _BEGIN.search(cleaned)
    if begin is None:
        raise ParseError("input", "no tabular environment found")
    if cleaned[: begin.start()].strip():
        refuse(tolerant, "input", "content before \\begin{tabular}")
        buffer.warnings.append("content before \\begin{tabular} ignored")
    try:
        _, body_start = _read_brace_group(cleaned, begin.end())  # column spec, ignored
    except ParseError:
        refuse(tolerant, "input", "missing column spec after \\begin{tabular}")
        buffer.warnings.append("missing column spec")
        body_start = begin.end()
    end = _environment_end(cleaned, body_start)
    if end is not None and _BEGIN.search(cleaned, end.end()):
        refuse(tolerant, "input", "more than one tabular environment")
        buffer.warnings.append("only the first tabular environment read")
    if end is None:
        refuse(tolerant, "input", "missing \\end{tabular}")
        buffer.warnings.append("missing \\end{tabular}")
        body = cleaned[body_start:]
    else:
        body = cleaned[body_start : end.start()]
        if cleaned[end.end() :].strip():
            refuse(tolerant, "input", "content after \\end{tabular}")
            buffer.warnings.append("content after \\end{tabular} ignored")
    buffer.rows.extend(_rows(body, tolerant, buffer.warnings))
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
