"""Strict parsing, canonical serialization, tolerant conversion."""

from __future__ import annotations

import random

import pytest

from tablekit.core import AnchorCell, Table, table_from_dict
from tablekit.formats import (
    SENTINEL_HTML,
    ParseError,
    TableFormat,
    UnrepresentableInFormat,
    UnsupportedConstruct,
    convert,
    detect_format,
    parse,
    parse_tolerant,
    serialize,
    sniff_format,
)
from tablekit.formats.common import MAX_COLS, MAX_ROWS, RawCell, RowBuffer, assemble
from tablekit.metrics.evaluate import score_sample
from tablekit.taskdefs import TaskKind

import oracles
from oracles import random_table_dict
from scaling import growth_ratio

HTML, MD, TEX = TableFormat.HTML, TableFormat.MARKDOWN, TableFormat.LATEX


def anchor_map(table: Table) -> dict:
    return {(a.row, a.col): a for a in table.anchors}


# ---------------------------------------------------------------- parse


def test_parse_html_rowspan():
    table, diag = parse('<table><tr><td rowspan="2">a</td><td>b</td></tr><tr><td>c</td></tr></table>', HTML)
    assert (table.n_rows, table.n_cols) == (2, 2)
    cells = anchor_map(table)
    assert cells[(1, 1)].row_span == 2 and cells[(1, 1)].content == "a"
    assert cells[(1, 2)].content == "b"
    assert cells[(2, 2)].content == "c"
    assert (2, 1) not in cells  # covered by the rowspan
    assert diag.warnings == ()


def test_parse_html_thead_th_and_caption():
    src = "<table><caption>totals</caption><thead><tr><th>h</th></tr></thead><tbody><tr><td>v</td></tr></tbody></table>"
    table, _ = parse(src, HTML)
    assert table.caption == "totals"
    cells = anchor_map(table)
    assert cells[(1, 1)].is_header and cells[(1, 1)].content == "h"
    assert not cells[(2, 1)].is_header and cells[(2, 1)].content == "v"


def test_parse_html_decodes_entities():
    table, _ = parse("<table><tr><td>a &amp; b &lt; c</td></tr></table>", HTML)
    assert table.anchors[0].content == "a & b < c"


def test_parse_html_strips_unknown_tags_with_warning():
    table, diag = parse("<table><tr><td><b>bold</b> text</td></tr></table>", HTML)
    assert table.anchors[0].content == "bold text"
    assert any("<b>" in w for w in diag.warnings)


def test_parse_html_errors():
    with pytest.raises(ParseError):
        parse("no table here", HTML)
    with pytest.raises(UnsupportedConstruct):
        parse("<table><tr><td><table><tr><td>x</td></tr></table></td></tr></table>", HTML)
    with pytest.raises(ParseError):
        parse("<table><tr><td>a</td></tr></table><table><tr><td>b</td></tr></table>", HTML)
    with pytest.raises(ParseError):
        parse('<table><tr><td rowspan="5">a</td></tr></table>', HTML)
    with pytest.raises(ParseError):
        parse('<table><tr><td colspan="x">a</td></tr></table>', HTML)
    with pytest.raises(ParseError):
        parse("<table><tr><td>a", HTML)


def test_parse_html_span_running_into_a_rowspan_is_an_error():
    # the colspan cell's first column is free, its second is b's rowspan
    src = ('<table><tr><td>a</td><td rowspan="2">b</td></tr>'
           '<tr><td colspan="2">c</td></tr></table>')
    with pytest.raises(ParseError, match="overlapping span"):
        parse(src, HTML)


def test_parse_html_pads_ragged_rows_with_warning():
    table, diag = parse("<table><tr><td>a</td><td>b</td></tr><tr><td>c</td></tr></table>", HTML)
    assert (table.n_rows, table.n_cols) == (2, 2)
    assert anchor_map(table)[(2, 2)].content == ""
    assert any("padded" in w for w in diag.warnings)


def test_parse_html_interior_gap_is_an_error():
    # rowspans cover columns 1 and 3 of row 2; row 2 has no cell for column 2
    src = ('<table><tr><td rowspan="2">a</td><td>b</td><td rowspan="2">c</td></tr>'
           "<tr></tr></table>")
    with pytest.raises(ParseError):
        parse(src, HTML)


def test_parse_markdown_basic():
    table, _ = parse("| h1 | h2 |\n| --- | --- |\n| a | b |", MD)
    assert (table.n_rows, table.n_cols) == (2, 2)
    cells = anchor_map(table)
    assert cells[(1, 1)].is_header and cells[(1, 1)].content == "h1"
    assert not cells[(2, 1)].is_header and cells[(2, 1)].content == "a"


def test_parse_markdown_escaped_pipe():
    table, _ = parse("| a\\|b |\n| --- |", MD)
    assert table.anchors[0].content == "a|b"


def test_parse_markdown_errors():
    with pytest.raises(ParseError):
        parse("| a |\nnot a row", MD)
    with pytest.raises(ParseError):
        parse("| a |\n| b |\n| --- |", MD)  # separator out of place
    with pytest.raises(ParseError):
        parse("| a |", MD)  # no separator at all
    with pytest.raises(ParseError):
        parse("", MD)


def test_parse_latex_multicolumn_and_multirow():
    src = "\\begin{tabular}{cc}\nx & y \\\\\n\\multicolumn{2}{c}{wide} \\\\\n\\end{tabular}"
    table, _ = parse(src, TEX)
    assert (table.n_rows, table.n_cols) == (2, 2)
    assert anchor_map(table)[(2, 1)].col_span == 2
    assert anchor_map(table)[(2, 1)].content == "wide"

    src2 = ("\\begin{tabular}{cc}\n\\multirow{2}{*}{tall} & r1 \\\\\n & r2 \\\\\n\\end{tabular}")
    table2, _ = parse(src2, TEX)
    cells = anchor_map(table2)
    assert cells[(1, 1)].row_span == 2 and cells[(1, 1)].content == "tall"
    assert cells[(1, 2)].content == "r1" and cells[(2, 2)].content == "r2"


def test_parse_latex_unescapes_and_ignores_rules():
    src = "\\begin{tabular}{c}\n\\hline\na \\& b \\% c \\\\\n\\hline\n\\end{tabular}"
    table, _ = parse(src, TEX)
    assert table.anchors[0].content == "a & b % c"


def test_parse_latex_errors():
    with pytest.raises(ParseError):
        parse("no tabular", TEX)
    with pytest.raises(ParseError):
        parse("junk \\begin{tabular}{c} a \\\\ \\end{tabular}", TEX)
    with pytest.raises(ParseError):
        parse("\\begin{tabular}{c} a \\\\ \\end{tabular} \\begin{tabular}{c} b \\\\ \\end{tabular}", TEX)
    with pytest.raises(ParseError):
        parse("\\begin{tabular}{c} a ", TEX)
    # non-empty cell where a multirow continuation slot is expected
    with pytest.raises(ParseError):
        parse("\\begin{tabular}{c}\\multirow{2}{*}{a} \\\\ boom \\\\\\end{tabular}", TEX)


def test_parse_latex_bracket_text_after_row_break_is_a_cell():
    table = Table(2, 2, (
        AnchorCell(1, 1, content="a"),
        AnchorCell(1, 2, content="b"),
        AnchorCell(2, 1, content="[x]"),
        AnchorCell(2, 2, content="d"),
    ))
    back, _ = parse(serialize(table, TEX), TEX)
    assert back == table


@pytest.mark.parametrize("text", ["[2pt]", "[ 1em ]", "[-1.5ex] tail"])
def test_serialize_latex_protects_length_text_at_a_row_start(text):
    table = Table(2, 2, (
        AnchorCell(1, 1, content="a"),
        AnchorCell(1, 2, content="b"),
        AnchorCell(2, 1, content=text),
        AnchorCell(2, 2, content="d"),
    ))
    src = serialize(table, TEX)
    assert src.splitlines()[1] == "a & b \\\\[0pt]"
    back, _ = parse(src, TEX)
    assert back == table


def test_parse_latex_row_break_length_argument_is_consumed():
    src = "\\begin{tabular}{cc}\na & b \\\\[2pt]\nc & d \\\\ [-1.5ex] e & f \\\\\n\\end{tabular}"
    table, _ = parse(src, TEX)
    assert (table.n_rows, table.n_cols) == (3, 2)
    assert [a.content for a in table.anchors] == ["a", "b", "c", "d", "e", "f"]


# ------------------------------------------------------------- serialize


def test_serialize_html_canonical():
    table = Table(1, 1, (AnchorCell(1, 1, content="x"),))
    assert serialize(table, HTML) == "<table><tr><td>x</td></tr></table>"


def test_serialize_html_attribute_order_and_escaping():
    table = Table(2, 3, (
        AnchorCell(1, 1, row_span=2, col_span=2, content="a<b"),
        AnchorCell(1, 3, content="x & y", is_header=True),
        AnchorCell(2, 3),
    ), caption="c>d")
    out = serialize(table, HTML)
    assert out == (
        '<table><caption>c&gt;d</caption>'
        '<tr><td rowspan="2" colspan="2">a&lt;b</td><th>x &amp; y</th></tr>'
        "<tr><td></td></tr></table>"
    )


def test_serialize_markdown_rejects_spans():
    table = Table(1, 2, (AnchorCell(1, 1, col_span=2, content="wide"),))
    with pytest.raises(UnrepresentableInFormat):
        serialize(table, MD)


def test_serialize_markdown_canonical():
    table = Table(2, 2, (
        AnchorCell(1, 1, content="h1", is_header=True),
        AnchorCell(1, 2, content="h2", is_header=True),
        AnchorCell(2, 1, content="a"),
        AnchorCell(2, 2, content=""),
    ))
    assert serialize(table, MD) == "| h1 | h2 |\n| --- | --- |\n| a |  |"


def test_serialize_latex_canonical():
    table = Table(2, 2, (
        AnchorCell(1, 1, row_span=2, content="tall"),
        AnchorCell(1, 2, content="r1"),
        AnchorCell(2, 2, content="r2"),
    ))
    assert serialize(table, TEX) == (
        "\\begin{tabular}{cc}\n"
        "\\multirow{2}{*}{tall} & r1 \\\\\n"
        " & r2 \\\\\n"
        "\\end{tabular}"
    )


def test_serialize_rejects_invalid_table():
    broken = Table(2, 2, (AnchorCell(1, 1),))
    for fmt in (HTML, MD, TEX):
        with pytest.raises(ValueError):
            serialize(broken, fmt)


# ---------------------------------------------------------- round trips


def project_markdown(data: dict) -> dict:
    out = dict(data, caption=None)
    out["anchors"] = [
        dict(a, row_span=1, col_span=1, is_header=(a["row"] == 1))
        for a in data["anchors"]
    ]
    return out


def project_latex(data: dict) -> dict:
    out = dict(data, caption=None)
    out["anchors"] = [dict(a, is_header=False) for a in data["anchors"]]
    return out


def test_round_trip_random_tables():
    rng = random.Random(4242)
    for _ in range(200):
        data = random_table_dict(rng)
        html_table = table_from_dict(data)
        back, _ = parse(serialize(html_table, HTML), HTML)
        assert back == Table(html_table.n_rows, html_table.n_cols, html_table.anchors, html_table.caption)

        md_table = table_from_dict(project_markdown(random_table_dict(rng, spans=False)))
        back_md, _ = parse(serialize(md_table, MD), MD)
        assert back_md == md_table

        tex_table = table_from_dict(project_latex(random_table_dict(rng)))
        back_tex, _ = parse(serialize(tex_table, TEX), TEX)
        assert back_tex == tex_table


# characters other than "\n" at which str.splitlines breaks a line
_SPLITLINES_BREAKS = ["\u2028", "\u2029", "\x85", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\r"]


@pytest.mark.parametrize("ch", _SPLITLINES_BREAKS, ids=[f"U+{ord(ch):04X}" for ch in _SPLITLINES_BREAKS])
def test_cells_keep_characters_that_splitlines_breaks_at(ch):
    for fmt, header in ((HTML, False), (MD, True), (TEX, False)):
        table = Table(1, 2, (
            AnchorCell(1, 1, content=f"a{ch}b", is_header=header),
            AnchorCell(1, 2, content="c", is_header=header),
        ))
        back, _ = parse(serialize(table, fmt), fmt)
        assert back == table, fmt
        assert parse_tolerant(serialize(table, fmt), fmt)[0] == table, fmt


def test_crlf_text_parses_as_lf_text():
    table = Table(2, 2, tuple(
        AnchorCell(r, c, content=f"{r}{c}", is_header=(r == 1)) for r in (1, 2) for c in (1, 2)
    ))
    for fmt in (MD, TEX):
        text = serialize(table, fmt)
        assert parse(text.replace("\n", "\r\n"), fmt) == parse(text, fmt), fmt


# -------------------------------------------------------------- convert


def test_convert_ragged_markdown():
    html, diag = convert("| a | b |\n|---|\n| c |", MD)
    assert html == "<table><tr><th>a</th><th>b</th></tr><tr><td>c</td><td></td></tr></table>"
    assert diag.recovered


def test_convert_drops_surrounding_junk():
    html, diag = convert("Sure! Here is the table:\n| x |\n| --- |\n| 1 |\nHope this helps.", MD)
    assert html == "<table><tr><th>x</th></tr><tr><td>1</td></tr></table>"
    assert diag.recovered

    html2, diag2 = convert("intro <table><tr><td>1</td></tr></table> outro", HTML)
    assert html2 == "<table><tr><td>1</td></tr></table>"
    assert diag2.recovered

    html3, diag3 = convert("see below \\begin{tabular}{c} 5 \\\\ \\end{tabular} done", TEX)
    assert html3 == "<table><tr><td>5</td></tr></table>"
    assert diag3.recovered


def test_convert_unrecoverable_returns_sentinel():
    for fmt in (HTML, MD, TEX):
        html, diag = convert("nothing table-like here", fmt)
        assert html == SENTINEL_HTML
        assert not diag.recovered
    html, diag = convert("", HTML)
    assert html == SENTINEL_HTML and not diag.recovered
    html, diag = convert("<table></table>", HTML)
    assert html == SENTINEL_HTML and not diag.recovered


@pytest.mark.parametrize("src, fmt, reason", [
    ("nothing table-like here", HTML, "no <table> found"),
    ("nothing table-like here", MD, "no table rows found"),
    ("| --- | --- |", MD, "no data rows found"),
    ("nothing table-like here", TEX, "no tabular environment found"),
])  # fmt: skip
def test_tolerant_parse_of_text_with_no_table_is_none_with_the_reason(src, fmt, reason):
    table, warnings = parse_tolerant(src, fmt)
    assert table is None
    assert any(reason in w for w in warnings), warnings
    html, diag = convert(src, fmt)
    assert html == SENTINEL_HTML and not diag.recovered
    assert any(reason in w for w in diag.warnings), diag.warnings


def test_convert_repairs_broken_spans():
    html, diag = convert('<table><tr><td rowspan="9">a</td><td>b</td></tr><tr><td>c</td></tr></table>', HTML)
    assert html == '<table><tr><td rowspan="2">a</td><td>b</td></tr><tr><td>c</td></tr></table>'
    assert diag.recovered


def test_convert_slides_a_cell_past_every_position_it_would_overlap():
    # c's second column is covered by b's row span: c moves right whole
    src = '<table><tr><td>a</td><td rowspan="3">b</td></tr><tr><td colspan="2">c</td></tr></table>'
    html, diag = convert(src, HTML)
    assert diag.recovered
    assert html == (
        '<table><tr><td>a</td><td rowspan="2">b</td><td></td><td></td></tr>'
        '<tr><td></td><td colspan="2">c</td></tr></table>'
    )
    tex = "\\begin{tabular}{cc}\na & \\multirow{2}{*}{b} \\\\\n\\multicolumn{2}{c}{c} \\\\\n\\end{tabular}"
    assert convert(tex, TEX) == (html, diag)


_EDIT_CHARS = '<>/"=&{}\\|123 trdspanclow'


def _edit_chars(text: str, rng: random.Random) -> str:
    """1 to 10 random insertions, deletions and substitutions."""
    chars = list(text)
    for _ in range(rng.randint(1, 10)):
        op = rng.randrange(3)
        i = rng.randrange(len(chars) + (op == 0))
        if op == 0:
            chars.insert(i, rng.choice(_EDIT_CHARS))
        elif chars:
            if op == 1:
                del chars[i]
            else:
                chars[i] = rng.choice(_EDIT_CHARS)
    return "".join(chars)


def test_convert_and_tr_scoring_survive_edited_span_tables():
    rng = random.Random(12)
    for _ in range(300):
        table = table_from_dict(random_table_dict(rng, max_rows=6, max_cols=6))
        for fmt in (HTML, TEX):
            gold = serialize(table, fmt)
            text = _edit_chars(gold, rng)
            html, _ = convert(text, fmt)
            assert html.startswith("<table")
            record = score_sample(TaskKind.TR, text, {"answer": gold}, fmt.value)
            assert 0.0 <= record["teds"] <= 1.0


def test_convert_flattens_nested_tables():
    html, diag = convert("<table><tr><td><table><tr><td>x</td></tr></table></td></tr></table>", HTML)
    assert html == "<table><tr><td>x</td></tr></table>"
    assert diag.recovered


def test_block_tags_and_nested_cells_break_lines_in_a_cell():
    nested = "<table><tr><td><table><tr><td>alpha</td><td>beta</td></tr></table></td></tr></table>"
    assert convert(nested, HTML)[0] == "<table><tr><td>alpha\nbeta</td></tr></table>"
    assert convert("<table><tr><td>one<p>two</p>three</td></tr></table>", HTML)[0] == (
        "<table><tr><td>one\ntwo\nthree</td></tr></table>"
    )
    cases = {
        # no leading, trailing or doubled break, whatever the whitespace
        "<p>one</p>": "one",
        "<div><p>one</p></div> <ul><li>two</li><li>three</li></ul>": "one\ntwo\nthree",
        "one <hr> two": "one\ntwo",
        "<h2>one</h2>\n  <pre>two</pre><blockquote></blockquote><ol><li></li></ol>": "one\ntwo",
        "one<br><p>two</p>": "one\ntwo",
        # <br> and inline tags as before
        "one<br><br>two<b>three</b>": "one\n\ntwothree",
    }
    for inner, want in cases.items():
        html = f"<table><tr><td>{inner}</td><td>x</td></tr></table>"
        for read in (parse, parse_tolerant):
            assert [a.content for a in read(html, HTML)[0].anchors] == [want, "x"], inner
    pretty = "<table><tr><td>\n <table>\n  <tr><td>a</td> <td>b</td></tr>\n  <tr><th>c</th></tr>\n </table>\n</td></tr></table>"
    assert [a.content for a in parse_tolerant(pretty, HTML)[0].anchors] == ["a\nb\nc"]


def _assembled(place, buffer: RowBuffer, tolerant: bool, skip_occupied: bool):
    """The placed table, or the ParseError message, with the warnings."""
    buffer = RowBuffer(buffer.rows, buffer.caption)  # a fresh warnings list
    try:
        result = place(buffer, tolerant=tolerant, skip_occupied=skip_occupied)
    except ParseError as exc:
        result = str(exc)
    return result, buffer.warnings


def _random_row_buffer(rng: random.Random) -> RowBuffer:
    def span() -> int:
        return rng.choice([1] * 12 + [2, 2, 2, 3, 3, 4] + [0, -1] * (rng.random() < 0.1))

    rows = [
        [RawCell(rng.choice(["", "", "x", "y"]), span(), span(), rng.random() < 0.2) for _ in range(rng.randint(0, 4))]
        for _ in range(rng.choice([0, 1, 2, 3, 3, 4, 4, 5, 5, 6]))
    ]
    return RowBuffer(rows, rng.choice([None, "cap"]))


def test_assemble_matches_reference_on_random_row_buffers():
    rng = random.Random(1212)
    buffers = [_random_row_buffer(rng) for _ in range(2000)]
    # the size limits: a span past the last column, cells dropped beyond it,
    # rows beyond the last, and rows that spans from above push right
    buffers += [
        RowBuffer([[RawCell("a", 1, MAX_COLS + 88)], [RawCell("b")]]),
        RowBuffer([[RawCell("a", 1, MAX_COLS - 2), RawCell("b", 1, 5), RawCell("c")], [], [RawCell("d", 1200, 1200)]]),
        RowBuffer([[RawCell(str(i))] for i in range(MAX_ROWS + 1)]),
        RowBuffer([[RawCell("x", 500)] for _ in range(30)]),
    ]
    # a later row's cell with a colspan meets a tall span from above: the
    # package checks its own row only, the reference every row it spans
    buffers += [
        RowBuffer([[RawCell("a"), RawCell("t", 4)], [RawCell("b", 1, 3)], [RawCell("c", 2, 2), RawCell("d")], []]),
        RowBuffer([[RawCell("x"), RawCell("x"), RawCell("t", 3, 2)], [RawCell("y")], [RawCell("z", 1, 4), RawCell("w", 1, 2)]]),
        RowBuffer([[RawCell(""), RawCell("t", 3)], [RawCell("u", 2, 3), RawCell("")], [RawCell(""), RawCell(""), RawCell("v", 1, 2)]]),
    ]
    for buffer in buffers:
        for tolerant in (False, True):
            for skip_occupied in (False, True):
                got = _assembled(assemble, buffer, tolerant, skip_occupied)
                want = _assembled(oracles.assemble, buffer, tolerant, skip_occupied)
                assert got == want, (buffer, tolerant, skip_occupied)


@pytest.mark.parametrize("tolerant", [False, True], ids=["strict", "tolerant"])
def test_assemble_padding_grows_linearly_with_row_length(tolerant):
    # one full row and 40 rows of one cell: each short row is padded across
    # the whole width, which took time quadratic in the width when every gap
    # rescanned the rest of its row
    def make(n_cols: int) -> RowBuffer:
        return RowBuffer([[RawCell("x")] * n_cols] + [[RawCell("y")] for _ in range(40)])

    ratio = growth_ratio(lambda buffer: assemble(buffer, tolerant=tolerant), make, 120)
    assert ratio < 9, ratio


def test_convert_caps_absurd_spans():
    html, diag = convert('<table><tr><td colspan="999999">a</td></tr></table>', HTML)
    assert diag.recovered
    assert 'colspan="512"' in html


def test_convert_idempotent():
    rng = random.Random(11)
    cases = []
    for _ in range(40):
        data = random_table_dict(rng)
        cases.append(("prefix junk " + serialize(table_from_dict(data), HTML) + " suffix", HTML))
        md = serialize(table_from_dict(project_markdown(random_table_dict(rng, spans=False))), MD)
        cases.append(("noise\n" + md + "\nmore noise", MD))
    cases.extend([("random garbage $%#", HTML), ("", MD), ("| a | b", MD)])
    for src, fmt in cases:
        once, d1 = convert(src, fmt)
        twice, d2 = convert(once, HTML)
        assert twice == once
        assert d1.recovered == d2.recovered or d1.recovered  # sentinel stays sentinel


def test_convert_never_raises_on_noise():
    rng = random.Random(5)
    for _ in range(300):
        blob = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 120)))
        text = blob.decode("latin-1")
        for fmt in (HTML, MD, TEX):
            html, diag = convert(text, fmt)
            assert isinstance(html, str)
            assert html.startswith("<table")


def test_sniff_format():
    assert sniff_format("  <table><tr><td>a</td></tr></table>") == HTML
    assert sniff_format("\\begin{tabular}{c}\na \\\\\n\\end{tabular}") == TEX
    assert sniff_format("| a |\n| --- |") == MD
    assert sniff_format("") == MD


def test_detect_format():
    assert detect_format("x/table.html") == HTML
    assert detect_format("t.md") == MD
    assert detect_format("t.tex") == TEX
    assert detect_format("t.json") is None


def test_sniff_format_pipe_table_whose_cells_hold_tabular_is_markdown():
    table = Table(2, 2, (
        AnchorCell(1, 1, content="x"), AnchorCell(1, 2, content="y"),
        AnchorCell(2, 1, content="\\begin{tabular}"), AnchorCell(2, 2, content="b"),
    ))
    assert sniff_format(serialize(table, MD)) == MD
    assert sniff_format("  | \\begin{tabular}{c} |\n| --- |") == MD


@pytest.mark.parametrize("rows", [
    "<tr><td>a</td><td>b</td></tr>",
    "<thead><tr><td>a</td><td>b</td></tr></thead>",
    "<tbody><tr><td>a</td><td>b</td></tr></tbody>",
    "<tfoot><tr><td>a</td><td>b</td></tr></tfoot>",
])
def test_an_unclosed_caption_ends_where_the_rows_start(rows):
    src = f"<table><caption>t{rows}</table>"
    table, diag = parse(src, HTML)
    assert table.caption == "t"
    assert [a.content for a in table.anchors] == ["a", "b"]
    assert diag.warnings == ()
    html, diag = convert(src, HTML)
    assert html == "<table><caption>t</caption><tr><td>a</td><td>b</td></tr></table>"
    assert diag.recovered and diag.warnings == ()
