"""Textual table formats: strict parsing, serialization, tolerant conversion.

Run: python3 demos/02_formats.py
"""

from __future__ import annotations

from tablekit import ParseError, TableFormat, UnrepresentableInFormat, convert, parse, serialize

markdown_src = """\
| city | population |
| --- | --- |
| Oslo | 709,037 |
| Bergen | 291,940 |
"""

# parse() is strict: it returns the canonical table plus its warnings.
table, warnings = parse(markdown_src, TableFormat.MARKDOWN)
print(f"parsed {table.n_rows}x{table.n_cols} table, warnings={warnings}")

# serialize() emits canonical text; every format round-trips its own output.
for fmt in TableFormat:
    try:
        text = serialize(table, fmt)
    except UnrepresentableInFormat as exc:
        print(f"\n-- {fmt.value}: {exc}")
        continue
    print(f"\n-- {fmt.value} --\n{text}")
    back, _ = parse(text, fmt)
    assert (back.n_rows, back.n_cols) == (table.n_rows, table.n_cols)

# Pipe tables cannot express merged cells.
spanned, _ = parse(
    '<table><tr><td colspan="2">total</td></tr><tr><td>1</td><td>2</td></tr></table>',
    TableFormat.HTML,
)
try:
    serialize(spanned, TableFormat.MARKDOWN)
except UnrepresentableInFormat as exc:
    print(f"markdown refuses merged cells: {exc}")

# convert() is a tolerant parse followed by serialize() to HTML: text that
# holds no table becomes the sentinel empty table instead of an error, and
# the warnings say why.
html, warnings = convert("no table here at all", TableFormat.MARKDOWN)
print(f"\njunk converts to sentinel: {html!r} (warnings={warnings})")

# Both readers hold a table to 512 rows x 512 columns: strict parse() refuses
# a larger one, the tolerant one cuts it to the limit.
wide = '<table><tr><td colspan="100000">a</td></tr></table>'
try:
    parse(wide, TableFormat.HTML)
except ParseError as exc:
    print(f"strict parse refuses it: {exc}")
print(f"convert cuts it: {convert(wide, TableFormat.HTML)[0]}")
