"""Seeded inputs for the benchmark: tables, corpus files and QA pairs.

Everything here works on the neutral table dict that tablekit's JSON
corpus files use ({"n_rows", "n_cols", "caption", "anchors": [...]}) and
imports nothing from tablekit, so the benchmark's expectations come from
a second route. The same seed always yields the same inputs; table shapes
come from a fixed multiset that the seed only shuffles, so the amount of
work barely moves from seed to seed.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import reference

WORDS = (
    "alpha bravo charlie delta echo fox golf hotel india juliet kilo lima mike "
    "nov oscar papa quebec romeo sierra tango total sum mean rate pct region "
    "north south east west q1 q2 q3 q4 revenue cost margin units share"
).split()

# escape-worthy text for every format: HTML entities, Markdown pipes, LaTeX
# specials. Kept out: quotes and ';' (the prose answer patterns stop at them),
# a bare '{}' (a JSON object), backslashes, and a leading '[' (see CHANGES.md:
# the LaTeX parser drops a row's first cell when it starts with '[').
SPECIALS = (
    "a&b", "x<y", "p>q", "m|n", "50%", "c#d", "id_9", "{k}", "v1, v2",
    "r&d <q3>", "5 > 3", "a_b_c", "#1", "100%", "~y", "t^2", "$5", "x|y|z",
    "&amp", "<b>bold</b>", "50% & up", "{a}_{b}",
)

CORPUS_FORMATS = ("json", "html", "markdown", "latex")
_SUFFIX = {"json": ".json", "html": ".html", "markdown": ".md", "latex": ".tex"}


def cell_text(rng: random.Random) -> str:
    roll = rng.random()
    if roll < 0.07:
        return ""
    if roll < 0.20:
        return rng.choice(SPECIALS)
    if roll < 0.40:
        return rng.choice(
            (str(rng.randint(-99, 9999)), f"{rng.randint(1, 999)}.{rng.randint(0, 99)}",
             f"{rng.randint(1, 99)}%", f"{rng.randint(1, 9)},{rng.randint(100, 999)}")
        )
    return " ".join(rng.choice(WORDS) for _ in range(rng.randint(1, 3)))


def make_table(rng: random.Random, n_rows: int, n_cols: int, span_p: float = 0.12) -> dict:
    """Random valid table: row-major greedy placement over free positions."""
    header_rows = min(rng.choice((0, 1, 1, 2)), n_rows)
    taken = [[False] * n_cols for _ in range(n_rows)]
    anchors = []
    for r in range(n_rows):
        for c in range(n_cols):
            if taken[r][c]:
                continue
            run = 0
            while c + run < n_cols and not taken[r][c + run]:
                run += 1
            row_span = col_span = 1
            if rng.random() < span_p:
                col_span = rng.randint(1, min(run, 3))
                down = 1
                while r + down < n_rows and not any(taken[r + down][c : c + col_span]):
                    down += 1
                row_span = rng.randint(1, min(down, 3))
            for rr in range(r, r + row_span):
                for cc in range(c, c + col_span):
                    taken[rr][cc] = True
            anchors.append({
                "row": r + 1, "col": c + 1, "row_span": row_span, "col_span": col_span,
                "content": cell_text(rng), "is_header": r < header_rows,
            })
    caption = None
    if rng.random() < 0.3:
        caption = " ".join(rng.choice(WORDS) for _ in range(rng.randint(2, 5)))
    return {"n_rows": n_rows, "n_cols": n_cols, "caption": caption, "anchors": anchors}


def has_spans(table: dict) -> bool:
    return any(a["row_span"] > 1 or a["col_span"] > 1 for a in table["anchors"])


def shapes(n: int, max_rows: int, max_cols: int) -> list[tuple[int, int]]:
    """n table shapes from 1x1 up to max_rows x max_cols, skewed towards
    small tables. The multiset depends on the arguments only, never on the
    workload seed."""
    rng = random.Random(f"shapes|{n}|{max_rows}|{max_cols}")
    return [
        (1 + int((max_rows - 1) * rng.random() ** 2.5 + 0.5),
         1 + int((max_cols - 1) * rng.random() ** 1.5 + 0.5))
        for _ in range(n)
    ]


def project(table: dict, fmt: str) -> dict:
    """The table as a file of the given format can carry it: Markdown has no
    caption and marks exactly row 1 as header; LaTeX has neither captions
    nor header flags."""
    if fmt in ("json", "html"):
        return table
    out = dict(table, caption=None)
    out["anchors"] = [dict(a, is_header=(fmt == "markdown" and a["row"] == 1)) for a in table["anchors"]]
    return out


# ---------------------------------------------------------------------------
# serializers, written apart from tablekit's canonical ones (different
# whitespace, attribute order and rules) so that inputs exercise parsing
# ---------------------------------------------------------------------------


def _html_escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def to_html(table: dict) -> str:
    lines = ["<table>"]
    if table.get("caption") is not None:
        lines.append(f"  <caption>{_html_escape(table['caption'])}</caption>")
    by_row: dict[int, list[dict]] = {}
    for a in table["anchors"]:
        by_row.setdefault(a["row"], []).append(a)
    for r in range(1, table["n_rows"] + 1):
        cells = []
        for a in sorted(by_row.get(r, []), key=lambda x: x["col"]):
            tag = "th" if a["is_header"] else "td"
            attrs = ""
            if a["col_span"] > 1:
                attrs += f" colspan='{a['col_span']}'"
            if a["row_span"] > 1:
                attrs += f" rowspan='{a['row_span']}'"
            cells.append(f"<{tag}{attrs}>{_html_escape(a['content'])}</{tag}>")
        lines.append("  <tr>" + "".join(cells) + "</tr>")
    lines.append("</table>")
    return "\n".join(lines)


def to_markdown(table: dict) -> str:
    if has_spans(table):
        raise ValueError("markdown cannot express spans")
    rows: dict[int, list[dict]] = {}
    for a in table["anchors"]:
        rows.setdefault(a["row"], []).append(a)
    lines = []
    for r in range(1, table["n_rows"] + 1):
        cells = [a["content"].replace("\\", "\\\\").replace("|", "\\|")
                 for a in sorted(rows[r], key=lambda x: x["col"])]
        lines.append("|" + "|".join(f" {c} " for c in cells) + "|")
        if r == 1:
            lines.append("|" + "|".join([":---"] * table["n_cols"]) + "|")
    return "\n".join(lines)


_LATEX_ESCAPES = {ch: "\\" + ch for ch in "&%#_{}"}


def to_latex(table: dict) -> str:
    cover: dict[tuple[int, int], dict] = {}
    for a in table["anchors"]:
        for r in range(a["row"], a["row"] + a["row_span"]):
            for c in range(a["col"], a["col"] + a["col_span"]):
                cover[(r, c)] = a
    lines = ["\\begin{tabular}{|" + "l|" * table["n_cols"] + "}", "\\hline"]
    for r in range(1, table["n_rows"] + 1):
        cells = []
        c = 1
        while c <= table["n_cols"]:
            a = cover[(r, c)]
            if a["row"] == r:
                text = "".join(_LATEX_ESCAPES.get(ch, ch) for ch in a["content"])
                if a["row_span"] > 1:
                    text = f"\\multirow{{{a['row_span']}}}{{*}}{{{text}}}"
            else:
                text = ""  # continuation slot below a row span
            if a["col_span"] > 1:
                text = f"\\multicolumn{{{a['col_span']}}}{{c}}{{{text}}}"
            cells.append(text)
            c += a["col_span"]
        lines.append(" & ".join(cells) + " \\\\ \\hline")
    lines.append("\\end{tabular}")
    return "\n".join(lines)


SERIALIZERS = {"html": to_html, "markdown": to_markdown, "latex": to_latex}


# ---------------------------------------------------------------------------
# a corpus on disk
# ---------------------------------------------------------------------------


def build_corpus(seed: int, table_shapes: list[tuple[int, int]]) -> dict[str, dict]:
    """table id -> table, in id order. Each table also records the file
    format it will be written in, under the key "format"."""
    rng = random.Random(f"corpus|{seed}")
    order = list(table_shapes)
    rng.shuffle(order)
    tables: dict[str, dict] = {}
    for i, (n_rows, n_cols) in enumerate(order):
        table = make_table(rng, n_rows, n_cols)
        fmt = rng.choices(CORPUS_FORMATS, weights=(0.55, 0.2, 0.1, 0.15))[0]
        if fmt == "markdown" and has_spans(table):
            fmt = "html"
        table = dict(project(table, fmt), format=fmt)
        tables[f"t{i:05d}"] = table
    return tables


def write_corpus(tables: dict[str, dict], corpus_dir: Path) -> None:
    corpus_dir.mkdir(parents=True, exist_ok=True)
    for table_id, table in tables.items():
        fmt = table["format"]
        body = {k: v for k, v in table.items() if k != "format"}
        if fmt == "json":
            text = json.dumps(body, ensure_ascii=False)
        else:
            text = SERIALIZERS[fmt](body)
        (corpus_dir / f"{table_id}{_SUFFIX[fmt]}").write_text(text, encoding="utf-8")


def qa_pairs(tables: dict[str, dict], seed: int) -> list[dict]:
    """One question for half of the tables: a cell lookup, or a row count."""
    rng = random.Random(f"qa|{seed}")
    pairs = []
    for table_id in sorted(rng.sample(sorted(tables), len(tables) // 2)):
        table = tables[table_id]
        grid = reference.position_map(table)
        filled = sorted(pos for pos, a in grid.items() if a["content"])
        if filled and rng.random() < 0.7:
            r, c = rng.choice(filled)
            pairs.append({"table_id": table_id,
                          "question": f"What is the value in row {r}, column {c}?",
                          "answer": grid[(r, c)]["content"]})
        else:
            pairs.append({"table_id": table_id, "question": "How many rows does the table have?",
                          "answer": str(table["n_rows"])})
    return pairs


def pool_sizes(n_tables: int, eval_share: float) -> tuple[int, int]:
    """(train, eval) pool sizes for which counts of (train, eval) per task
    make tablekit's proportional partition use exactly these sizes."""
    n_eval = max(1, round(n_tables * eval_share))
    return n_tables - n_eval, n_eval


def write_config(work: Path, corpus_dir: Path, qa_path: Path, pools: tuple[int, int],
                 seed: int, share: float) -> Path:
    """A synth config that asks `tsd` for one sample per table of each split,
    so every table is referenced and rendered, and the other structure tasks
    for `share` of that. Every task keeps the pools' train:eval ratio."""
    train, eval_ = pools
    part = [round(train * share), round(eval_ * share)]
    config = {
        "corpus_dir": str(corpus_dir.relative_to(work)),
        "master_seed": seed,
        "counts": {task: list(pools) if task == "tsd" else part
                   for task in ("tsd", "tce", "tcl", "mcd", "rce", "tr")},
        "multiturn_fraction": 0.2,
        "qa_pairs_path": str(qa_path.relative_to(work)),
    }
    path = work / "config.json"
    path.write_text(json.dumps(config, indent=1), encoding="utf-8")
    return path
