"""Reference computations the benchmark checks tablekit's outputs against.

Written from the documented definitions (README "Predictions and
scoring" and the metric docstrings), not from tablekit's code, and
importing nothing from it.
"""

from __future__ import annotations


def levenshtein(a: str, b: str) -> int:
    """Edit distance with unit insert, delete and substitute costs."""
    if len(a) < len(b):
        a, b = b, a
    row = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        diag, row[0] = row[0], i
        for j, cb in enumerate(b, start=1):
            diag, row[j] = row[j], min(row[j] + 1, row[j - 1] + 1, diag + (ca != cb))
    return row[-1]


def normalize(value: object) -> str:
    """Trimmed, whitespace-collapsed, case-folded text."""
    return " ".join(str(value).split()).casefold()


def set_f1(pred: set, gold: set) -> tuple[float, float, float]:
    """Precision, recall and F1 over exact elements; empty against empty is
    a perfect score, and an empty side against a non-empty one scores 0."""
    hits = len(pred & gold)
    if not pred and not gold:
        return 1.0, 1.0, 1.0
    precision = hits / len(pred) if pred else 0.0
    recall = hits / len(gold) if gold else 0.0
    f1 = 2 * precision * recall / (precision + recall) if hits else 0.0
    return precision, recall, f1


def cell_accuracy(pred_cells: list[dict], gold_cells: list[dict], keyed_by: str) -> float:
    """Share of gold cells the prediction gets right. By "position": the
    predicted value at the gold position equals the gold value. By "value":
    the predicted position for the gold value equals the gold position.
    Text compares after normalize(); a later entry for the same key wins."""
    other = "value" if keyed_by == "position" else "position"

    def key(cell: dict):
        return tuple(cell["position"]) if keyed_by == "position" else normalize(cell["value"])

    def target(cell: dict):
        return normalize(cell["value"]) if other == "value" else tuple(cell["position"])

    predicted = {key(cell): target(cell) for cell in pred_cells}
    hits = sum(1 for cell in gold_cells if predicted.get(key(cell)) == target(cell))
    return hits / len(gold_cells)


def line_f1(pred_lines: dict[str, list[str]], gold_lines: dict[str, list[str]]) -> float:
    """Mean over the gold lines of the F1 between (index, normalized text)
    entries of the predicted and the gold line."""
    def entries(cells: list[str]) -> set:
        return {(i, normalize(text)) for i, text in enumerate(cells)}

    scores = [set_f1(entries(pred_lines.get(key, [])), entries(cells))[2]
              for key, cells in gold_lines.items()]
    return sum(scores) / len(scores)


def tree_size(table: dict) -> int:
    """Nodes of a table's TEDS tree: the root, one per row, one per cell."""
    return 1 + table["n_rows"] + len(table["anchors"])


def single_edit_teds(gold_text: str, pred_text: str, nodes: int) -> float:
    """TEDS of two equally shaped tables that differ in one cell's text:
    1 - (Levenshtein / longer length) / node count."""
    longer = max(len(gold_text), len(pred_text))
    cost = levenshtein(gold_text, pred_text) / longer if longer else 0.0
    return 1.0 - cost / nodes


def teds_upper_bound(pred_nodes: int, gold_nodes: int) -> float:
    """Each insert or delete changes a tree's size by one, so the distance
    is at least the size difference."""
    return 1.0 - abs(pred_nodes - gold_nodes) / max(pred_nodes, gold_nodes)


def position_map(table: dict) -> dict[tuple[int, int], dict]:
    """Grid position -> covering anchor, by scanning every anchor's extent."""
    grid = {}
    for a in table["anchors"]:
        for r in range(a["row"], a["row"] + a["row_span"]):
            for c in range(a["col"], a["col"] + a["col_span"]):
                grid[(r, c)] = a
    return grid


def merged_regions(table: dict) -> list[list[list[int]]]:
    """[[top, left], [bottom, right]] of every spanning anchor, row-major."""
    regions = [
        [[a["row"], a["col"]], [a["row"] + a["row_span"] - 1, a["col"] + a["col_span"] - 1]]
        for a in table["anchors"] if a["row_span"] > 1 or a["col_span"] > 1
    ]
    return sorted(regions)


def line(table: dict, axis: str, index: int) -> list[str]:
    """Texts along one row or column, spanned positions repeating their anchor."""
    grid = position_map(table)
    if axis == "row":
        return [grid[(index, c)]["content"] for c in range(1, table["n_cols"] + 1)]
    return [grid[(r, index)]["content"] for r in range(1, table["n_rows"] + 1)]


def canonical(table: dict) -> tuple:
    """Order-free comparable form of a table dict: shape, caption and the
    set of anchors with their spans, text and header flag."""
    anchors = frozenset(
        (a["row"], a["col"], a.get("row_span", 1), a.get("col_span", 1),
         a.get("content", ""), bool(a.get("is_header", False)))
        for a in table["anchors"]
    )
    return table["n_rows"], table["n_cols"], table.get("caption"), anchors
