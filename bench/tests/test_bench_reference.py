"""The benchmark's reference computations on small hand-made cases.

Run from the repository root: python3 -m pytest bench/tests
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import reference  # noqa: E402


def table(n_rows, n_cols, *anchors):
    return {"n_rows": n_rows, "n_cols": n_cols, "caption": None,
            "anchors": [{"row": r, "col": c, "row_span": rs, "col_span": cs, "content": t,
                         "is_header": False} for r, c, rs, cs, t in anchors]}


# 2x3 with one 2x1 merged region at column 1
MERGED = table(2, 3, (1, 1, 2, 1, "m"), (1, 2, 1, 1, "a"), (1, 3, 1, 1, "b"),
               (2, 2, 1, 1, "c"), (2, 3, 1, 1, ""))


def test_levenshtein_known_distances():
    assert reference.levenshtein("kitten", "sitting") == 3
    assert reference.levenshtein("flaw", "lawn") == 2
    assert reference.levenshtein("", "abc") == 3
    assert reference.levenshtein("abc", "") == 3
    assert reference.levenshtein("same", "same") == 0
    assert reference.levenshtein("ab", "ba") == 2


def test_normalize_trims_collapses_and_casefolds():
    assert reference.normalize("  Alpha \t  BRAVO\n") == "alpha bravo"
    assert reference.normalize(42) == "42"


def test_set_f1_cases():
    assert reference.set_f1(set(), set()) == (1.0, 1.0, 1.0)
    assert reference.set_f1({1}, set()) == (0.0, 0.0, 0.0)
    assert reference.set_f1(set(), {1}) == (0.0, 0.0, 0.0)
    assert reference.set_f1({1, 2}, {2, 3}) == (0.5, 0.5, 0.5)
    p, r, f = reference.set_f1({1}, {1, 2, 3, 4})
    assert (p, r) == (1.0, 0.25) and abs(f - 0.4) < 1e-12


def test_cell_accuracy_by_position():
    gold = [{"position": [1, 1], "value": "Alpha"}, {"position": [2, 3], "value": ""}]
    pred = [{"position": [1, 1], "value": " alpha "}, {"position": [2, 3], "value": "x"}]
    assert reference.cell_accuracy(pred, gold, "position") == 0.5
    # a later entry for the same position wins
    pred.append({"position": [2, 3], "value": ""})
    assert reference.cell_accuracy(pred, gold, "position") == 1.0
    assert reference.cell_accuracy([], gold, "position") == 0.0


def test_cell_accuracy_by_value():
    gold = [{"value": "a", "position": [1, 2]}, {"value": "b", "position": [2, 1]},
            {"value": "c", "position": [3, 3]}]
    pred = [{"value": "A", "position": [1, 2]}, {"value": "b", "position": [1, 1]},
            {"value": "c", "position": [3, 3]}]
    assert abs(reference.cell_accuracy(pred, gold, "value") - 2 / 3) < 1e-12


def test_line_f1_averages_over_gold_lines():
    gold = {"1": ["a", "b"], "2": ["c", "d"]}
    # line 1 exact; line 2 has one entry right out of two predicted, two gold
    pred = {"1": ["A", "b"], "2": ["c", "x"]}
    assert reference.line_f1(pred, gold) == (1.0 + 0.5) / 2
    assert reference.line_f1({}, gold) == 0.0


def test_tree_size_counts_root_rows_and_cells():
    assert reference.tree_size(MERGED) == 1 + 2 + 5
    assert reference.tree_size(table(1, 1, (1, 1, 1, 1, ""))) == 3


def test_single_edit_teds():
    # one of 8 nodes renamed at cost 1/2 ("ab" -> "ac")
    assert reference.single_edit_teds("ab", "ac", 8) == 1 - 0.5 / 8
    # empty to non-empty costs a whole rename
    assert reference.single_edit_teds("", "xyz", 4) == 0.75
    assert reference.single_edit_teds("", "", 4) == 1.0
    # the README anchor: renaming the only cell of a 1x1 table gives 2/3
    assert abs(reference.single_edit_teds("a", "b", 3) - 2 / 3) < 1e-12


def test_teds_upper_bound():
    assert reference.teds_upper_bound(8, 8) == 1.0
    assert reference.teds_upper_bound(6, 8) == 0.75
    assert reference.teds_upper_bound(8, 6) == 0.75


def test_grid_views_resolve_spans():
    assert reference.merged_regions(MERGED) == [[[1, 1], [2, 1]]]
    assert reference.line(MERGED, "row", 2) == ["m", "c", ""]
    assert reference.line(MERGED, "column", 1) == ["m", "m"]
    assert reference.position_map(MERGED)[(2, 1)]["content"] == "m"


def test_canonical_ignores_anchor_order_and_defaults():
    reordered = dict(MERGED, anchors=list(reversed(MERGED["anchors"])))
    assert reference.canonical(reordered) == reference.canonical(MERGED)
    sparse = {"n_rows": 1, "n_cols": 1, "anchors": [{"row": 1, "col": 1, "content": "x"}]}
    assert reference.canonical(sparse) == reference.canonical(table(1, 1, (1, 1, 1, 1, "x")))
    assert reference.canonical(dict(MERGED, caption="c")) != reference.canonical(MERGED)
