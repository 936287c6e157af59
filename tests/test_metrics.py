"""Tests for TEDS, BLEU, answer extraction, and the evaluation driver."""

from __future__ import annotations

import importlib
import json
import math
import random
import string
import time

import pytest

from tablekit.cli import main
from tablekit.core import AnchorCell, Table, table_from_dict
from tablekit.formats import convert, parse_tolerant, serialize
from tablekit.formats.common import SENTINEL_HTML, TableFormat
from tablekit.formats.html import serialize_html
from tablekit.metrics.bleu import LengthMismatch, bleu, tokenize
from tablekit.metrics.evaluate import (
    FileFormatError,
    aggregate,
    answers_match,
    evaluate,
    normalize_cell,
    score_cell_accuracy,
    score_mcd,
    score_rce,
    score_sample,
    score_set_f1,
    score_tsd,
)
from tablekit.metrics import extraction
from tablekit.metrics.extraction import ExtractionStatus, extract_json_answer
from tablekit.metrics.teds import (
    TreeNode,
    html_to_tree,
    levenshtein,
    table_to_tree,
    teds,
    tree_edit_distance,
    tree_size,
)
from tablekit.taskdefs import TaskKind
from tablekit.tasks import SynthConfig, synthesize

import oracles
from scaling import growth_ratio


def node_from_tuple(t: tuple) -> TreeNode:
    return TreeNode(t[0], t[1], t[2], t[3], [node_from_tuple(c) for c in t[4]])


def tuple_from_node(node: TreeNode) -> tuple:
    return (node.tag, node.content, node.colspan, node.rowspan, [tuple_from_node(c) for c in node.children])


def tuple_to_html(t: tuple) -> str:
    parts = ["<table>"]
    for row in t[4]:
        parts.append("<tr>")
        for cell in row[4]:
            attrs = ""
            if cell[2] != 1:
                attrs += f' colspan="{cell[2]}"'
            if cell[3] != 1:
                attrs += f' rowspan="{cell[3]}"'
            parts.append(f"<td{attrs}>{cell[1]}</td>")
        parts.append("</tr>")
    parts.append("</table>")
    return "".join(parts)


# ---------------------------------------------------------------------------
# html_to_tree canonicalization
# ---------------------------------------------------------------------------


def test_tree_basic_shape():
    tree = html_to_tree("<table><tr><td>a</td><td>b</td></tr></table>")
    assert tree.tag == "table"
    assert [r.tag for r in tree.children] == ["tr"]
    assert [c.content for c in tree.children[0].children] == ["a", "b"]
    assert tree_size(tree) == 4


def test_tree_th_and_wrappers_fold_away():
    tree = html_to_tree(
        "<table><thead><tr><th>H1</th><th>H2</th></tr></thead>"
        "<tbody><tr><td>v1</td><td>v2</td></tr></tbody></table>"
    )
    assert len(tree.children) == 2
    assert all(cell.tag == "td" for row in tree.children for cell in row.children)
    assert tree.children[0].children[0].content == "H1"


def test_tree_spans_kept_and_clamped():
    # spans that fit the grid are kept; an unreadable or zero span reads as 1
    tree = html_to_tree(
        '<table><tr><td colspan="3" rowspan="2">a</td><td colspan="abc" rowspan="0">c</td></tr>'
        "<tr><td>d</td></tr></table>"
    )
    (a, c), (d,) = (row.children for row in tree.children)
    assert (a.content, a.colspan, a.rowspan) == ("a", 3, 2)
    assert (c.content, c.colspan, c.rowspan) == ("c", 1, 1)
    assert (d.content, d.colspan, d.rowspan) == ("d", 1, 1)
    # absurd spans are capped to the grid and the size limits, as convert caps them
    (b,) = html_to_tree('<table><tr><td colspan="999999" rowspan="9999">b</td></tr></table>').children[0].children
    assert (b.colspan, b.rowspan) == (512, 1)


def test_tree_whitespace_collapse_and_br():
    tree = html_to_tree("<table><tr><td>  a \n  b&amp;c<br>d </td></tr></table>")
    assert tree.children[0].children[0].content == "a b&c d"


def test_tree_garbage_is_single_node():
    for junk in ("not a table at all", "", "<div><p>x</p></div>", "{[(<", None):
        tree = html_to_tree(junk)
        assert tree.tag == "table"
        assert tree.children == []
        assert tree_size(tree) == 1


def test_tree_nested_table_flattened_into_its_cell():
    html = "<table><tr><td>x<table><tr><td>inner</td></tr></table></td></tr></table>"
    tree = html_to_tree(html)
    assert tree_size(tree) == 3
    assert tree.children[0].children[0].content == "x inner"
    assert tree == html_to_tree(convert(html, TableFormat.HTML)[0])


def test_tree_second_table_ignored():
    tree = html_to_tree(
        "<table><tr><td>first</td></tr></table><table><tr><td>second</td></tr></table>"
    )
    assert tree_size(tree) == 3
    assert tree.children[0].children[0].content == "first"


def test_tree_implicit_rows_and_fragments():
    bare_cells = html_to_tree("<table><td>a</td><td>b</td></table>")
    assert len(bare_cells.children) == 1
    assert len(bare_cells.children[0].children) == 2
    fragment = html_to_tree("<tr><td>q</td></tr><tr><td>r</td></tr>")
    assert len(fragment.children) == 2
    assert fragment.children[1].children[0].content == "r"


def test_tree_unclosed_tags_tolerated():
    tree = html_to_tree("<table><tr><td>a<td>b<tr><td>c")
    # the ragged second row is padded
    assert [len(r.children) for r in tree.children] == [2, 2]
    assert tree.children[1].children[0].content == "c"


# ---------------------------------------------------------------------------
# levenshtein
# ---------------------------------------------------------------------------


def test_levenshtein_frozen():
    assert levenshtein("", "") == 0
    assert levenshtein("abc", "abc") == 0
    assert levenshtein("abc", "") == 3
    assert levenshtein("", "xy") == 2
    assert levenshtein("kitten", "sitting") == 3
    assert levenshtein("flaw", "lawn") == 2


def test_levenshtein_matches_recursive_oracle():
    rng = random.Random(401)
    for _ in range(200):
        a = "".join(rng.choice("abcx") for _ in range(rng.randint(0, 7)))
        b = "".join(rng.choice("abcx") for _ in range(rng.randint(0, 7)))
        assert levenshtein(a, b) == oracles._lev_recursive(a, b)


def test_levenshtein_matches_list_dp_reference():
    # lengths around 64 and 128: the word boundaries of fixed-width versions of the method
    rng = random.Random(409)
    alphabets = ["ab", "abcx", "a\u00e9\u4e2d \U0001f600", string.ascii_letters + string.digits]
    lengths = [0, 1, 2, 7, 31, 63, 64, 65, 127, 128, 129, 200, 300]
    masks: dict[str, dict[str, int]] = {}
    for _ in range(150):
        alphabet = rng.choice(alphabets)
        a = "".join(rng.choice(alphabet) for _ in range(rng.choice(lengths)))
        b = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 300)))
        if rng.random() < 0.3:  # a near copy
            b = "".join(ch for ch in a if rng.random() < 0.9)
        want = oracles.levenshtein(a, b)
        assert levenshtein(a, b) == want, (a, b)
        assert levenshtein(b, a) == want, (b, a)
        # the longer string's match masks, built on the first call and
        # read back on the second and on later pairs that share it
        assert levenshtein(a, b, masks) == want, (a, b)
        assert levenshtein(b, a, masks) == want, (b, a)
    # the masks of a string of many distinct characters are not kept: they
    # take a bit per distinct character and position
    wide = "".join(map(chr, range(0x4E00, 0x4E00 + 200)))
    masks.clear()
    assert levenshtein(wide, "\u4e01x", masks) == oracles.levenshtein(wide, "\u4e01x") == 199
    assert masks == {}


# ---------------------------------------------------------------------------
# tree edit distance and TEDS
# ---------------------------------------------------------------------------


def test_teds_identical_is_exactly_one():
    html = '<table><tr><td colspan="2">a</td></tr><tr><td>b</td><td>c</td></tr></table>'
    assert teds(html, html) == 1.0


def test_teds_single_cell_rename_anchor():
    a = "<table><tr><td>a</td></tr></table>"
    b = "<table><tr><td>b</td></tr></table>"
    assert abs(teds(a, b) - (1.0 - 1.0 / 3.0)) < 1e-9


def test_teds_sentinel_vs_single_cell_anchor():
    one_cell = "<table><tr><td>content here</td></tr></table>"
    assert abs(teds("<table></table>", one_cell) - (1.0 - 2.0 / 3.0)) < 1e-9


def test_teds_span_mismatch_costs_full_rename():
    a = "<table><tr><td>same</td></tr></table>"
    b = '<table><tr><td colspan="2">same</td></tr></table>'
    assert abs(teds(a, b) - (1.0 - 1.0 / 3.0)) < 1e-12


def test_distance_matches_exhaustive_oracle():
    # binary-exact rename costs (content lengths 0/1/2/4) so == is safe
    rng = random.Random(402)
    for _ in range(60):
        t1 = oracles.random_tree(rng)
        t2 = oracles.random_tree(rng)
        got = tree_edit_distance(node_from_tuple(t1), node_from_tuple(t2))
        want = oracles.exhaustive_tree_distance(t1, t2)
        assert got == want, (t1, t2)


def test_teds_matches_exhaustive_oracle_via_html():
    # the oracle runs on the repaired trees that html_to_tree builds
    rng = random.Random(403)
    for _ in range(40):
        h1 = tuple_to_html(oracles.random_tree(rng))
        h2 = tuple_to_html(oracles.random_tree(rng))
        want = oracles.exhaustive_teds(tuple_from_node(html_to_tree(h1)), tuple_from_node(html_to_tree(h2)))
        assert teds(h1, h2) == want, (h1, h2)


def test_distance_symmetry_and_triangle():
    rng = random.Random(404)
    for _ in range(25):
        a, b, c = (node_from_tuple(oracles.random_tree(rng)) for _ in range(3))
        ab = tree_edit_distance(a, b)
        assert ab == tree_edit_distance(b, a)
        assert tree_edit_distance(a, c) <= ab + tree_edit_distance(b, c) + 1e-12


def test_teds_self_similarity_on_random_trees():
    rng = random.Random(405)
    for _ in range(30):
        html = tuple_to_html(oracles.random_tree(rng, max_nodes=12))
        assert teds(html, html) == 1.0


def test_teds_long_cells_time_bounded():
    rng = random.Random(410)
    a = "".join(rng.choice("abcdef") for _ in range(3000))
    # 37 substitutions by a letter absent from a: the distance is exactly 37
    b = list(a)
    for i in rng.sample(range(3000), 37):
        b[i] = "Z"
    b = "".join(b)
    start = time.perf_counter()
    got = teds(f"<table><tr><td>{a}</td></tr></table>", f"<table><tr><td>{b}</td></tr></table>")
    assert time.perf_counter() - start < 0.5
    assert abs(got - (1.0 - (37 / 3000) / 3)) < 1e-12


# the banded DP against the former full-width DP (oracles.tree_edit_distance)


def _char_edits(rng: random.Random, text: str, n: int) -> str:
    chars = list(text)
    for _ in range(n):
        op = rng.randrange(3) if chars else 0
        at = rng.randrange(len(chars) + (op == 0))
        if op == 0:
            chars.insert(at, rng.choice("xyzé "))
        elif op == 1:
            del chars[at]
        else:
            chars[at] = rng.choice("qrs")
    return "".join(chars)


def _copy_tree(node: TreeNode) -> TreeNode:
    return TreeNode(node.tag, node.content, node.colspan, node.rowspan, [_copy_tree(c) for c in node.children])


def _edited_table_tree(rng: random.Random, tree: TreeNode, edit: str) -> TreeNode:
    """A copy of a table tree with one of the edits a model makes."""
    out = _copy_tree(tree)
    rows = out.children
    cells = [cell for row in rows for cell in row.children]
    if edit in ("one_cell", "four_cells"):
        for cell in rng.sample(cells, min(len(cells), 1 if edit == "one_cell" else 4)):
            cell.content = _char_edits(rng, cell.content, rng.randint(1, 5))
    elif edit == "drop_row" and rows:
        del rows[rng.randrange(len(rows))]
    elif edit == "drop_column":
        col = rng.randrange(max(len(row.children) for row in rows))
        for row in rows:
            if col < len(row.children):
                del row.children[col]
    elif edit == "grow":
        for row in rows:
            row.children.append(TreeNode("td", rng.choice(["", "new", "n 2"])))
        width = max(len(row.children) for row in rows)
        for _ in range(2):
            rows.append(TreeNode("tr", children=[TreeNode("td", str(i)) for i in range(width)]))
    return out


_TABLE_EDITS = ("one_cell", "four_cells", "drop_row", "drop_column", "grow")


def test_banded_distance_equals_full_width_reference_on_edited_tables():
    rng = random.Random(720)
    for i in range(30):
        # a few tables up to 30x10, the rest up to 12x8, to bound the reference's time
        shape = (30, 10) if i % 10 == 0 else (12, 8)
        table = table_from_dict(oracles.random_table_dict(rng, *shape))
        gold = table_to_tree(table)
        for edit in _TABLE_EDITS:
            pred = _edited_table_tree(rng, gold, edit)
            want = oracles.tree_edit_distance(pred, gold)
            assert tree_edit_distance(pred, gold) == want, (edit, i)
            assert tree_edit_distance(gold, pred) == want, (edit, i)


def test_banded_distance_equals_full_width_reference_on_random_trees():
    rng = random.Random(721)
    for _ in range(300):
        t1 = node_from_tuple(oracles.random_tree(rng, max_nodes=rng.choice([6, 12, 30])))
        t2 = node_from_tuple(oracles.random_tree(rng, max_nodes=rng.choice([6, 12, 30])))
        assert tree_edit_distance(t1, t2) == oracles.tree_edit_distance(t1, t2), (t1, t2)


def _mixed_tree(rng: random.Random, budget: list[int], depth: int = 0) -> TreeNode:
    node = TreeNode(
        rng.choice(["table", "tr", "td", "div"]),
        "".join(rng.choice("ab") for _ in range(rng.randint(0, 3))),
        rng.randint(1, 2),
        rng.randint(1, 2),
    )
    while budget[0] > 0 and rng.random() < (0.75 if depth < 7 else 0.2):
        budget[0] -= 1
        node.children.append(_mixed_tree(rng, budget, depth + 1))
    return node


def _edited_mixed_tree(rng: random.Random, tree: TreeNode) -> TreeNode:
    """A copy with a few node deletions (children move up), insertions
    (adopting a run of siblings) and label changes."""
    out = _copy_tree(tree)
    for _ in range(rng.randint(1, 3)):
        parents, stack = [], [out]
        while stack:
            node = stack.pop()
            parents.append(node)
            stack.extend(node.children)
        parent = rng.choice(parents)
        op = rng.randrange(3)
        if op == 0 and parent.children:
            at = rng.randrange(len(parent.children))
            parent.children[at:at + 1] = parent.children[at].children
        elif op == 1:
            lo = rng.randint(0, len(parent.children))
            hi = rng.randint(lo, len(parent.children))
            parent.children[lo:hi] = [TreeNode("div", "new", children=parent.children[lo:hi])]
        else:
            parent.content = _char_edits(rng, parent.content, 1)
    return out


def test_banded_distance_equals_full_width_reference_on_deep_mixed_trees():
    rng = random.Random(722)
    for _ in range(150):
        t1 = _mixed_tree(rng, [rng.randint(0, 40)])
        t2 = _mixed_tree(rng, [rng.randint(0, 40)])
        assert tree_edit_distance(t1, t2) == oracles.tree_edit_distance(t1, t2)
        near = _edited_mixed_tree(rng, t1)
        assert tree_edit_distance(t1, near) == oracles.tree_edit_distance(t1, near)
        assert tree_edit_distance(near, t1) == oracles.tree_edit_distance(near, t1)


def test_every_band_bounds_the_distance_and_is_exact_within_its_width():
    """The lemma behind the band search, at every width k: the banded DP never
    returns less than the full-width distance D, and returns D once D <= k."""
    from tablekit.metrics.teds import _annotate, _banded_distance, _rename_cost

    rng = random.Random(726)
    for i in range(120):
        t1 = _mixed_tree(rng, [rng.randint(0, 16)])
        t2 = _edited_mixed_tree(rng, t1) if i % 2 else node_from_tuple(oracles.random_tree(rng, 12))
        want = oracles.tree_edit_distance(t1, t2)
        nodes1, lml1, keyroots1 = _annotate(t1)
        nodes2, lml2, keyroots2 = _annotate(t2)
        skew = len(nodes1) - len(nodes2)
        for k in range(max(2, abs(skew)), len(nodes1) + len(nodes2) + 1):
            got = _banded_distance(
                lml1, keyroots1, lml2, keyroots2,
                lambda x, y: _rename_cost(nodes1[x - 1], nodes2[y - 1]),
                -((k - skew) // 2), (k + skew) // 2,
            )
            assert got >= want
            if want <= k:
                assert got == want


def _banded_calls(monkeypatch) -> list[tuple[int, int]]:
    """The band (dlo, dhi) of each _banded_distance call made from now on."""
    teds_module = importlib.import_module("tablekit.metrics.teds")  # the package exports a function of that name
    calls = []
    banded = teds_module._banded_distance

    def counted(*args):
        calls.append(args[-2:])
        return banded(*args)

    monkeypatch.setattr(teds_module, "_banded_distance", counted)
    return calls


def test_band_search_skips_the_round_whose_band_it_already_ran(monkeypatch):
    """c(x, y) has the parity of n1 - n2, so for trees of equal size the band
    for k = 2 is the band for k = 3, and a result of 3 is exact at once."""
    calls = _banded_calls(monkeypatch)

    def one_row(colspan: int) -> TreeNode:
        return TreeNode("table", children=[TreeNode("tr", children=[TreeNode("td", "v", colspan) for _ in range(3)])])

    t1, t2 = one_row(1), one_row(2)  # three span mismatches: distance 3
    assert tree_edit_distance(t1, t2) == oracles.tree_edit_distance(t1, t2) == 3.0
    assert calls == [(-1, 1)]


# the certificates: pairs whose distance is known without the DP


def _grown(rng: random.Random, tree: TreeNode) -> TreeNode:
    """A copy with cells and at least one row inserted anywhere, every old
    node kept unchanged in its order."""
    out = _copy_tree(tree)
    for row in out.children:
        for _ in range(rng.randint(0, 2)):
            row.children.insert(rng.randint(0, len(row.children)), TreeNode("td", rng.choice(["", "new", "n 2"])))
    for _ in range(rng.randint(1, 3)):
        cells = [TreeNode("td", rng.choice(["", "r"])) for _ in range(rng.randint(0, 3))]
        out.children.insert(rng.randint(0, len(out.children)), TreeNode("tr", children=cells))
    return out


def _renamed(rng: random.Random, tree: TreeNode, n_cells: int) -> TreeNode:
    """A copy with n_cells cells changed in place: a span changed (rename
    cost 1.0) or a few characters edited (at most 1.0)."""
    out = _copy_tree(tree)
    cells = [cell for row in out.children for cell in row.children]
    for cell in rng.sample(cells, min(n_cells, len(cells))):
        if rng.random() < 0.3:
            cell.colspan += 1
        else:
            cell.content = _char_edits(rng, cell.content, rng.randint(1, 3))
    return out


def _random_table_tree(rng: random.Random) -> TreeNode:
    return table_to_tree(table_from_dict(oracles.random_table_dict(rng, rng.randint(2, 12), rng.randint(1, 8))))


def test_certified_pairs_skip_the_dp_and_equal_the_full_width_reference(monkeypatch):
    """A smaller tree inside the larger one (grown, or a row or column
    dropped) and a same-shape pair whose renames cost at most 2 (two span
    changes cost exactly 2.0) are scored without the DP, to the bit."""
    calls = _banded_calls(monkeypatch)
    rng = random.Random(728)
    for i in range(120):
        gold = _random_table_tree(rng)
        preds = [_grown(rng, gold), _renamed(rng, gold, rng.randint(0, 2))]
        preds += [_edited_table_tree(rng, gold, edit) for edit in ("one_cell", "drop_row", "drop_column")]
        for pred in preds:
            for a, b in ((pred, gold), (gold, pred)):
                want = oracles.tree_edit_distance(a, b)
                assert tree_edit_distance(a, b) == want, (i, a, b)
                assert calls == [], (i, a, b)
    gold = table_to_tree(_distinct_cell_table(rng, 3, 3))
    two_spans = _copy_tree(gold)
    two_spans.children[0].children[0].rowspan = two_spans.children[2].children[2].colspan = 2
    assert tree_edit_distance(two_spans, gold) == oracles.tree_edit_distance(two_spans, gold) == 2.0
    assert calls == []


def _moved_cell(tree: TreeNode) -> TreeNode:
    """A copy with the last cell of the first row moved to the front of the
    second: the same size, another shape."""
    out = _copy_tree(tree)
    out.children[1].children.insert(0, out.children[0].children.pop())
    return out


def _blocked(rng: random.Random, tree: TreeNode, by: str) -> TreeNode:
    """A grown copy in which one old cell no longer matches: its span or its
    text changed."""
    out = _copy_tree(tree)
    cell = rng.choice([cell for row in out.children for cell in row.children])
    if by == "span":
        cell.colspan += 1
    else:
        cell.content += "z"
    return _grown(rng, out)


def test_near_misses_of_the_certificates_run_the_dp(monkeypatch):
    """A same-shape pair whose renames cost just over 2, two trees of one
    size and two shapes, and a grown tree with one old cell's span or text
    changed are each scored by the DP, equal to the full-width reference."""
    calls = _banded_calls(monkeypatch)
    rng = random.Random(729)
    for i in range(40):
        table = _distinct_cell_table(rng, rng.randint(3, 8), rng.randint(3, 6))
        gold = table_to_tree(table)
        over_two = _copy_tree(gold)
        cells = [cell for row in over_two.children for cell in row.children]
        cells[0].colspan = cells[1].colspan = 2
        cells[2].content = "x" + cells[2].content[1:]  # 1/6 more
        preds = [over_two, _moved_cell(gold), _blocked(rng, gold, "span"), _blocked(rng, gold, "text")]
        for pred in preds:
            for a, b in ((pred, gold), (gold, pred)):
                calls.clear()
                want = oracles.tree_edit_distance(a, b)
                assert tree_edit_distance(a, b) == want, (i, a, b)
                assert calls, (i, a, b)
        assert tree_edit_distance(over_two, gold) == 2 + 1 / 6


def test_a_failed_certificate_check_stays_linear(monkeypatch):
    """Against a fixed 12x8 gold, the inclusion check of the 512x512-fill
    family (one cell a row, then a full row, padded) grows linearly with the
    tree, and the same-shape check of a pair with long cells stops summing
    after the third rename, whatever the length of the cells."""
    teds_module = importlib.import_module("tablekit.metrics.teds")
    from tablekit.metrics.teds import _embeds, _identity_cost

    rng = random.Random(730)
    table = _distinct_cell_table(rng, 12, 8)
    gold = table_to_tree(table)
    first = table.anchors[0].content  # so that each row's first cell maps

    def fill(n: int) -> TreeNode:  # about n cells
        side = math.isqrt(n)
        rows = f"<tr><td>{first}</td></tr>" * (side - 1) + "<tr>" + f"<td>{first}</td>" * side + "</tr>"
        return html_to_tree(f"<table>{rows}</table>")

    assert not _embeds(gold, fill(4096))
    ratio = growth_ratio(lambda tree: _embeds(gold, tree), fill, 4096)
    assert ratio < 9, ratio

    def long_cells(n: int) -> TreeNode:
        out = _copy_tree(gold)
        for row in out.children:
            for cell in row.children:
                cell.content = "".join(rng.choice(string.ascii_letters) for _ in range(n))
        return out

    ratio = growth_ratio(lambda pred: _identity_cost(pred, gold, {}), long_cells, 2000)
    assert ratio < 9, ratio
    renames = []
    real = teds_module._rename_cost
    monkeypatch.setattr(teds_module, "_rename_cost", lambda a, b, masks: renames.append(a) or real(a, b, masks))
    assert _identity_cost(long_cells(2000), gold, {}) is None
    assert len(renames) == 3  # each costs nearly 1.0


def test_long_cells_against_a_fixed_gold_scale_linearly(monkeypatch):
    """Each long cell's match masks are built once per tree_edit_distance
    call, in one dict that the certificate's renames and the DP's share."""
    teds_module = importlib.import_module("tablekit.metrics.teds")
    rng = random.Random(731)
    gold = table_to_tree(_distinct_cell_table(rng, 12, 8))

    def long_cells(n: int) -> TreeNode:
        out = _copy_tree(gold)
        for row in out.children:
            for cell in row.children:
                cell.content = "".join(rng.choice(string.ascii_letters) for _ in range(n))
        return out

    ratio = growth_ratio(lambda pred: tree_edit_distance(pred, gold), long_cells, 500)
    assert ratio < 9, ratio
    pred = long_cells(300)
    want = oracles.tree_edit_distance(pred, gold)
    dicts = []
    real = teds_module.levenshtein
    monkeypatch.setattr(teds_module, "levenshtein", lambda a, b, masks=None: dicts.append(masks) or real(a, b, masks))
    assert tree_edit_distance(pred, gold) == want
    assert dicts and all(masks is dicts[0] for masks in dicts)
    assert set(dicts[0]) == {cell.content for row in pred.children for cell in row.children}


def _distinct_cell_table(rng: random.Random, n_rows: int, n_cols: int) -> Table:
    words = rng.sample(range(10**6), n_rows * n_cols)
    anchors = tuple(
        AnchorCell(r, c, content=f"{words[(r - 1) * n_cols + c - 1]:06d}")
        for r in range(1, n_rows + 1)
        for c in range(1, n_cols + 1)
    )
    return Table(n_rows, n_cols, anchors)


def _with_one_cell_edited(table: Table) -> Table:
    anchors = list(table.anchors)
    middle = len(anchors) // 2
    cell = anchors[middle]
    anchors[middle] = AnchorCell(cell.row, cell.col, content="x" + cell.content[1:])
    return Table(table.n_rows, table.n_cols, tuple(anchors))


def test_one_cell_edit_of_a_large_table_scores_fast_and_exactly():
    rng = random.Random(723)
    big = _distinct_cell_table(rng, 50, 20)
    gold, pred = serialize_html(big), serialize_html(_with_one_cell_edited(big))
    start = time.perf_counter()
    got = teds(pred, gold)
    assert time.perf_counter() - start < 1.0
    assert got == 1.0 - (1 / 6) / 1051
    # the same construction, small enough for the full-width reference
    small = _distinct_cell_table(rng, 12, 8)
    t1, t2 = html_to_tree(serialize_html(_with_one_cell_edited(small))), html_to_tree(serialize_html(small))
    want = oracles.tree_edit_distance(t1, t2)
    assert tree_edit_distance(t1, t2) == want == 1 / 6
    assert teds(serialize_html(_with_one_cell_edited(small)), serialize_html(small)) == 1.0 - want / 109


# trees straight from the parsed table

_AWKWARD_TEXT = [
    "a&b", "&amp;", "&lt;td&gt;", "x<y", "p>q", "<b>bold</b>", "line\nbreak", "tab\there",
    "runs   of  spaces", "  padded  ", "\u00a0nbsp\u00a0", "nel\u0085end", "ünïcödé ✓",
    "汉字", "", " ", "\r\n", "&#39;", "<td>", "</table>",
]


def test_table_to_tree_equals_html_to_tree_of_serialize_html():
    rng = random.Random(724)
    for _ in range(300):
        data = oracles.random_table_dict(rng, 8, 6)
        for anchor in data["anchors"]:
            anchor["content"] = "".join(rng.choice(_AWKWARD_TEXT) for _ in range(rng.randint(0, 3)))
        if rng.random() < 0.5:
            data["caption"] = rng.choice(_AWKWARD_TEXT)
        table = table_from_dict(data)
        assert table_to_tree(table) == oracles.html_to_tree(serialize_html(table))
        assert table_to_tree(table) == html_to_tree(serialize_html(table))
    sentinel = oracles.html_to_tree(SENTINEL_HTML)
    assert sentinel == TreeNode("table")
    assert table_to_tree(None) == sentinel
    # a grid past the table model's size limit is not a valid table
    assert table_to_tree(Table(1, 1200, (AnchorCell(1, 1, col_span=1200, content="wide"),))) == sentinel
    gap = Table(2, 2, (AnchorCell(1, 1, content="only one cell"),))
    assert table_to_tree(gap) == sentinel


def test_tr_scoring_from_parsed_tables_equals_convert_then_full_teds():
    """teds in a table's own format (score_sample's tr path) equals
    converting both sides to HTML and running the former full-width TEDS, on
    random tables in each format with random character edits (many break the
    spans or the table)."""
    rng = random.Random(725)
    for i in range(240):
        fmt = list(TableFormat)[i % 3]
        data = oracles.random_table_dict(rng, 6, 5, spans=fmt is not TableFormat.MARKDOWN)
        if fmt is TableFormat.LATEX:
            data["caption"] = None
        gold_text = serialize(table_from_dict(data), fmt)
        pred_text = gold_text if i % 10 == 0 else _char_edits(rng, gold_text, rng.randint(1, 8))
        pred_html, gold_html = convert(pred_text, fmt)[0], convert(gold_text, fmt)[0]
        t1, t2 = html_to_tree(pred_html), html_to_tree(gold_html)
        if pred_html == gold_html:
            want = 1.0
        else:
            want = 1.0 - oracles.tree_edit_distance(t1, t2) / max(tree_size(t1), tree_size(t2))
        assert teds(pred_text, gold_text, fmt) == want, (fmt, pred_text)
        assert table_to_tree(parse_tolerant(pred_text, fmt)[0]) == t1


_SLOPPY_GOLD = "<table><tr><td>a</td><td>b</td></tr><tr><td>c</td><td></td></tr></table>"
_SLOPPY_HTML = [
    "<table><tr><td>a<td>b<tr><td>c",  # unclosed tags, a ragged last row
    "<table><tr><td>a<table><tr><td>x</td></tr></table></td><td>b</td></tr><tr><td>c</td><td></td></tr></table>",
    '<table><tr><td rowspan="3">a</td><td>b</td></tr></table>',  # a span past the last row
]


def test_teds_and_eval_score_html_alike():
    """teds and the tr scorer of score_sample repair HTML with one parser,
    so they give one score for one prediction."""
    cases = [(h, _SLOPPY_GOLD) for h in _SLOPPY_HTML]
    rng = random.Random(727)
    for _ in range(200):
        gold = serialize_html(table_from_dict(oracles.random_table_dict(rng, 8, 6)))
        cases.append((_char_edits(rng, gold, rng.randint(1, 8)), gold))
    for h, g in cases:
        want = teds(h, g)
        assert score_sample(TaskKind.TR, h, {"answer": g}, "html")["teds"] == want, h
    assert teds(_SLOPPY_HTML[0], _SLOPPY_GOLD) == 1.0
    assert teds(_SLOPPY_HTML[2], _SLOPPY_GOLD) == 1.0 - 3 / 7


# ---------------------------------------------------------------------------
# BLEU
# ---------------------------------------------------------------------------


def test_tokenize_words_and_punctuation():
    assert tokenize("Hello, world!") == ["hello", ",", "world", "!"]
    assert tokenize("a_b c-d") == ["a_b", "c", "-", "d"]
    assert tokenize("") == []


def test_bleu_identical_corpus_is_100():
    preds = ["The cat sat on the mat.", "Numbers: 1, 2, 3"]
    assert bleu(preds, list(preds)) == 100.0


def test_bleu_disjoint_unigrams_is_zero():
    assert bleu(["aaa bbb"], ["ccc ddd"]) == 0.0


def test_bleu_empty_prediction_is_zero():
    assert bleu([""], ["something"]) == 0.0
    assert bleu(["", ""], ["a", "b"]) == 0.0


def test_bleu_length_mismatch():
    with pytest.raises(LengthMismatch):
        bleu(["a"], [])
    with pytest.raises(LengthMismatch):
        bleu([], [])


def test_bleu_brevity_penalty_anchor():
    # perfect sub-match, pred 3 tokens vs ref 4: only orders 1..3 active
    got = bleu(["a b c"], ["a b c d"])
    assert abs(got - 100.0 * math.exp(1.0 - 4.0 / 3.0)) < 1e-9


def test_bleu_add_one_smoothing_anchor():
    # unigrams 2/4, bigrams 1/3, trigrams 0->1/3, 4-grams 0->1/2, bp = 1
    got = bleu(["a b x y"], ["a b c d"])
    want = 100.0 * ((2 / 4) * (1 / 3) * (1 / 3) * (1 / 2)) ** 0.25
    assert abs(got - want) < 1e-9


def test_bleu_matches_reference_implementation():
    rng = random.Random(406)
    vocab = ["".join(rng.choice(string.ascii_lowercase) for _ in range(rng.randint(1, 5))) for _ in range(18)]

    def sentence() -> str:
        words = []
        for _ in range(rng.randint(0, 10)):
            w = rng.choice(vocab)
            if rng.random() < 0.25:
                w += rng.choice(",.!?;:")
            words.append(w)
        return " ".join(words)

    pairs = [(sentence(), sentence()) for _ in range(50)]
    # corpus-level comparison plus each pair alone
    preds = [p for p, _ in pairs]
    refs = [r for _, r in pairs]
    assert abs(bleu(preds, refs) - oracles.reference_bleu(pairs)) <= 1e-6
    for pred, ref in pairs:
        assert abs(bleu([pred], [ref]) - oracles.reference_bleu([(pred, ref)])) <= 1e-6


# ---------------------------------------------------------------------------
# extraction
# ---------------------------------------------------------------------------


def test_extract_plain_json():
    result = extract_json_answer('Sure! {"answer": "Tokyo"}')
    assert result.status is ExtractionStatus.PARSED_JSON
    assert result.payload == {"answer": "Tokyo"}


def test_extract_last_object_wins():
    result = extract_json_answer('first {"a": 1} then {"b": 2}')
    assert result.payload == {"b": 2}


def test_extract_nested_object_stays_whole():
    text = 'Here: {"cells": [{"position": [1, 2], "value": "v"}]}'
    result = extract_json_answer(text)
    assert result.status is ExtractionStatus.PARSED_JSON
    assert result.payload == {"cells": [{"position": [1, 2], "value": "v"}]}


def test_extract_skips_unparseable_trailing_object():
    result = extract_json_answer('{"good": 1} and then {bad json}')
    assert result.status is ExtractionStatus.PARSED_JSON
    assert result.payload == {"good": 1}


def test_extract_string_aware_brace_matching():
    text = '{"note": "braces } inside { strings", "n": 7}'
    result = extract_json_answer(text)
    assert result.payload == {"note": "braces } inside { strings", "n": 7}


def test_extract_tsd_fallbacks():
    result = extract_json_answer("row_number: 3, column_number: 4", TaskKind.TSD)
    assert result.status is ExtractionStatus.REGEX_FALLBACK
    assert result.payload == {"row_number": 3, "column_number": 4}
    prose = extract_json_answer("The table has 3 rows and 4 columns.", TaskKind.TSD)
    assert prose.payload == {"row_number": 3, "column_number": 4}
    partial = extract_json_answer("I count 5 rows.", TaskKind.TSD)
    assert partial.payload == {"row_number": 5}


def test_extract_mcd_fallbacks():
    both = extract_json_answer(
        "Yes, merged regions: ((1, 1), (2, 2)) and ((3, 1), (3, 4)).", TaskKind.MCD
    )
    assert both.status is ExtractionStatus.REGEX_FALLBACK
    assert both.payload == {
        "has_merged": True,
        "regions": [[[1, 1], [2, 2]], [[3, 1], [3, 4]]],
    }
    plain_no = extract_json_answer("No merged cells here.", TaskKind.MCD)
    assert plain_no.payload == {"has_merged": False, "regions": []}


def test_extract_qa_fallback_takes_last_answer():
    result = extract_json_answer("answer: cats\nFinal answer: dogs", TaskKind.QA_WRAP)
    assert result.status is ExtractionStatus.REGEX_FALLBACK
    assert result.payload == {"answer": "dogs"}
    quoted = extract_json_answer("The answer is 'Tokyo'", TaskKind.QA_WRAP)
    assert quoted.payload == {"answer": "Tokyo"}


@pytest.mark.parametrize("text", [
    "The answer is: Paris", "The answer was Paris", "answer was: Paris", "answer = Paris",
    "The answer is Paris\nanswer is ", "answer: Paris\nThe answer was:\t \n",
])  # fmt: skip
def test_extract_qa_fallback_markers(text):
    result = extract_json_answer(text, TaskKind.QA_WRAP)
    assert result.status is ExtractionStatus.REGEX_FALLBACK
    assert result.payload == {"answer": "Paris"}
    assert score_sample(TaskKind.QA_WRAP, text, {"answer": "Paris"}, None)["correct"]


def test_extract_tce_tcl_fallbacks():
    tce = extract_json_answer("(1, 2): Alice\n(2, 3): Bob", TaskKind.TCE)
    assert tce.payload == {
        "cells": [
            {"position": [1, 2], "value": "Alice"},
            {"position": [2, 3], "value": "Bob"},
        ]
    }
    tcl = extract_json_answer("'Alice' is at (1, 2)", TaskKind.TCL)
    assert tcl.payload == {"cells": [{"value": "Alice", "position": [1, 2]}]}


def test_extract_raw_text_and_failed():
    raw = extract_json_answer("| a | b |", TaskKind.TR)
    assert raw.status is ExtractionStatus.RAW_TEXT
    assert raw.payload == "| a | b |"
    assert extract_json_answer("").status is ExtractionStatus.FAILED
    assert extract_json_answer("   \n  ").status is ExtractionStatus.FAILED
    assert extract_json_answer(None).status is ExtractionStatus.FAILED
    assert extract_json_answer(42).payload == "42"


def test_extract_json_beats_fallback():
    text = 'The table has 9 rows. {"row_number": 2, "column_number": 5}'
    result = extract_json_answer(text, TaskKind.TSD)
    assert result.status is ExtractionStatus.PARSED_JSON
    assert result.payload == {"row_number": 2, "column_number": 5}


def test_extract_never_raises_on_fuzz():
    rng = random.Random(407)
    charset = string.printable + "{}[]\"'\\|<>&\u00e9\u4e2d"
    tasks = list(TaskKind) + [None]
    for i in range(2000):
        text = "".join(rng.choice(charset) for _ in range(rng.randint(0, 60)))
        result = extract_json_answer(text, tasks[i % len(tasks)])
        assert result.status in ExtractionStatus
        if result.status is ExtractionStatus.FAILED:
            assert result.payload is None
        elif result.status is ExtractionStatus.RAW_TEXT:
            assert isinstance(result.payload, str) and result.payload
        else:
            assert isinstance(result.payload, dict)


def test_extract_matches_reference_on_random_brace_strings(monkeypatch):
    rng = random.Random(411)
    tasks = list(TaskKind) + [None]
    cases = [
        ("".join(rng.choice('{}[]"\\:,a1 ') for _ in range(rng.randint(0, 40))), tasks[i % len(tasks)])
        for i in range(20000)
    ]
    got = [extract_json_answer(text, task) for text, task in cases]
    monkeypatch.setattr(extraction, "_last_json_object", oracles._last_json_object)
    want = [extract_json_answer(text, task) for text, task in cases]
    for (text, _), g, w in zip(cases, got, want):
        assert (g.status, g.payload) == (w.status, w.payload), text


_DEEP = '{"a":' * 30000 + "1" + "}" * 30000


def test_whole_object_fast_path_matches_reference(monkeypatch):
    bodies = [
        '{"a": 1}',
        "{}",
        '{"cells": [{"position": [1, 2], "value": {"v": {}}}], "n": {"m": 1}}',
        '{"note": "braces } inside { strings", "q": "a \\"}{\\" b", "e": "\\\\"}',
        '{"x": NaN, "y": Infinity, "z": -Infinity}',
        '{"a": 1} {"b": 2}',
        '{"a": 1}\n{"b": 2}',
        '{"a": 1}, {"b": [}',
        '{"a":\xa01}',
        '{"a": 1}}',
        '{{"a": 1}',
        "[1, 2]",
        '[{"a": 1}]',
        "7",
        '"{}"',
        "null",
        'Sure: {"a": 1}',
        '{"a": 1} hope this helps',
        'The table has 3 rows and 4 columns {"row_number": 3}',
    ]
    spaces = ["", " ", "\t", "\r\n", "\x85", "\xa0", "\x1c", " \n\t\xa0"]
    tasks = [None, TaskKind.TSD, TaskKind.QA_WRAP, TaskKind.TR]
    cases = [(space + body + space[::-1], task) for body in bodies for space in spaces for task in tasks]
    with pytest.raises(RecursionError):
        json.loads(_DEEP)
    for body in (_DEEP, _DEEP + ' {"ok": 1}', '{"ok": 1} ' + _DEEP):
        cases += [(body, None), ("\r\n" + body + " ", TaskKind.TSD)]
    got = [extract_json_answer(text, task) for text, task in cases]
    monkeypatch.setattr(extraction, "_last_json_object", oracles._last_json_object)
    want = [extract_json_answer(text, task) for text, task in cases]
    for (text, task), g, w in zip(cases, got, want):
        # repr, since NaN is unequal to itself
        assert (g.status, repr(g.payload)) == (w.status, repr(w.payload)), (text[:80], task)


def test_whole_object_response_skips_the_brace_scan(monkeypatch):
    scanned = []
    scan = extraction._closing_braces

    def counting_scan(text):
        scanned.append(text)
        return scan(text)

    monkeypatch.setattr(extraction, "_closing_braces", counting_scan)
    assert extract_json_answer(' {"row_number": 2}\n', TaskKind.TSD).payload == {"row_number": 2}
    assert scanned == []
    assert extract_json_answer('Sure: {"row_number": 2}', TaskKind.TSD).payload == {"row_number": 2}
    assert extract_json_answer('{"a": 1} {"b": 2}').payload == {"b": 2}
    assert len(scanned) == 2


_WORD_PATTERNS = [
    (extraction._TSD_ROW, oracles.TSD_ROW),
    (extraction._TSD_COL, oracles.TSD_COL),
    (extraction._TSD_ROW_REV, oracles.TSD_ROW_REV),
    (extraction._TSD_COL_REV, oracles.TSD_COL_REV),
    (extraction._QA_ANSWER, oracles.QA_ANSWER),
]
_WORD_PIECES = [
    "rows", "row", "Row", "columns", "COL", "column", "s", "number", "count", "answer", "Answer",
    "is", "was", ":", "=", "_", "-", "x", "0", "7", "42", " ", " ", "\t", "\r", "\x85", "\n", "\n",
]  # fmt: skip
_BRACKET_PATTERNS = [
    (extraction._MCD_REGION, oracles.MCD_REGION),
    (extraction._TCE_PAIR, oracles.TCE_PAIR),
]
_BRACKET_PIECES = [
    "((1, 2), (3, 4))", "[(1,1),", "(2,2)]", "(1, 2): 'a'", '(1,2) -> "b" ', "(5 , 6 )", "[3,4]",
    "(", "[", ")", "]", ",", ":", "=", "->", ";", "'", '"', "1", "23", "x", "a b",
    " ", "  ", "\t", "\r", "\x85", "\n",
]  # fmt: skip


@pytest.mark.parametrize(
    "patterns, pieces", [(_WORD_PATTERNS, _WORD_PIECES), (_BRACKET_PATTERNS, _BRACKET_PIECES)], ids=["words", "brackets"]
)
def test_fallback_patterns_match_the_former_ones_on_random_strings(patterns, pieces):
    rng = random.Random(1213)
    for _ in range(20000):
        text = "".join(rng.choice(pieces) for _ in range(rng.randint(0, 12)))
        for new, old in patterns:
            got = [(m.span(), m.groups()) for m in new.finditer(text)]
            assert got == [(m.span(), m.groups()) for m in old.finditer(text)], (old.pattern, text)


@pytest.mark.parametrize(
    "task, make, n",
    [
        (TaskKind.TSD, lambda n: "rows" + " " * n + "x", 1000),
        (TaskKind.TSD, lambda n: "columns" + " " * n + "x", 1000),
        (TaskKind.TSD, lambda n: "1" * n + " x", 4000),
        (TaskKind.QA_WRAP, lambda n: "answer is a" + " " * n + "b", 4000),
        (TaskKind.QA_WRAP, lambda n: "answer was" + " " * n + ":" + " " * n, 4000),
        (TaskKind.TCE, lambda n: "(1, 2): a" + " " * n + "b", 2000),
        (TaskKind.MCD, lambda n: "((" + " " * n + "x", 2000),
    ],
    ids=["rows-spaces", "columns-spaces", "digits", "answer-spaces", "marker-colon", "value-spaces",
         "region-spaces"],
)
def test_extraction_fallbacks_grow_linearly(task, make, n):
    ratio = growth_ratio(lambda text: extract_json_answer(text, task), make, n)
    assert ratio < 9, ratio


@pytest.mark.parametrize(
    "text", ["{" * 50000, '{"a":' * 20000, '"{' * 20000], ids=["braces", "keys", "quoted"]
)
def test_extract_time_bounded_on_brace_floods(text):
    start = time.perf_counter()
    result = extract_json_answer(text)
    assert time.perf_counter() - start < 1.0
    assert result.status is ExtractionStatus.RAW_TEXT


# ---------------------------------------------------------------------------
# scoring units
# ---------------------------------------------------------------------------


def test_score_tsd_axes_independent():
    gold = {"row_number": 3, "column_number": 4}
    assert score_tsd({"row_number": 3, "column_number": 5}, gold) == (True, False)
    assert score_tsd({"row_number": "3", "column_number": 4.0}, gold) == (True, True)
    assert score_tsd({"row_number": True, "column_number": 4}, gold) == (False, True)
    assert score_tsd("3 by 4", gold) == (False, False)
    assert score_tsd({}, gold) == (False, False)
    # the gold is read the way the prediction is
    read_gold = {"row_number": "3", "column_number": 4.0}
    assert score_tsd({"row_number": 3, "column_number": 4}, read_gold) == (True, True)


def test_score_cell_accuracy_by_position():
    gold = [
        {"position": [1, 1], "value": "Alpha"},
        {"position": [2, 2], "value": "Beta"},
    ]
    exact = [
        {"position": [1, 1], "value": "Alpha"},
        {"position": [2, 2], "value": "Beta"},
    ]
    assert score_cell_accuracy(exact, gold, "position") == 1.0
    half = [{"position": [1, 1], "value": "Alpha"}, {"position": [2, 2], "value": "wrong"}]
    assert score_cell_accuracy(half, gold, "position") == 0.5
    fuzzy = [{"position": [1, 1], "value": "  ALPHA  "}]
    assert score_cell_accuracy(fuzzy, gold, "position") == 0.5
    assert score_cell_accuracy("prose", gold, "position") == 0.0
    with pytest.raises(ValueError):
        score_cell_accuracy(exact, gold, "rows")


def test_score_cell_accuracy_by_value():
    gold = [{"value": "Alice", "position": [1, 2]}]
    assert score_cell_accuracy([{"value": "alice", "position": [1, 2]}], gold, "value") == 1.0
    assert score_cell_accuracy([{"value": "Alice", "position": [2, 1]}], gold, "value") == 0.0


def test_score_set_f1_frozen():
    assert score_set_f1(set(), set()) == (1.0, 1.0, 1.0)
    # prediction and gold are judged symmetrically when exactly one is empty
    assert score_set_f1({1}, set()) == (0.0, 0.0, 0.0)
    assert score_set_f1(set(), {1}) == (0.0, 0.0, 0.0)
    p, r, f1 = score_set_f1({"a"}, {"a", "b"})
    assert (p, r) == (1.0, 0.5)
    assert abs(f1 - 2 / 3) < 1e-12


def test_score_mcd_requires_object_payload():
    spanless = {"has_merged": False, "regions": []}
    assert score_mcd("no", spanless) == (0.0, 0.0, 0.0)
    assert score_mcd(None, spanless) == (0.0, 0.0, 0.0)
    assert score_mcd({"has_merged": False, "regions": []}, spanless) == (1.0, 1.0, 1.0)
    gold = {"has_merged": True, "regions": [[[1, 1], [2, 2]]]}
    good = {"has_merged": True, "regions": [[[1, 1], [2, 2]]]}
    assert score_mcd(good, gold) == (1.0, 1.0, 1.0)
    extra = {"has_merged": True, "regions": [[[1, 1], [2, 2]], [[3, 3], [4, 4]]]}
    p, r, f1 = score_mcd(extra, gold)
    assert (p, r) == (0.5, 1.0)


def test_score_rce_lines():
    gold = {"axis": "row", "lines": {"2": ["a", "b"], "4": ["c", "d"]}}
    assert score_rce({"lines": {"2": ["a", "b"], "4": ["c", "d"]}}, gold) == 1.0
    assert score_rce({"lines": {"2": ["a", "b"]}}, gold) == 0.5
    # order is part of the answer: same cells, swapped positions
    swapped = {"lines": {"2": ["b", "a"], "4": ["c", "d"]}}
    assert score_rce(swapped, gold) == 0.5
    assert score_rce("prose", gold) == 0.0
    assert score_rce({"lines": {2: ["a", "b"], 4: ["c", "d"]}}, gold) == 1.0


def test_teds_round_trip_and_garbage():
    table = table_from_dict(
        {
            "n_rows": 2,
            "n_cols": 2,
            "caption": None,
            "anchors": [
                {"row": 1, "col": 1, "content": "a"},
                {"row": 1, "col": 2, "content": "b"},
                {"row": 2, "col": 1, "content": "c"},
                {"row": 2, "col": 2, "content": "d"},
            ],
        }
    )
    md = serialize(table, TableFormat.MARKDOWN)
    assert teds(md, md, TableFormat.MARKDOWN) == 1.0
    assert score_sample(TaskKind.TR, "Here:\n" + md, {"answer": md}, "markdown")["teds"] == 1.0
    # markerless junk gives the sentinel tree: 1 / |gold tree|
    n = tree_size(table_to_tree(table))
    got = teds("no markers in this text", md, TableFormat.MARKDOWN)
    assert abs(got - 1.0 / n) < 1e-12


def test_answers_match_rules():
    assert answers_match("1,234", 1234)
    assert answers_match("50%", "50")
    assert answers_match(3.0000001, 3)
    assert not answers_match(3.001, 3)
    assert answers_match("Tokyo ", "  tokyo")
    assert answers_match(["a", "b"], ["b", "a"])
    assert not answers_match(["a"], ["a", "a"])
    assert not answers_match(["a", "a"], ["a"])
    assert answers_match([1234], ["1,234"])
    assert not answers_match("12 34", "1234")


def test_normalize_cell():
    assert normalize_cell("  A \n b  ") == "a b"
    assert normalize_cell(17) == "17"


def test_score_sample_failed_extraction_is_all_zero():
    # the whole record, keys in order: no answer scores zero even against a
    # gold that empty text would match (no regions, an empty cell, "")
    cases = [
        (TaskKind.TSD, {"row_number": 1, "column_number": 1}, None,
         {"extraction": "failed", "row_correct": False, "column_correct": False}),
        (TaskKind.TCE, {"cells": [{"position": [1, 1], "value": ""}]}, None,
         {"extraction": "failed", "cell_accuracy": 0.0}),
        (TaskKind.TCL, {"cells": [{"value": "a", "position": [2, 1]}]}, None,
         {"extraction": "failed", "cell_accuracy": 0.0}),
        (TaskKind.MCD, {"has_merged": False, "regions": []}, None,
         {"extraction": "failed", "precision": 0.0, "recall": 0.0, "f1": 0.0}),
        (TaskKind.RCE, {"axis": "column", "lines": {"1": [""]}}, None,
         {"extraction": "failed", "f1": 0.0, "axis": "column"}),
        (TaskKind.RCE, {"lines": {"2": ["a", 3]}}, None,
         {"extraction": "failed", "f1": 0.0, "axis": "row"}),
        (TaskKind.TR, {"answer": ""}, "markdown",
         {"extraction": "failed", "teds": 0.0, "format": "markdown"}),
        (TaskKind.QA_WRAP, {"answer": ""}, None,
         {"extraction": "failed", "correct": False, "pred_text": "", "gold_text": ""}),
        (TaskKind.QA_WRAP, {"answer": ["x", 2]}, None,
         {"extraction": "failed", "correct": False, "pred_text": "", "gold_text": '["x", 2]'}),
    ]  # fmt: skip
    for task, gold, tr_format, expected in cases:
        for response in ("", " \n\t"):
            record = score_sample(task, response, gold, tr_format)
            assert list(record.items()) == list(expected.items()), (task, record)


def test_score_sample_tr_accepts_bare_table_text():
    table = table_from_dict(
        {
            "n_rows": 1,
            "n_cols": 2,
            "caption": None,
            "anchors": [
                {"row": 1, "col": 1, "content": "x"},
                {"row": 1, "col": 2, "content": "y"},
            ],
        }
    )
    md = serialize(table, TableFormat.MARKDOWN)
    gold = {"answer": md}
    wrapped = score_sample(TaskKind.TR, json.dumps(gold), gold, "markdown")
    assert wrapped["teds"] == 1.0 and wrapped["format"] == "markdown"
    bare = score_sample(TaskKind.TR, md, gold, "markdown")
    assert bare["extraction"] == "raw_text"
    assert bare["teds"] == 1.0


def test_score_sample_tr_raw_latex_with_empty_spanning_cell():
    table = table_from_dict(
        {
            "n_rows": 2,
            "n_cols": 2,
            "caption": None,
            "anchors": [
                {"row": 1, "col": 1, "col_span": 2, "content": ""},
                {"row": 2, "col": 1, "content": "x"},
                {"row": 2, "col": 2, "content": "y"},
            ],
        }
    )
    tex = serialize(table, TableFormat.LATEX)
    assert "\\multicolumn{2}{c}{}" in tex
    # extraction alone decides the route: for tr only an object with an
    # answer is one, for other tasks any object is
    assert extract_json_answer(tex, TaskKind.TR).status is ExtractionStatus.RAW_TEXT
    assert extract_json_answer(tex, TaskKind.TCE).status is ExtractionStatus.PARSED_JSON
    gold = {"answer": tex}
    # the {} of the empty cell is no answer object: the text is the table
    bare = score_sample(TaskKind.TR, tex, gold, "latex")
    assert bare["extraction"] == "raw_text"
    assert bare["teds"] == 1.0
    wrapped = score_sample(TaskKind.TR, json.dumps(gold), gold, "latex")
    assert wrapped["extraction"] == "parsed_json"
    assert wrapped["teds"] == 1.0


# ---------------------------------------------------------------------------
# evaluate end to end
# ---------------------------------------------------------------------------


def _corpus(seed: int, n: int):
    rng = random.Random(seed)
    return {f"tbl-{i:04d}": table_from_dict(oracles.random_table_dict(rng)) for i in range(n)}


def _synth_result(multiturn: float = 0.0):
    config = SynthConfig(
        counts={
            TaskKind.TSD: (4, 2),
            TaskKind.TCE: (4, 2),
            TaskKind.TCL: (4, 2),
            TaskKind.MCD: (4, 2),
            TaskKind.RCE: (4, 2),
            TaskKind.TR: (6, 3),
        },
        multiturn_fraction=multiturn,
        master_seed=31,
    )
    qa_pairs = [
        {"table_id": "tbl-0000", "question": "Total of the first row?", "answer": "1,234"},
        {"table_id": "tbl-0001", "question": "Best month?", "answer": "May"},
    ]
    return synthesize(_corpus(408, 12), config, qa_pairs=qa_pairs)


def _write_gold(tmp_path, samples):
    path = tmp_path / "gold.jsonl"
    lines = [json.dumps(s.to_dict(), ensure_ascii=False) for s in samples]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _replay_lines(samples):
    lines = []
    for s in samples:
        if s.turns is not None:
            record = {
                "sample_id": s.sample_id,
                "responses": [t.gold_response for t in s.turns],
            }
        else:
            record = {"sample_id": s.sample_id, "response": s.gold_response}
        lines.append(json.dumps(record, ensure_ascii=False))
    return lines


def _expected_flat_count(samples) -> int:
    return sum(len(s.turns) if s.turns is not None else 1 for s in samples)


def test_evaluate_gold_replay_is_perfect(tmp_path):
    result = _synth_result()
    assert result.shortfalls == {}
    gold_path = _write_gold(tmp_path, result.samples)
    pred_path = tmp_path / "preds.jsonl"
    pred_path.write_text("\n".join(_replay_lines(result.samples)) + "\n", encoding="utf-8")

    report = evaluate(pred_path, gold_path)
    assert report.counts == {
        "evaluated": _expected_flat_count(result.samples),
        "extraction_failed": 0,
        "skipped": 0,
    }
    for task, entry in report.per_task.items():
        for metric, value in entry.items():
            if metric == "n":
                continue
            want = 100.0 if metric == "bleu" else 1.0
            assert value == want, (task, metric, value)


def test_evaluate_multiturn_replay(tmp_path):
    result = _synth_result(multiturn=1.0)
    assert result.conversations > 0
    gold_path = _write_gold(tmp_path, result.samples)
    pred_path = tmp_path / "preds.jsonl"
    pred_path.write_text("\n".join(_replay_lines(result.samples)) + "\n", encoding="utf-8")

    report = evaluate(pred_path, gold_path)
    assert report.counts["evaluated"] == _expected_flat_count(result.samples)
    assert report.counts["extraction_failed"] == 0
    turn_ids = [r["sample_id"] for r in report.per_sample if "#turn" in r["sample_id"]]
    assert len(turn_ids) == sum(
        len(s.turns) for s in result.samples if s.turns is not None
    )
    for task, entry in report.per_task.items():
        for metric, value in entry.items():
            if metric == "n":
                continue
            want = 100.0 if metric == "bleu" else 1.0
            assert value == want, (task, metric, value)


def test_evaluate_empty_predictions_all_zero(tmp_path):
    result = _synth_result()
    gold_path = _write_gold(tmp_path, result.samples)
    pred_path = tmp_path / "preds.jsonl"
    pred_path.write_text("", encoding="utf-8")

    report = evaluate(pred_path, gold_path)
    n = _expected_flat_count(result.samples)
    assert report.counts == {"evaluated": n, "extraction_failed": n, "skipped": 0}
    for task, entry in report.per_task.items():
        for metric, value in entry.items():
            if metric == "n":
                continue
            assert value == 0.0, (task, metric, value)
    # the hard-zero rule covers MCD even where the gold region set is empty
    for record in report.per_sample:
        if record["task"] == "mcd":
            assert record["f1"] == 0.0


def test_evaluate_prediction_order_is_irrelevant(tmp_path):
    result = _synth_result()
    gold_path = _write_gold(tmp_path, result.samples)
    lines = _replay_lines(result.samples)
    forward = tmp_path / "fwd.jsonl"
    backward = tmp_path / "bwd.jsonl"
    forward.write_text("\n".join(lines) + "\n", encoding="utf-8")
    backward.write_text("\n".join(reversed(lines)) + "\n", encoding="utf-8")
    assert evaluate(forward, gold_path).to_dict() == evaluate(backward, gold_path).to_dict()


def test_evaluate_unknown_prediction_is_skipped(tmp_path):
    result = _synth_result()
    gold_path = _write_gold(tmp_path, result.samples)
    lines = _replay_lines(result.samples)
    lines.append(json.dumps({"sample_id": "nope-train-999999", "response": "{}"}))
    pred_path = tmp_path / "preds.jsonl"
    pred_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    report = evaluate(pred_path, gold_path)
    assert report.counts["skipped"] == 1
    assert report.counts["extraction_failed"] == 0


def test_evaluate_partial_credit_handmade(tmp_path):
    gold_records = [
        {
            "sample_id": "tsd-eval-000000",
            "task": "tsd",
            "gold_answer": {"row_number": 3, "column_number": 4},
        },
        {
            "sample_id": "tce-eval-000000",
            "task": "tce",
            "gold_answer": {
                "cells": [
                    {"position": [1, 1], "value": "a"},
                    {"position": [2, 2], "value": "b"},
                ]
            },
        },
        {
            "sample_id": "qa_wrap-eval-000000",
            "task": "qa_wrap",
            "gold_answer": {"answer": "42"},
        },
    ]
    preds = [
        {"sample_id": "tsd-eval-000000", "response": "The table has 3 rows and 9 columns."},
        {
            "sample_id": "tce-eval-000000",
            "response": '{"cells": [{"position": [1, 1], "value": "a"}]}',
        },
        {"sample_id": "qa_wrap-eval-000000", "response": "I think the answer is 42"},
    ]
    gold_path = tmp_path / "gold.jsonl"
    pred_path = tmp_path / "preds.jsonl"
    gold_path.write_text("\n".join(json.dumps(r) for r in gold_records), encoding="utf-8")
    pred_path.write_text("\n".join(json.dumps(r) for r in preds), encoding="utf-8")

    report = evaluate(pred_path, gold_path)
    assert report.per_task["tsd"]["row_accuracy"] == 1.0
    assert report.per_task["tsd"]["column_accuracy"] == 0.0
    assert report.per_task["tce"]["cell_accuracy"] == 0.5
    assert report.per_task["qa_wrap"]["accuracy"] == 1.0


def test_evaluate_rejects_malformed_files(tmp_path):
    good_gold = tmp_path / "gold.jsonl"
    good_gold.write_text(
        json.dumps(
            {"sample_id": "tsd-eval-000000", "task": "tsd", "gold_answer": {"row_number": 1, "column_number": 1}}
        ),
        encoding="utf-8",
    )
    bad = tmp_path / "bad.jsonl"

    bad.write_text("not json at all\n", encoding="utf-8")
    with pytest.raises(FileFormatError):
        evaluate(bad, good_gold)

    bad.write_text("[1, 2, 3]\n", encoding="utf-8")
    with pytest.raises(FileFormatError):
        evaluate(bad, good_gold)

    bad.write_text(json.dumps({"sample_id": "x", "no_response_key": 1}), encoding="utf-8")
    with pytest.raises(FileFormatError):
        evaluate(bad, good_gold)

    bad.write_text(json.dumps({"response": "1"}), encoding="utf-8")
    with pytest.raises(FileFormatError):
        evaluate(bad, good_gold)

    preds = tmp_path / "preds.jsonl"
    preds.write_text(json.dumps({"sample_id": "a", "response": ""}), encoding="utf-8")
    bad_gold = tmp_path / "bad_gold.jsonl"
    bad_gold.write_text(json.dumps({"sample_id": "a", "task": "unknown-task", "gold_answer": {}}), encoding="utf-8")
    with pytest.raises(FileFormatError):
        evaluate(preds, bad_gold)
    bad_gold.write_text(json.dumps({"task": "tsd", "gold_answer": {}}), encoding="utf-8")
    with pytest.raises(FileFormatError):
        evaluate(preds, bad_gold)
    with pytest.raises(FileFormatError):
        evaluate(tmp_path / "missing.jsonl", good_gold)


def test_aggregate_recomputable_from_per_sample(tmp_path):
    result = _synth_result(multiturn=0.5)
    gold_path = _write_gold(tmp_path, result.samples)
    pred_path = tmp_path / "preds.jsonl"
    pred_path.write_text("\n".join(_replay_lines(result.samples)) + "\n", encoding="utf-8")
    report = evaluate(pred_path, gold_path)
    # through a JSON round trip, as a stored report would be re-read
    revived = json.loads(json.dumps(report.per_sample))
    assert aggregate(revived) == report.per_task


def test_report_summary_lines(tmp_path):
    result = _synth_result()
    gold_path = _write_gold(tmp_path, result.samples)
    pred_path = tmp_path / "preds.jsonl"
    pred_path.write_text("\n".join(_replay_lines(result.samples)) + "\n", encoding="utf-8")
    report = evaluate(pred_path, gold_path)
    lines = report.summary_lines()
    assert any("tsd" in line for line in lines)
    assert any("teds" in line for line in lines)
    assert "extraction_failed 0" in lines[-1]
    assert all(isinstance(line, str) for line in lines)


def _write_jsonl(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    return path


def test_markdown_tr_turn_whose_cells_hold_tabular_is_scored_as_markdown(tmp_path):
    def md(last):
        return "| x | y |\n| --- | --- |\n| \\begin{tabular} | " + last + " |"

    gold = md("b")
    gold_path = _write_jsonl(tmp_path / "gold.jsonl", [
        {"sample_id": "single", "task": "tr", "gold_answer": {"answer": gold},
         "meta": {"tr_format": "markdown"}},
        {"sample_id": "multi", "task": "tr", "gold_answer": {"answer": gold},
         "turns": [{"task": "tr", "gold_answer": {"answer": gold}}]},
    ])
    pred_path = _write_jsonl(tmp_path / "preds.jsonl", [
        {"sample_id": "single", "response": md("wrong")},
        {"sample_id": "multi", "responses": [md("wrong")]},
    ])
    by_id = {r["sample_id"]: r for r in evaluate(pred_path, gold_path).per_sample}
    assert by_id["multi#turn1"]["format"] == "markdown"
    assert by_id["multi#turn1"]["teds"] == by_id["single"]["teds"] < 1.0


_GOLD_ANSWERS_THAT_SCORERS_CANNOT_READ = [
    ("tsd", ["not", "an", "object"]),
    ("tsd", {"column_number": 2}),
    ("tce", {"cells": []}),
    ("tce", {"cells": [{"value": "a"}]}),
    ("tcl", {"cells": [{"position": [1, 1]}]}),
    ("tcl", {"cells": ["a"]}),
    ("rce", {"axis": "row", "lines": {}}),
    ("rce", {"axis": "row"}),
    ("tsd", {"row_number": "many", "column_number": 2}),
    ("tce", {"cells": [{"position": [1, True], "value": "a"}]}),
    ("tcl", {"cells": [{"position": "x", "value": "a"}]}),
    ("mcd", {"regions": [["x", "y"]]}),
    ("rce", {"axis": "row", "lines": {"1": "abc"}}),
    ("rce", {"axis": "row", "lines": {"1": []}}),
    ("rce", {"axis": "diagonal", "lines": {"1": ["a"]}}),
    # an answer that empty text matches: {} would score correct, or teds 1.0
    ("qa_wrap", {}),
    ("qa_wrap", {"answer": ""}),
    ("qa_wrap", {"answer": " \n"}),
    ("qa_wrap", {"answer": None}),
    ("qa_wrap", {"answer": []}),
    ("tr", {}),
    ("tr", {"answer": ""}),
    ("tr", {"answer": "  "}),
    ("tr", {"answer": 5}),
]


@pytest.mark.parametrize("task, gold_answer", _GOLD_ANSWERS_THAT_SCORERS_CANNOT_READ)
@pytest.mark.parametrize("as_turn", [False, True])
def test_malformed_gold_answer_is_a_file_format_error(tmp_path, capsys, task, gold_answer, as_turn):
    record = {"sample_id": "g-1", "task": task, "gold_answer": gold_answer}
    if as_turn:
        record = {"sample_id": "g-1", "task": "tsd",
                  "gold_answer": {"row_number": 1, "column_number": 1},
                  "turns": [{"task": "tsd", "gold_answer": {"row_number": 1, "column_number": 1}},
                            {"task": task, "gold_answer": gold_answer}]}
    gold_path = _write_jsonl(tmp_path / "gold.jsonl", [record])
    pred_path = _write_jsonl(tmp_path / "preds.jsonl", [
        {"sample_id": "g-1", "responses": ['{"answer": 1}'] * 2} if as_turn
        else {"sample_id": "g-1", "response": '{"answer": 1}'}
    ])
    with pytest.raises(FileFormatError, match="g-1#turn2" if as_turn else "g-1"):
        evaluate(pred_path, gold_path)
    # a refused run leaves no report, not the one an earlier run wrote
    report_path = tmp_path / "report.json"
    report_path.write_text("{}", encoding="utf-8")
    assert main(["eval", str(pred_path), str(gold_path), "--out", str(report_path)]) == 1
    assert "g-1" in capsys.readouterr().err
    assert not report_path.exists()


def test_unknown_tr_format_in_gold_meta_is_a_file_format_error(tmp_path):
    gold_path = _write_jsonl(tmp_path / "gold.jsonl", [
        {"sample_id": "g-1", "task": "tr", "gold_answer": {"answer": "| a |\n| --- |"},
         "meta": {"tr_format": "rtf"}},
    ])
    pred_path = _write_jsonl(tmp_path / "preds.jsonl", [{"sample_id": "g-1", "response": "x"}])
    with pytest.raises(FileFormatError, match="g-1"):
        evaluate(pred_path, gold_path)
