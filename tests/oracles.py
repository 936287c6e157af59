"""Independent brute-force reference implementations used only by tests.

Everything here is deliberately written against a neutral dict/tuple
representation and avoids importing the package's algorithms, so test
expectations are derived from a second route, not from the code under test.
"""

from __future__ import annotations

import json
import math
import random
import re
from itertools import combinations

# ---------------------------------------------------------------------------
# neutral table form: {"n_rows": int, "n_cols": int, "caption": str|None,
#   "anchors": [{"row","col","row_span","col_span","content","is_header"}]}
# ---------------------------------------------------------------------------


def coverage_counts(table: dict) -> dict[tuple[int, int], int]:
    """How many anchors cover each grid position (valid tiling: all exactly 1)."""
    counts: dict[tuple[int, int], int] = {
        (r, c): 0
        for r in range(1, table["n_rows"] + 1)
        for c in range(1, table["n_cols"] + 1)
    }
    for a in table["anchors"]:
        for r in range(a["row"], a["row"] + a.get("row_span", 1)):
            for c in range(a["col"], a["col"] + a.get("col_span", 1)):
                if (r, c) in counts:
                    counts[(r, c)] += 1
                else:
                    counts[(r, c)] = 99  # out of bounds marker
    return counts


def is_perfect_tiling(table: dict) -> bool:
    return all(v == 1 for v in coverage_counts(table).values())


def position_map(table: dict) -> dict[tuple[int, int], dict]:
    """Grid position -> covering anchor dict, by exhaustive scan."""
    out: dict[tuple[int, int], dict] = {}
    for a in table["anchors"]:
        for r in range(a["row"], a["row"] + a.get("row_span", 1)):
            for c in range(a["col"], a["col"] + a.get("col_span", 1)):
                out[(r, c)] = a
    return out


def oracle_dims(table: dict) -> tuple[int, int]:
    """Row/column counts recomputed from anchor extents, not the header fields."""
    max_r = max(a["row"] + a.get("row_span", 1) - 1 for a in table["anchors"])
    max_c = max(a["col"] + a.get("col_span", 1) - 1 for a in table["anchors"])
    return max_r, max_c


def oracle_content_at(table: dict, row: int, col: int) -> str:
    return position_map(table)[(row, col)]["content"]


def oracle_positions_of(table: dict, value: str) -> list[tuple[int, int]]:
    """Anchor positions holding exactly this content, row-major."""
    hits = [
        (a["row"], a["col"])
        for a in table["anchors"]
        if a["content"] == value
    ]
    return sorted(hits)


def oracle_regions(table: dict) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    regs = []
    for a in table["anchors"]:
        rs, cs = a.get("row_span", 1), a.get("col_span", 1)
        if rs > 1 or cs > 1:
            regs.append(((a["row"], a["col"]), (a["row"] + rs - 1, a["col"] + cs - 1)))
    return sorted(regs)


def oracle_line(table: dict, axis: str, index: int) -> list[str]:
    """Contents along one row or column; merged content repeats per position."""
    pm = position_map(table)
    n_rows, n_cols = table["n_rows"], table["n_cols"]
    if axis == "row":
        return [pm[(index, c)]["content"] for c in range(1, n_cols + 1)]
    return [pm[(r, index)]["content"] for r in range(1, n_rows + 1)]


# ---------------------------------------------------------------------------
# random table generator (tiling valid by construction)
# ---------------------------------------------------------------------------

_WORDS = (
    "alpha bravo charlie delta echo fox golf hotel india juliet kilo lima "
    "mike nov oscar papa quebec romeo sierra tango total sum mean rate pct "
    "2019 2020 2021 17 42 3.5 -8 0 1204 99%"
).split()
_SPECIALS = ["a&b", "x<y", "p>q", "m|n", "50%", "c#d", "id_9", "{k}", "v1, v2"]


def random_content(rng: random.Random, specials: bool = True) -> str:
    roll = rng.random()
    if roll < 0.08:
        return ""
    if specials and roll < 0.2:
        return rng.choice(_SPECIALS)
    n = rng.randint(1, 3)
    return " ".join(rng.choice(_WORDS) for _ in range(n))


def random_table_dict(
    rng: random.Random,
    max_rows: int = 5,
    max_cols: int = 5,
    spans: bool = True,
    specials: bool = True,
    header_rows: int | None = None,
    caption: bool = True,
) -> dict:
    """Random valid table built by row-major greedy placement over free cells."""
    n_rows = rng.randint(1, max_rows)
    n_cols = rng.randint(1, max_cols)
    if header_rows is None:
        header_rows = rng.choice([0, 1, 1, 2])
    header_rows = min(header_rows, n_rows)
    taken = [[False] * n_cols for _ in range(n_rows)]
    anchors = []
    for r in range(n_rows):
        for c in range(n_cols):
            if taken[r][c]:
                continue
            run = 0
            while c + run < n_cols and not taken[r][c + run]:
                run += 1
            col_span = row_span = 1
            if spans and rng.random() < 0.18:
                col_span = rng.randint(1, min(run, 3))
                max_down = 1
                while (
                    r + max_down < n_rows
                    and all(not taken[r + max_down][cc] for cc in range(c, c + col_span))
                ):
                    max_down += 1
                row_span = rng.randint(1, min(max_down, 3))
            for rr in range(r, r + row_span):
                for cc in range(c, c + col_span):
                    taken[rr][cc] = True
            anchors.append(
                {
                    "row": r + 1,
                    "col": c + 1,
                    "row_span": row_span,
                    "col_span": col_span,
                    "content": random_content(rng, specials),
                    "is_header": r < header_rows,
                }
            )
    return {
        "n_rows": n_rows,
        "n_cols": n_cols,
        "caption": random_content(rng, specials=False) or None if (caption and rng.random() < 0.3) else None,
        "anchors": anchors,
    }


# ---------------------------------------------------------------------------
# exhaustive ordered-tree edit distance (reference for the DP implementation)
# neutral tree form: (tag, content, colspan, rowspan, [children])
# ---------------------------------------------------------------------------


def tree_postorder(tree: tuple) -> list[tuple]:
    out: list[tuple] = []

    def walk(node: tuple) -> None:
        for child in node[4]:
            walk(child)
        out.append(node)

    walk(tree)
    return out


def _ancestor_matrix(tree: tuple) -> tuple[list[tuple], list[list[bool]]]:
    nodes = tree_postorder(tree)
    index = {id(n): i for i, n in enumerate(nodes)}
    n = len(nodes)
    anc = [[False] * n for _ in range(n)]

    def walk(node: tuple) -> list[int]:
        descendants: list[int] = []
        for child in node[4]:
            descendants.extend(walk(child))
        me = index[id(node)]
        for d in descendants:
            anc[me][d] = True
        descendants.append(me)
        return descendants

    walk(tree)
    return nodes, anc


def _lev_recursive(a: str, b: str) -> int:
    memo: dict[tuple[int, int], int] = {}

    def go(i: int, j: int) -> int:
        if i == len(a):
            return len(b) - j
        if j == len(b):
            return len(a) - i
        if (i, j) in memo:
            return memo[(i, j)]
        if a[i] == b[j]:
            best = go(i + 1, j + 1)
        else:
            best = 1 + min(go(i + 1, j), go(i, j + 1), go(i + 1, j + 1))
        memo[(i, j)] = best
        return best

    return go(0, 0)


def levenshtein(a: str, b: str) -> int:
    """The package's former list DP, O(mn), kept as the reference for the
    bit-parallel implementation."""
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i]
        for j, cb in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[len(b)]


def rename_cost(n1: tuple, n2: tuple) -> float:
    tag1, content1, cs1, rs1 = n1[0], n1[1], n1[2], n1[3]
    tag2, content2, cs2, rs2 = n2[0], n2[1], n2[2], n2[3]
    if tag1 != tag2:
        return 1.0
    if tag1 == "td":
        if cs1 != cs2 or rs1 != rs2:
            return 1.0
        if not content1 and not content2:
            return 0.0
        return _lev_recursive(content1, content2) / max(len(content1), len(content2))
    return 0.0


def exhaustive_tree_distance(t1: tuple, t2: tuple) -> float:
    """Minimum cost over every valid edit mapping, by direct enumeration.

    A mapping pairs postorder-increasing node sequences and must preserve
    the descendant relation in both directions; unmapped nodes cost one
    deletion or insertion each. Only feasible for tiny trees.
    """
    nodes1, anc1 = _ancestor_matrix(t1)
    nodes2, anc2 = _ancestor_matrix(t2)
    n1, n2 = len(nodes1), len(nodes2)
    best = float(n1 + n2)  # empty mapping
    for k in range(1, min(n1, n2) + 1):
        for left in combinations(range(n1), k):
            for right in combinations(range(n2), k):
                valid = True
                for x in range(k):
                    for y in range(x + 1, k):
                        # postorder i<j and i not a descendant of j means i is left of j
                        if anc1[left[y]][left[x]] != anc2[right[y]][right[x]]:
                            valid = False
                            break
                    if not valid:
                        break
                if not valid:
                    continue
                cost = float(n1 - k + n2 - k)
                for x in range(k):
                    cost += rename_cost(nodes1[left[x]], nodes2[right[x]])
                if cost < best:
                    best = cost
    return best


def tree_size(tree: tuple) -> int:
    return len(tree_postorder(tree))


def exhaustive_teds(t1: tuple, t2: tuple) -> float:
    return 1.0 - exhaustive_tree_distance(t1, t2) / max(tree_size(t1), tree_size(t2))


def random_tree(rng: random.Random, max_nodes: int = 6, content_lengths=(0, 1, 2, 4)) -> tuple:
    """Small random table-shaped tree in neutral form."""
    budget = rng.randint(1, max_nodes) - 1  # root consumes one node
    rows: list[tuple] = []
    while budget > 0:
        budget -= 1  # the tr node
        n_cells = rng.randint(0, budget)
        if rng.random() < 0.5:
            n_cells = min(n_cells, rng.randint(0, 2))
        cells = []
        for _ in range(n_cells):
            length = rng.choice(content_lengths)
            content = "".join(rng.choice("abcx") for _ in range(length))
            cells.append(("td", content, rng.randint(1, 3), rng.randint(1, 3), []))
        budget -= n_cells
        rows.append(("tr", "", 1, 1, cells))
        if rng.random() < 0.4:
            break
    return ("table", "", 1, 1, rows)


# ---------------------------------------------------------------------------
# reference corpus BLEU (independent of the package implementation)
# ---------------------------------------------------------------------------


def _ref_tokenize(text: str) -> list[str]:
    # char walk: alnum/underscore runs are words, other non-space chars stand alone
    tokens: list[str] = []
    word = []
    for ch in text.lower():
        if ch.isalnum() or ch == "_":
            word.append(ch)
        else:
            if word:
                tokens.append("".join(word))
                word = []
            if not ch.isspace():
                tokens.append(ch)
    if word:
        tokens.append("".join(word))
    return tokens


def reference_bleu(pairs: list[tuple[str, str]]) -> float:
    """Corpus BLEU, n<=4, uniform weights, brevity penalty, add-one smoothing
    on zero counts for n>=2; orders with no n-grams anywhere are skipped and
    the weights renormalized. Scale 0..100."""
    matched = [0] * 5
    total = [0] * 5
    pred_len = 0
    ref_len = 0
    for pred, ref in pairs:
        p_toks = _ref_tokenize(pred)
        r_toks = _ref_tokenize(ref)
        pred_len += len(p_toks)
        ref_len += len(r_toks)
        for n in range(1, 5):
            p_grams: dict[tuple, int] = {}
            for i in range(len(p_toks) - n + 1):
                g = tuple(p_toks[i : i + n])
                p_grams[g] = p_grams.get(g, 0) + 1
            r_grams: dict[tuple, int] = {}
            for i in range(len(r_toks) - n + 1):
                g = tuple(r_toks[i : i + n])
                r_grams[g] = r_grams.get(g, 0) + 1
            for g, cnt in p_grams.items():
                matched[n] += min(cnt, r_grams.get(g, 0))
            total[n] += max(len(p_toks) - n + 1, 0)
    log_sum = 0.0
    active = [n for n in range(1, 5) if total[n] > 0]
    if not active or pred_len == 0:
        return 0.0
    for n in active:
        m, t = matched[n], total[n]
        if m == 0:
            if n == 1:
                return 0.0
            m, t = m + 1, t + 1
        log_sum += math.log(m / t) / len(active)
    bp = 1.0 if pred_len > ref_len else math.exp(1.0 - ref_len / pred_len)
    return 100.0 * bp * math.exp(log_sum)


# ---------------------------------------------------------------------------
# JSON object extraction: the package's former quadratic scan, one
# string-aware brace match per '{', kept as the reference for the one-pass scan
# ---------------------------------------------------------------------------


def _match_brace(text: str, start: int) -> int | None:
    """Index of the brace closing text[start] ('{'), string-aware."""
    depth = 0
    in_string = False
    escaped = False
    for i in range(start, len(text)):
        ch = text[i]
        if in_string:
            if escaped:
                escaped = False
            elif ch == "\\":
                escaped = True
            elif ch == '"':
                in_string = False
            continue
        if ch == '"':
            in_string = True
        elif ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth == 0:
                return i
    return None


def _last_json_object(text: str) -> dict | None:
    spans: list[tuple[int, int]] = []
    i = 0
    while i < len(text):
        if text[i] == "{":
            end = _match_brace(text, i)
            if end is None:
                i += 1
            else:
                spans.append((i, end + 1))
                i = end + 1
        else:
            i += 1
    for start, end in reversed(spans):
        try:
            value = json.loads(text[start:end])
        except (json.JSONDecodeError, RecursionError):
            continue
        if isinstance(value, dict):
            return value
    return None


# ---------------------------------------------------------------------------
# extraction fallbacks: the package's former patterns, whose whitespace and
# digit runs could each be split between several quantifiers (polynomial
# backtracking on a failed match), kept as the reference for the linear ones.
# QA_ANSWER is the plain form of the package's current marker set (is, was,
# is:, was:, :, =; an answer starts with neither space nor a colon), its runs overlapping the same way.
# ---------------------------------------------------------------------------

TSD_ROW = re.compile(r"rows?[\s_-]*(?:number|count)?\s*(?:is|was|[:=])?\s*(\d+)", re.I)
TSD_COL = re.compile(r"col(?:umn)?s?[\s_-]*(?:number|count)?\s*(?:is|was|[:=])?\s*(\d+)", re.I)
TSD_ROW_REV = re.compile(r"(\d+)\s+rows?\b", re.I)
TSD_COL_REV = re.compile(r"(\d+)\s+col(?:umn)?s?\b", re.I)
QA_ANSWER = re.compile(r"answer\s*(?:(?:is|was)\s*:?|[:=])\s*([^\s:].*?)\s*$", re.I | re.M)
MCD_REGION = re.compile(
    r"[(\[]\s*[(\[]?\s*(\d+)\s*,\s*(\d+)\s*[)\]]?\s*,\s*[(\[]?\s*(\d+)\s*,\s*(\d+)\s*[)\]]?\s*[)\]]"
)
TCE_PAIR = re.compile(
    r"[(\[]\s*(\d+)\s*,\s*(\d+)\s*[)\]]\s*(?:->|[:=])\s*['\"]?(.*?)['\"]?\s*(?=[\n;]|$)", re.M
)


# ---------------------------------------------------------------------------
# tree edit distance: the package's former full-width Zhang-Shasha DP, every
# keyroot pair over the whole |T1| x |T2| table, kept as the reference for the
# banded DP; it reads the package's TreeNode and rename cost (the cost model,
# not the algorithm)
# ---------------------------------------------------------------------------

from tablekit.metrics.teds import _rename_cost  # noqa: E402


def _label(node) -> tuple:
    return (node.tag, node.colspan, node.rowspan, node.content)


def _annotate(root) -> tuple[list, list[int], list[int]]:
    """Postorder nodes (1-based), leftmost-leaf indices, keyroots."""
    nodes: list = []

    stack = [(root, False)]
    while stack:
        node, visited = stack.pop()
        if visited:
            nodes.append(node)
        else:
            stack.append((node, True))
            for child in reversed(node.children):
                stack.append((child, False))

    index = {id(n): i for i, n in enumerate(nodes, start=1)}
    lml = [0] * (len(nodes) + 1)
    for i, node in enumerate(nodes, start=1):
        leftmost = node
        while leftmost.children:
            leftmost = leftmost.children[0]
        lml[i] = index[id(leftmost)]
    last_for_leaf: dict[int, int] = {}
    for i in range(1, len(nodes) + 1):
        last_for_leaf[lml[i]] = i
    keyroots = sorted(last_for_leaf.values())
    return nodes, lml, keyroots


def tree_edit_distance(root1, root2) -> float:
    nodes1, lml1, keyroots1 = _annotate(root1)
    nodes2, lml2, keyroots2 = _annotate(root2)
    size1, size2 = len(nodes1), len(nodes2)
    # a rename cost depends only on the two labels, so it is computed once
    # per distinct pair of labels (keyed by label ids)
    label_ids: dict[tuple, int] = {}
    ids1 = [label_ids.setdefault(_label(n), len(label_ids)) for n in nodes1]
    ids2 = [label_ids.setdefault(_label(n), len(label_ids)) for n in nodes2]
    n_labels = len(label_ids)
    costs: dict[int, float] = {}
    td = [[0.0] * (size2 + 1) for _ in range(size1 + 1)]

    for i in keyroots1:
        for j in keyroots2:
            ioff = lml1[i] - 1
            joff = lml2[j] - 1
            m = i - ioff
            n = j - joff
            fd = [[0.0] * (n + 1) for _ in range(m + 1)]
            for x in range(1, m + 1):
                fd[x][0] = fd[x - 1][0] + 1.0
            for y in range(1, n + 1):
                fd[0][y] = fd[0][y - 1] + 1.0
            for x in range(1, m + 1):
                node_x = x + ioff
                row = fd[x]
                above = fd[x - 1]
                whole_left = lml1[node_x] == lml1[i]
                key_x = ids1[node_x - 1] * n_labels
                for y in range(1, n + 1):
                    node_y = y + joff
                    if whole_left and lml2[node_y] == lml2[j]:
                        key = key_x + ids2[node_y - 1]
                        cost = costs.get(key)
                        if cost is None:
                            cost = costs[key] = _rename_cost(nodes1[node_x - 1], nodes2[node_y - 1])
                        best = min(above[y] + 1.0, row[y - 1] + 1.0, above[y - 1] + cost)
                        row[y] = best
                        td[node_x][node_y] = best
                    else:
                        p = lml1[node_x] - 1 - ioff
                        q = lml2[node_y] - 1 - joff
                        row[y] = min(
                            above[y] + 1.0,
                            row[y - 1] + 1.0,
                            fd[p][q] + td[node_x][node_y],
                        )
    return td[size1][size2]


# ---------------------------------------------------------------------------
# HTML to tree: the package's former second HTML parser, a tolerant collector
# of the first table's raw rows and cells (no grid repair, nested tables
# ignored), kept as the reference for table_to_tree on canonical HTML
# ---------------------------------------------------------------------------

from html.parser import HTMLParser  # noqa: E402

from tablekit.metrics.teds import TreeNode  # noqa: E402

_MAX_SPAN = 1000


def _span_value(raw: str | None) -> int:
    try:
        value = int(str(raw).strip())
    except (TypeError, ValueError):
        return 1
    return min(max(value, 1), _MAX_SPAN)


class _TreeBuilder(HTMLParser):
    """Tolerant collector of the first table's rows and cells."""

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.rows: list[TreeNode] = []
        self._row: TreeNode | None = None
        self._cell: TreeNode | None = None
        self._text: list[str] = []
        self._table_depth = 0
        self._started = False
        self._done = False

    def _close_cell(self) -> None:
        if self._cell is not None:
            self._cell.content = " ".join("".join(self._text).split())
            self._cell = None
            self._text = []

    def _close_row(self) -> None:
        self._close_cell()
        self._row = None

    def _inside(self) -> bool:
        return self._started and self._table_depth <= 1 and not self._done

    def handle_starttag(self, tag, attrs):
        if self._done:
            return
        if tag == "table":
            if self._started:
                self._table_depth += 1  # nested table: ignore its contents
            else:
                self._started = True
                self._table_depth = 1
            return
        if not self._inside():
            if tag in ("tr", "td", "th") and not self._started:
                self._started = True  # fragment without a table wrapper
                self._table_depth = 1
            else:
                return
        if tag == "tr":
            self._close_row()
            self._row = TreeNode("tr")
            self.rows.append(self._row)
        elif tag in ("td", "th"):
            self._close_cell()
            if self._row is None:
                self._row = TreeNode("tr")
                self.rows.append(self._row)
            attr_map = dict(attrs)
            self._cell = TreeNode(
                "td",
                colspan=_span_value(attr_map.get("colspan")),
                rowspan=_span_value(attr_map.get("rowspan")),
            )
            self._row.children.append(self._cell)
        elif tag == "br" and self._cell is not None:
            self._text.append(" ")

    def handle_startendtag(self, tag, attrs):
        self.handle_starttag(tag, attrs)

    def handle_endtag(self, tag):
        if self._done:
            return
        if tag == "table":
            if self._table_depth > 1:
                self._table_depth -= 1
            elif self._started:
                self._close_row()
                self._done = True
            return
        if not self._inside():
            return
        if tag in ("td", "th"):
            self._close_cell()
        elif tag == "tr":
            self._close_row()

    def handle_data(self, data):
        if self._inside() and self._cell is not None:
            self._text.append(data)


def html_to_tree(html: str) -> TreeNode:
    """Canonical tree of the first table found in the text.

    th becomes td; thead/tbody and all other wrapper tags vanish; only
    colspan/rowspan survive (default 1); cell text is whitespace-collapsed;
    nested tables are ignored. Anything unrecoverable yields the bare
    single-node table tree.
    """
    builder = _TreeBuilder()
    try:
        builder.feed(str(html))
        builder.close()
        builder._close_row()
    except Exception:
        return TreeNode("table")
    return TreeNode("table", children=builder.rows)


# ---------------------------------------------------------------------------
# text metrics: the package's former per-character routines, which look up
# and scale one advance per call and re-measure every candidate line, adding
# its advances left to right in a written-out loop; kept as the reference for
# the per-(font, size) advance tables and running widths
# ---------------------------------------------------------------------------

from tablekit.textmetrics import (  # noqa: E402  (the advance data, not the algorithms)
    _DEFAULT_ADVANCE,
    _FAMILY_SCALE,
    _MONO_ADVANCE,
    _MONOSPACE,
    _PROPORTIONAL,
    font_px,
)


def char_advance(ch: str, font_family: str, font_size_pt: int | float) -> float:
    family = font_family.lower()
    if family in _MONOSPACE:
        mille = _MONO_ADVANCE
        scale = 1.0
    else:
        mille = _PROPORTIONAL.get(ch, _DEFAULT_ADVANCE)
        scale = _FAMILY_SCALE.get(family, 1.0)
    return mille / 1000 * font_px(font_size_pt) * scale


def text_width(text: str, font_family: str, font_size_pt: int | float) -> float:
    """Width of the widest line of the text, unwrapped."""
    best = 0.0
    for part in text.split("\n"):
        w = 0.0
        for ch in part:  # left to right, one rounding per advance
            w += char_advance(ch, font_family, font_size_pt)
        best = max(best, w)
    return best


def _break_long_word(word: str, font_family: str, size: int | float, max_width: float) -> list[str]:
    pieces: list[str] = []
    current = ""
    width = 0.0
    for ch in word:
        adv = char_advance(ch, font_family, size)
        if current and width + adv > max_width:
            pieces.append(current)
            current, width = ch, adv
        else:
            current += ch
            width += adv
    if current:
        pieces.append(current)
    return pieces


def wrap_text(text: str, font_family: str, font_size_pt: int | float, max_width: float) -> list[str]:
    """Greedy word-boundary wrap; words wider than the limit are hard-broken."""
    lines: list[str] = []
    for paragraph in text.split("\n"):
        words: list[str] = []
        for word in paragraph.split(" "):
            if word and text_width(word, font_family, font_size_pt) > max_width:
                words.extend(_break_long_word(word, font_family, font_size_pt, max_width))
            else:
                words.append(word)
        line = ""
        for word in words:
            candidate = word if not line else line + " " + word
            if line and text_width(candidate, font_family, font_size_pt) > max_width:
                lines.append(line)
                line = word
            else:
                line = candidate
        lines.append(line)
    return lines


# ---------------------------------------------------------------------------
# grid placement: the package's former assemble, which decides whether an
# uncovered position is an interior gap by scanning the rest of its row
# (O(rows x cols^2) padding), kept as the reference for the one-mark-per-row
# padding; it reads the package's types and limits (strict mode refuses a
# table past them, tolerant mode cuts it), and places cells with the
# former free-column search, which checks every row a cell spans, where the
# package's checks row r alone
# ---------------------------------------------------------------------------

from tablekit.core import AnchorCell, Table  # noqa: E402
from tablekit.formats.common import (  # noqa: E402
    MAX_COLS,
    MAX_ROWS,
    ParseError,
    RowBuffer,
)


def _free_column(occupied: dict, r: int, c: int, row_span: int, col_span: int) -> int:
    """Leftmost column from c where a row_span x col_span cell at row r
    covers no occupied position, looking no further than MAX_COLS."""
    cc = c
    while cc < c + col_span and cc <= MAX_COLS:
        if any((rr, cc) in occupied for rr in range(r, r + row_span)):
            c = cc + 1
        cc += 1
    return c


def assemble(buffer: RowBuffer, *, tolerant: bool, skip_occupied: bool = True) -> Table:
    rows = buffer.rows
    warn = buffer.warnings
    if len(rows) > MAX_ROWS:
        if not tolerant:
            raise ParseError("table", f"more than {MAX_ROWS} rows")
        warn.append(f"table truncated to {MAX_ROWS} rows")
        rows = rows[:MAX_ROWS]
    n_rows = len(rows)
    if n_rows == 0:
        raise ParseError("table", "no rows found")

    occupied: dict[tuple[int, int], AnchorCell] = {}
    anchors: list[AnchorCell] = []

    for r0, row in enumerate(rows):
        r = r0 + 1
        c = 1
        for cell in row:
            row_span = cell.row_span
            col_span = cell.col_span
            if tolerant:
                row_span = max(1, row_span)
                col_span = max(1, col_span)
            elif row_span < 1 or col_span < 1:
                raise ParseError(f"row {r}", f"span must be >= 1 at column {c}")

            if skip_occupied:
                while (r, c) in occupied:
                    c += 1
            elif (r, c) in occupied:
                if cell.content == "" and row_span == 1:
                    c += col_span
                    continue
                if not tolerant:
                    raise ParseError(f"row {r}", f"overlapping span at column {c}")

            if row_span > n_rows - r + 1:
                if tolerant:
                    row_span = n_rows - r + 1
                else:
                    raise ParseError(f"row {r}", f"row span runs past the last row at column {c}")
            if tolerant:
                c = _free_column(occupied, r, c, row_span, col_span)
            elif col_span > 1 and any((r, cc) in occupied for cc in range(c + 1, c + col_span)):
                raise ParseError(f"row {r}", f"overlapping span at column {c}")
            if c + col_span - 1 > MAX_COLS:
                if not tolerant:
                    raise ParseError(f"row {r}", f"cells beyond column {MAX_COLS}")
                col_span = max(1, MAX_COLS - c + 1)
                if c > MAX_COLS:
                    warn.append(f"cells beyond column {MAX_COLS} dropped")
                    break
            anchor = AnchorCell(r, c, row_span, col_span, cell.content, cell.is_header)
            anchors.append(anchor)
            for rr in range(r, r + row_span):
                for cc in range(c, c + col_span):
                    occupied[(rr, cc)] = anchor
            c += col_span

    n_cols = max(c for _, c in occupied) if occupied else 1
    padded = False
    for r in range(1, n_rows + 1):
        for c in range(1, n_cols + 1):
            if (r, c) in occupied:
                continue
            interior = any((r, cc) in occupied for cc in range(c + 1, n_cols + 1))
            if interior and not tolerant:
                raise ParseError(f"row {r}", f"gap at column {c} cannot be padded")
            anchor = AnchorCell(r, c)
            anchors.append(anchor)
            occupied[(r, c)] = anchor
            padded = True
    if padded:
        warn.append("ragged rows padded with empty cells")

    anchors.sort(key=lambda a: (a.row, a.col))
    return Table(n_rows=n_rows, n_cols=n_cols, anchors=tuple(anchors), caption=buffer.caption)
