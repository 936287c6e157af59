"""Tree-edit-distance similarity between tables.

Tables are canonicalized into small ordered trees (table -> tr -> td),
compared with the Zhang-Shasha ordered tree edit distance, and the
distance is normalized by the larger tree's node count (root included):
teds = 1 - distance / max(|T1|, |T2|).

Costs: insert = delete = 1. Renaming two nodes costs 1 when tags differ;
for two td nodes it costs 1 on any span mismatch and otherwise the
Levenshtein distance of their contents divided by the longer length
(0 when both are empty); matching non-td tags rename for free.

A tree comes from HTML text (html_to_tree) or straight from a parsed
Table (table_to_tree, which gives the tree html_to_tree(serialize_html(t))
gives, without writing or parsing HTML). Two equal HTML strings give
identical trees, and identical trees are at distance exactly 0, so teds
returns 1.0 for equal strings without building the trees, and
tree_edit_distance returns 0.0 for equal trees without running the DP.

tree_edit_distance is exact on any pair of trees. It runs the DP in a band
of postorder indices that it widens until the result proves itself exact
(see its docstring), so its cost grows with the distance times the tree
size, not with the product of the two tree sizes.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from html.parser import HTMLParser

from ..core import InvalidTable, Table, expand_grid


@dataclass
class TreeNode:
    tag: str
    content: str = ""
    colspan: int = 1
    rowspan: int = 1
    children: list["TreeNode"] = field(default_factory=list)


def tree_size(root: TreeNode) -> int:
    return 1 + sum(tree_size(c) for c in root.children)


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


def table_to_tree(table: Table | None) -> TreeNode:
    """The tree that html_to_tree(serialize_html(table)) gives, built from
    the table without writing or parsing HTML: one tr per grid row, holding
    the anchors whose top-left corner is in it; th becomes td; spans are
    clamped as html_to_tree clamps them; cell text is whitespace-collapsed;
    the caption is dropped. None or an invalid table gives the single-node
    tree of the sentinel table."""
    if table is None:
        return TreeNode("table")
    try:
        grid = expand_grid(table)
    except InvalidTable:
        return TreeNode("table")
    rows = []
    for r in range(1, table.n_rows + 1):
        cells = [
            TreeNode("td", " ".join(a.content.split()), min(a.col_span, _MAX_SPAN), min(a.row_span, _MAX_SPAN))
            for a in grid.row_anchors(r)
        ]
        rows.append(TreeNode("tr", children=cells))
    return TreeNode("table", children=rows)


def levenshtein(a: str, b: str) -> int:
    """Unit-cost edit distance, by the bit-parallel method of Myers (JACM
    1999) in Hyyro's form: a DP column of the longer string is held as two
    bit vectors of +1/-1 vertical deltas, one Python int each, so the
    shorter string is walked once in O(n * ceil(m / w))."""
    if a == b:
        return 0
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    peq: dict[str, int] = {}
    bit = 1
    for ch in a:
        peq[ch] = peq.get(ch, 0) | bit
        bit <<= 1
    mask = bit - 1
    last = bit >> 1
    pv, mv, dist = mask, 0, len(a)
    for ch in b:
        eq = peq.get(ch, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        if ph & last:
            dist += 1
        elif mh & last:
            dist -= 1
        ph = (ph << 1) | 1
        mh <<= 1
        pv = (mh | ~(xv | ph)) & mask
        mv = ph & xv
    return dist


def _rename_cost(a: TreeNode, b: TreeNode) -> float:
    if a.tag != b.tag:
        return 1.0
    if a.tag != "td":
        return 0.0
    if a.colspan != b.colspan or a.rowspan != b.rowspan:
        return 1.0
    if not a.content and not b.content:
        return 0.0
    return levenshtein(a.content, b.content) / max(len(a.content), len(b.content))


def _label(node: TreeNode) -> tuple:
    return (node.tag, node.colspan, node.rowspan, node.content)


def _annotate(root: TreeNode) -> tuple[list[TreeNode], list[int], list[int]]:
    """Postorder nodes (1-based), leftmost-leaf indices, keyroots."""
    nodes: list[TreeNode] = []

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


def tree_edit_distance(root1: TreeNode, root2: TreeNode) -> float:
    """Exact Zhang-Shasha ordered tree edit distance (Zhang & Shasha, SIAM J.
    Comput. 1989), computed in a band of postorder indices after Touzet, "A
    linear tree edit distance algorithm for similar ordered trees" (CPM 2005).

    Nodes are numbered 1..n1 and 1..n2 in postorder; l(x) is x's leftmost
    leaf. A state (x, y) of keyroot pair (i, j) stands for the forests
    l(i)..x and l(j)..y (one of them empty when x = l(i) - 1 or
    y = l(j) - 1); td(x, y) is the state (x, y) of the pair whose forests
    are the subtrees of x and y.

    Why a band suffices. An edit script is a mapping M between the trees
    that preserves postorder and ancestry, and each node M leaves out costs
    one insert or delete. The derivation of M in the DP visits only states
    whose forests M maps onto each other, and M maps the nodes before l(i)
    onto the nodes before l(j) (a node before the subtree of a node maps
    before the subtree of that node's image). So the pairs of M whose first
    node is at most x are exactly those whose second node is at most y, and
    the rest pair nodes after x with nodes after y. With p pairs before and
    q after, M leaves out x - p and y - p nodes before the state and
    n1 - x - q and n2 - y - q after it: at least
    c(x, y) = |x - y| + |(n1 - x) - (n2 - y)| nodes in all.

    The band. distance(k) runs the DP with every fd and td entry whose
    c(x, y) exceeds k at infinity, and skips keyroot pairs with no entry
    inside the band. Each finite entry is still the cost of a script between
    its forests, and float addition and min are monotone, so distance(k)
    is at least the full DP's value D, entry by entry. The mapping of the
    full DP's own derivation leaves out at most D nodes (its float cost
    adds 1.0 for each of them and non-negative renames), so when D <= k
    every state of that derivation is inside the band and is computed from
    the same operands by the same operations: distance(k) == D, bit for
    bit. Hence a result distance(k) <= k is exact, since
    D <= distance(k) <= k.

    The search starts at k = max(2, |n1 - n2|): D is at least |n1 - n2|
    (the root pair is a state of every derivation), and this band holds a
    path of inserts and deletes from the empty forests to the roots, so the
    result is finite. While the result exceeds k, k becomes
    min(2k, ceil(result)); the result bounds D from above, so the band
    ceil(result) ends the search. At k = n1 + n2 nothing is cut.
    """
    nodes1, lml1, keyroots1 = _annotate(root1)
    nodes2, lml2, keyroots2 = _annotate(root2)
    label_ids: dict[tuple, int] = {}
    ids1 = [label_ids.setdefault(_label(n), len(label_ids)) for n in nodes1]
    ids2 = [label_ids.setdefault(_label(n), len(label_ids)) for n in nodes2]
    if ids1 == ids2 and lml1 == lml2:
        return 0.0  # the same tree
    n_labels = len(label_ids)
    costs: dict[int, float] = {}

    def rename(x: int, y: int) -> float:
        # a rename cost depends only on the two labels, so it is computed
        # once per distinct pair of labels, and only for pairs in the band
        key = ids1[x - 1] * n_labels + ids2[y - 1]
        cost = costs.get(key)
        if cost is None:
            cost = costs[key] = _rename_cost(nodes1[x - 1], nodes2[y - 1])
        return cost

    size1, size2 = len(nodes1), len(nodes2)
    skew, full = size1 - size2, size1 + size2
    k = max(2, abs(skew))
    while True:
        # c(x, y) <= k is x - y in [ceil((skew - k) / 2), floor((skew + k) / 2)]
        distance = _banded_distance(lml1, keyroots1, lml2, keyroots2, rename,
                                    -((k - skew) // 2), (k + skew) // 2)
        if distance <= k or k >= full:
            return distance
        k = min(2 * k, math.ceil(distance), full)


_INF = float("inf")
_NO_ROW = [_INF]  # an fd row with no entry in the band


def _banded_distance(lml1, keyroots1, lml2, keyroots2, rename, dlo: int, dhi: int) -> float:
    """The Zhang-Shasha DP with every entry whose postorder indices x, y
    have x - y outside [dlo, dhi] at infinity; see tree_edit_distance."""
    size1, size2 = len(lml1) - 1, len(lml2) - 1
    # td[x][y - tdlo[x]] is td(x, y), for y in [x - dhi, x - dlo]
    tdlo = [max(1, x - dhi) for x in range(size1 + 1)]
    td = [[_INF] * max(0, min(size2, x - dlo) - tdlo[x] + 1) for x in range(size1 + 1)]

    def forest(i: int, j: int) -> None:
        li, lj = lml1[i], lml2[j]
        ioff, joff = li - 1, lj - 1
        m, n = i - ioff, j - joff
        delta = ioff - joff  # global x - y is local x - y + delta
        # rows[x][y - lows[x]] is fd(x, y) for y in the band, then an inf pad
        lows = [0] * (m + 1)
        rows = [_NO_ROW] * (m + 1)
        lo, hi = max(0, delta - dhi), min(n, delta - dlo)
        if lo <= hi:
            lows[0] = lo
            rows[0] = [float(y) for y in range(lo, hi + 1)] + _NO_ROW
        for x in range(max(1, dlo - delta), min(m, n + dhi - delta) + 1):
            nx = x + ioff
            lo, hi = x + delta - dhi, x + delta - dlo
            if lo < 0:
                lo = 0
            if hi > n:
                hi = n
            lows[x] = lo
            prev = rows[x - 1]
            above_at = joff + lows[x - 1]  # fd(x - 1, y) is prev[y + joff - above_at]
            trow, t_at = td[nx], tdlo[nx]
            p = lml1[nx] - li  # the forest left of x's subtree ends at row p
            prow, p_at, p_band = rows[p], lows[p], p + delta
            if lo == 0:
                left = float(x)
                cur = [left]
                lo = 1
            else:
                left = _INF
                cur = []
            for ny in range(lo + joff, hi + joff + 1):
                val = prev[ny - above_at] + 1.0
                if left + 1.0 < val:
                    val = left + 1.0
                q = lml2[ny] - lj
                if p == 0 and q == 0:  # both forests are whole trees
                    cost = prev[ny - above_at - 1] + rename(nx, ny)
                    if cost < val:
                        val = cost
                    trow[ny - t_at] = val
                elif dlo <= p_band - q <= dhi:
                    cost = prow[q - p_at] + trow[ny - t_at]
                    if cost < val:
                        val = cost
                cur.append(val)
                left = val
            cur.append(_INF)
            rows[x] = cur

    leaves1 = [i for i in keyroots1 if lml1[i] == i]
    inner1 = [i for i in keyroots1 if lml1[i] != i]
    leaves2 = [j for j in keyroots2 if lml2[j] == j]
    inner2 = [j for j in keyroots2 if lml2[j] != j]
    # keyroot pairs in an order that computes every td entry before it is
    # read, each pair kept only if some state of it is in the band; a
    # leaf-vs-leaf forest DP is min(2, 2, rename), so it is the rename cost
    for i in leaves1:
        row, at = td[i], tdlo[i]
        for j in leaves2[bisect_left(leaves2, i - dhi):bisect_right(leaves2, i - dlo)]:
            row[j - at] = rename(i, j)
    for j in inner2:
        for i in leaves1[bisect_left(leaves1, lml2[j] + dlo):bisect_right(leaves1, j + dhi)]:
            forest(i, j)
    for i in inner1:
        li = lml1[i]
        for j in leaves2[bisect_left(leaves2, li - dhi):bisect_right(leaves2, i - dlo)]:
            forest(i, j)
        for j in inner2:
            if li - j <= dhi and i - lml2[j] >= dlo:
                forest(i, j)
    return td[size1][size2 - tdlo[size1]]


def teds_of_trees(t1: TreeNode, t2: TreeNode) -> float:
    """Similarity in [0, 1] of two canonical trees; 1 means they are equal."""
    distance = tree_edit_distance(t1, t2)
    return 1.0 - distance / max(tree_size(t1), tree_size(t2))


def teds(pred_html: str, gold_html: str) -> float:
    """Similarity in [0, 1]; 1 means the table trees match exactly."""
    if pred_html == gold_html:
        return 1.0
    return teds_of_trees(html_to_tree(pred_html), html_to_tree(gold_html))
