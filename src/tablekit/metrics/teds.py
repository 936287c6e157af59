"""Tree-edit-distance similarity between tables.

Tables are canonicalized into small ordered trees (table -> tr -> td),
compared with the Zhang-Shasha ordered tree edit distance, and the
distance is normalized by the larger tree's node count (root included):
teds = 1 - distance / max(|T1|, |T2|).

Costs: insert = delete = 1. Renaming two nodes costs 1 when tags differ;
for two td nodes it costs 1 on any span mismatch and otherwise the
Levenshtein distance of their contents divided by the longer length
(0 when both are empty); matching non-td tags rename for free.

A tree is built from a parsed Table (table_to_tree). Table text becomes a
tree by the package's tolerant parser for its format
(formats.parse_tolerant) followed by table_to_tree, so teds (which the tr
scorer of evaluate calls) repairs sloppy text the same way in each format:
ragged rows are padded, spans are clamped to the grid and the grid to
MAX_ROWS x MAX_COLS, and a nested HTML table is flattened into its cell.
Two equal strings give identical trees, and identical trees are at distance
exactly 0, so teds returns 1.0 for equal strings without building the trees.

tree_edit_distance is exact on any pair of trees. Two certificates give the
distance of most pairs a model's answer makes without the DP, each exactly
the value the DP returns: a smaller tree that sits unchanged inside the
larger one (rows or columns added or dropped) is the size gap away, since
every edit script leaves out at least that many nodes; and two trees of
one shape whose renames cost at most 2 are that cost apart, since any other
mapping leaves out a node of each tree. Other pairs run the DP in a band of
postorder indices that it widens until the result proves itself exact (see
its docstring), so its cost grows with the distance times the tree size,
not with the product of the two tree sizes.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

from ..core import Table, checked
from ..formats import parse_tolerant
from ..formats.common import TableFormat


@dataclass
class TreeNode:
    tag: str
    content: str = ""
    colspan: int = 1
    rowspan: int = 1
    children: list["TreeNode"] = field(default_factory=list)


def tree_size(root: TreeNode) -> int:
    size, stack = 0, [root]
    while stack:
        size += 1
        stack.extend(stack.pop().children)
    return size


def html_to_tree(html: str) -> TreeNode:
    """The tree of the first table in the text: the tolerant HTML parse
    (formats.parse_tolerant) followed by table_to_tree, so HTML is scored
    with the repairs every tr score gets. Text with no recoverable table
    gives the single-node tree of the sentinel table."""
    return table_to_tree(parse_tolerant(str(html), TableFormat.HTML)[0])


def table_to_tree(table: Table | None) -> TreeNode:
    """The canonical tree of a table: one tr per grid row, holding the
    anchors whose top-left corner is in it; th becomes td; cell text is
    whitespace-collapsed; the caption is dropped. None or an invalid table,
    a grid past the size limit too, gives the single-node tree of the
    sentinel table."""
    grid = None if table is None else checked(table).grid
    if grid is None:
        return TreeNode("table")
    rows = []
    for r in range(1, table.n_rows + 1):
        cells = [
            TreeNode("td", " ".join(a.content.split()), a.col_span, a.row_span)
            for a in grid.row_anchors(r)
        ]
        rows.append(TreeNode("tr", children=cells))
    return TreeNode("table", children=rows)


# levenshtein keeps the match masks of a string of at most this many
# distinct characters: the masks hold up to one bit per distinct character
# and position, so a kept string's take at most 16 bytes a character, where
# those of 10,000 distinct characters would take 12 MB
_KEPT_MASK_CHARS = 128


def levenshtein(a: str, b: str, masks: dict[str, dict[str, int]] | None = None) -> int:
    """Unit-cost edit distance, by the bit-parallel method of Myers (JACM
    1999) in Hyyro's form: a DP column of the longer string is held as two
    bit vectors of +1/-1 vertical deltas, one Python int each, so the
    shorter string is walked once in O(n * ceil(m / w)).

    The walk reads the longer string's match masks (per character, the bits
    of its positions). Given masks, a dict from string to its masks, they
    are looked up there, and those built for a string of at most
    _KEPT_MASK_CHARS distinct characters are kept there, so such a long
    string compared with many short ones is read once."""
    if a == b:
        return 0
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    peq = None if masks is None else masks.get(a)
    if peq is None:
        peq = {}
        bit = 1
        for ch in a:
            peq[ch] = peq.get(ch, 0) | bit
            bit <<= 1
        if masks is not None and len(peq) <= _KEPT_MASK_CHARS:
            masks[a] = peq
    last = 1 << (len(a) - 1)
    mask = (last << 1) - 1
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


def _rename_cost(a: TreeNode, b: TreeNode, masks: dict[str, dict[str, int]] | None = None) -> float:
    if a.tag != b.tag:
        return 1.0
    if a.tag != "td":
        return 0.0
    if a.colspan != b.colspan or a.rowspan != b.rowspan:
        return 1.0
    if not a.content and not b.content:
        return 0.0
    return levenshtein(a.content, b.content, masks) / max(len(a.content), len(b.content))


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


def _embeds(small: TreeNode, large: TreeNode) -> bool:
    """Whether small maps into large top-down with equal labels: root onto
    root, and each node's children in order onto a subsequence of its
    image's children. Each child takes the first sibling it maps into, which
    leaves the most room for the children after it, so the greedy search
    finds a mapping whenever one exists. A sibling is tried at most once, so
    the check is linear in the size of large."""
    if _label(small) != _label(large):
        return False
    # [node of small, its image, next child to map, next sibling to try]
    stack = [[small, large, 0, 0]]
    while True:
        frame = stack[-1]
        node, image, i, j = frame
        mapped = i == len(node.children)
        if not mapped:
            label, siblings = _label(node.children[i]), image.children
            while j < len(siblings) and _label(siblings[j]) != label:
                j += 1
            if j < len(siblings):
                frame[3] = j
                stack.append([node.children[i], siblings[j], 0, 0])
                continue
        stack.pop()
        if not stack:
            return mapped
        parent = stack[-1]
        if mapped:
            parent[2] += 1  # the child maps into the sibling tried
        parent[3] += 1  # and the next child, or the same one, tries the next


def _identity_cost(root1: TreeNode, root2: TreeNode, masks: dict[str, dict[str, int]]) -> float | None:
    """The cost of the mapping of two trees of one shape that pairs each
    node with the node at its place, if it is at most 2.0; else None, and
    None for trees of two shapes. The cost is added up as the DP adds it:
    for each node, its children's costs left to right from 0.0, then its
    rename. The sum stops once it passes 2.0, so a failed check costs a few
    renames, not all of them."""
    # the node pairs in preorder, right child first: read backwards, each
    # node's children end left to right, each before the node
    pairs, stack = [], [(root1, root2, -1)]
    while stack:
        a, b, parent = stack.pop()
        if len(a.children) != len(b.children):
            return None
        at = len(pairs)
        pairs.append((a, b, parent))
        stack.extend((c, d, at) for c, d in zip(a.children, b.children))
    sums = [0.0] * len(pairs)  # of each node's children's costs so far
    for i in range(len(pairs) - 1, -1, -1):
        a, b, parent = pairs[i]
        cost = sums[i]
        if _label(a) != _label(b):  # equal labels rename for 0.0
            cost += _rename_cost(a, b, masks)
        if parent < 0:
            return cost if cost <= 2.0 else None
        sums[parent] += cost
        if sums[parent] > 2.0:  # the parent's cost, and so the root's, is more
            return None


def tree_edit_distance(root1: TreeNode, root2: TreeNode) -> float:
    """Exact Zhang-Shasha ordered tree edit distance (Zhang & Shasha, SIAM J.
    Comput. 1989), computed in a band of postorder indices after Touzet, "A
    linear tree edit distance algorithm for similar ordered trees" (CPM 2005).

    Certificates. Every mapping leaves out at least |n1 - n2| nodes, and the
    float cost of a script is at least the number of nodes it leaves out
    (it adds 1.0 for each and non-negative renames, and float addition is
    monotone), so the DP's value D is at least |n1 - n2|. Two checks find D
    without the DP, and each returns the float the DP returns:
    - Inclusion. When the smaller tree maps top-down into the larger with
      equal labels (_embeds), that mapping renames for 0.0 and leaves out
      exactly |n1 - n2| nodes, so D = float(|n1 - n2|).
    - Same shape. For trees of one shape, the mapping that pairs each node
      with the node at its place leaves out none; every other mapping
      leaves out a node of each tree and costs at least 2.0. The DP adds
      that mapping's renames in one order, and _identity_cost adds them in
      the same order, so when its cost C is at most 2.0, D = C bit for bit.
      Equal trees are the case C = 0.0.
    A pair that neither check covers runs the banded DP below.

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

    Parity. c(x, y) has the parity of n1 - n2, since |d| + |s - d| and
    d + (s - d) = s differ by an even number (d = x - y, s = n1 - n2). So
    when k - (n1 - n2) is even no state has c(x, y) = k + 1, the band for k
    is the band for k + 1, and distance(k) = distance(k + 1) is exact once
    it is at most k + 1. The search therefore moves such a k to k + 1
    before each round; the band, and so the result, is unchanged.

    The search starts at k = max(2, |n1 - n2|): D is at least |n1 - n2|
    (the root pair is a state of every derivation), and this band holds a
    path of inserts and deletes from the empty forests to the roots, so the
    result is finite. While the result exceeds k, k becomes
    min(2k, ceil(result)); the result bounds D from above, so the band
    ceil(result) ends the search. At k = n1 + n2 nothing is cut.
    """
    masks: dict[str, dict[str, int]] = {}  # levenshtein's, for this call
    size1, size2 = tree_size(root1), tree_size(root2)
    if size1 < size2 and _embeds(root1, root2) or size2 < size1 and _embeds(root2, root1):
        return float(abs(size1 - size2))
    if size1 == size2:
        cost = _identity_cost(root1, root2, masks)
        if cost is not None:
            return cost

    nodes1, lml1, keyroots1 = _annotate(root1)
    nodes2, lml2, keyroots2 = _annotate(root2)
    label_ids: dict[tuple, int] = {}
    ids1 = [label_ids.setdefault(_label(n), len(label_ids)) for n in nodes1]
    ids2 = [label_ids.setdefault(_label(n), len(label_ids)) for n in nodes2]
    n_labels = len(label_ids)
    costs: dict[int, float] = {}

    def rename(x: int, y: int) -> float:
        # a rename cost depends only on the two labels, so it is computed
        # once per distinct pair of labels, and only for pairs in the band
        key = ids1[x - 1] * n_labels + ids2[y - 1]
        cost = costs.get(key)
        if cost is None:
            cost = costs[key] = _rename_cost(nodes1[x - 1], nodes2[y - 1], masks)
        return cost

    skew, full = size1 - size2, size1 + size2
    k = max(2, abs(skew))
    while True:
        if (k - skew) % 2 == 0:
            k += 1  # the band for k is the band for k + 1 (see Parity)
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


def teds(pred: str, gold: str, fmt: TableFormat = TableFormat.HTML) -> float:
    """Similarity in [0, 1] of two table texts, each parsed tolerantly in
    fmt; 1 means the table trees match exactly. Equal texts score 1.0
    unparsed. evaluate scores a tr answer with it, in the gold's format."""
    if pred == gold:
        return 1.0
    pred_tree = table_to_tree(parse_tolerant(str(pred), fmt)[0])
    return teds_of_trees(pred_tree, table_to_tree(parse_tolerant(str(gold), fmt)[0]))
