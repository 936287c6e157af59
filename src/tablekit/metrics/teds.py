"""Tree-edit-distance similarity between HTML tables.

Tables are canonicalized into small ordered trees (table -> tr -> td),
compared with the Zhang-Shasha ordered tree edit distance, and the
distance is normalized by the larger tree's node count (root included):
teds = 1 - distance / max(|T1|, |T2|).

Costs: insert = delete = 1. Renaming two nodes costs 1 when tags differ;
for two td nodes it costs 1 on any span mismatch and otherwise the
Levenshtein distance of their contents divided by the longer length
(0 when both are empty); matching non-td tags rename for free.

Two equal HTML strings give identical trees, at distance exactly 0, so
teds returns 1.0 for them without building the trees.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from html.parser import HTMLParser


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


def teds(pred_html: str, gold_html: str) -> float:
    """Similarity in [0, 1]; 1 means the table trees match exactly."""
    if pred_html == gold_html:
        return 1.0
    t1 = html_to_tree(pred_html)
    t2 = html_to_tree(gold_html)
    distance = tree_edit_distance(t1, t2)
    return 1.0 - distance / max(tree_size(t1), tree_size(t2))
