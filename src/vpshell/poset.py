"""Bounded graded posets: construction, mu(bottom, top), the chain
f-vector of the proper part, serialization.

Elements are opaque hashable keys held in an indexed table; all operations
speak element indices.  Index order is a linear extension: covers are
index pairs (lo, hi) with lo < hi and rank(hi) = rank(lo) + 1, where
ranks are longest-path distances from the bottom, index 0, and the top
is the last index.  Both are validated at build time, never assumed.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import islice

from .errors import VpshellError


@dataclass(frozen=True)
class Poset:
    """Immutable bounded graded poset, held as its Hasse diagram.

    Use build_indexed_poset() to construct: it validates that covers
    rise in index order, the bottom 0, the top len - 1, and gradedness.
    elements: the keys, (blocks, labels) records in vecpart's posets.
    up[i] holds the ascending indices covering i, the only record of the
    covers; nothing is cached, and up-sets are walked up it on demand.
    up_labels, if present, labels (i, up[i][k]) by up_labels[i][k], the
    only record of the labels, checked against up whenever a Poset is
    made (replace too); it takes no part in equality.
    """

    elements: tuple
    up: tuple
    ranks: tuple
    up_labels: tuple | None = field(default=None, compare=False, repr=False)
    bottom = 0  # not a field: first in every linear extension

    def __post_init__(self) -> None:
        if self.up_labels is not None:
            _check_aligned(self.up, self.up_labels)

    def __len__(self) -> int:
        return len(self.elements)

    @property
    def top(self) -> int:
        return len(self.elements) - 1

    @property
    def height(self) -> int:
        return self.ranks[-1]

    def _walk(self, start: int, levels: int) -> set[int]:
        """start and the elements above it at most levels ranks higher.
        A cover raises the rank by one, so each level is the set of
        upper covers of the one before."""
        seen = level = {start}
        for _ in range(levels):
            level = {w for v in level for w in self.up[v]}
            seen |= level
        return seen


def build_indexed_poset(elements, up, up_labels=None) -> Poset:
    """Validate a Hasse diagram and assemble a Poset.

    elements:  sequence of unique hashable keys, each after those below.
    up:        up[i] holds the indices covering elements[i], ascending.
    up_labels: optional; up_labels[i][k] labels the cover (i, up[i][k]).

    Raises VpshellError, checked in this order: for duplicate keys;
    unless up has one strictly ascending entry of indices per element;
    for a cover (i, j) with j <= i; when the data is no bounded graded
    poset; when Poset finds up_labels misaligned.  Ranks are longest-path
    distances from the bottom; a cover whose endpoints differ by more
    than one rank (a transitive edge in disguise) is not graded.
    """
    elements = tuple(elements)
    if len(set(elements)) != len(elements):
        raise VpshellError("duplicate element keys")
    n = len(elements)
    if n == 0:
        raise VpshellError("empty poset")
    up = tuple(map(tuple, up))
    if len(up) != n:
        raise VpshellError(f"{len(up)} upper-cover lists for {n} elements")

    ranks = [0] * n  # final at i, whose lower covers all come before it
    for i, js in enumerate(up):
        for prev, j in zip((-1,) + js, js):
            if not prev < j < n:
                raise VpshellError(
                    f"up[{i}] does not ascend strictly in 0..{n - 1}")
            if j <= i:
                raise VpshellError(
                    f"cover ({i}, {j}) does not rise in index order")
            if ranks[j] <= ranks[i]:
                ranks[j] = ranks[i] + 1

    # rank 0 means no lower cover: one source and one sink are 0, n - 1
    sources, sinks = ranks.count(0), sum(not js for js in up)
    if sources != 1 or sinks != 1:
        raise VpshellError(f"{sources} minimal and {sinks} maximal elements")

    for i, js in enumerate(up):
        for j in js:
            if ranks[j] != ranks[i] + 1:
                raise VpshellError(
                    f"cover ({i}, {j}) spans ranks {ranks[i]} -> {ranks[j]}")

    return Poset(elements=elements, up=up, ranks=tuple(ranks),
                 up_labels=None if up_labels is None
                 else tuple(map(tuple, up_labels)))


def _check_aligned(up: tuple, up_labels) -> None:
    """VpshellError unless up_labels[i] has one label per cover in up[i],
    naming the least unlabelled cover when there is one."""
    if len(up_labels) != len(up):
        raise VpshellError(f"{len(up_labels)} label lists, {len(up)} "
                           "elements")
    for lo, (his, labs) in enumerate(zip(up, up_labels)):
        if len(labs) != len(his):
            raise VpshellError(
                f"cover ({lo}, {his[len(labs)]}) has no edge label"
                if len(labs) < len(his) else f"extra labels at {lo}")


def mobius(p: Poset) -> int:
    """mu(bottom, top), by the dual of the defining recursion.

    mu(top, top) = 1 and mu(z, top) = -sum of mu(v, top) over z < v,
    filled in falling index order (Rota 1964).  Each z walks its up-set
    and sums the values found, so a call costs the covers met on those
    walks, about the comparable pairs times the up-degree.
    """
    mu = [0] * len(p)
    mu[p.top] = 1
    for z in range(p.top - 1, -1, -1):
        # mu holds mu(v, top) above z, all of higher index, and 0 at z
        mu[z] = -sum(map(mu.__getitem__, p._walk(z, p.height - p.ranks[z])))
    return mu[p.bottom]


def chain_f_vector(p: Poset) -> tuple:
    """(f_0, ..., f_(h-2)) for p of height h: f_k counts the (k+1)-element
    chains of the proper part, the k-faces of its order complex, unbuilt.
    In index order each proper z packs g(z), its chains by size, one int
    slot each, and adds them one element longer to every w above z below
    the top (Hall 1936; Rota 1964); a slot counts < N^(h-1) < 2^width."""
    h, ranks = p.height, p.ranks
    width = max(h - 1, 0) * len(p).bit_length()
    g = [0] * len(p)
    for z in range(1, p.top):
        g[z] += 1
        longer = g[z] << width
        for w in p._walk(z, h - 1 - ranks[z]):
            if w != z:
                g[w] += longer
    total, mask = sum(g), (1 << width) - 1
    return tuple(total >> k * width & mask for k in range(h - 1))


# ── serialization ────────────────────────────────────────────────────────

def poset_to_json(p: Poset, texts=None):
    """JSON document with element texts, covers, bottom and top, in
    pieces, so that a writer holds one at a time: the head, the covers
    of each element that has any, texts (one str per element, in index
    order, map(str, p.elements) by default) 256 at a time, and the tail.

    When p carries up_labels, covers become objects carrying a "label"
    field, written as json.dumps writes the label.  The joined text is
    the one json.dumps(doc, sort_keys=True) gives, written directly:
    keys sorted, ", " and ": " separators.
    """
    labels = _label_texts(p, json.dumps)
    texts = iter(map(str, p.elements) if texts is None else texts)
    yield f'{{"bottom": {p.bottom}, "covers": ['
    sep = ""
    for lo, his in enumerate(p.up):
        if his:
            yield sep + ", ".join(
                [f"[{lo}, {hi}]" for hi in his] if labels is None else
                [f'{{"hi": {hi}, "label": {text}, "lo": {lo}}}'
                 for hi, text in zip(his, labels(lo))])
            sep = ", "
    yield '], "elements": ['
    for i in range(0, len(p.elements), 256):  # one json.dumps per chunk
        yield (", " if i else "") + json.dumps(
            list(islice(texts, 256)))[1:-1]
    yield f'], "top": {p.top}}}'


def poset_to_dot(p: Poset, texts=None):
    """GraphViz DOT text for the Hasse diagram, bottom drawn lowest, in
    pieces and with texts and labels as poset_to_json: the head, each
    element's line, the cover lines of each element, and the tail."""
    def esc(s) -> str:
        return str(s).replace("\\", "\\\\").replace('"', '\\"')

    labels = _label_texts(p, esc)
    yield "digraph poset {\n  rankdir=BT;\n"
    for i, text in enumerate(p.elements if texts is None else texts):
        yield f'  n{i} [label="{esc(text)}"];\n'
    for lo, his in enumerate(p.up):
        yield "".join(
            [f"  n{lo} -> n{hi};\n" for hi in his] if labels is None else
            [f'  n{lo} -> n{hi} [label="{text}"];\n'
             for hi, text in zip(his, labels(lo))])
    yield "}\n"


def _label_texts(p: Poset, render):
    """None when p carries no labels.  Else a function of lo giving
    render(label) for each label of p.up_labels[lo].  A label object met
    again reuses its text, so labels that share one object per distinct
    label render each distinct label once."""
    if (up_labels := p.up_labels) is None:
        return None
    texts: dict = {}  # id -> (label, text); holding label keeps its id

    def row(lo: int) -> list:
        return [(texts.get(id(label)) or texts.setdefault(
            id(label), (label, render(label))))[1] for label in up_labels[lo]]
    return row
