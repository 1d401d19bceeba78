"""Bounded graded posets: construction, maximal chains, mu(bottom, top),
serialization.

Elements are opaque hashable keys held in an indexed table; all operations
speak element indices.  Covers are index pairs (lo, hi) with
rank(hi) = rank(lo) + 1, where ranks are longest-path distances from the
bottom.  Gradedness is validated at build time, never assumed.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

from .errors import (CycleDetected, DuplicateElement, MissingLabels,
                     NotBounded, NotGraded, UnknownElement)


@dataclass(frozen=True)
class Poset:
    """Immutable bounded graded poset, held as its Hasse diagram.

    Use build_indexed_poset() to construct: it validates acyclicity,
    unique bottom and top, and gradedness.  up[i] holds the ascending
    indices covering i, the only record of the covers; nothing is cached
    on the instance, and up-sets are walked up through it on demand.
    up_labels, if present, labels (i, up[i][k]) by up_labels[i][k], the
    only record of the labels; it takes no part in equality.
    """

    elements: tuple
    up: tuple
    ranks: tuple
    bottom: int
    top: int
    up_labels: tuple | None = field(default=None, compare=False, repr=False)

    def __len__(self) -> int:
        return len(self.elements)

    @property
    def height(self) -> int:
        return self.ranks[self.top]

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

    elements:  sequence of unique hashable keys.
    up:        up[i] holds the indices covering elements[i], ascending.
    up_labels: optional; up_labels[i][k] labels the cover (i, up[i][k]).

    Raises DuplicateElement for duplicate keys, UnknownElement unless up
    has one strictly ascending entry of indices per element, and
    CycleDetected, NotBounded, or NotGraded when the data does not
    describe a bounded graded poset; MissingLabels when up_labels does
    not line up with up.  Ranks are longest-path distances from the
    bottom; a cover whose endpoints differ by more than one rank (a
    transitive edge in disguise) trips NotGraded.
    """
    elements = tuple(elements)
    if len(set(elements)) != len(elements):
        raise DuplicateElement("duplicate element keys")
    n = len(elements)
    if n == 0:
        raise NotBounded("empty poset")
    up = tuple(map(tuple, up))
    if len(up) != n:
        raise UnknownElement(f"{len(up)} upper-cover lists for {n} elements")

    indeg = [0] * n  # lower covers per element, for Kahn's pass
    for i, js in enumerate(up):
        for prev, j in zip((-1,) + js, js):
            if not prev < j < n:
                raise UnknownElement(
                    f"up[{i}] does not ascend strictly in 0..{n - 1}")
            if i == j:
                raise CycleDetected(f"self-cover at element {i}")
            indeg[j] += 1

    # Kahn's algorithm, ranking longest paths on the way: w joins the
    # order after all its lower covers; leftover nodes witness a cycle
    order = [i for i in range(n) if indeg[i] == 0]
    sources = len(order)
    ranks = [0] * n
    for v in order:  # order grows while it is walked
        for w in up[v]:
            if ranks[v] + 1 > ranks[w]:
                ranks[w] = ranks[v] + 1
            indeg[w] -= 1
            if indeg[w] == 0:
                order.append(w)
    if len(order) != n:
        raise CycleDetected("cover relation contains a cycle")

    sinks = [i for i in range(n) if not up[i]]
    if sources != 1 or len(sinks) != 1:
        raise NotBounded(
            f"{sources} minimal and {len(sinks)} maximal elements")
    bottom, top = order[0], sinks[0]

    for i, js in enumerate(up):
        for j in js:
            if ranks[j] != ranks[i] + 1:
                raise NotGraded(
                    f"cover ({i}, {j}) spans ranks {ranks[i]} -> {ranks[j]}")

    if up_labels is not None:
        up_labels = tuple(map(tuple, up_labels))
        _check_aligned(up, up_labels)
    return Poset(elements=elements, up=up, ranks=tuple(ranks),
                 bottom=bottom, top=top, up_labels=up_labels)


def _check_aligned(up: tuple, up_labels) -> None:
    """MissingLabels unless up_labels[i] has one label per cover in up[i],
    naming the least unlabelled cover when there is one."""
    if len(up_labels) != len(up):
        raise MissingLabels(f"{len(up_labels)} label lists, {len(up)} "
                            "elements")
    for lo, (his, labs) in enumerate(zip(up, up_labels)):
        if len(labs) != len(his):
            raise MissingLabels(
                f"cover ({lo}, {his[len(labs)]}) has no edge label"
                if len(labs) < len(his) else f"extra labels at {lo}")


def maximal_chains(p: Poset) -> list[tuple[int, ...]]:
    """All maximal chains of p, bottom to top, in lexicographic index
    order.  Only the top has no upper cover, so every upward walk from
    the bottom ends there and the walk tests no element for membership."""
    up, out, path = p.up, [], [p.bottom]

    def walk(v: int) -> None:
        if not up[v]:
            out.append(tuple(path))
        for w in up[v]:
            path.append(w)
            walk(w)
            path.pop()

    walk(p.bottom)
    # walk holds itself through its closure; unbinding it lets the
    # chains go with `out`, not wait for the cyclic collector
    del walk
    return out


def mobius(p: Poset) -> int:
    """mu(bottom, top), by the dual of the defining recursion.

    mu(top, top) = 1 and mu(z, top) = -sum of mu(v, top) over z < v,
    filled in falling rank order (Rota 1964).  Each z walks its up-set
    and sums the values found, so a call costs the covers met on those
    walks, about the comparable pairs times the up-degree.
    """
    mu = [0] * len(p)
    mu[p.top] = 1
    for z in sorted(range(len(p)), key=p.ranks.__getitem__, reverse=True)[1:]:
        # [1:] skips the top; mu holds mu(v, top) above z, and 0 at z
        mu[z] = -sum(map(mu.__getitem__, p._walk(z, p.height - p.ranks[z])))
    return mu[p.bottom]


def chain_f_vector(p: Poset) -> tuple:
    """(f_0, ..., f_(h-2)) for p of height h: f_k counts the (k+1)-element
    chains of the proper part, the k-faces of its order complex, unbuilt.
    In rank order each proper z packs g(z), its chains by size, one int
    slot each, and adds them one element longer to every w above z below
    the top (Hall 1936; Rota 1964); a slot counts < N^(h-1) < 2^width."""
    h, ranks = p.height, p.ranks
    width = max(h - 1, 0) * len(p).bit_length()
    g = [0] * len(p)
    for z in sorted(range(len(p)), key=ranks.__getitem__):
        if z != p.bottom and z != p.top:
            g[z] += 1
            longer = g[z] << width
            for w in p._walk(z, h - 1 - ranks[z]):
                if w != z:
                    g[w] += longer
    total, mask = sum(g), (1 << width) - 1
    return tuple(total >> k * width & mask for k in range(h - 1))


# ── serialization ────────────────────────────────────────────────────────

def poset_to_json(p: Poset, up_labels: tuple | None = None):
    """JSON document with element keys (via str), covers, bottom and top,
    in pieces, so that a writer holds one at a time: the head, the covers
    of each element that has any, the keys 256 at a time, and the tail.

    With up_labels, aligned with p.up as Poset.up_labels is, covers
    become objects carrying a "label" field, written as json.dumps writes
    the label; MissingLabels, naming a cover with none, comes before the
    head.  The joined text is the one json.dumps(doc, sort_keys=True)
    gives, written directly: keys sorted, ", " and ": " separators.
    """
    texts = _label_texts(p, up_labels, json.dumps)
    yield f'{{"bottom": {p.bottom}, "covers": ['
    sep = ""
    for lo, his in enumerate(p.up):
        if his:
            yield sep + ", ".join(
                [f"[{lo}, {hi}]" for hi in his] if texts is None else
                [f'{{"hi": {hi}, "label": {text}, "lo": {lo}}}'
                 for hi, text in zip(his, texts(lo))])
            sep = ", "
    yield '], "elements": ['
    for i in range(0, len(p.elements), 256):  # one json.dumps per chunk
        yield (", " if i else "") + json.dumps(
            [str(k) for k in p.elements[i:i + 256]])[1:-1]
    yield f'], "top": {p.top}}}'


def poset_to_dot(p: Poset, up_labels: tuple | None = None):
    """GraphViz DOT text for the Hasse diagram, bottom drawn lowest, in
    pieces as poset_to_json yields JSON's: the head, each element's line,
    the cover lines of each element, and the tail."""
    def esc(s) -> str:
        return str(s).replace("\\", "\\\\").replace('"', '\\"')

    texts = _label_texts(p, up_labels, esc)
    yield "digraph poset {\n  rankdir=BT;\n"
    for i, k in enumerate(p.elements):
        yield f'  n{i} [label="{esc(k)}"];\n'
    for lo, his in enumerate(p.up):
        yield "".join(
            [f"  n{lo} -> n{hi};\n" for hi in his] if texts is None else
            [f'  n{lo} -> n{hi} [label="{text}"];\n'
             for hi, text in zip(his, texts(lo))])
    yield "}\n"


def _label_texts(p: Poset, up_labels, render):
    """None without up_labels.  Else, after MissingLabels for the least
    cover up_labels misses, a function of lo giving render(label) for
    each label of up_labels[lo].  A label object met again reuses its
    text, so labels that share one object per distinct label render
    each distinct label once."""
    if up_labels is None:
        return None
    _check_aligned(p.up, up_labels)
    texts: dict = {}  # id -> (label, text); holding label keeps its id

    def row(lo: int) -> list:
        return [(texts.get(id(label)) or texts.setdefault(
            id(label), (label, render(label))))[1] for label in up_labels[lo]]
    return row
