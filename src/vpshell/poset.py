"""Bounded graded posets: construction, chains, Mobius function, serialization.

Elements are opaque hashable keys held in an indexed table; all operations
speak element indices.  Covers are index pairs (lo, hi) with
rank(hi) = rank(lo) + 1, where ranks are longest-path distances from the
bottom.  Gradedness is validated at build time, never assumed.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType

from .errors import (CycleDetected, DuplicateElement, MissingLabels,
                     NotACover, NotBounded, NotComparable, NotGraded,
                     UnknownElement)


@dataclass(frozen=True)
class Poset:
    """Immutable bounded graded poset.

    Use build_poset() or build_indexed_poset() to construct: they
    validate acyclicity, unique bottom and top, and gradedness.  The only
    derived structure is adjacency (up, down, index), computed lazily and
    cached on the instance; reachability (leq, up_set, intervals) is
    walked through the covers on demand, never tabulated.  edge_labels,
    when present, is a read-only mapping (lo, hi) -> label over every
    cover, attached by a builder that labels each cover as it generates
    it; it takes no part in equality.
    """

    elements: tuple
    covers: frozenset  # of (lo, hi) index pairs
    ranks: tuple
    bottom: int
    top: int
    edge_labels: MappingProxyType | None = field(
        default=None, compare=False, repr=False)

    def __len__(self) -> int:
        return len(self.elements)

    @cached_property
    def index(self) -> dict:
        """Element key -> index."""
        return {k: i for i, k in enumerate(self.elements)}

    @cached_property
    def up(self) -> tuple:
        """up[i]: sorted indices covering i."""
        lists: list[list[int]] = [[] for _ in self.elements]
        for lo, hi in self.covers:
            lists[lo].append(hi)
        return tuple(tuple(sorted(l)) for l in lists)

    @cached_property
    def down(self) -> tuple:
        """down[i]: sorted indices covered by i."""
        lists: list[list[int]] = [[] for _ in self.elements]
        for lo, hi in self.covers:
            lists[hi].append(lo)
        return tuple(tuple(sorted(l)) for l in lists)

    def leq(self, x: int, y: int) -> bool:
        return y in self._walk(x, self.up, self.ranks[y] - self.ranks[x])

    @property
    def height(self) -> int:
        return self.ranks[self.top]

    def up_set(self, x: int) -> list[int]:
        """Sorted indices of the elements above x, x included."""
        return sorted(self._walk(x, self.up))

    def _walk(self, start: int, step: tuple,
              levels: int | None = None) -> set[int]:
        """start and what step (up or down) reaches from it in at most
        levels steps, by default any number.  A step changes the rank by
        one, so each level is the step image of the one before."""
        seen = level = {start}
        for _ in range(self.height if levels is None else levels):
            level = {w for v in level for w in step[v]}
            seen |= level
        return seen


def build_poset(elements, covers) -> Poset:
    """Validate a cover relation and assemble a Poset.

    elements: iterable of unique hashable keys.
    covers:   iterable of (lo_key, hi_key) pairs.

    Raises UnknownElement when a cover names a key that is not an
    element, and otherwise validates as build_indexed_poset does.
    """
    elements = tuple(elements)
    index = {k: i for i, k in enumerate(elements)}
    try:
        pairs = {(index[lo], index[hi]) for lo, hi in covers}
    except KeyError as exc:
        raise UnknownElement(
            f"cover names {exc.args[0]!r}, not an element") from None
    return build_indexed_poset(elements, pairs)


def build_indexed_poset(elements, covers, edge_labels=None) -> Poset:
    """Validate a cover relation given as index pairs and assemble a Poset.

    elements:    sequence of unique hashable keys.
    covers:      iterable of (lo, hi) index pairs into elements.
    edge_labels: optional mapping (lo, hi) -> label over exactly these
                 covers, stored read-only on the poset.

    Raises CycleDetected, NotBounded, or NotGraded when the data does not
    describe a bounded graded poset, UnknownElement for an index outside
    elements, DuplicateElement for duplicate keys, MissingLabels for a
    cover with no label, and NotACover for a label on a non-cover.  Ranks
    are longest-path distances from the bottom; a cover whose endpoints
    differ by more than one rank (a transitive edge in disguise) trips
    NotGraded.
    """
    elements = tuple(elements)
    if len(set(elements)) != len(elements):
        raise DuplicateElement("duplicate element keys")
    n = len(elements)
    if n == 0:
        raise NotBounded("empty poset")
    pairs = frozenset(covers)

    up: list[list[int]] = [[] for _ in range(n)]
    indeg = [0] * n
    for i, j in pairs:
        if not (0 <= i < n and 0 <= j < n):
            raise UnknownElement(f"cover ({i}, {j}) leaves 0..{n - 1}")
        if i == j:
            raise CycleDetected(f"self-cover at element {i}")
        up[i].append(j)
        indeg[j] += 1
    if edge_labels is not None and edge_labels.keys() != pairs:
        if missing := pairs - edge_labels.keys():
            raise MissingLabels(f"cover {min(missing)} has no edge label")
        extra = min(edge_labels.keys() - pairs)
        raise NotACover(f"labelled pair {extra} is not a cover")

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

    for i, j in pairs:
        if ranks[j] != ranks[i] + 1:
            raise NotGraded(
                f"cover ({i}, {j}) spans ranks {ranks[i]} -> {ranks[j]}")

    return Poset(elements=elements, covers=pairs,
                 ranks=tuple(ranks), bottom=bottom, top=top,
                 edge_labels=(None if edge_labels is None
                              else MappingProxyType(edge_labels)))


def maximal_chains(p: Poset, x: int | None = None, y: int | None = None) -> list[tuple[int, ...]]:
    """All saturated chains from x to y, in lexicographic index order.

    Defaults to the full interval [bottom, top].  Raises NotComparable
    when x is not below y.  Below a proper upper end y the walk keeps to
    the down-set of y, found once; every element lies below the top, so
    a walk up to the top tests no order relation.
    """
    if x is None:
        x = p.bottom
    if y is None:
        y = p.top
    inside = None
    if y != p.top:
        inside = p._walk(y, p.down, p.ranks[y] - p.ranks[x])
        if x not in inside:
            raise NotComparable(f"{x} is not below {y}")
    out: list[tuple[int, ...]] = []
    path = [x]

    def walk(v: int) -> None:
        if v == y:
            out.append(tuple(path))
            return
        for w in p.up[v]:
            if inside is None or w in inside:
                path.append(w)
                walk(w)
                path.pop()

    walk(x)
    # walk holds itself through its closure; unbinding it lets the
    # chains go with `out`, not wait for the cyclic collector
    del walk
    return out


def mobius(p: Poset, x: int, y: int) -> int:
    """Mobius function mu(x, y), by the dual of the defining recursion.

    mu(y, y) = 1 and mu(z, y) = -sum of mu(v, y) over z < v <= y, filled
    over [x, y] from y downward (Rota 1964).  Each z walks its up-set no
    higher than y and sums the values found, so a call costs the covers
    met on those walks, about the comparable pairs of the interval times
    the up-degree.  Nothing is cached on the poset.
    """
    levels = p.ranks[y] - p.ranks[x]
    above_x = p._walk(x, p.up, levels)
    if y not in above_x:
        raise NotComparable(f"{x} is not below {y}")
    interval = above_x & p._walk(y, p.down, levels)
    mu: dict[int, int] = {}
    for z in sorted(interval, key=p.ranks.__getitem__, reverse=True):
        # mu holds exactly the elements of [x, y] ranked above z
        mu[z] = 1 if z == y else -sum(
            mu.get(v, 0) for v in p._walk(z, p.up, p.ranks[y] - p.ranks[z]))
    return mu[x]


# ── serialization ────────────────────────────────────────────────────────

def poset_to_json(p: Poset, edge_labels: dict | None = None) -> str:
    """JSON document with element keys (via str), covers, bottom and top.

    With edge_labels, covers become objects carrying a "label" field.
    """
    covers = sorted(p.covers)
    if edge_labels is None:
        cov = [[lo, hi] for lo, hi in covers]
    else:
        cov = [{"lo": lo, "hi": hi, "label": list(edge_labels[(lo, hi)])}
               for lo, hi in covers]
    doc = {
        "elements": [str(k) for k in p.elements],
        "covers": cov,
        "bottom": p.bottom,
        "top": p.top,
    }
    return json.dumps(doc, sort_keys=True)


def poset_to_dot(p: Poset, edge_labels: dict | None = None) -> str:
    """GraphViz DOT text for the Hasse diagram, bottom drawn lowest."""
    def esc(s: str) -> str:
        return s.replace("\\", "\\\\").replace('"', '\\"')

    lines = ["digraph poset {", "  rankdir=BT;"]
    for i, k in enumerate(p.elements):
        lines.append(f'  n{i} [label="{esc(str(k))}"];')
    for lo, hi in sorted(p.covers):
        if edge_labels is not None:
            lines.append(f'  n{lo} -> n{hi} [label="{esc(str(edge_labels[(lo, hi)]))}"];')
        else:
            lines.append(f"  n{lo} -> n{hi};")
    lines.append("}")
    return "\n".join(lines) + "\n"
