"""Edge labels and lexicographic shellability checks.

Covers of the labeled-partition poset are labeled with integer triples,
compared lexicographically:

* bottom edge to the m-th atom (in atom-word order): (n-1, s+m, 0);
* cover whose endpoints have different atom words: the first difference
  (k, i, j), scanning positions k = 1..n outermost and labeling indices
  i = 1..s innermost -- NOT left-to-right in word storage order -- with j
  the upper element's entry there;
* cover whose endpoints share an atom word: (n, max(I u J), 0) for the
  two merged blocks I, J (the classical max-merge labeling transported).

An edge labeling is EL when every interval has exactly one strictly
increasing maximal label word and that word strictly lexicographically
precedes the word of every other maximal chain of the interval.
"""
from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from itertools import groupby

from .errors import MissingLabels, NotACover, NotSaturated
from .poset import Poset, maximal_chains
from .vecpart import (VectorPartition, atom_lex_rank, atom_word,
                      first_word_difference, is_cover, merge_blocks)

EdgeLabel = tuple  # (k, i, j) int triples for vector partitions

_REPORTED = 5  # counterexamples kept per condition by verify_label_structure


def cover_label(x: VectorPartition, y: VectorPartition) -> EdgeLabel:
    """The (k, i, j) label of the cover x <. y; raises NotACover else.

    This is the definition.  vector_partition_poset labels every cover
    the same way as it generates it and stores the table on the poset,
    so the verifiers read that table instead of calling this per cover.
    """
    if not is_cover(x, y):
        raise NotACover(f"{x} <. {y} fails")
    n, s = y.n, y.s
    if x.is_bottom:
        return (n - 1, s + atom_lex_rank(atom_word(y), n, s), 0)
    ax, ay = atom_word(x), atom_word(y)
    if ax != ay:
        return first_word_difference(ax, ay, n, s)
    xb = set(x.blocks)
    merged = next(b for b in y.blocks if b not in xb)
    return (n, merged[-1], 0)


def chain_label(chain) -> tuple:
    """Label word of a saturated chain, bottom to top.

    Raises NotSaturated when some step is not a cover.
    """
    word = []
    for lo, hi in zip(chain, chain[1:]):
        try:
            word.append(cover_label(lo, hi))
        except NotACover as exc:
            raise NotSaturated(str(exc)) from exc
    return tuple(word)


def is_increasing(word) -> bool:
    """Strictly increasing label word; empty and singleton words qualify."""
    return all(a < b for a, b in zip(word, word[1:]))


def is_weakly_decreasing(word) -> bool:
    return all(a >= b for a, b in zip(word, word[1:]))


@dataclass(frozen=True)
class ELReport:
    """Outcome of verify_el.  counterexample, when present, is
    (x_index, y_index, diagnosis) for the canonically least bad interval."""

    ok: bool
    counterexample: tuple | None = None

    def text(self) -> str:
        if self.ok:
            return ("EL verification passed: every interval has a unique "
                    "increasing maximal chain, lexicographically first.")
        x, y, why = self.counterexample
        return f"EL verification FAILED on interval ({x}, {y}): {why}"


def _label_table(p: Poset, labels: Mapping | None) -> Mapping:
    """labels, else the table p carries; MissingLabels when neither exists."""
    if labels is not None:
        return labels
    if p.edge_labels is None:
        raise MissingLabels("the poset carries no edge labels and none "
                            "were given")
    return p.edge_labels


def verify_el(p: Poset, labels: Mapping | None = None) -> ELReport:
    """Check the EL property on every interval of p.

    labels maps every cover (lo, hi) to its label; None reads the table
    the poset carries, p.edge_labels, and MissingLabels is raised when
    there is neither.  For each x < y: among the maximal chains of
    [x, y] exactly one may have a strictly increasing label word, and
    that word must strictly precede every other chain's word.  The first
    failure, scanning pairs (x, y) in ascending index order, is reported.

    No chain is enumerated (the definition, Bjorner-Wachs 1983, is
    checked exactly).  One pass per lower endpoint x walks the up-set of
    x rank by rank through the covers and gives each y three values,
    all read off y's lower covers z above x:
      * the least label word of [x, y], the least of least(z) + (label
        of z <. y,).  p is graded, so the words of [x, y] share one
        length and the least word extends a lower cover's least word;
      * whether that word strictly increases;
      * the number of strictly increasing chains of [x, y] per last
        label: the cover from z = x adds 1, any other z adds its
        increasing chains whose last label is below that of z <. y.
    [x, y] fails when it has k != 1 increasing chains, or when its one
    increasing chain does not carry the least word (a second chain with
    the least word would be a second increasing chain).  The cost is the
    sum, over comparable pairs x < y, of the lower covers of y; a pass
    keeps one word per element of the up-set of x.
    """
    lab = _label_table(p, labels)
    for x in range(len(p.elements)):
        bad = _first_el_failure(p, lab, x)
        if bad is not None:
            return ELReport(False, (x,) + bad)
    return ELReport(True)


def _first_el_failure(p: Poset, lab: Mapping, x: int) -> tuple | None:
    """(y, diagnosis) for the least index y whose [x, y] is not EL."""
    up, down = p.up, p.down
    # least[y]: the least label word of [x, y]; rises[y]: whether it
    # strictly increases; rising[y]: last label -> number of strictly
    # increasing chains of [x, y] ending in it
    least: dict[int, tuple] = {x: ()}
    rises = {x: True}
    rising: dict[int, dict] = {}
    failure = None
    level = [x]
    while level:
        # p is graded, so the lower covers above x of every element of
        # the next level lie in the level just done
        level = {w for z in level for w in up[z]}
        for y in level:
            word = None
            counts: dict = {}
            for z in down[y]:
                w = least.get(z)
                if w is None:
                    continue
                label = lab[(z, y)]
                if word is None or (w, label) < (word, last):
                    word, last, via = w, label, z
                if z == x:
                    counts[label] = 1
                    continue
                k = sum(c for l, c in rising[z].items() if l < label)
                if k:
                    counts[label] = counts.get(label, 0) + k
            least[y] = word + (last,)
            rises[y] = rises[via] and (not word or word[-1] < last)
            rising[y] = counts
            k = sum(counts.values())
            if k != 1:
                why = f"{k} increasing chains"
            elif not rises[y]:
                why = "increasing chain is not lexicographically first"
            else:
                continue
            if failure is None or y < failure[0]:
                failure = (y, why)
    return failure


def verify_label_structure(p: Poset,
                           labels: Mapping | None = None) -> dict[int, list]:
    """Counterexamples to the five structural facts the labeling rests on.

    (1) x <= y implies A(y) <=_lex A(x) on atom words;
    (2) no strictly increasing chain starting at the bottom contains a
        cover whose endpoints have different atom words;
    (3) an atom-changing cover labeled (k, i, j) satisfies
        lower word > j = upper word at position (k, i);
    (4) that cover merges the block containing k with the block whose
        i-th label contains j;
    (5) when an interval's endpoints have different atom words with first
        difference (k, i, j), every maximal chain of the interval carries
        the label (k, i, j) exactly once and no label below it.

    Condition 1 is checked on covers only: every comparable pair is
    joined by a chain of covers and <=_lex is transitive, so it holds on
    all pairs exactly when it holds on every cover.

    p must be a vector-partition poset; labels defaults to its
    p.edge_labels (MissingLabels when there is neither).  Returns
    {condition: [text]}, every list empty exactly when the condition
    holds; each list is capped at five entries.
    """
    bad: dict[int, list] = {c: [] for c in (1, 2, 3, 4, 5)}
    lab = _label_table(p, labels)
    els = p.elements
    n, s = els[p.top].n, els[p.top].s
    words = {t: atom_word(e) for t, e in enumerate(els) if not e.is_bottom}

    # DFS over increasing chains from the bottom only; extensions of a
    # non-increasing word stay non-increasing, so pruning loses nothing
    def climb(v: int, last: EdgeLabel) -> None:
        for w in p.up[v]:
            lbl = lab[(v, w)]
            if not lbl > last:
                continue
            if words[v] != words[w]:
                if len(bad[2]) < _REPORTED:
                    bad[2].append(
                        f"increasing chain reaches {els[v]} then changes "
                        f"atom word stepping to {els[w]}")
                continue
            climb(w, lbl)

    for a in p.up[p.bottom]:
        climb(a, lab[(p.bottom, a)])

    for (lo, hi) in sorted(p.covers):
        if lo == p.bottom:
            continue
        if not words[hi] <= words[lo]:
            if len(bad[1]) < _REPORTED:
                bad[1].append(f"{els[lo]} <. {els[hi]} but atom words rise")
        if words[lo] == words[hi]:
            continue
        k, i, j = lab[(lo, hi)]
        pos = (i - 1) * n + (k - 1)
        if not (words[lo][pos] > j and words[hi][pos] == j):
            if len(bad[3]) < _REPORTED:
                bad[3].append(f"label ({k},{i},{j}) on {els[lo]} <. "
                              f"{els[hi]} fails the entry comparison")
        x = els[lo]
        ka = next(t for t, blk in enumerate(x.blocks) if k in blk)
        kb = next(t for t in range(x.num_blocks) if j in x.labels[i - 1][t])
        if ka == kb or merge_blocks(x, ka, kb) != els[hi]:
            if len(bad[4]) < _REPORTED:
                bad[4].append(f"label ({k},{i},{j}) on {els[lo]} <. "
                              f"{els[hi]} does not name the merged blocks")

    # every element above a non-bottom x is non-bottom too
    for x in sorted(words):
        for y in p.up_set(x):
            if words[x] == words[y]:
                continue
            first = first_word_difference(words[x], words[y], n, s)
            for c in maximal_chains(p, x, y):
                word = tuple(lab[e] for e in zip(c, c[1:]))
                if word.count(first) != 1 or any(l < first for l in word):
                    if len(bad[5]) < _REPORTED:
                        bad[5].append(
                            f"interval [{els[x]}, {els[y]}] has a chain "
                            f"violating the first-difference law {first}")
                    break
    return bad


def sorted_labeled_chains(p: Poset, labels: Mapping | None = None) -> list:
    """Maximal bottom-top chains as (word, chain) pairs, sorted by label
    word with ties broken by the chains' element-index tuples.  labels
    defaults to p.edge_labels."""
    lab = _label_table(p, labels)
    pairs = [(tuple(lab[e] for e in zip(c, c[1:])), c)
             for c in maximal_chains(p)]
    pairs.sort()
    return pairs


def lex_shelling_order(p: Poset, labels: Mapping | None = None) -> list:
    """Facets of the proper-part complex in induced shelling order.

    Maximal chains are sorted by label word (ties by canonical chain
    order) and stripped of bottom and top, leaving index tuples that
    ascend when elements are indexed by rank.  Height-1 posets give [].
    """
    if p.height < 2:
        return []
    return [c[1:-1] for _, c in sorted_labeled_chains(p, labels)]


# ── deliberate defects, for exercising the verifiers ─────────────────────

SABOTAGES = ("swap-bottom-labels", "min-merge-label", "drop-tie-break")


def sabotaged_label_map(p: Poset, name: str) -> dict:
    """Edge labels with one deliberate defect, for mutation testing.

    swap-bottom-labels: the two lexicographically least atoms trade their
    bottom-edge labels.  min-merge-label: equal-atom-word covers use the
    min of the merged blocks instead of the max.  drop-tie-break mutates
    the shelling order, not the labels; see sabotaged_shelling_order.
    """
    lab = dict(_label_table(p, None))
    if name == "swap-bottom-labels":
        bottom_edges = sorted(
            (e for e in lab if e[0] == p.bottom), key=lambda e: lab[e])
        a, b = bottom_edges[0], bottom_edges[1]
        lab[a], lab[b] = lab[b], lab[a]
    elif name == "min-merge-label":
        for (lo, hi), (_, _, j) in lab.items():
            # j = 0 marks the bottom edges and the equal-atom-word covers
            if lo != p.bottom and j == 0:
                x, y = p.elements[lo], p.elements[hi]
                xb = set(x.blocks)
                merged = next(bk for bk in y.blocks if bk not in xb)
                lab[(lo, hi)] = (y.n, merged[0], 0)
    elif name == "drop-tie-break":
        pass  # labels untouched; the defect lives in the ordering
    else:
        raise ValueError(f"unknown sabotage {name!r}")
    return lab


def sabotaged_shelling_order(p: Poset, name: str) -> list:
    """Shelling order under the named defect.

    drop-tie-break keeps only the first chain of every label-word tie
    group, so tied facets silently vanish from the order.
    """
    if name != "drop-tie-break":
        return lex_shelling_order(p, sabotaged_label_map(p, name))
    return [next(tied)[1][1:-1] for _, tied in
            groupby(sorted_labeled_chains(p), key=lambda pair: pair[0])]
