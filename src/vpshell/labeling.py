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

from .errors import NotACover, NotSaturated
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


def verify_el(p: Poset, labels: Mapping | None = None) -> ELReport:
    """Check the EL property on every interval of p.

    labels maps every cover (lo, hi) to its label; None reads the table
    the poset carries, p.edge_labels.  For each x < y: among the maximal
    chains of [x, y] exactly one may have a strictly increasing label
    word, and that word must strictly precede every other chain's word.
    The first failure, scanning pairs (x, y) in ascending index order, is
    reported.
    """
    lab = p.edge_labels if labels is None else labels
    for x in range(len(p.elements)):
        for y in p.up_set(x):
            if y == x:
                continue
            words = []
            for c in maximal_chains(p, x, y):
                words.append(tuple(lab[e] for e in zip(c, c[1:])))
            rising = [t for t, w in enumerate(words) if is_increasing(w)]
            if len(rising) != 1:
                return ELReport(False, (x, y,
                                f"{len(rising)} increasing chains"))
            bi = rising[0]
            if any(words[t] <= words[bi]
                   for t in range(len(words)) if t != bi):
                return ELReport(False, (x, y,
                                "increasing chain is not lexicographically first"))
    return ELReport(True)


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

    p must be a vector-partition poset; labels defaults to its
    p.edge_labels.  Returns {condition: [text]}, every list empty exactly
    when the condition holds; each list is capped at five entries.
    """
    bad: dict[int, list] = {c: [] for c in (1, 2, 3, 4, 5)}
    lab = p.edge_labels if labels is None else labels
    els = p.elements
    n, s = els[p.top].n, els[p.top].s
    words = {t: atom_word(e) for t, e in enumerate(els) if not e.is_bottom}

    live = sorted(words)
    for x in live:
        for y in live:
            if x != y and p.leq(x, y) and not words[y] <= words[x]:
                if len(bad[1]) < _REPORTED:
                    bad[1].append(f"{els[x]} <= {els[y]} but atom words rise")

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
        if lo == p.bottom or words[lo] == words[hi]:
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

    for x in live:
        for y in live:
            if x == y or not p.leq(x, y) or words[x] == words[y]:
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
    lab = p.edge_labels if labels is None else labels
    pairs = [(tuple(lab[e] for e in zip(c, c[1:])), c)
             for c in maximal_chains(p)]
    pairs.sort()
    return pairs


def lex_shelling_order(p: Poset, labels: Mapping | None = None) -> list:
    """Facets of the proper-part complex in induced shelling order.

    Maximal chains are sorted by label word (ties by canonical chain
    order) and stripped of bottom and top.  Height-1 posets give [].
    """
    if p.height < 2:
        return []
    return [frozenset(c[1:-1]) for _, c in sorted_labeled_chains(p, labels)]


# ── deliberate defects, for exercising the verifiers ─────────────────────

SABOTAGES = ("swap-bottom-labels", "min-merge-label", "drop-tie-break")


def sabotaged_label_map(p: Poset, name: str) -> dict:
    """Edge labels with one deliberate defect, for mutation testing.

    swap-bottom-labels: the two lexicographically least atoms trade their
    bottom-edge labels.  min-merge-label: equal-atom-word covers use the
    min of the merged blocks instead of the max.  drop-tie-break mutates
    the shelling order, not the labels; see sabotaged_shelling_order.
    """
    lab = dict(p.edge_labels)
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
    out = []
    seen_words = set()
    for word, c in sorted_labeled_chains(p):
        if word in seen_words:
            continue
        seen_words.add(word)
        out.append(frozenset(c[1:-1]))
    return out
