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

from bisect import bisect_left
from dataclasses import dataclass
from itertools import islice

from .errors import VpshellError
from .poset import Poset
from .vecpart import (VectorPartition, atom_lex_rank, atom_word, decode,
                      first_word_difference, is_cover, merge_blocks)

EdgeLabel = tuple  # (k, i, j) int triples for vector partitions

_REPORTED = 5  # counterexamples kept per condition by verify_label_structure


def cover_label(x: VectorPartition, y: VectorPartition) -> EdgeLabel:
    """The (k, i, j) label of the cover x <. y; raises VpshellError else.

    This is the definition.  vector_partition_poset labels every cover
    the same way as it generates it and stores the labels on the poset,
    so the verifiers read them instead of calling this per cover.
    """
    if not is_cover(x, y):
        raise VpshellError(f"{x} <. {y} fails")
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
    """Label word of a saturated chain, bottom to top; VpshellError when
    some step is not a cover."""
    return tuple([cover_label(lo, hi) for lo, hi in zip(chain, chain[1:])])


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


def _label_table(p: Poset) -> tuple:
    """p.up_labels, aligned with p.up; VpshellError when there are none."""
    if p.up_labels is None:
        raise VpshellError("the poset carries no edge labels")
    return p.up_labels


def _word(p: Poset, lab: tuple, f) -> tuple:
    """Label word under lab, aligned with p.up, of the maximal chain
    (p.bottom, *f, p.top) through the facet f of the order complex: the
    label of lo <. hi sits where hi does in the ascending p.up[lo]."""
    c = (p.bottom, *f, p.top)
    return tuple([lab[lo][bisect_left(p.up[lo], hi)]
                  for lo, hi in zip(c, c[1:])])


def verify_el(p: Poset) -> ELReport:
    """Check the EL property on every interval of p, under the labels it
    carries, p.up_labels (VpshellError when it carries none).  For
    each x < y: among the maximal chains of [x, y] exactly one may have
    a strictly increasing label word, and that word must strictly precede
    every other chain's word.  The first failure, scanning pairs (x, y)
    in ascending index order, is reported.

    No chain is enumerated (the definition, Bjorner-Wachs 1983, is
    checked exactly).  One pass per lower endpoint x walks the up-set of
    x rank by rank, pushing along the covers z <. y from each z of the
    rank just done, with their labels in p.up's order, and gives each y
    two values, both read off y's lower covers z above x:
      * the least label word of [x, y], the least of least(z) + (label
        of z <. y,).  p is graded, so the words of [x, y] share one
        length and the least word extends a lower cover's least word;
      * the number of z that are x or whose least word ends below the
        label of z <. y.
    The index order is a linear extension, so y's verdict matters only
    while every [x, z] with x < z < y is EL, with one increasing chain,
    its least word.  Then the count is the number of increasing chains
    of [x, y], and the least word increases exactly when its last step
    rises.  [x, y] fails when it has k != 1 increasing chains, or when
    its one increasing chain does not carry the least word (a second
    chain with the least word would be a second increasing chain).  The
    cost is the sum, over comparable pairs z < y, of the upper covers of
    z; a pass keeps one word per element of one rank.
    """
    lab = _label_table(p)
    for x in range(len(p.elements)):
        bad = _first_el_failure(p, lab, x)
        if bad is not None:
            return ELReport(False, (x,) + bad)
    return ELReport(True)


def _first_el_failure(p: Poset, lab: tuple, x: int) -> tuple | None:
    """(y, diagnosis) for the least index y whose [x, y] is not EL, under
    the labels lab, aligned with p.up."""
    failure = None
    least = {x: ()}  # least label word of [x, z], z in the level just done
    while least:
        # p is graded, so the lower covers above x of every element of
        # the next level lie in the level just done.  first[y] is the
        # least (least[z], label of z <. y) pushed to y, and counts[y]
        # the pushes from x or above the last label of least[z]
        first: dict[int, tuple] = {}
        counts: dict[int, int] = {}
        for z, w in least.items():
            for y, label in zip(p.up[z], lab[z]):
                at = first.get(y)
                if at is None or (w, label) < at:
                    first[y] = (w, label)
                counts[y] = counts.get(y, 0) + (not w or w[-1] < label)
        least = {}
        for y, (w, label) in first.items():
            least[y] = w + (label,)
            if counts[y] != 1:
                why = f"{counts[y]} increasing chains"
            elif w and not w[-1] < label:
                why = "increasing chain is not lexicographically first"
            else:
                continue
            if failure is None or y < failure[0]:
                failure = (y, why)
    return failure


def verify_label_structure(p: Poset) -> dict[int, list]:
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

    p must be a vector-partition poset, its (blocks, labels) keys are
    decoded, and its p.up_labels are audited (VpshellError when it
    carries none).  Returns {condition: [text]}, every list empty
    exactly when the condition holds; each list is capped at five.
    """
    bad: dict[int, list] = {c: [] for c in (1, 2, 3, 4, 5)}
    lab = _label_table(p)
    n, s = len(p.elements[p.top][0][0]), len(p.elements[p.top][1])
    els = [decode(e, n, s) for e in p.elements]
    words = {t: atom_word(e) for t, e in enumerate(els) if not e.is_bottom}

    # DFS over increasing chains from the bottom only; extensions of a
    # non-increasing word stay non-increasing, so pruning loses nothing
    def climb(v: int, last: EdgeLabel) -> None:
        for w, lbl in zip(p.up[v], lab[v]):
            if not lbl > last:
                continue
            if words[v] != words[w]:
                if len(bad[2]) < _REPORTED:
                    bad[2].append(
                        f"increasing chain reaches {els[v]} then changes "
                        f"atom word stepping to {els[w]}")
                continue
            climb(w, lbl)

    for a, lbl in zip(p.up[p.bottom], lab[p.bottom]):
        climb(a, lbl)

    for lo, (his, labs) in enumerate(zip(p.up, lab)):
        if lo == p.bottom:
            continue
        x = els[lo]
        for hi, (k, i, j) in zip(his, labs):
            if not words[hi] <= words[lo]:
                if len(bad[1]) < _REPORTED:
                    bad[1].append(f"{x} <. {els[hi]} but atom words rise")
            if words[lo] == words[hi]:
                continue
            pos = (i - 1) * n + (k - 1)
            if not (1 <= k <= n and 1 <= i <= s
                    and words[lo][pos] > j and words[hi][pos] == j):
                if len(bad[3]) < _REPORTED:
                    bad[3].append(f"label ({k},{i},{j}) on {x} <. "
                                  f"{els[hi]} fails the entry comparison")
            # a k or j that no block holds, or an i outside 1..s, names none
            ka = next((t for t, blk in enumerate(x.blocks) if k in blk), None)
            kb = next((t for t, js in enumerate(x.labels[i - 1]) if j in js),
                      None) if 1 <= i <= s else None
            if None in (ka, kb) or ka == kb or merge_blocks(x, ka, kb) != els[hi]:
                if len(bad[4]) < _REPORTED:
                    bad[4].append(f"label ({k},{i},{j}) on {x} <. "
                                  f"{els[hi]} does not name the merged blocks")

    bad[5] = [f"interval [{els[x]}, {els[y]}] has a chain violating the "
              f"first-difference law {first}" for x, y, first in islice(
                  _first_difference_failures(p, words, n, s), _REPORTED)]
    return bad


def _first_difference_failures(p: Poset, words: dict, n: int, s: int):
    """(x, y, first difference) for each [x, y], x in words and then y
    ascending, that breaks condition (5) of verify_label_structure on p,
    of dimensions (n, s).  No chain is enumerated: one pass per x, level
    by level as in _first_el_failure, gives each y the pairs (least
    label, times it occurs, capped at 2) over the maximal chains of
    [x, y], and the law holds exactly when they are only (first, 1)."""
    for x in words:
        least: dict[int, set] = {x: set()}  # for the level just done
        failures = []
        while least:
            pushed: dict[int, set] = {}
            for z, pairs in least.items():
                for y, label in zip(p.up[z], p.up_labels[z]):
                    # only x has no pairs: its covers start the chains
                    pushed.setdefault(y, set()).update([
                        (label, 1) if label < m else
                        (m, 2) if label == m else (m, k)
                        for m, k in pairs] or [(label, 1)])
            least = pushed
            for y, pairs in pushed.items():
                if words[x] != words[y]:
                    first = first_word_difference(words[x], words[y], n, s)
                    if pairs != {(first, 1)}:
                        failures.append((x, y, first))
        yield from sorted(failures)


def lex_shelling_order(p: Poset, c) -> list:
    """Facets of the proper-part complex c, which must be order_complex(p),
    in induced shelling order: its facets, in their lexicographic order,
    stably sorted by the label word, under p.up_labels, of their maximal
    chains (ties keep that order).  VpshellError when p carries no
    labels; else a height-1 poset gives [].
    """
    lab = _label_table(p)
    return sorted(c.facets, key=lambda f: _word(p, lab, f))


# ── deliberate defects, for exercising the verifiers ─────────────────────

SABOTAGES = ("swap-bottom-labels", "min-merge-label", "drop-tie-break")


def sabotaged_label_map(p: Poset, name: str) -> tuple:
    """Edge labels with one deliberate defect, for mutation testing,
    aligned with p.up as Poset.up_labels is.

    swap-bottom-labels: the two lexicographically least atoms (if n > 1)
    trade their bottom-edge labels.  min-merge-label: equal-atom-word
    covers use the min of the merged blocks instead of the max.
    drop-tie-break leaves the labels; see sabotaged_shelling_order.
    Any other name is a VpshellError.  verify-el catches all three at
    (3,1), (3,2) and (3,4); at n = 2 only swap-bottom-labels, as the
    min-merge labels are still EL and no two facets share a label word;
    at n = 1 none.
    """
    lab = list(_label_table(p))
    if name == "swap-bottom-labels":
        row = list(lab[p.bottom])
        if len(row) > 1:  # n = 1 has a single atom
            a, b = sorted(range(len(row)), key=row.__getitem__)[:2]
            row[a], row[b] = row[b], row[a]
            lab[p.bottom] = tuple(row)
    elif name == "min-merge-label":
        els = p.elements  # (blocks, labels) records
        for lo, his in enumerate(p.up):
            # j = 0 marks the bottom edges and the covers (n, max(I u J), 0)
            if lo != p.bottom:
                xb = set(els[lo][0])
                lab[lo] = tuple([label if label[2] else (label[0], next(
                    bk for bk in els[hi][0] if bk not in xb)[0], 0)
                    for hi, label in zip(his, lab[lo])])
    elif name != "drop-tie-break":  # drop-tie-break's defect is the order
        raise VpshellError(f"unknown sabotage {name!r}")
    return tuple(lab)


def sabotaged_shelling_order(p: Poset, c, name: str) -> list:
    """Shelling order of c, order_complex(p), under the named defect, p
    carrying its labels, as sabotaged_label_map gives them.  drop-tie-break
    keeps only the first facet of every label-word tie group of
    lex_shelling_order, so tied facets silently vanish from it.
    """
    if name not in SABOTAGES:
        raise VpshellError(f"unknown sabotage {name!r}")
    if name != "drop-tie-break":
        return lex_shelling_order(p, c)
    lab, first = _label_table(p), {}
    for f in c.facets:
        first.setdefault(_word(p, lab, f), f)
    return [first[w] for w in sorted(first)]
