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

from dataclasses import dataclass
from itertools import islice

from .errors import VpshellError
from .poset import Poset, chain_f_vector
from .vecpart import (VectorPartition, atom_lex_rank, atom_word, decode,
                      element_texts, first_word_difference, is_cover,
                      merge_blocks)

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


def _words(p: Poset, lab: tuple):
    """Label words under lab, aligned with p.up, of p's maximal chains in
    order_complex(p)'s facet order, walked as it walks them; the last two
    steps stream, a coatom's one cover being to the top."""
    up, walk = p.up, [(p.bottom, ())]
    for _ in range(p.height - 2):
        walk = [(hi, w + (label,)) for lo, w in walk
                for hi, label in zip(up[lo], lab[lo])]
    for lo, w in walk:
        for mid, label in zip(up[lo], lab[lo]):
            for last in lab[mid]:
                yield w + (label, last)


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
    all pairs exactly when it holds on every cover.  Conditions 1-4 are
    one loop over the covers in index order, a linear extension: for (2)
    each element keeps the least last label of an increasing chain from
    the bottom that kept its atom word, final once the loop reaches it,
    and each offending cover is listed once, ascending by (lower, upper).

    p must be a vector-partition poset, its (blocks, labels) keys are
    read, and its p.up_labels are audited (VpshellError when it
    carries none).  Returns {condition: [text]}, every list empty
    exactly when the condition holds; each list is capped at five.
    """
    bad: dict[int, list] = {c: [] for c in (1, 2, 3, 4, 5)}
    lab, els = _label_table(p), p.elements
    n, s = len(els[p.top][0][0]), len(els[p.top][1])
    words = {t: atom_word(decode(e, n, s)) for t, e in enumerate(els) if e[0]}

    def report(c: int, text: str, lo: int, hi: int, *label) -> None:
        if len(bad[c]) < _REPORTED:  # {x}, {y}: the ends; {0}...: the label
            x, y = element_texts([els[lo], els[hi]])
            bad[c].append(text.format(*label, x=x, y=y))

    least = dict(zip(p.up[p.bottom], lab[p.bottom]))  # one edge per atom
    for lo in range(p.bottom + 1, len(els)):
        x, last = decode(els[lo], n, s), least.get(lo)
        for hi, label in zip(p.up[lo], lab[lo]):
            rising = last is not None and last < label
            if not words[hi] <= words[lo]:
                report(1, "{x} <. {y} but atom words rise", lo, hi)
            if words[lo] == words[hi]:
                if rising:  # the chain goes on
                    least[hi] = min(least.get(hi, label), label)
                continue
            if rising:
                report(2, "increasing chain reaches {x} then changes atom "
                       "word stepping to {y}", lo, hi)
            k, i, j = label
            pos = (i - 1) * n + (k - 1)
            if not (1 <= k <= n and 1 <= i <= s
                    and words[lo][pos] > j and words[hi][pos] == j):
                report(3, "label ({0},{1},{2}) on {x} <. {y} fails the "
                       "entry comparison", lo, hi, *label)
            # a k or j that no block holds, or an i outside 1..s, names none
            ka = next((t for t, blk in enumerate(x.blocks) if k in blk), None)
            kb = next((t for t, js in enumerate(x.labels[i - 1]) if j in js),
                      None) if 1 <= i <= s else None
            if None in (ka, kb) or ka == kb \
                    or merge_blocks(x, ka, kb) != decode(els[hi], n, s):
                report(4, "label ({0},{1},{2}) on {x} <. {y} does not name "
                       "the merged blocks", lo, hi, *label)
    for lo, hi, first in islice(_first_difference_failures(p, words, n, s),
                                _REPORTED):
        report(5, "interval [{x}, {y}] has a chain violating the "
               "first-difference law {0}", lo, hi, first)
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
    pairs = zip(_words(p, _label_table(p)), c.facets)
    return [f for _, f in sorted(pairs, key=lambda wf: wf[0])]


def lex_homology_facets(p: Poset) -> int | None:
    """Homology facets of lex_shelling_order(p, order_complex(p)), None
    when it is no shelling; no chain, face or complex is made.

    In the facet F of bottom = c_0 <. ... <. c_h = top, c_r is in R(F)
    unless it is the lex-first middle m of [c_(r-1), c_(r+1)] by (label
    of c_(r-1) <. m, label of m <. c_(r+1), m).  The order shells exactly
    when the sum of 2^(|F| - |R(F)|) is 1 + sum(chain_f_vector(p)), the
    faces (Bjorner-Wachs 1983; see verify_shelling).  One pass in index
    order gives each b that sum and the number with R(F) = F over the
    chains up to b, into[b] and plain[b]; won[a][b] corrects them for the
    chains through a <. b whose [z, b] a leads.  The cost is the sum over
    b of its lower covers times its upper covers.
    """
    lab = _label_table(p)
    if p.height < 2:
        return 0
    up, into, plain = p.up, [0] * len(p), [0] * len(p)
    into[p.bottom] = plain[p.bottom] = 1
    won = [{} for _ in up]  # b -> c -> (doubled, dropped) sums
    for a, (his, labs) in enumerate(zip(up, lab)):
        first = {}  # c -> (labels, b, w, h) of [a, c]'s lex-first middle b
        for b, low in zip(his, labs):
            x, y = won[a].pop(b, (0, 0))
            w, h = into[a] + x, plain[a] - y  # over the chains through a <. b
            into[b], plain[b] = into[b] + w, plain[b] + h
            for c, high in zip(up[b], lab[b]):  # ties keep the least b
                if c not in first or (low, high) < first[c][0]:
                    first[c] = ((low, high), b, w, h)
        for c, (_, b, w, h) in first.items():
            x, y = won[b].get(c, (0, 0))
            won[b][c] = (x + w, y + h)
    return plain[p.top] if into[p.top] == 1 + sum(chain_f_vector(p)) else None


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
        blocks = [b for b, _ in p.elements]  # one pass over the keys
        for lo, his in enumerate(p.up):
            # j = 0 marks the bottom edges and the covers (n, max(I u J), 0)
            if lo != p.bottom:
                xb = set(blocks[lo])
                lab[lo] = tuple([label if label[2] else (label[0], next(
                    bk for bk in blocks[hi] if bk not in xb)[0], 0)
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
    first = {}
    for w, f in zip(_words(p, _label_table(p)), c.facets):
        first.setdefault(w, f)
    return [first[w] for w in sorted(first)]
