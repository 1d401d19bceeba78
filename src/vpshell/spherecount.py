"""Counting the spheres in the wedge: decreasing chains five ways.

The proper part of the labeled-partition poset is homotopy equivalent to
a wedge of (n-2)-spheres, one per maximal chain whose label word is
weakly decreasing.  This module counts those chains by

* direct enumeration, itself implemented two independent ways that must
  agree: a walk up the built poset along its labelled covers, and
  top-down generation from the one-block element by the structural
  splitting rules (no poset required);
* an exact integer recursion over (n, top label index);
* the Mobius function of the bounded poset (|mu| with sign (-1)^n);
* reduced GF(2) homology of the proper part, from the Hasse diagram;
* the reduced Euler characteristic of the proper part.

For a single labeling the total equals the number of non-ambiguous
binary trees on n-1 nodes, computed here by its own convolution.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from math import comb

from .complexes import betti
from .errors import OracleMismatch, VpshellError
from .labeling import chain_label, is_weakly_decreasing
from .poset import Poset, chain_f_vector, mobius
from .vecpart import (VectorPartition, _assemble, bottom_element, decode,
                      is_cover, top_element, vector_partition_poset)

Chain = tuple  # (bottom, C_1, ..., C_n), VectorPartition entries


# ── enumeration, route one: walk the built poset ────────────────────────

def _walked_decreasing(p: Poset) -> list[tuple]:
    """The weakly decreasing maximal chains of p as index tuples, in
    lexicographic order: walked up p.up and p.up_labels a rank at a time,
    a chain at v steps to w, in ascending w, only when the label of v <. w
    is at most its last one, since a word that rises once cannot decrease
    weakly.  Weakly, as in Wachs's Poset Topology notes.  No decreasing
    chain repeats a label at (3,3), (4,2), (5,1) or (3,4), as a test pins,
    so there "at most" and "below" find the same chains; a hand-labelled
    poset in the tests tells them apart."""
    up, lab = p.up, p.up_labels
    chains = [((p.bottom, a), label)
              for a, label in zip(up[p.bottom], lab[p.bottom])]
    for _ in range(p.height - 1):
        chains = [(c + (w,), label) for c, last in chains
                  for w, label in zip(up[c[-1]], lab[c[-1]]) if label <= last]
    return [c for c, _ in chains]


# ── enumeration, route two: structural top-down generation ──────────────

def _generated_decreasing(n: int, s: int) -> list[tuple]:
    """Grow decreasing chains downward from the one-block element, each a
    tuple of (blocks, labels) records, the bottom's ((), ()) first.

    Every element of a decreasing chain looks like {1}..{k-1} B ... with
    B the leftmost non-singleton block, min B = k.  The next element
    splits B into L (keeping k) and R, splitting each label set
    compatibly.  Only admissible splits are made: pick i' at least the
    previous split's index when that acted at this same k, else at least
    1; labelings before i' keep their label minimum in L's label, i'
    sends it to R's, and the later ones are free.  The new edge label is
    then (k, i', _), keeping the bottom-up label word weakly decreasing.
    """
    full = tuple(range(1, n + 1))
    out: list[tuple] = []
    desc = [((full,), ((full,),) * s)]

    def extend(prev_pos: int, prev_idx: int) -> None:
        blocks, labels = desc[-1]
        bi = next((t for t, b in enumerate(blocks) if len(b) > 1), None)
        if bi is None:
            out.append((((), ()),) + tuple(reversed(desc)))
            return
        block = blocks[bi]
        k = block[0]
        for r in range(1, len(block)):
            for right in combinations(block[1:], r):
                left = tuple(v for v in block if v not in right)
                at = next((t for t in range(bi + 1, len(blocks))
                           if blocks[t][0] > right[0]), len(blocks))
                new_blocks = (blocks[:bi] + (left,) + blocks[bi + 1:at]
                              + (right,) + blocks[at:])
                # per labeling, the (L, R) splits in lex order of L: the
                # first cut of them keep the label minimum in L
                cut = comb(len(block) - 1, len(left) - 1)
                ways = [[(c, tuple(v for v in lab[bi] if v not in c))
                         for c in combinations(lab[bi], len(left))]
                        for lab in labels]
                for i_prime in range(prev_idx if prev_pos == k else 1, s + 1):
                    for parts in product(*[
                            w[:cut] if h < i_prime else w[cut:]
                            if h == i_prime else w
                            for h, w in enumerate(ways, 1)]):
                        desc.append((new_blocks, tuple(
                            lab[:bi] + (lo,) + lab[bi + 1:at] + (hi,) + lab[at:]
                            for lab, (lo, hi) in zip(labels, parts))))
                        extend(k, i_prime)
                        desc.pop()

    extend(0, 0)
    # extend holds itself through its closure; unbinding it lets the
    # chains go with `out`, not wait for the cyclic collector
    del extend
    return out


def decreasing_chains(n: int, s: int) -> list[Chain]:
    """All decreasing maximal chains, canonically sorted.

    Two independent routes must agree on index chains, else
    OracleMismatch: walking the labelled covers of
    vector_partition_poset(n, s), and growing its (blocks, labels) keys
    without a poset, which one dict maps to indices; a record that is no
    key is a mismatch too.  Elements are indexed in (rank, blocks,
    labels) order and the walk steps in index order, so only the
    generated chains are sorted, and a walk out of order is a mismatch.
    The index chains are decoded here, each index once;
    sphere_count_certificate counts them and decodes none, and bounds
    the walk by count_total(n, s), not by every maximal chain.
    """
    poset = vector_partition_poset(n, s)
    made: dict = {}  # index -> its element
    return [tuple([made.get(t) or made.setdefault(
        t, decode(poset.elements[t], n, s)) for t in c])
        for c in _decreasing_indices(n, s, poset)]


def _decreasing_indices(n: int, s: int, poset: Poset) -> list[tuple]:
    """decreasing_chains as index chains, walked up poset, which must be
    vector_partition_poset(n, s)."""
    walked = _walked_decreasing(poset)
    index = {r: t for t, r in enumerate(poset.elements)}
    try:
        generated = sorted([tuple([index[r] for r in c])
                            for c in _generated_decreasing(n, s)])
    except KeyError as exc:
        raise OracleMismatch(f"generation made {exc.args[0]}, which is not "
                             "an element of the poset") from None
    if walked != generated:
        raise OracleMismatch(
            f"poset walk found {len(walked)} decreasing chains, "
            f"generation found {len(generated)}")
    return walked


# ── exact recursion ──────────────────────────────────────────────────────

def count_by_recursion(n: int, s: int, i: int) -> int:
    """Decreasing chains whose top cover carries labeling index i.

    Convolution over the top split: the left part has some size a and
    top index i' >= i, the right part is free, and the independent
    choices of the s+1 left/right splits contribute
    C(n-1,a-1)^i * C(n-1,a) * C(n,a)^(s-i).  Defined for n >= 2.
    """
    if not 1 <= i <= s:
        raise VpshellError(f"index {i} outside 1..{s}")
    if n < 2:
        raise VpshellError("indexed counts need n >= 2")
    row = _suffix_table(n, s)[n - 1]
    return row[i - 1] - row[i]


def _suffix_table(n: int, s: int) -> list[list[int]]:
    """Row m - 1, for m = 2..n, holds at i - 1 the sum of
    count_by_recursion(m, s, i') over i' >= i, for i = 1..s + 1; row 0
    is [1], the one chain at m = 1.  Filled in increasing m, with the
    Pascal rows C(m - 1, .) and C(m, .) advanced one row per m."""
    table = [[1]]
    lower, upper = [1], [1, 1]
    for m in range(2, n + 1):
        lower, upper = upper, [1, *map(sum, zip(upper, upper[1:])), 1]
        row = [0] * (s + 1)
        for i in range(s, 0, -1):
            row[i - 1] = row[i] + sum(
                (1 if a == 1 else table[a - 1][i - 1]) * table[m - a - 1][0]
                * (lower[a - 1] ** i * lower[a] * upper[a] ** (s - i))
                for a in range(1, m))
        table.append(row)
    return table


def count_totals(n: int, s: int) -> list[int]:
    """count_total(m, s) for m = 1..n, from one table."""
    if n < 1 or s < 1:
        raise VpshellError("n and s must be at least 1")
    return [row[0] for row in _suffix_table(n, s)]


def count_total(n: int, s: int) -> int:
    """All decreasing chains: 1 for n = 1, else the sum over top indices."""
    return count_totals(n, s)[-1]


def nonambiguous_tree_counts(m: int) -> list[int]:
    """b_0, ..., b_m, the non-ambiguous binary trees on 0..m nodes:
    b_0 = 1 and b_k = sum over i+j=k-1 of C(k,i) C(k,j) b_i b_j, filled
    in increasing k, with the Pascal row C(k, .) advanced one row per k."""
    if m < 0:
        raise VpshellError("m must be non-negative")
    b, pascal = [1], [1]
    for k in range(1, m + 1):
        pascal = [1, *map(sum, zip(pascal, pascal[1:])), 1]
        c = [x * y for x, y in zip(pascal, b)]  # C(k, i) b_i, for i < k
        # the sum of c_i c_j over i + j = k - 1: (i, j) and (j, i) are equal
        b.append(2 * sum(c[i] * c[k - 1 - i] for i in range(k // 2))
                 + (c[k // 2] ** 2 if k % 2 else 0))
    return b


def nonambiguous_tree_count(m: int) -> int:
    """Non-ambiguous binary trees on m nodes, b_m."""
    return nonambiguous_tree_counts(m)[m]


# ── decomposition of a decreasing chain ──────────────────────────────────

@dataclass(frozen=True)
class Decomposition:
    """A decreasing chain reassembled from its top split and two chains.

    splits[0] is the (left, right) bipartition of {1..n} into the two
    blocks of the second-from-top element, left containing 1; splits[h]
    for h = 1..s bipartitions {1..n} into that element's label sets.
    left/right are decreasing maximal chains over {1..alpha} and
    {1..n-alpha}, obtained by restricting every chain element to one side
    and renumbering order-preservingly (per-side and per-labeling).
    """

    alpha: int
    left: Chain
    right: Chain
    splits: tuple  # (left_tuple, right_tuple) per index 0..s

    @property
    def top_index(self) -> int:
        """First labeling index whose left split misses 1; VpshellError
        when every labeling keeps 1 on the left."""
        for h in range(1, len(self.splits)):
            if 1 not in self.splits[h][0]:
                return h
        raise VpshellError("every labeling keeps 1 on the left")


def _restriction(chain: Chain, side: tuple, maps: tuple) -> Chain:
    """Restrict every non-bottom, non-top chain element to the blocks
    inside `side`, renumber through `maps`, and drop repeats (first
    occurrence kept).  The maps increase, so sets stay ascending."""
    s = chain[-1].s
    out: list[VectorPartition] = []
    for v in chain[1:-1]:
        w = _assemble(len(side), s, [
            (tuple(maps[0][e] for e in b),
             tuple(tuple(maps[h + 1][e] for e in v.labels[h][t])
                   for h in range(s)))
            for t, b in enumerate(v.blocks) if b[0] in maps[0]])
        if not out or out[-1] != w:
            out.append(w)
    return (bottom_element(len(side), s),) + tuple(out)


def _side_maps(splits, side: int) -> tuple:
    """Renumbering maps original -> 1..alpha for blocks (index 0) and for
    each labeling (index h)."""
    return tuple({e: t + 1 for t, e in enumerate(sorted(sp[side]))}
                 for sp in splits)


def decompose_chain(chain: Chain) -> Decomposition:
    """Split a decreasing maximal chain at its top cover.

    The second-from-top element has exactly two blocks; everything below
    restricts to the two sides independently.  Raises VpshellError when
    the chain is not a decreasing maximal chain with n >= 2, elements of
    one (n, s) throughout.
    """
    n = chain[-1].n if chain else 0
    word = chain_label(chain)
    if (n < 2 or len(chain) != n + 1 or not chain[0].is_bottom
            or chain[-1] != top_element(n, chain[-1].s)
            or not is_weakly_decreasing(word)):
        raise VpshellError("need a decreasing maximal chain with n >= 2")
    # the top covers the second-from-top element: it has two blocks
    splits = (chain[-2].blocks, *chain[-2].labels)
    alpha = len(splits[0][0])
    left = _restriction(chain, splits[0][0], _side_maps(splits, 0))
    right = _restriction(chain, splits[0][1], _side_maps(splits, 1))
    return Decomposition(alpha=alpha, left=left, right=right, splits=splits)


def recompose(d: Decomposition) -> Chain:
    """Inverse of decompose_chain.

    Every element below the top is the join of one element from each
    side chain, pulled back through the inverse renumbering.  Walking
    down from the join of the two side tops, the side that holds the
    leftmost non-singleton block takes the next step.  Raises
    VpshellError unless the result is a decreasing chain that
    decompose_chain maps back to d.
    """
    splits = d.splits
    if len(splits) < 2 or not all(type(sp) is tuple and len(sp) == 2 and
                                  type(sp[0]) is type(sp[1]) is tuple
                                  for sp in splits):
        raise VpshellError("need two or more splits, pairs of tuples")
    s = len(splits) - 1
    alpha = d.alpha
    n = len(splits[0][0]) + len(splits[0][1])
    for h, (le, ri) in enumerate(splits):
        if len(le) != alpha or set(le) | set(ri) != set(range(1, n + 1)) \
                or set(le) & set(ri):
            raise VpshellError(f"split {h} is not an {alpha}/{n - alpha} "
                               f"bipartition of 1..{n}")
    # the walk below indexes the sides by position and stops at an atom
    _check_side(d.left, alpha, s, "left")
    _check_side(d.right, n - alpha, s, "right")

    # inv[h][side][t - 1] is the original of t on that side, for the
    # blocks (h = 0) and each labeling; increasing, so sets stay ascending
    inv = tuple((sorted(sp[0]), sorted(sp[1])) for sp in splits)

    def join(x: VectorPartition, y: VectorPartition) -> VectorPartition:
        return _assemble(n, s, [
            (tuple(inv[0][side][e - 1] for e in v.blocks[t]),
             tuple(tuple(inv[h + 1][side][e - 1] for e in v.labels[h][t])
                   for h in range(s)))
            for side, v in enumerate((x, y)) for t in range(v.num_blocks)])

    left, right = d.left[:0:-1], d.right[:0:-1]  # top first, no bottom
    a = b = 0
    chain_desc = [top_element(n, s), join(left[0], right[0])]
    while not chain_desc[-1].is_atom:
        low = next(blk[0] for blk in chain_desc[-1].blocks if len(blk) > 1)
        if low in splits[0][0]:
            a += 1
        else:
            b += 1
        chain_desc.append(join(left[a], right[b]))
    chain = (bottom_element(n, s),) + tuple(reversed(chain_desc))
    try:
        back = decompose_chain(chain)
    except VpshellError as exc:
        raise VpshellError(f"reassembled chain: {exc}") from exc
    if back != d:
        raise VpshellError("reassembled chain decomposes to other data")
    return chain


def _check_side(chain: Chain, m: int, s: int, name: str) -> None:
    if (len(chain) != m + 1 or not chain[0].is_bottom
            or chain[-1] != top_element(m, s)
            or any(v.n != m or v.s != s for v in chain[1:])):
        raise VpshellError(f"{name} chain is not maximal over 1..{m}")
    if not all(is_cover(a, b) for a, b in zip(chain, chain[1:])):
        raise VpshellError(f"{name} chain is not saturated")


# ── the five-way certificate ─────────────────────────────────────────────

METHODS = ("enumerate", "recursion", "mobius", "homology", "euler")


def sphere_count_certificate(n: int, s: int, methods=METHODS) -> dict:
    """Sphere counts by each requested method, with an agreement flag.

    Homology and Euler-characteristic entries are null when the proper
    part is empty (n = 1); match is true when no two of the remaining
    values differ.  The mobius entry reports |mu(bottom, top)|; the
    signed value rides along under "signed_mobius".  Every method that
    needs the poset reads one build of it.  Euler counts the chains of
    the proper part by size (Philip Hall's theorem) and homology its
    cycles cover by cover, so no route builds the order complex.  No
    budget is checked here: a caller that wants one calls
    vecpart.check_budgets first, as the count command does.
    An unknown method, or one str in place of a sequence of method
    names, is a VpshellError.
    """
    if isinstance(methods, str):
        raise VpshellError("methods: expected a sequence of method names, "
                           f"got the str {methods!r}")
    unknown = [m for m in methods if m not in METHODS]
    if unknown:
        raise VpshellError(f"unknown method {unknown[0]!r}")
    p = (vector_partition_poset(n, s)
         if any(m != "recursion" for m in methods) else None)
    values: dict[str, int | None] = {}
    info: dict = {}
    if "enumerate" in methods:
        values["enumerate"] = len(_decreasing_indices(n, s, p))
    if "recursion" in methods:
        values["recursion"] = count_total(n, s)
    if "mobius" in methods:
        mu = mobius(p)
        info["signed_mobius"] = mu
        values["mobius"] = abs(mu)
    if "euler" in methods:
        f = chain_f_vector(p)
        values["euler"] = (abs(sum((-1) ** k * fk for k, fk in enumerate(f))
                               - 1) if f else None)
    if "homology" in methods:
        values["homology"] = None if p.height < 2 else betti(p)
    present = [v for v in values.values() if v is not None]
    return {"n": n, "s": s, "methods": values,
            "match": len(set(present)) <= 1, **info}
