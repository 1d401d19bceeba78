"""Counting the spheres in the wedge: decreasing chains five ways.

The proper part of the labeled-partition poset is homotopy equivalent to
a wedge of (n-2)-spheres, one per maximal chain whose label word is
weakly decreasing.  This module counts those chains by

* direct enumeration, itself implemented two independent ways that must
  agree: filtering every maximal chain of the built poset, and top-down
  generation from the one-block element by the structural splitting
  rules (no poset required);
* an exact integer recursion over (n, top label index);
* the Mobius function of the bounded poset (|mu| with sign (-1)^n);
* reduced GF(2) homology of the proper part;
* the reduced Euler characteristic of the proper part.

For a single labeling the total equals the number of non-ambiguous
binary trees on n-1 nodes, computed here by its own convolution.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from math import comb

from .complexes import betti, order_complex, reduced_euler_characteristic
from .errors import (IncompatibleData, InvalidIndex, NotDecreasing,
                     NotSaturated, OracleMismatch, ResourceLimit)
from .labeling import chain_label, cover_label, is_weakly_decreasing
from .poset import Poset, maximal_chains, mobius
from .vecpart import (VectorPartition, bottom_element, is_cover,
                      maximal_chain_count, top_element,
                      vector_partition_poset)

Chain = tuple  # (bottom, C_1, ..., C_n), VectorPartition entries


# ── enumeration, route one: filter the built poset ──────────────────────

def check_chain_budget(n: int, s: int, max_chains: int | None) -> None:
    """ResourceLimit when maximal_chain_count exceeds max_chains."""
    total = maximal_chain_count(n, s)
    if max_chains is not None and total > max_chains:
        raise ResourceLimit(
            f"poset has {total} maximal chains, budget is {max_chains}")


def _filtered_decreasing(p: Poset) -> list[Chain]:
    lab = p.edge_labels
    return [tuple(p.elements[i] for i in c) for c in maximal_chains(p)
            if is_weakly_decreasing([lab[e] for e in zip(c, c[1:])])]


# ── enumeration, route two: structural top-down generation ──────────────

def _generated_decreasing(n: int, s: int) -> list[Chain]:
    """Grow decreasing chains downward from the one-block element.

    Every element of a decreasing chain looks like {1}..{k-1} B ... with
    B the leftmost non-singleton block, min B = k.  The next element
    splits B into L (keeping k) and R, splitting each label set
    compatibly.  Writing i' for the first labeling index whose label
    minimum lands in R's label: a split is admissible iff i' exists, and,
    when the previous split acted at this same position k, i' is at least
    the previous split's index.  The new edge label is then (k, i', _),
    which keeps the bottom-up label word weakly decreasing.
    """
    bottom = bottom_element(n, s)
    out: list[Chain] = []
    desc: list[VectorPartition] = [top_element(n, s)]

    def extend(prev_pos: int, prev_idx: int) -> None:
        cur = desc[-1]
        bi = next((t for t, b in enumerate(cur.blocks) if len(b) > 1), None)
        if bi is None:
            out.append((bottom,) + tuple(reversed(desc)))
            return
        block = cur.blocks[bi]
        k = block[0]
        floor_idx = prev_idx if prev_pos == k else 1
        mins = tuple(cur.labels[h][bi][0] for h in range(cur.s))
        others = block[1:]
        for r in range(1, len(others) + 1):
            for right_block in combinations(others, r):
                rset = set(right_block)
                left_block = tuple(v for v in block if v not in rset)
                for left_labs in product(*[
                        combinations(cur.labels[h][bi], len(left_block))
                        for h in range(cur.s)]):
                    i_prime = next(
                        (h + 1 for h in range(cur.s)
                         if mins[h] not in set(left_labs[h])), None)
                    if i_prime is None or i_prime < floor_idx:
                        continue
                    right_labs = tuple(
                        tuple(v for v in cur.labels[h][bi]
                              if v not in set(left_labs[h]))
                        for h in range(cur.s))
                    desc.append(_split_block(cur, bi, left_block, left_labs,
                                             right_block, right_labs))
                    extend(k, i_prime)
                    desc.pop()

    extend(0, 0)
    # extend holds itself through its closure; unbinding it lets the
    # chains go with `out`, not wait for the cyclic collector
    del extend
    return out


def _split_block(cur: VectorPartition, bi: int, left_block, left_labs,
                 right_block, right_labs) -> VectorPartition:
    records = [(cur.blocks[t],
                tuple(cur.labels[h][t] for h in range(cur.s)))
               for t in range(cur.num_blocks) if t != bi]
    records.append((left_block, left_labs))
    records.append((right_block, right_labs))
    records.sort(key=lambda rec: rec[0][0])
    return VectorPartition(
        n=cur.n, s=cur.s,
        blocks=tuple(rec[0] for rec in records),
        labels=tuple(tuple(rec[1][h] for rec in records)
                     for h in range(cur.s)))


def decreasing_chains(n: int, s: int, max_chains: int | None = None,
                      poset: Poset | None = None) -> list[Chain]:
    """All decreasing maximal chains, canonically sorted.

    Two independent routes must agree element for element, else
    OracleMismatch: filtering every maximal chain of `poset`, which must
    be vector_partition_poset(n, s) and is built when none is given, and
    growing the chains structurally without a poset.  max_chains bounds
    the maximal chains the filter walks, which are at least as many as
    the decreasing chains generated.
    """
    check_chain_budget(n, s, max_chains)
    if poset is None:
        poset = vector_partition_poset(n, s)
    key = lambda c: tuple(v.sort_key for v in c)
    filtered = sorted(_filtered_decreasing(poset), key=key)
    generated = sorted(_generated_decreasing(n, s), key=key)
    if filtered != generated:
        raise OracleMismatch(
            f"poset filter found {len(filtered)} decreasing chains, "
            f"generation found {len(generated)}")
    return filtered


def top_label_index_counts(chains) -> dict:
    """How many chains carry each labeling index on their top cover."""
    counts: dict[int, int] = {}
    for c in chains:
        k, i, j = cover_label(c[-2], c[-1])
        counts[i] = counts.get(i, 0) + 1
    return dict(sorted(counts.items()))


# ── exact recursion ──────────────────────────────────────────────────────

@lru_cache(maxsize=None)
def count_by_recursion(n: int, s: int, i: int) -> int:
    """Decreasing chains whose top cover carries labeling index i.

    Convolution over the top split: the left part has some size a and
    top index i' >= i, the right part is free, and the independent
    choices of the s+1 left/right splits contribute
    C(n-1,a-1)^i * C(n-1,a) * C(n,a)^(s-i).  Defined for n >= 2.
    """
    if not 1 <= i <= s:
        raise InvalidIndex(f"index {i} outside 1..{s}")
    if n < 2:
        raise InvalidIndex("indexed counts need n >= 2")
    lower, upper = _binomial_row(n - 1), _binomial_row(n)
    total = 0
    for a in range(1, n):
        splits = lower[a - 1] ** i * lower[a] * upper[a] ** (s - i)
        left = 1 if a == 1 else _suffix_counts(a, s)[i - 1]
        total += left * count_total(n - a, s) * splits
    return total


@lru_cache(maxsize=2)
def _binomial_row(n: int) -> tuple:
    """C(n, 0), ..., C(n, n), each from its left neighbour.  Sizes are
    filled in increasing n, so the last two rows are all that is reused."""
    row = [1]
    for a in range(1, n + 1):
        row.append(row[-1] * (n + 1 - a) // a)
    return tuple(row)


@lru_cache(maxsize=None)
def _suffix_counts(a: int, s: int) -> tuple:
    """Entry i - 1 is the sum of count_by_recursion(a, s, i') over
    i' >= i, for i in 1..s."""
    out = [0] * (s + 1)
    for i in range(s, 0, -1):
        out[i - 1] = out[i] + count_by_recursion(a, s, i)
    return tuple(out[:s])


@lru_cache(maxsize=None)
def count_total(n: int, s: int) -> int:
    """All decreasing chains: 1 for n = 1, else the sum over top indices."""
    if n < 1:
        raise InvalidIndex("n must be at least 1")
    if n == 1:
        return 1
    for m in range(2, n):  # bottom-up, so a cold call does not nest n deep
        count_total(m, s)
    return sum(count_by_recursion(n, s, i) for i in range(1, s + 1))


@lru_cache(maxsize=None)
def nonambiguous_tree_count(m: int) -> int:
    """Non-ambiguous binary trees on m nodes: b_0 = 1 and
    b_(m+1) = sum over i+j=m of C(m+1,i) C(m+1,j) b_i b_j."""
    if m < 0:
        raise InvalidIndex("m must be non-negative")
    if m == 0:
        return 1
    for k in range(1, m):  # bottom-up, so a cold call does not nest m deep
        nonambiguous_tree_count(k)
    total = 0
    for i in range((m + 1) // 2):  # the terms (i, j) and (j, i) are equal
        j = m - 1 - i
        term = (comb(m, i) * comb(m, j)
                * nonambiguous_tree_count(i) * nonambiguous_tree_count(j))
        total += term if i == j else 2 * term
    return total


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
        """First labeling index whose left split misses 1."""
        return next(h for h in range(1, len(self.splits))
                    if 1 not in self.splits[h][0])


def _restriction(chain: Chain, side: tuple, maps: tuple) -> Chain:
    """Restrict every non-bottom, non-top chain element to the blocks
    inside `side`, renumber through `maps`, and drop repeats (first
    occurrence kept)."""
    s = chain[-1].s
    out: list[VectorPartition] = []
    for v in chain[1:-1]:
        records = []
        for t, b in enumerate(v.blocks):
            if b[0] in maps[0]:
                records.append((
                    tuple(sorted(maps[0][e] for e in b)),
                    tuple(tuple(sorted(maps[h + 1][e] for e in v.labels[h][t]))
                          for h in range(s))))
        records.sort(key=lambda rec: rec[0][0])
        w = VectorPartition(
            n=len(side), s=s,
            blocks=tuple(rec[0] for rec in records),
            labels=tuple(tuple(rec[1][h] for rec in records)
                         for h in range(s)))
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
    restricts to the two sides independently.  Raises NotDecreasing when
    the chain is not a decreasing maximal chain with n >= 2.
    """
    n = chain[-1].n
    try:
        word = chain_label(chain)
    except NotSaturated as exc:
        raise NotDecreasing(str(exc)) from exc
    if (n < 2 or len(chain) != n + 1 or not chain[0].is_bottom
            or chain[-1] != top_element(n, chain[-1].s)
            or not is_weakly_decreasing(word)):
        raise NotDecreasing("need a decreasing maximal chain with n >= 2")
    penult = chain[-2]
    s = penult.s
    splits = tuple(
        (penult.blocks[0], penult.blocks[1]) if h == 0 else
        (penult.labels[h - 1][0], penult.labels[h - 1][1])
        for h in range(s + 1))
    alpha = len(splits[0][0])
    left = _restriction(chain, splits[0][0], _side_maps(splits, 0))
    right = _restriction(chain, splits[0][1], _side_maps(splits, 1))
    return Decomposition(alpha=alpha, left=left, right=right, splits=splits)


def recompose(d: Decomposition) -> Chain:
    """Inverse of decompose_chain.

    Rebuilds the chain top-down: at each step the leftmost non-singleton
    block belongs to one side, and that side's chain dictates how it
    splits, pulled back through the inverse renumbering.  Raises
    IncompatibleData when the pieces cannot form a decreasing chain
    (inconsistent split sizes, or a left top index below the index the
    splits force).
    """
    splits = d.splits
    s = len(splits) - 1
    alpha = d.alpha
    left_ground = set(splits[0][0])
    n = len(splits[0][0]) + len(splits[0][1])
    for h, (le, ri) in enumerate(splits):
        if len(le) != alpha or set(le) | set(ri) != set(range(1, n + 1)) \
                or set(le) & set(ri):
            raise IncompatibleData(f"split {h} is not an {alpha}/{n - alpha} "
                                   f"bipartition of 1..{n}")
    if 1 not in splits[0][0]:
        raise IncompatibleData("the left block must contain 1")
    try:
        i = d.top_index
    except StopIteration:
        raise IncompatibleData(
            "every labeling keeps 1 on the left; the top cover would not "
            "change the atom word") from None
    _check_side(d.left, alpha, s, "left")
    _check_side(d.right, n - alpha, s, "right")
    if alpha >= 2:
        i_left = cover_label(d.left[-2], d.left[-1])[1]
        if i_left < i:
            raise IncompatibleData(
                f"left top index {i_left} below required {i}")

    inv = tuple((
        {t + 1: e for t, e in enumerate(sorted(sp[0]))},
        {t + 1: e for t, e in enumerate(sorted(sp[1]))}) for sp in splits)
    penult = _split_block(
        top_element(n, s), 0,
        splits[0][0], tuple(splits[h][0] for h in range(1, s + 1)),
        splits[0][1], tuple(splits[h][1] for h in range(1, s + 1)))
    chain_desc = [top_element(n, s), penult]
    sides = {0: list(reversed(d.left[1:])), 1: list(reversed(d.right[1:]))}
    ptr = {0: 0, 1: 0}
    cur = penult
    while not cur.is_atom:
        bi = next(t for t, b in enumerate(cur.blocks) if len(b) > 1)
        side = 0 if cur.blocks[bi][0] in left_ground else 1
        sub = sides[side]
        fwd = {e: t + 1 for t, e in
               enumerate(sorted(splits[0][side]))}  # original -> renumbered
        image = tuple(sorted(fwd[e] for e in cur.blocks[bi]))
        nxt = sub[ptr[side] + 1]
        pieces = [t for t, b in enumerate(nxt.blocks) if set(b) <= set(image)]
        if len(pieces) != 2:
            raise IncompatibleData(
                f"{'left' if side == 0 else 'right'} chain does not split "
                f"block {image} next")
        pulled = []
        for t in pieces:
            pulled.append((
                tuple(sorted(inv[0][side][e] for e in nxt.blocks[t])),
                tuple(tuple(sorted(inv[h + 1][side][e]
                                   for e in nxt.labels[h][t]))
                      for h in range(s))))
        if pulled[0][0][0] != cur.blocks[bi][0]:
            pulled.reverse()
        cur = _split_block(cur, bi, pulled[0][0], pulled[0][1],
                           pulled[1][0], pulled[1][1])
        chain_desc.append(cur)
        ptr[side] += 1
    chain = (bottom_element(n, s),) + tuple(reversed(chain_desc))
    if not is_weakly_decreasing(chain_label(chain)):
        raise IncompatibleData("reassembled chain is not decreasing")
    return chain


def _check_side(chain: Chain, m: int, s: int, name: str) -> None:
    if (len(chain) != m + 1 or not chain[0].is_bottom
            or chain[-1] != top_element(m, s)
            or any(v.n != m or v.s != s for v in chain[1:])):
        raise IncompatibleData(f"{name} chain is not maximal over 1..{m}")
    if not all(is_cover(a, b) for a, b in zip(chain, chain[1:])):
        raise IncompatibleData(f"{name} chain is not saturated")
    if not is_weakly_decreasing(chain_label(chain)):
        raise IncompatibleData(f"{name} chain is not decreasing")


# ── the five-way certificate ─────────────────────────────────────────────

METHODS = ("enumerate", "recursion", "mobius", "homology", "euler")


def sphere_count_certificate(n: int, s: int, methods=METHODS,
                             max_elements: int | None = None,
                             max_chains: int | None = None) -> dict:
    """Sphere counts by each requested method, with an agreement flag.

    Homology and Euler-characteristic entries are null when the proper
    part is empty (n = 1); match is taken over the remaining values.
    The mobius entry reports |mu(bottom, top)|; the signed value rides
    along under "signed_mobius".  Every method that needs the poset reads
    one build of it, and homology and Euler read one order complex.
    max_chains bounds every chain walk, checked once before the build.
    """
    unknown = [m for m in methods if m not in METHODS]
    if unknown:
        raise ValueError(f"unknown method {unknown[0]!r}")
    if {"enumerate", "homology", "euler"} & set(methods):
        check_chain_budget(n, s, max_chains)
    p = (vector_partition_poset(n, s, max_elements=max_elements)
         if any(m != "recursion" for m in methods) else None)
    values: dict[str, int | None] = {}
    info: dict = {}
    if "enumerate" in methods:
        values["enumerate"] = len(decreasing_chains(n, s, poset=p))
    if "recursion" in methods:
        values["recursion"] = count_total(n, s)
    if "mobius" in methods:
        mu = mobius(p, p.bottom, p.top)
        info["signed_mobius"] = mu
        values["mobius"] = abs(mu)
    if "homology" in methods or "euler" in methods:
        # built after enumeration has returned, so the complex and the
        # enumerated chains are never in memory together
        c = order_complex(p)
        if "homology" in methods:
            values["homology"] = None if c.is_empty else betti(c, n - 2)
        if "euler" in methods:
            values["euler"] = (None if c.is_empty
                               else abs(reduced_euler_characteristic(c)))
    present = [v for v in values.values() if v is not None]
    return {"n": n, "s": s, "methods": values,
            "match": len(set(present)) == 1, **info}
