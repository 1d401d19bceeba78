"""Vector partitions: set partitions of {1..n} carrying s aligned labelings.

An element is a pair (P, w) where P partitions {1..n} into blocks and,
for each labeling index i in 1..s, w^i assigns to every block a label set
of the same cardinality; the label sets of each index themselves
partition {1..n}.  A formal bottom element sits below the n-block
(discrete) elements.  The order: x <= y when every block of y is a union
of blocks of x and each label of y is the union of the matching labels.

Canonical form everywhere: blocks sorted by minimum, every set stored as
an ascending tuple, labels aligned positionally with blocks.
"""
from __future__ import annotations

import gc
from dataclasses import dataclass
from itertools import combinations, groupby, islice, product
from math import comb, factorial
from operator import itemgetter

from .errors import ResourceLimit, VpshellError
from .poset import Poset, build_indexed_poset


@dataclass(frozen=True)
class VectorPartition:
    """One element of the labeled-partition poset (or its formal bottom).

    blocks: tuple of ascending int tuples, ordered by block minimum.
    labels: labels[i][b] is the label set (ascending tuple) that labeling
    index i+1 assigns to blocks[b].  The bottom, the one element with no
    blocks, compares below everything of the same (n, s).
    """

    n: int
    s: int
    blocks: tuple = ()
    labels: tuple = ()

    @property
    def is_bottom(self) -> bool:
        return not self.blocks

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    @property
    def is_atom(self) -> bool:
        return not self.is_bottom and all(len(b) == 1 for b in self.blocks)

    def __str__(self) -> str:
        return format_element(self)


def bottom_element(n: int, s: int) -> VectorPartition:
    return VectorPartition(n=n, s=s)


def top_element(n: int, s: int) -> VectorPartition:
    full = tuple(range(1, n + 1))
    return decode(((full,), ((full,),) * s), n, s)


def canonicalize(n: int, s: int, blocks, labels) -> VectorPartition:
    """Validating constructor from raw nested iterables.

    labels[i] must align with blocks positionally.  Raises VpshellError
    unless n, s >= 1, when an entry is not an int (a bool is not), when
    blocks or any labeling fail to partition {1..n}, and when a label's
    cardinality differs from its block's.  Idempotent on
    already-canonical data.
    """
    if n < 1 or s < 1:
        raise VpshellError("n and s must be at least 1")
    blk = _int_sets(blocks, "blocks")
    labs = [_int_sets(labels[i], f"labeling {i + 1}")
            for i in range(len(labels))]
    if len(labs) != s:
        raise VpshellError(f"expected {s} labelings, got {len(labs)}")
    _check_partition(n, blk, "blocks")
    for i, lab in enumerate(labs):
        if len(lab) != len(blk):
            raise VpshellError(
                f"labeling {i + 1} has {len(lab)} sets for {len(blk)} blocks")
        for b, l in zip(blk, lab):
            if len(l) != len(b):
                raise VpshellError(
                    f"label {l} has size {len(l)}, block {b} has size {len(b)}")
        _check_partition(n, lab, f"labeling {i + 1}")
    return _assemble(n, s, zip(blk, zip(*labs)))


def _assemble(n: int, s: int, records) -> VectorPartition:
    """The element with one (block, label sets per labeling) record per
    block, the blocks ordered by their minima."""
    records = sorted(records, key=lambda rec: rec[0][0])
    return VectorPartition(
        n=n, s=s,
        blocks=tuple(rec[0] for rec in records),
        labels=tuple(tuple(rec[1][h] for rec in records) for h in range(s)))


def _int_sets(sets, what: str) -> list[tuple]:
    """Each set as an ascending tuple, once every entry is a plain int."""
    out = []
    for b in sets:
        b = tuple(b)
        for x in b:
            if type(x) is not int:
                raise VpshellError(f"{what}: entry {x!r} is not an int")
        out.append(tuple(sorted(b)))
    return out


def _check_partition(n: int, sets, what: str) -> None:
    seen: set[int] = set()
    total = 0
    for b in sets:
        if not b:
            raise VpshellError(f"{what}: empty set")
        total += len(b)
        seen.update(b)
    if total != n or seen != set(range(1, n + 1)):
        raise VpshellError(f"{what} do not partition 1..{n}")


# ── serialization ────────────────────────────────────────────────────────

_SET_TEXT: dict = {}  # set tuple -> "{1,2,3}": one string per distinct set


def format_element(v: VectorPartition) -> str:
    """Canonical text form, as element_texts renders it."""
    return next(element_texts([(v.blocks, v.labels)]))


def element_texts(records):
    """The text of each (blocks, labels) record's element, in order.  Each
    distinct set, block tuple and label tuple is rendered once."""
    sets, heads, tails = _SET_TEXT, {(): "BOTTOM"}, {}

    def text(part: tuple) -> str:
        return "".join([sets.get(b) or sets.setdefault(
            b, "{" + ",".join(map(str, b)) + "}") for b in part])

    for blocks, labels in records:  # the bottom's labels, (), read ""
        yield ((heads.get(blocks) or heads.setdefault(blocks, text(blocks)))
               + (tails.get(labels) or tails.setdefault(labels, "".join(
                   ["|" + text(lab) for lab in labels]))))


# ── order relation ───────────────────────────────────────────────────────

def _check_dims(x: VectorPartition, y: VectorPartition) -> None:
    if (x.n, x.s) != (y.n, y.s):
        raise VpshellError(f"elements of (n, s) = ({x.n}, {x.s}) and "
                           f"({y.n}, {y.s}) compared")


def is_leq(x: VectorPartition, y: VectorPartition) -> bool:
    """True when every block of y is a union of blocks of x and each of
    y's labels is the union of the matching labels of those blocks."""
    _check_dims(x, y)
    if x.is_bottom:
        return True
    if y.is_bottom or x.num_blocks < y.num_blocks:
        return False
    for bi, by in enumerate(y.blocks):
        target = set(by)
        parts = [t for t, bx in enumerate(x.blocks) if set(bx) <= target]
        if sum(len(x.blocks[t]) for t in parts) != len(by):
            return False
        for i in range(x.s):
            merged: set[int] = set()
            for t in parts:
                merged.update(x.labels[i][t])
            if merged != set(y.labels[i][bi]):
                return False
    return True


def is_cover(x: VectorPartition, y: VectorPartition) -> bool:
    """y covers x: merge exactly two blocks of x (labels componentwise),
    or x is the bottom and y has only singleton blocks."""
    _check_dims(x, y)
    if x.is_bottom:
        return not y.is_bottom and y.is_atom
    if y.is_bottom:
        return False
    return y.num_blocks == x.num_blocks - 1 and is_leq(x, y)


def merge_blocks(v: VectorPartition, a: int, b: int) -> VectorPartition:
    """The upper cover of v obtained by merging blocks at positions a, b.

    Blocks are ordered by minimum, so the merged block takes the lower of
    the two positions and every other block keeps its order: the result
    is a splice, already canonical.  a and b may come in either order;
    VpshellError unless they are two distinct positions in
    0..v.num_blocks-1 (the bottom has no blocks, so none).
    """
    if a > b:
        a, b = b, a
    if not 0 <= a < b < v.num_blocks:
        raise VpshellError(f"block positions {a}, {b} are not two distinct "
                           f"positions in 0..{v.num_blocks - 1}")
    return decode((_merged(v.blocks, a, b), tuple(
        _merged(lab, a, b) for lab in v.labels)), v.n, v.s)


def _merged(sets: tuple, a: int, b: int) -> tuple:
    """sets with sets[a] and sets[b] (a < b) merged in place of sets[a]."""
    return (sets[:a] + (tuple(sorted(sets[a] + sets[b])),)
            + sets[a + 1:b] + sets[b + 1:])


# ── enumeration ──────────────────────────────────────────────────────────

def set_partitions(n: int) -> list[tuple]:
    """All set partitions of {1..n}, each in canonical form, the most
    blocks first and ties by blocks: the elements' (rank, blocks) order.

    The partitions of {1..m} come from those of {1..m-1} by putting m
    into each block in turn or into a new block of its own.  m is the
    largest entry so far, so blocks stay ascending and ordered by minimum.
    """
    out = [()]
    for m in range(1, n + 1):
        out = [p[:t] + (p[t] + (m,),) + p[t + 1:] for p in out
               for t in range(len(p))] + [p + ((m,),) for p in out]
    return sorted(out, key=lambda p: (-len(p), p))


def element_count(n: int, s: int) -> int:
    """|poset|, bottom included, computed without enumeration in O(n^2)."""
    return 1 + list(_element_counts(n, s))[-1]


def _element_counts(n: int, s: int):
    """E_0, ..., E_n, where E_m counts the elements over {1..m}, bottom
    left out: the block holding 1 has some size j, picked in C(m-1, j-1)
    ways, each of its s labels in C(m, j) ways, and the rest is an
    element over the m - j entries left.  E_m never falls as m rises."""
    if n < 1 or s < 1:
        raise VpshellError("n and s must be at least 1")
    e = [1]
    yield 1
    for m in range(1, n + 1):
        e.append(sum(comb(m - 1, j - 1) * comb(m, j) ** s * e[m - j]
                     for j in range(1, m + 1)))
        yield e[m]


def maximal_chain_count(n: int, s: int) -> int:
    """Number of bottom-to-top maximal chains, computed arithmetically:
    (n!)^s atoms, each with n!(n-1)!/2^(n-1) chains above it.  Raises
    VpshellError unless n, s >= 1."""
    if n < 1 or s < 1:
        raise VpshellError("n and s must be at least 1")
    return factorial(n) ** s * (factorial(n) * factorial(n - 1)) // 2 ** (n - 1)


def _label_assignments(sizes: tuple, universe: tuple):
    """Ordered splits of universe into sets of the given sizes, lex order."""
    if not sizes:
        yield ()
        return
    for c in combinations(universe, sizes[0]):
        rest = tuple(x for x in universe if x not in c)
        for tail in _label_assignments(sizes[1:], rest):
            yield (c,) + tail


def check_budgets(n: int, s: int, max_elements: int | None,
                  max_chains: int | None = None) -> None:
    """VpshellError unless n, s >= 1; ResourceLimit, before any element
    is made, at the first m <= n whose 1 + E_m (see _element_counts)
    exceeds max_elements, so a refusal costs E_0..E_m however large n is;
    then, only if max_chains is given, when maximal_chain_count exceeds it.
    When s >= 4096 and 2^s > max_elements, 1 + E_2 = 2^s + 2 is refused
    before it is made, named by that bound, so the text stays short."""
    for m, e in enumerate(_element_counts(n, s)):
        if max_elements is None:
            break
        if 1 + e > max_elements:
            raise ResourceLimit(  # and so is 1 + E_n >= 1 + E_m
                f"poset has {'' if m == n else 'at least '}{1 + e} "
                f"elements, budget is {max_elements}")
        if m == 1 < n and s >= max(4096, max_elements.bit_length()):
            raise ResourceLimit(f"poset has more than 2^{s} elements, "
                                f"budget is {max_elements}")
    if (max_chains is not None
            and (total := maximal_chain_count(n, s)) > max_chains):
        raise ResourceLimit(
            f"poset has {total} maximal chains, budget is {max_chains}")


def enumerate_elements(n: int, s: int) -> list[tuple]:
    """Every element including the bottom and the top, as its (blocks,
    labels) record, the bottom's ((), ()), canonically ordered by (rank,
    blocks, labels), and generated in that order: the partitions come in
    (rank, blocks) order, and the product of lex-ordered label
    assignments, one list per block sizes, is lex ordered.  VpshellError
    unless n, s >= 1; callers check_budgets first."""
    if n < 1 or s < 1:
        raise VpshellError("n and s must be at least 1")
    out = [((), ())]
    full = tuple(range(1, n + 1))
    by_sizes: dict = {}  # block sizes -> label tuples, lex order
    for blocks in set_partitions(n):
        sizes = tuple(map(len, blocks))
        labels = by_sizes.get(sizes)
        if labels is None:
            labels = by_sizes[sizes] = list(
                product(_label_assignments(sizes, full), repeat=s))
        out += zip([blocks] * len(labels), labels)
    return out


def decode(record: tuple, n: int, s: int) -> VectorPartition:
    """The element of (n, s) whose (blocks, labels) record this is."""
    return VectorPartition(n, s, *record)


def vector_partition_poset(n: int, s: int) -> Poset:
    """The bounded poset of all vector partitions, built and validated.
    Like enumerate_elements it checks n, s >= 1 and no budget.  The
    cyclic garbage collector is paused until it returns.

    Keys are the (blocks, labels) records of enumerate_elements, which
    decode makes VectorPartitions; covers join each non-bottom element
    to its two-block merges, and the bottom to every atom.  Each cover is
    labelled where it is generated, from the atom words of its two ends
    (see labeling.cover_label, the definition these labels must equal),
    and the labels are stored on the poset as up_labels, aligned with up:

    * bottom to the atom at index t: (n-1, s+t, 0), since atoms share
      their blocks and so follow the bottom in atom-word order;
    * merging blocks I, J changes the atom word: its first difference;
    * merging blocks I, J keeps the atom word: (n, max(I u J), 0).

    The covers are made one set partition P at a time.  P's elements are
    one run of the element list, grouped by blocks, and the distinct
    first labelings of the first run with P's block sizes are their
    label assignments, in lex order.  Merging blocks a < b sends P's run
    into the merged partition's run as _merge_map says for P's block
    sizes, a and b.  Distinct merges give disjoint runs, so P's rows are
    its merge columns read across in run order, ascending, holding the
    one int of each index: nothing is sorted or looked up per element.
    Per labeling, a merge's first change depends on the orders of I + J
    and of the two labels alone; the least of the s labels is the
    cover's.  Equal labels are one shared tuple.
    """
    enabled = gc.isenabled()
    gc.disable()  # else it walks the growing rows again and again
    try:
        return _built(n, s)
    finally:
        if enabled:
            gc.enable()


def _built(n: int, s: int) -> Poset:
    elements = enumerate_elements(n, s)
    ints = list(range(len(elements)))  # one int per index, for every row
    bits = {c: sum(1 << k for k in c) for r in range(1, n + 1)
            for c in combinations(range(1, n + 1), r)}
    runs = {}  # set partition -> (its run of indices, its block sizes)
    assigned = {}  # block sizes -> label assignments, as bitmasks, lex order
    for blocks, group in groupby(islice(ints, 1, None),
                                 key=lambda t: elements[t][0]):
        run, sizes = list(group), tuple(map(len, blocks))
        if sizes not in assigned:  # the first labeling steps through them
            assigned[sizes] = [tuple(map(bits.get, labs)) for labs in
                               dict.fromkeys(elements[t][1][0] for t in run)]
        runs[blocks] = (run, sizes)
    rank_of = {t: r for labs in assigned.values() for r, t in enumerate(labs)}
    sets = {m: c for c, m in bits.items()}
    # labels[k][j][h]: labeling h+1 changes entry k to j, or none (j = 0)
    labels = [[((n, k, 0),) * s if j == 0 else tuple(
        [(k, h, j) for h in range(1, s + 1)]) for j in range(n + 1)]
        for k in range(n + 1)]
    up = [tuple(next(iter(runs.values()))[0])]  # the first run: the atoms
    up_labels = [tuple([(n - 1, s + t, 0) for t in up[0]])]
    maps: dict = {}  # (sizes, a, b) -> _merge_map of them
    changes: dict = {}  # (sizes, a, b, order of I + J) -> (p, j) per pair
    for blocks, (_, sizes) in runs.items():
        merges = []
        for a, b in combinations(range(len(blocks)), 2):
            q_run, q_sizes = runs[_merged(blocks, a, b)]
            key = (sizes, a, b)
            pick, pairs, which = maps.get(key) or maps.setdefault(
                key, _merge_map(assigned[sizes], rank_of, sets, a, b,
                                len(assigned[q_sizes]), ints, s))
            order, merged = _sorting(blocks[a] + blocks[b])
            # (p, j): entry p of I u J is the first whose label entry
            # moves, from order[p] of L_I + L_J to j at label_order[p]
            found = changes.get(key + (order,)) or changes.setdefault(
                key + (order,), [next(((p, label[p]) for p, (c, d) in
                                       enumerate(zip(order, label_order))
                                       if c != d), (-1, 0))
                                 for label_order, label in pairs])
            column = None
            for h in range(s):  # the least label wins
                ys = list(map([labels[merged[p]][j][h] for p, j in found]
                              .__getitem__, which))
                column = ys if column is None else [
                    x if x <= y else y for x in column for y in ys]
            merges.append((q_run[0], pick(q_run), column))
        merges.sort()
        up += zip(*[his for _, his, _ in merges])
        up_labels += zip(*[column for _, _, column in merges])
    up.append(())  # the top, which comes last, has no cover
    up_labels.append(())
    return build_indexed_poset(elements, up, up_labels)


def _merge_map(labs, rank_of, sets, a, b, q_count, ints, s) -> tuple:
    """What merging blocks a < b does to any run whose label assignments
    are labs (bitmasks): an itemgetter taking from the merged run each
    element's image, ranked by rank_of per labeling in mixed radix (a run
    with a merge has two elements or more, so it gives a tuple); _sorting
    of each distinct pair L_a + L_b; and the pair of each assignment."""
    ranks = rho = [rank_of[t[:a] + (t[a] | t[b],) + t[a + 1:b] + t[b + 1:]]
                   for t in labs]
    for _ in range(s - 1):
        ranks = [ints[x * q_count + y] for x in ranks for y in rho]
    pairs: dict = {}
    which = [pairs.setdefault((t[a], t[b]), len(pairs)) for t in labs]
    return (itemgetter(*ranks),
            [_sorting(sets[x] + sets[y]) for x, y in pairs], which)


def _sorting(entries: tuple) -> tuple:
    """order, with order[p] the position in entries of the p-th least,
    and the entries sorted."""
    return (tuple(sorted(range(len(entries)), key=entries.__getitem__)),
            sorted(entries))


# ── atom words ───────────────────────────────────────────────────────────

def atom_word(v: VectorPartition) -> tuple:
    """Word of the lexicographically least atom below v.

    Position (i-1)*n + k holds the value labeling index i gives element k:
    ascending block entries pair with ascending label entries.  Length n*s.
    """
    if v.is_bottom:
        raise VpshellError("the formal bottom has no atom below it")
    w = [0] * (v.n * v.s)
    for bi, block in enumerate(v.blocks):
        for i in range(v.s):
            for k, j in zip(block, v.labels[i][bi]):
                w[i * v.n + (k - 1)] = j
    return tuple(w)


def first_word_difference(a, b, n: int, s: int) -> tuple:
    """First difference (k, i, j) between atom words a and b.

    Scans (k, i) pairs with k major and i minor, i.e. position k of the
    first labeling, then position k of the second, before moving to
    position k+1.  j is b's entry at the first differing pair.  Raises
    VpshellError when a == b or when a length is not n*s.
    """
    if len(a) != n * s or len(b) != n * s:
        raise VpshellError(f"lengths {len(a)} and {len(b)}, expected {n * s}")
    for k in range(1, n + 1):
        for i in range(1, s + 1):
            pos = (i - 1) * n + (k - 1)
            if a[pos] != b[pos]:
                return (k, i, b[pos])
    raise VpshellError("atom words are identical")


def check_atom_word(word, n: int, s: int) -> None:
    if len(word) != n * s:
        raise VpshellError(f"length {len(word)}, expected {n * s}")
    for i in range(s):
        chunk = word[i * n:(i + 1) * n]
        if sorted(chunk) != list(range(1, n + 1)):
            raise VpshellError(
                f"segment {i + 1} is not a permutation of 1..{n}")


def perm_lex_rank(perm) -> int:
    """0-based rank of perm among all permutations of its values."""
    n = len(perm)
    r = 0
    for idx, v in enumerate(perm):
        smaller = sum(1 for u in perm[idx + 1:] if u < v)
        r += smaller * factorial(n - 1 - idx)
    return r


def atom_lex_rank(word, n: int, s: int) -> int:
    """1-based position of an atom word in the lexicographic order of all
    (n!)^s atom words, via the factorial number system: no enumeration."""
    check_atom_word(word, n, s)
    r = 0
    for i in range(s):
        r = r * factorial(n) + perm_lex_rank(word[i * n:(i + 1) * n])
    return r + 1
