"""Shared fixtures and independent oracles.

The oracles recompute quantities the library also computes, by methods
deliberately unlike the library's: maximal chains by powerset filtering,
the Mobius function by alternating chain counts, atom ranks by sorting
the full list of words, shellings by intersecting every pair of facets,
the shelling order by sorting (word, chain) pairs,
merges by re-sorting the blocks, the whole poset from element keys, the
element list by cutting permutations into label sets,
the indexed sphere counts from math.comb, the EL property by
enumerating the maximal chains of every interval, the JSON and DOT
texts of a poset through a document of dicts or one escape per edge,
an element's text by joining every set afresh, the decreasing
chains by filtering every maximal chain or by trying every split of
every label set, the first-difference law of verify_label_structure by
the label words of every interval's maximal chains, its rising chains
that change atom words by reading every maximal chain, and the f-vector
and reduced Euler characteristic of a complex by listing every face.
They are slow and only fit tiny inputs, which is the point.

The fixtures build posets the package has no use for: from cover pairs,
of element keys or of indices, the plain partition lattice, and an
interval [x, y] of a poset as a poset of its own; record, decoded and
decoded_elements turn a VectorPartition into its key and keys back
into VectorPartitions; simplicial_complex
builds a complex from any facet list, face_poset the bounded face poset
of a pure one, dimension gives a complex's dimension, and faces lists
its faces of one dimension.  The order helpers
leq, up_set and interval_chains walk the covers up from an element;
covers lists the cover pairs.  The
helpers that close the file serve only tests: a strictly increasing
word test, the count of chains per top label index, and every reduced
Betti number of a complex, the dense oracle of betti, which gives the
top one.  count_calls counts a package function's calls under every
name a vpshell module binds it to.
"""
import json
import sys
from collections.abc import Mapping
from itertools import combinations, permutations, product
from math import comb

import pytest

from vpshell.complexes import ShellingReport, SimplicialComplex
from vpshell.errors import VpshellError
from vpshell.labeling import ELReport, cover_label, is_weakly_decreasing
from vpshell.poset import build_indexed_poset
from vpshell.vecpart import (VectorPartition, atom_word, bottom_element,
                             canonicalize, decode, enumerate_elements,
                             first_word_difference, set_partitions,
                             top_element, vector_partition_poset)


def poset_from_pairs(elements, covers):
    """build_indexed_poset fed cover pairs: index pairs (lo, hi), of
    which repeats count once, or a mapping (lo, hi) -> label, whose
    labels become the poset's up_labels."""
    up = [set() for _ in elements]
    for lo, hi in covers:
        up[lo].add(hi)
    up = [sorted(his) for his in up]
    up_labels = None
    if isinstance(covers, Mapping):
        up_labels = [[covers[(lo, hi)] for hi in his]
                     for lo, his in enumerate(up)]
    return build_indexed_poset(elements, up, up_labels)


def build_poset(elements, covers):
    """A poset from (lo_key, hi_key) cover pairs: VpshellError for a
    key that is not an element, else validated as build_indexed_poset
    validates."""
    elements = tuple(elements)
    index = {k: i for i, k in enumerate(elements)}
    try:
        pairs = [(index[lo], index[hi]) for lo, hi in covers]
    except KeyError as exc:
        raise VpshellError(
            f"cover names {exc.args[0]!r}, not an element") from None
    return poset_from_pairs(elements, pairs)


def set_partition_lattice(n):
    """The ordinary partition lattice: keys are canonical partitions,
    ordered by refinement, discrete partition at the bottom.  Each cover
    is labelled max(I u J), the larger maximum of the two merged blocks
    I, J (the classical EL-labeling)."""
    elements = set_partitions(n)
    index = {blocks: t for t, blocks in enumerate(elements)}
    labels = {}
    for t, blocks in enumerate(elements):
        for a, b in combinations(range(len(blocks)), 2):
            rest = [blk for k, blk in enumerate(blocks) if k not in (a, b)]
            merged = tuple(sorted(blocks[a] + blocks[b]))
            labels[(t, index[tuple(sorted(rest + [merged]))])] = max(merged)
    return poset_from_pairs(elements, labels)


def leq(p, x, y):
    """Whether x <= y in p: p is graded, so exactly when y is among the
    elements reached from x by ranks(y) - ranks(x) steps up the covers."""
    level = {x}
    for _ in range(p.ranks[y] - p.ranks[x]):
        level = {w for v in level for w in p.up[v]}
    return y in level


def up_set(p, x):
    """Sorted indices of the elements above x, x included."""
    seen = level = {x}
    while level:
        level = {w for v in level for w in p.up[v]}
        seen |= level
    return sorted(seen)


def covers(p):
    """The (lo, hi) index pairs of p's covers, ascending, read off p.up."""
    return [(lo, hi) for lo, his in enumerate(p.up) for hi in his]


def interval_chains(p, x, y):
    """The maximal chains of [x, y] in lexicographic index order, none
    when x is not below y.  [x, y] is found first, scanning the up-set
    of x by falling rank and keeping y and each element with an upper
    cover kept; the walk up from x then keeps to it."""
    inside = {y}
    for v in sorted(up_set(p, x), key=p.ranks.__getitem__, reverse=True):
        if inside.intersection(p.up[v]):
            inside.add(v)
    out, path = [], [x]

    def walk(v):
        if v == y:
            out.append(tuple(path))
            return
        for w in p.up[v]:
            if w in inside:
                path.append(w)
                walk(w)
                path.pop()

    if x in inside:
        walk(x)
    return out


def interval_poset(p, x, y):
    """[x, y] of p as a poset of its own, without labels: its element
    keys are p's indices in ascending order, so index order and chains
    carry over through q.elements."""
    keys = [t for t in up_set(p, x) if leq(p, t, y)]
    index = {t: i for i, t in enumerate(keys)}
    return poset_from_pairs(keys, [(index[lo], index[hi]) for lo in keys
                                   for hi in p.up[lo] if hi in index])


def label_map(p, up_labels=None):
    """up_labels, by default p.up_labels, as a mapping (lo, hi) -> label."""
    return {(lo, hi): label for lo, (his, labs)
            in enumerate(zip(p.up, up_labels or p.up_labels))
            for hi, label in zip(his, labs)}


def aligned_labels(p, labels):
    """A mapping (lo, hi) -> label over every cover, aligned with p.up as
    Poset.up_labels is."""
    return tuple(tuple(labels[(lo, hi)] for hi in his)
                 for lo, his in enumerate(p.up))


def decreasing_by_filter(p):
    """The weakly decreasing maximal chains of p, as index tuples: every
    maximal chain is listed, and those whose label word decreases weakly
    are kept."""
    lab = label_map(p)
    return [c for c in interval_chains(p, p.bottom, p.top)
            if is_weakly_decreasing([lab[e] for e in zip(c, c[1:])])]


def decreasing_by_splitting(n, s):
    """The decreasing chains of vector_partition_poset(n, s) as element
    tuples, grown down from the top without a poset: at the leftmost
    non-singleton block B, min B = k, every split of B into L (keeping k)
    and R is tried with every split of each of its label sets, and kept
    when i', the first labeling sending its minimum to R, exists and is
    at least the previous split's when that acted at k too."""
    out, desc = [], [top_element(n, s)]

    def extend(prev_pos, prev_idx):
        cur = desc[-1]
        bi = next((t for t, b in enumerate(cur.blocks) if len(b) > 1), None)
        if bi is None:
            out.append((bottom_element(n, s),) + tuple(reversed(desc)))
            return
        block = cur.blocks[bi]
        k = block[0]
        floor_idx = prev_idx if prev_pos == k else 1
        for r in range(1, len(block)):
            for right_block in combinations(block[1:], r):
                left_block = tuple(v for v in block if v not in right_block)
                for left_labs in product(*[
                        combinations(cur.labels[h][bi], len(left_block))
                        for h in range(s)]):
                    i_prime = next((h + 1 for h in range(s)
                                    if cur.labels[h][bi][0]
                                    not in left_labs[h]), None)
                    if i_prime is None or i_prime < floor_idx:
                        continue
                    right_labs = tuple(
                        tuple(v for v in cur.labels[h][bi]
                              if v not in left_labs[h]) for h in range(s))
                    desc.append(split_block(cur, bi, left_block, left_labs,
                                            right_block, right_labs))
                    extend(k, i_prime)
                    desc.pop()

    extend(0, 0)
    return out


def split_block(cur, bi, left_block, left_labs, right_block, right_labs):
    """cur with block bi and its label sets replaced by the two halves,
    put in canonical order by canonicalize."""
    return canonicalize(
        cur.n, cur.s,
        cur.blocks[:bi] + (left_block, right_block) + cur.blocks[bi + 1:],
        [lab[:bi] + (lo, hi) + lab[bi + 1:]
         for lab, lo, hi in zip(cur.labels, left_labs, right_labs)])


def chains_by_powerset(p, x=None, y=None):
    """Maximal chains of [x, y] found by testing every element subset.

    Exponential in poset size.  Keep below ~18 elements.
    """
    if x is None:
        x = p.bottom
    if y is None:
        y = p.top
    inside = [t for t in range(len(p.elements))
              if leq(p, x, t) and leq(p, t, y)]
    assert len(inside) <= 18, "powerset oracle got an oversized interval"
    found = []
    for r in range(1, len(inside) + 1):
        for sub in combinations(inside, r):
            if x not in sub or y not in sub:
                continue
            chain = sorted(sub, key=lambda t: p.ranks[t])
            if any(not leq(p, a, b) for a, b in zip(chain, chain[1:])):
                continue
            # saturated: consecutive ranks
            if any(p.ranks[b] - p.ranks[a] != 1
                   for a, b in zip(chain, chain[1:])):
                continue
            found.append(tuple(chain))
    return sorted(found)


def hall_mobius(p, x, y):
    """Mobius value as the alternating sum over chain lengths.

    mu(x, y) = sum over ell of (-1)^ell (number of chains
    x = z_0 < z_1 < ... < z_ell = y), computed by a DP on the interval.
    """
    if x == y:
        return 1
    inside = sorted((t for t in range(len(p.elements))
                     if leq(p, x, t) and leq(p, t, y)),
                    key=lambda t: p.ranks[t])
    # signed[t]: alternating-sum contribution of chains from x to t
    signed = {x: -1}
    for t in inside:
        if t == x:
            continue
        signed[t] = -sum(signed[u] for u in inside
                         if u in signed and u != t and leq(p, u, t))
    return -signed[y]


def sorted_word_rank(word, n, s):
    """1-based rank of an atom word among all (n!)^s words, by sorting.

    Builds the complete list.  Fine for n! ** s up to a few tens of
    thousands.
    """
    perms = sorted(permutations(range(1, n + 1)))
    words = [()]
    for _ in range(s):
        words = [w + q for w in words for q in perms]
    return sorted(words).index(tuple(word)) + 1


def simplicial_complex(facets):
    """A SimplicialComplex from vertex iterables: each facet made the
    ascending tuple of its vertices, repeats dropped, facets in ascending
    order.  ValueError for a facet contained in another, every pair of
    facets checked as frozensets."""
    sets = {frozenset(f) for f in facets}
    for a in sets:
        for b in sets:
            if a < b:
                raise ValueError(f"facet {sorted(a)} is in {sorted(b)}")
    return SimplicialComplex(
        facets=tuple(sorted(tuple(sorted(f)) for f in sets)))


def face_poset(c):
    """The faces of a pure complex c ordered by inclusion, the empty face
    at the bottom, with a top added above the facets, or above the empty
    face when c has none.  Its proper part's order complex is the
    barycentric subdivision of c, so betti reads c's top reduced Betti
    number.  Faces come by size, then ascending, a linear extension; c
    not pure gives a poset that is not graded, a VpshellError."""
    every = sorted({g for f in c.facets for k in range(len(f) + 1)
                    for g in combinations(f, k)} | {()},
                   key=lambda g: (len(g), g))
    index = {g: t for t, g in enumerate(every)}
    covers = [(index[g[:t] + g[t + 1:]], index[g])
              for g in every for t in range(len(g))]
    covers += [(index[f], len(every)) for f in c.facets or ((),)]
    return poset_from_pairs(every + ["top"], covers)


def shelling_by_intersections(c, order):
    """verify_shelling by the definition: intersect each facet with every
    earlier one and test the maximal intersections.  O(F^2) in facets.
    Entries are checked against c as given, so only a tuple that is a
    facet of c is one, and intersected as frozensets."""
    given = list(order)
    known = set(c.facets)
    seen = set()
    for i, f in enumerate(given):
        if not isinstance(f, tuple) or f not in known:
            return ShellingReport(False, i, (),
                                  f"entry {i} is not a facet of the complex")
        if f in seen:
            return ShellingReport(False, i, (),
                                  f"facet at position {i} listed twice")
        seen.add(f)
    if len(given) != len(c.facets):
        return ShellingReport(False, None, (),
                              "order does not list every facet")

    given = [frozenset(f) for f in given]
    homology = []
    for i in range(1, len(given)):
        fi = given[i]
        inters = {fi & given[j] for j in range(i)}
        maximal = [a for a in inters if not any(a < b for b in inters)]
        if len(fi) == 1:
            ok = maximal == [frozenset()]
        else:
            ok = all(len(a) == len(fi) - 1 for a in maximal)
        if not ok:
            return ShellingReport(
                False, i, (),
                f"intersection with earlier facets is not pure of "
                f"codimension 1 at position {i}")
        if all(any(fi - {v} <= given[j] for j in range(i)) for v in fi):
            homology.append(i)
    return ShellingReport(True, None, tuple(homology), None)


def shelling_order_by_pairs(p, labels):
    """lex_shelling_order as (word, facet) pairs: every maximal chain
    paired with its label word under labels, the pairs sorted, so that
    tied words fall back on the chains' index tuples, and each chain
    stripped of bottom and top."""
    pairs = sorted((tuple(labels[e] for e in zip(c, c[1:])), c)
                   for c in interval_chains(p, p.bottom, p.top))
    return [(word, c[1:-1]) for word, c in pairs]


def el_by_chain_enumeration(p, labels):
    """verify_el by the definition: list the label word of every maximal
    chain of every interval [x, y], scanning pairs in ascending index
    order, and compare the words.  Exponential in the rank."""
    for x in range(len(p.elements)):
        for y in up_set(p, x):
            if y == x:
                continue
            words = [tuple(labels[e] for e in zip(c, c[1:]))
                     for c in interval_chains(p, x, y)]
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


def first_difference_failures_by_chains(p, up_labels):
    """verify_label_structure's condition (5) by the definition: for each
    non-bottom x, ascending, and each y above it, ascending, whose atom
    word differs, list the label word of every maximal chain of [x, y]
    and report the interval once if a word does not carry the first
    difference exactly once or carries a label below it.  Capped at
    five, as verify_label_structure caps each condition."""
    els, lab = decoded(p), label_map(p, up_labels)
    n, s = els[p.top].n, els[p.top].s
    bad = []
    for x in range(len(els)):
        if els[x].is_bottom:
            continue
        for y in up_set(p, x):
            wx, wy = atom_word(els[x]), atom_word(els[y])
            if wx == wy:
                continue
            first = first_word_difference(wx, wy, n, s)
            for c in interval_chains(p, x, y):
                word = [lab[e] for e in zip(c, c[1:])]
                if word.count(first) != 1 or min(word) < first:
                    bad.append(f"interval [{els[x]}, {els[y]}] has a chain "
                               f"violating the first-difference law {first}")
                    break
    return bad[:5]


def rising_word_changes_by_chains(p, up_labels, cap=5):
    """verify_label_structure's condition (2) by listing the maximal
    chains: each chain is read from the bottom while its label word
    strictly increases, and the first step above an atom that changes
    the atom word is its offending cover.  The distinct covers are
    reported in ascending (lower, upper) order, the first cap of them
    (all when cap is None)."""
    els, lab = decoded(p), label_map(p, up_labels)
    found = set()
    for c in interval_chains(p, p.bottom, p.top):
        steps = list(zip(c, c[1:]))
        for r, (lo, hi) in enumerate(steps):
            if r and not lab[steps[r - 1]] < lab[(lo, hi)]:
                break
            if r and atom_word(els[lo]) != atom_word(els[hi]):
                found.add((lo, hi))
                break
    return [f"increasing chain reaches {els[lo]} then changes atom word "
            f"stepping to {els[hi]}" for lo, hi in sorted(found)[:cap]]


def merge_blocks_by_sorting(v, a, b):
    """merge_blocks by collecting the kept and merged (block, labels)
    records and sorting them by block minimum."""
    keep = [t for t in range(v.num_blocks) if t not in (a, b)]
    records = [(v.blocks[t], tuple(v.labels[i][t] for i in range(v.s)))
               for t in keep]
    nb = tuple(sorted(v.blocks[a] + v.blocks[b]))
    nl = tuple(tuple(sorted(v.labels[i][a] + v.labels[i][b]))
               for i in range(v.s))
    records.append((nb, nl))
    records.sort(key=lambda r: r[0][0])
    return VectorPartition(
        n=v.n, s=v.s,
        blocks=tuple(r[0] for r in records),
        labels=tuple(tuple(r[1][i] for r in records) for i in range(v.s)))


def poset_from_element_covers(n, s):
    """vector_partition_poset through build_poset on its (blocks, labels)
    keys, with every upper cover made by merge_blocks_by_sorting and no
    labels."""
    elements = decoded_elements(n, s)
    covers = []
    for v in elements[1:]:
        if v.is_atom:
            covers.append((elements[0], v))
        covers += [(v, merge_blocks_by_sorting(v, a, b))
                   for a, b in combinations(range(v.num_blocks), 2)]
    return build_poset(map(record, elements),
                       [(record(x), record(y)) for x, y in covers])


def record(v):
    """The (blocks, labels) record that keys v in vector_partition_poset;
    the bottom's is ((), ())."""
    return (v.blocks, v.labels)


def decoded(p):
    """The elements of a vector-partition poset, each key decoded, n and s
    read off the top's record."""
    (full,), labels = p.elements[p.top]
    return [decode(k, len(full), len(labels)) for k in p.elements]


def decoded_elements(n, s):
    """enumerate_elements(n, s), each record decoded."""
    return [decode(k, n, s) for k in enumerate_elements(n, s)]


def elements_by_permutations(n, s):
    """The elements of (n, s) in index order, bottom first: for each set
    partition, each labeling cuts every permutation of 1..n into pieces
    of the block sizes; canonicalize orders each element, repeats are
    dropped, and the rest sorted by (rank, blocks, labels)."""
    found = set()
    for blocks in set_partitions(n):
        sizes = [len(b) for b in blocks]
        cuts = [sum(sizes[:t]) for t in range(len(sizes) + 1)]
        assignments = {tuple(tuple(sorted(q[a:b]))
                             for a, b in zip(cuts, cuts[1:]))
                       for q in permutations(range(1, n + 1))}
        for labels in product(assignments, repeat=s):
            found.add(canonicalize(n, s, blocks, labels))
    return [bottom_element(n, s)] + sorted(
        found, key=lambda v: (-v.num_blocks, v.blocks, v.labels))


def format_element_by_joins(v):
    """format_element with the text of every set rebuilt by nested joins
    wherever it occurs."""
    if v.is_bottom:
        return "BOTTOM"

    def part(sets) -> str:
        return "".join("{" + ",".join(map(str, b)) + "}" for b in sets)

    return "|".join([part(v.blocks)] + [part(lab) for lab in v.labels])


def poset_to_json_by_dict(p, edge_labels=None):
    """poset_to_json through a document of dicts and lists handed to
    json.dumps(sort_keys=True).  Each label goes through list(), so the
    labels must be sequences."""
    if edge_labels is None:
        cov = [[lo, hi] for lo, his in enumerate(p.up) for hi in his]
    else:
        cov = [{"lo": lo, "hi": hi, "label": list(edge_labels[(lo, hi)])}
               for lo, his in enumerate(p.up) for hi in his]
    doc = {
        "elements": [str(k) for k in p.elements],
        "covers": cov,
        "bottom": p.bottom,
        "top": p.top,
    }
    return json.dumps(doc, sort_keys=True)


def poset_to_dot_by_edges(p, edge_labels=None):
    """poset_to_dot with every element and label escaped where its line
    is written."""
    def esc(s: str) -> str:
        return s.replace("\\", "\\\\").replace('"', '\\"')

    lines = ["digraph poset {", "  rankdir=BT;"]
    for i, k in enumerate(p.elements):
        lines.append(f'  n{i} [label="{esc(str(k))}"];')
    for lo, his in enumerate(p.up):
        for hi in his:
            if edge_labels is not None:
                lines.append(f'  n{lo} -> n{hi} [label="{esc(str(edge_labels[(lo, hi)]))}"];')
            else:
                lines.append(f"  n{lo} -> n{hi};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def indexed_counts_by_comb(max_n, s):
    """count_by_recursion's convolution term by term, every binomial
    from math.comb and every left sum taken afresh: {(n, i): count}."""
    total = {1: 1}
    by_index = {}
    for n in range(2, max_n + 1):
        for i in range(1, s + 1):
            by_index[(n, i)] = sum(
                (1 if a == 1 else
                 sum(by_index[(a, ip)] for ip in range(i, s + 1)))
                * total[n - a]
                * comb(n - 1, a - 1) ** i * comb(n - 1, a)
                * comb(n, a) ** (s - i)
                for a in range(1, n))
        total[n] = sum(by_index[(n, i)] for i in range(1, s + 1))
    return by_index


def is_increasing(word):
    """Strictly increasing label word; empty and singleton words qualify."""
    return all(a < b for a, b in zip(word, word[1:]))


def top_label_index_counts(chains):
    """How many chains carry each labeling index on their top cover."""
    counts = {}
    for c in chains:
        k, i, j = cover_label(c[-2], c[-1])
        counts[i] = counts.get(i, 0) + 1
    return dict(sorted(counts.items()))


def dimension(c):
    """The largest facet size less one; -1 for the empty complex."""
    return max(map(len, c.facets), default=0) - 1


def faces(c, d):
    """The d-faces of a complex, every (d + 1)-subset of every facet; the
    one (-1)-face of a non-empty complex is the empty face."""
    return {face for f in c.facets for face in combinations(f, d + 1)}


def f_vector(c):
    """(f_0, ..., f_dim) of a complex, every face of every facet listed;
    the empty tuple for the empty complex."""
    return tuple(len(faces(c, d)) for d in range(dimension(c) + 1))


def reduced_euler_characteristic(c):
    """The alternating face-count sum minus one; -1 for the empty
    complex."""
    return sum((-1) ** d * f for d, f in enumerate(f_vector(c))) - 1


def reduced_betti_numbers(c):
    """(b_0, ..., b_dim) over GF(2); empty tuple for the empty complex.
    The faces of each size are every vertex subset of every facet, the
    empty face included.  Each boundary map is a dense matrix, a row per
    face with one bit per sorted face a vertex smaller, reduced column by
    column from the lowest bit."""
    by_dim = {}
    for f in c.facets:
        for k in range(len(f) + 1):
            by_dim.setdefault(k - 1, set()).update(combinations(f, k))

    def rank(d):
        index = {g: t for t, g in enumerate(sorted(by_dim.get(d - 1, ())))}
        rows = [sum(1 << index[g] for g in combinations(f, d))
                for f in by_dim.get(d, ())]
        found = 0
        for bit in range(len(index)):
            hits = [row for row in rows if row >> bit & 1]
            if hits:
                rows = ([row for row in rows if not row >> bit & 1]
                        + [row ^ hits[0] for row in hits[1:]])
                found += 1
        return found

    return tuple(len(by_dim[d]) - rank(d) - rank(d + 1)
                 for d in range(dimension(c) + 1))


@pytest.fixture(scope="session")
def p2s1():
    return vector_partition_poset(2, 1)


@pytest.fixture(scope="session")
def p3s1():
    return vector_partition_poset(3, 1)


@pytest.fixture(scope="session")
def p4s1():
    return vector_partition_poset(4, 1)


@pytest.fixture(scope="session")
def p2s2():
    return vector_partition_poset(2, 2)


@pytest.fixture(scope="session")
def p3s2():
    return vector_partition_poset(3, 2)


@pytest.fixture(scope="session")
def p4s2():
    return vector_partition_poset(4, 2)


@pytest.fixture(scope="session")
def p5s1():
    return vector_partition_poset(5, 1)


def count_calls(monkeypatch, *functions):
    """{name: calls} for each function, counted from here on wherever a
    loaded vpshell module binds it, as perfbench/tracejob.py wraps its
    spans, so a call through any import path counts."""
    modules = [m for k, m in sys.modules.items()
               if k == "vpshell" or k.startswith("vpshell.")]
    calls = {}
    for fn in functions:
        calls[fn.__name__] = 0

        def counted(*args, _fn=fn, **kwargs):
            calls[_fn.__name__] += 1
            return _fn(*args, **kwargs)

        for module in modules:
            for name, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, name, counted)
    return calls
