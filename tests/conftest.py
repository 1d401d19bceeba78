"""Shared fixtures and independent oracles.

The oracles recompute quantities the library also computes, by methods
deliberately unlike the library's: maximal chains by powerset filtering,
the Mobius function by alternating chain counts, atom ranks by sorting
the full list of words, shellings by intersecting every pair of facets,
merges by re-sorting the blocks, the whole poset from element keys, and
the indexed sphere counts from math.comb, and the EL property by
enumerating the maximal chains of every interval.
They are slow and only fit tiny inputs, which is the point.
"""
from itertools import combinations, permutations
from math import comb

import pytest

from vpshell import (ELReport, ShellingReport, VectorPartition, build_poset,
                     enumerate_elements, is_increasing, maximal_chains,
                     vector_partition_poset)


def chains_by_powerset(p, x=None, y=None):
    """Maximal chains of [x, y] found by testing every element subset.

    Exponential in poset size.  Keep below ~18 elements.
    """
    if x is None:
        x = p.bottom
    if y is None:
        y = p.top
    inside = [t for t in range(len(p.elements))
              if p.leq(x, t) and p.leq(t, y)]
    assert len(inside) <= 18, "powerset oracle got an oversized interval"
    found = []
    for r in range(1, len(inside) + 1):
        for sub in combinations(inside, r):
            if x not in sub or y not in sub:
                continue
            chain = sorted(sub, key=lambda t: p.ranks[t])
            if any(not p.leq(a, b) for a, b in zip(chain, chain[1:])):
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
                     if p.leq(x, t) and p.leq(t, y)),
                    key=lambda t: p.ranks[t])
    # signed[t]: alternating-sum contribution of chains from x to t
    signed = {x: -1}
    for t in inside:
        if t == x:
            continue
        signed[t] = -sum(signed[u] for u in inside
                         if u in signed and u != t and p.leq(u, t))
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


def facets_by_pairwise_containment(facets):
    """Canonical facet tuple of simplicial_complex, with the containment
    check run on every pair of facets whatever their sizes, as frozensets."""
    sets = sorted({frozenset(f) for f in facets}, key=lambda f: tuple(sorted(f)))
    for a in sets:
        for b in sets:
            if a < b:
                raise ValueError(f"facet {sorted(a)} is contained in {sorted(b)}")
    return tuple(tuple(sorted(f)) for f in sets)


def shelling_by_intersections(c, order):
    """verify_shelling by the definition: intersect each facet with every
    earlier one and test the maximal intersections.  O(F^2) in facets.
    Entries are checked against c as ascending tuples and intersected as
    frozensets."""
    given = [tuple(sorted(set(f))) for f in order]
    known = set(c.facets)
    seen = set()
    for i, f in enumerate(given):
        if f not in known:
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


def el_by_chain_enumeration(p, labels):
    """verify_el by the definition: list the label word of every maximal
    chain of every interval [x, y], scanning pairs in ascending index
    order, and compare the words.  Exponential in the rank."""
    for x in range(len(p.elements)):
        for y in p.up_set(x):
            if y == x:
                continue
            words = [tuple(labels[e] for e in zip(c, c[1:]))
                     for c in maximal_chains(p, x, y)]
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
    """vector_partition_poset through build_poset on element keys, with
    every upper cover made by merge_blocks_by_sorting and no labels."""
    elements = enumerate_elements(n, s)
    covers = []
    for v in elements[1:]:
        if v.is_atom:
            covers.append((elements[0], v))
        covers += [(v, merge_blocks_by_sorting(v, a, b))
                   for a, b in combinations(range(v.num_blocks), 2)]
    return build_poset(elements, covers)


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
