"""Poset core: validation, chains, Mobius, serialization."""
import gc
import json
from dataclasses import fields

import pytest

from vpshell import (
    CycleDetected,
    DuplicateElement,
    MissingLabels,
    NotACover,
    NotBounded,
    NotComparable,
    NotGraded,
    UnknownElement,
    VpshellError,
    build_poset,
    is_leq,
    maximal_chains,
    mobius,
    order_complex,
    poset_to_dot,
    poset_to_json,
    vector_partition_poset,
)
from conftest import chains_by_powerset, hall_mobius


def diamond():
    return build_poset("0ab1", [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")])


def chain4():
    return build_poset("abcd", [("a", "b"), ("b", "c"), ("c", "d")])


def test_build_basic():
    p = diamond()
    assert len(p) == 4
    assert p.elements[p.bottom] == "0"
    assert p.elements[p.top] == "1"
    assert p.height == 2
    assert p.ranks[p.top] == 2


def test_build_rejects_duplicates():
    from vpshell.poset import build_indexed_poset
    with pytest.raises(DuplicateElement):
        build_poset("aab", [("a", "b")])
    with pytest.raises(DuplicateElement):
        build_indexed_poset("aab", [(0, 2)])
    assert issubclass(DuplicateElement, VpshellError)


def test_build_rejects_unknown_cover_key():
    with pytest.raises(UnknownElement):
        build_poset("ab", [("a", "c")])


def test_build_rejects_cycle():
    with pytest.raises(CycleDetected):
        build_poset("ab", [("a", "b"), ("b", "a")])
    with pytest.raises(CycleDetected):
        build_poset("a", [("a", "a")])


def test_build_rejects_unbounded():
    # two maximal elements
    with pytest.raises(NotBounded):
        build_poset("0ab", [("0", "a"), ("0", "b")])
    # two minimal elements
    with pytest.raises(NotBounded):
        build_poset("ab1", [("a", "1"), ("b", "1")])


def test_build_rejects_labels_off_the_covers():
    from vpshell.poset import build_indexed_poset
    covers = [(0, 1), (1, 2)]
    with pytest.raises(MissingLabels, match=r"cover \(1, 2\)"):
        build_indexed_poset("abc", covers, {(0, 1): "x"})
    with pytest.raises(NotACover, match=r"pair \(0, 2\)"):
        build_indexed_poset("abc", covers,
                            {(0, 1): "x", (1, 2): "y", (0, 2): "z"})
    p = build_indexed_poset("abc", covers, {(0, 1): "x", (1, 2): "y"})
    assert p.edge_labels[(1, 2)] == "y"


def test_build_rejects_transitive_edge():
    with pytest.raises(NotGraded):
        build_poset("abc", [("a", "b"), ("b", "c"), ("a", "c")])


def test_leq_and_interval():
    p = diamond()
    a = p.index["a"]
    b = p.index["b"]
    assert p.leq(p.bottom, a)
    assert p.leq(a, p.top)
    assert not p.leq(a, b)
    assert not p.leq(b, a)
    assert [t for t in p.up_set(a) if p.leq(t, p.top)] == [a, p.top]


def test_maximal_chains_diamond():
    p = diamond()
    chains = maximal_chains(p)
    assert len(chains) == 2
    for c in chains:
        assert c[0] == p.bottom and c[-1] == p.top and len(c) == 3


def test_maximal_chains_not_comparable():
    p = diamond()
    with pytest.raises(NotComparable):
        maximal_chains(p, p.index["a"], p.index["b"])


def test_maximal_chains_degenerate_interval():
    p = diamond()
    a = p.index["a"]
    assert maximal_chains(p, a, a) == [(a,)]


def test_maximal_chains_are_pure(p3s2):
    lengths = {len(c) for c in maximal_chains(p3s2)}
    assert len(lengths) == 1


def test_maximal_chains_against_powerset_oracle(p3s1):
    assert maximal_chains(p3s1) == chains_by_powerset(p3s1)
    assert len(maximal_chains(p3s1)) == 18


def test_interval_chains_against_powerset_oracle(p3s1):
    p = p3s1
    atoms = sorted(p.up[p.bottom])
    for a in atoms[:3]:
        assert maximal_chains(p, a, p.top) == chains_by_powerset(p, a, p.top)


def test_order_queries_cache_only_adjacency():
    # leq, up_set, mobius and interval chains walk the covers; the only
    # state they may leave on the poset is its adjacency
    p = vector_partition_poset(3, 2)
    atom = p.up[p.bottom][0]
    coatom = p.down[p.top][0]
    assert mobius(p, p.bottom, p.top) == -46
    assert p.leq(atom, p.top) and not p.leq(p.top, atom)
    assert p.up_set(atom)[-1] == p.top
    assert len(maximal_chains(p, atom, p.top)) == 3
    assert len(maximal_chains(p, p.bottom, coatom)) == 4
    derived = set(p.__dict__) - {f.name for f in fields(p)}
    assert derived == {"up", "down"}


def test_mobius_chain():
    p = chain4()
    assert mobius(p, p.bottom, p.top) == 0
    assert mobius(p, 0, 1) == -1
    assert mobius(p, 0, 0) == 1


def test_mobius_diamond():
    p = diamond()
    assert mobius(p, p.bottom, p.top) == 1


def test_mobius_partition_lattice():
    from vpshell import set_partition_lattice
    lat = set_partition_lattice(3)
    assert mobius(lat, lat.bottom, lat.top) == 2
    # (n-1)! with alternating sign in general
    lat4 = set_partition_lattice(4)
    assert mobius(lat4, lat4.bottom, lat4.top) == -6


def test_mobius_against_hall_oracle(p3s1, p2s2):
    for p in (p3s1, p2s2):
        for x in range(len(p.elements)):
            for y in range(len(p.elements)):
                if p.leq(x, y):
                    assert mobius(p, x, y) == hall_mobius(p, x, y)


def test_mobius_sum_identity(p3s1):
    # sum of mu(bottom, t) over t in [bottom, y] vanishes for y > bottom
    p = p3s1
    for y in range(len(p.elements)):
        if y == p.bottom:
            continue
        total = sum(mobius(p, p.bottom, t)
                    for t in range(len(p.elements))
                    if p.leq(p.bottom, t) and p.leq(t, y))
        assert total == 0


def test_up_set_lists_the_elements_above():
    for p in (diamond(), chain4()):
        for x in range(len(p)):
            assert p.up_set(x) == [t for t in range(len(p)) if p.leq(x, t)]


def test_leq_matches_element_order(p3s1, p2s2, p3s2):
    # is_leq decides the order on the vector partitions themselves, so it
    # checks the cover walk behind leq and up_set independently
    for p in (p3s1, p2s2, p3s2):
        els = p.elements
        for a in range(len(p)):
            for b in range(len(p)):
                assert p.leq(a, b) == is_leq(els[a], els[b])


def test_json_roundtrip():
    doc = json.loads(poset_to_json(diamond()))
    assert doc == {"elements": ["0", "a", "b", "1"],
                   "covers": [[0, 1], [0, 2], [1, 3], [2, 3]],
                   "bottom": 0, "top": 3}


def test_json_labeled_covers():
    p = diamond()
    labels = {e: ("L", e) for e in p.covers}
    doc = json.loads(poset_to_json(p, labels))
    assert doc["elements"] == ["0", "a", "b", "1"]
    assert doc["covers"] == [{"lo": lo, "hi": hi, "label": ["L", [lo, hi]]}
                             for lo, hi in [(0, 1), (0, 2), (1, 3), (2, 3)]]
    assert (doc["bottom"], doc["top"]) == (0, 3)


def test_json_is_deterministic():
    assert poset_to_json(diamond()) == poset_to_json(diamond())


def test_dot_output():
    p = diamond()
    dot = poset_to_dot(p)
    assert dot.startswith("digraph")
    assert "rankdir=BT" in dot
    assert dot.count("->") == 4
    labeled = poset_to_dot(p, {e: (1, 2, 3) for e in p.covers})
    assert 'label="(1, 2, 3)"' in labeled


def test_chains_are_freed_without_the_cyclic_collector(p3s2):
    # with the collector off, nothing the chain walk or the EL scan
    # leaves behind may sit in a reference cycle
    from vpshell import verify_el
    gc.collect()
    gc.disable()
    try:
        assert len(maximal_chains(p3s2)) == 108
        assert verify_el(p3s2).ok
        assert gc.collect() == 0
    finally:
        gc.enable()
