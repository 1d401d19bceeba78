"""Poset core: validation, chains, Mobius, serialization."""
import gc
import json
import re
from dataclasses import fields, replace

import pytest

from vpshell.complexes import ShellingReport, order_complex, verify_shelling
from vpshell.errors import VpshellError
from vpshell.labeling import lex_shelling_order
from vpshell.poset import mobius, poset_to_dot, poset_to_json
from vpshell.vecpart import element_texts, is_leq, vector_partition_poset
from conftest import (aligned_labels, build_poset, chains_by_powerset,
                      covers, decoded, hall_mobius, interval_chains,
                      interval_poset, label_map, leq, poset_to_dot_by_edges,
                      poset_to_json_by_dict, set_partition_lattice, up_set)


def json_text(p, texts=None):
    return "".join(poset_to_json(p, texts))


def dot_text(p, texts=None):
    return "".join(poset_to_dot(p, texts))


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
    with pytest.raises(VpshellError, match="^duplicate element keys$"):
        build_poset("aab", [("a", "b")])
    with pytest.raises(VpshellError, match="^duplicate element keys$"):
        build_indexed_poset("aab", [(0, 2)])


def test_build_rejects_unknown_cover_key():
    with pytest.raises(VpshellError,
                       match="^cover names 'c', not an element$"):
        build_poset("ab", [("a", "c")])


def test_build_rejects_cycle():
    with pytest.raises(VpshellError, match=re.escape(
            "cover (1, 0) does not rise in index order")):
        build_poset("ab", [("a", "b"), ("b", "a")])
    with pytest.raises(VpshellError, match=re.escape(
            "cover (0, 0) does not rise in index order")):
        build_poset("a", [("a", "a")])


def test_build_refuses_an_index_order_against_the_covers():
    # b2 is listed before a1, which it covers: the order complex and the
    # shelling order both read their faces off walked chains, and index
    # order must ascend along them for the two to agree.  Listed along a
    # linear extension, the same 4-cycle shells in walk order.
    covers = [("0", "a1"), ("0", "c1"), ("a1", "b2"), ("a1", "d2"),
              ("c1", "b2"), ("c1", "d2"), ("b2", "1"), ("d2", "1")]
    with pytest.raises(VpshellError, match=r"^cover \(2, 1\) does not"):
        build_poset("0 b2 a1 c1 d2 1".split(), covers)
    p = build_poset("0 a1 c1 b2 d2 1".split(), covers)
    ties, c = tuple((1,) * len(his) for his in p.up), order_complex(p)
    assert verify_shelling(c, lex_shelling_order(
        replace(p, up_labels=ties), c)) \
        == ShellingReport(True, None, (3,), None)


def test_build_rejects_unbounded():
    # two maximal elements
    with pytest.raises(VpshellError, match="^1 minimal and 2 maximal "):
        build_poset("0ab", [("0", "a"), ("0", "b")])
    # two minimal elements
    with pytest.raises(VpshellError, match="^2 minimal and 1 maximal "):
        build_poset("ab1", [("a", "1"), ("b", "1")])


def test_build_takes_labels_with_the_covers():
    # labels come aligned with up, one tuple per element; without them
    # the poset carries none, and equality ignores them
    from vpshell.poset import build_indexed_poset
    p = build_indexed_poset("abc", [[1], [2], []], [["x"], ["y"], []])
    assert p.up_labels == (("x",), ("y",), ())
    assert p.up == ((1,), (2,), ())
    q = build_indexed_poset("abc", [(1,), (2,), ()])
    assert q.up_labels is None and q == p
    with pytest.raises(VpshellError,
                       match=r"^cover \(1, 2\) has no edge label$"):
        build_indexed_poset("abc", [(1,), (2,), ()], [("x",), (), ()])
    with pytest.raises(VpshellError, match="^extra labels at 1$"):
        build_indexed_poset("abc", [(1,), (2,), ()], [("x",), ("y", "z"), ()])
    with pytest.raises(VpshellError, match="^2 label lists, 3 elements$"):
        build_indexed_poset("abc", [(1,), (2,), ()], [("x",), ("y",)])


def test_a_poset_refuses_labels_that_do_not_line_up_with_its_covers():
    # Poset itself checks, so every way of making one refuses: the
    # constructor, and replace on a built poset.  The least unlabelled
    # cover is named
    from vpshell.poset import Poset, build_indexed_poset
    p = build_indexed_poset("abc", [(1,), (2,), ()], [("x",), ("y",), ()])
    make = [lambda rows: Poset(p.elements, p.up, p.ranks, rows),
            lambda rows: replace(p, up_labels=rows)]
    for new in make:
        with pytest.raises(VpshellError,
                           match=r"^cover \(1, 2\) has no edge label$"):
            new((("x",), (), ()))
        with pytest.raises(VpshellError,
                           match="^2 label lists, 3 elements$"):
            new((("x",), ("y",)))
        assert new((("u",), ("v",), ())).up_labels == (("u",), ("v",), ())
    q = vector_partition_poset(3, 1)
    rows = list(q.up_labels)
    rows[0] = rows[0][:-1]
    with pytest.raises(VpshellError,
                       match=r"^cover \(0, 6\) has no edge label$"):
        replace(q, up_labels=tuple(rows))


def test_build_takes_one_ascending_cover_tuple_per_element():
    from vpshell.poset import build_indexed_poset
    with pytest.raises(VpshellError,
                       match="^2 upper-cover lists for 3 elements$"):
        build_indexed_poset("abc", [(1,), (2,)])
    with pytest.raises(VpshellError, match=re.escape(
            "up[0] does not ascend strictly in 0..3")):
        build_indexed_poset("abcd", [(2, 1), (3,), (3,), ()])
    with pytest.raises(VpshellError, match=re.escape(
            "up[0] does not ascend strictly in 0..3")):
        build_indexed_poset("abcd", [(1, 1, 2), (3,), (3,), ()])
    with pytest.raises(VpshellError, match=re.escape(
            "up[1] does not ascend strictly in 0..1")):
        build_indexed_poset("ab", [(1,), (2,)])
    p = build_indexed_poset("abcd", [[1, 2], [3], [3], []])
    assert p.up == ((1, 2), (3,), (3,), ()) and p.ranks == (0, 1, 1, 2)


def test_covers_are_the_ascending_pairs_of_up(p3s2):
    for p in (diamond(), chain4(), p3s2, set_partition_lattice(4)):
        assert covers(p) == sorted(covers(p))
        assert all(type(js) is tuple and list(js) == sorted(set(js))
                   for js in p.up)


def test_build_checks_cycle_then_bounds_then_grading():
    from vpshell.poset import build_indexed_poset
    # two minimal elements and a cycle: the cycle is reported
    with pytest.raises(VpshellError, match=re.escape(
            "cover (2, 1) does not rise in index order")):
        build_poset("abcd", [("a", "b"), ("b", "c"), ("c", "b"),
                             ("d", "c")])
    # two maximal elements and a transitive edge: unbounded first
    with pytest.raises(VpshellError, match="^1 minimal and 2 maximal "):
        build_poset("0abx", [("0", "a"), ("a", "b"), ("0", "b"),
                             ("0", "x")])
    # top first and bottom last: the falling cover is refused as a
    # cycle is, before the bounds are looked at
    with pytest.raises(VpshellError,
                       match=r"^cover \(1, 0\) does not rise in index order$"):
        build_indexed_poset("tmb", [(), (0,), (1,)])


def test_build_rejects_transitive_edge():
    with pytest.raises(VpshellError, match=re.escape(
            "cover (0, 2) spans ranks 0 -> 2")):
        build_poset("abc", [("a", "b"), ("b", "c"), ("a", "c")])


def test_leq_and_interval():
    p = diamond()
    a = p.elements.index("a")
    b = p.elements.index("b")
    assert leq(p, p.bottom, a)
    assert leq(p, a, p.top)
    assert not leq(p, a, b)
    assert not leq(p, b, a)
    assert [t for t in up_set(p, a) if leq(p, t, p.top)] == [a, p.top]


def test_order_complex_diamond():
    p = diamond()
    a, b = p.elements.index("a"), p.elements.index("b")
    assert order_complex(p).facets == ((a,), (b,))


def test_order_complex_is_empty_below_height_two():
    # a one-element poset, and the (1, s) posets: bottom and top only
    p = diamond()
    a = p.elements.index("a")
    q = interval_poset(p, a, a)
    assert q.elements == (a,) and order_complex(q).facets == ()
    assert interval_chains(p, a, a) == [(a,)]
    for s in (1, 2):
        p1 = vector_partition_poset(1, s)
        assert p1.height == 1 and order_complex(p1).facets == ()


def test_order_complex_at_n_two_is_the_atoms(p2s1, p2s2):
    for p in (p2s1, p2s2):
        assert order_complex(p).facets == tuple(
            (a,) for a in p.up[p.bottom])


def test_order_complex_is_pure(p3s2):
    lengths = {len(f) for f in order_complex(p3s2).facets}
    assert lengths == {2}


def test_order_complex_against_powerset_oracle(p3s1, p2s2):
    for p, chains in ((diamond(), 2), (p3s1, 18), (p2s2, 4)):
        facets = order_complex(p).facets
        assert list(facets) == [c[1:-1] for c in chains_by_powerset(p)]
        assert len(facets) == chains


def test_interval_chains_against_powerset_oracle(p3s1):
    # [a, top] built as a poset of its own: its chains, read back through
    # its keys, are the chains of the interval in p
    p = p3s1
    atoms = sorted(p.up[p.bottom])
    for a in atoms[:3]:
        q = interval_poset(p, a, p.top)
        assert [tuple(q.elements[t] for t in c)
                for c in interval_chains(q, q.bottom, q.top)] \
            == chains_by_powerset(p, a, p.top)


@pytest.mark.parametrize("size", ["p3s1", "p2s2"])
def test_oracle_interval_walk_against_powerset_oracle(size, request):
    # the EL and first-difference oracles list interval chains by this
    # walk; it answers to the powerset oracle on every comparable pair
    p = request.getfixturevalue(size)
    pairs = [(x, y) for x in range(len(p)) for y in up_set(p, x)]
    for x, y in pairs:
        assert interval_chains(p, x, y) == chains_by_powerset(p, x, y)
    assert interval_chains(p, p.top, p.bottom) == []
    assert len(pairs) > len(p)


@pytest.mark.parametrize("make, mu, above_atom, below_coatom", [
    (lambda: vector_partition_poset(3, 2), -46, 3, 4),
    (lambda: set_partition_lattice(4), -6, 3, 3),
    (diamond, 1, 1, 1)], ids=["(3,2)", "lattice(4)", "diamond"])
def test_queries_leave_no_state_on_the_poset(make, mu, above_atom,
                                             below_coatom):
    # order queries, the writers and the EL scan walk the covers; none
    # of them may leave anything on the poset beyond its fields
    from vpshell.labeling import verify_el
    p = make()
    p = replace(p, up_labels=p.up_labels
                or tuple((1,) * len(his) for his in p.up))
    atom = p.up[p.bottom][0]
    coatom = min(v for v, his in enumerate(p.up) if p.top in his)
    assert mobius(p) == mu
    q = interval_poset(p, atom, p.top)
    assert len(interval_chains(q, q.bottom, q.top)) == above_atom
    q = interval_poset(p, p.bottom, coatom)
    assert len(interval_chains(q, q.bottom, q.top)) == below_coatom
    assert order_complex(p).facets
    assert json_text(p) and dot_text(p)
    verify_el(p)
    assert set(p.__dict__) == {f.name for f in fields(p)}


def test_mobius_chain():
    p = chain4()
    assert mobius(p) == 0
    assert mobius(interval_poset(p, 0, 1)) == -1
    assert mobius(interval_poset(p, 0, 0)) == 1


def test_mobius_diamond():
    p = diamond()
    assert mobius(p) == 1


def test_mobius_partition_lattice():
    lat = set_partition_lattice(3)
    assert mobius(lat) == 2
    # (n-1)! with alternating sign in general
    lat4 = set_partition_lattice(4)
    assert mobius(lat4) == -6


def test_mobius_against_hall_oracle(p3s1, p2s2):
    for p in (p3s1, p2s2):
        assert mobius(p) == hall_mobius(p, p.bottom, p.top)
        for x in range(len(p.elements)):
            for y in range(len(p.elements)):
                if leq(p, x, y):
                    assert mobius(interval_poset(p, x, y)) \
                        == hall_mobius(p, x, y)


def test_mobius_sum_identity(p3s1):
    # sum of mu(bottom, t) over t in [bottom, y] vanishes for y > bottom
    p = p3s1
    for y in range(len(p.elements)):
        if y == p.bottom:
            continue
        total = sum(mobius(interval_poset(p, p.bottom, t))
                    for t in range(len(p.elements))
                    if leq(p, p.bottom, t) and leq(p, t, y))
        assert total == 0


def test_up_set_lists_the_elements_above():
    for p in (diamond(), chain4()):
        for x in range(len(p)):
            assert up_set(p, x) == [t for t in range(len(p)) if leq(p, x, t)]


def test_leq_matches_element_order(p3s1, p2s2, p3s2):
    # is_leq decides the order on the vector partitions themselves, so it
    # checks the cover walk behind leq and up_set independently
    for p in (p3s1, p2s2, p3s2):
        els = decoded(p)
        for a in range(len(p)):
            for b in range(len(p)):
                assert leq(p, a, b) == is_leq(els[a], els[b])


def test_json_roundtrip():
    doc = json.loads(json_text(diamond()))
    assert doc == {"elements": ["0", "a", "b", "1"],
                   "covers": [[0, 1], [0, 2], [1, 3], [2, 3]],
                   "bottom": 0, "top": 3}


def test_json_labeled_covers():
    p = diamond()
    labels = {e: ("L", e) for e in covers(p)}
    doc = json.loads(json_text(replace(
        p, up_labels=aligned_labels(p, labels))))
    assert doc["elements"] == ["0", "a", "b", "1"]
    assert doc["covers"] == [{"lo": lo, "hi": hi, "label": ["L", [lo, hi]]}
                             for lo, hi in [(0, 1), (0, 2), (1, 3), (2, 3)]]
    assert (doc["bottom"], doc["top"]) == (0, 3)


def test_json_is_deterministic():
    assert json_text(diamond()) == json_text(diamond())


def test_dot_output():
    p = diamond()
    dot = dot_text(p)
    assert dot.startswith("digraph")
    assert "rankdir=BT" in dot
    assert dot.count("->") == 4
    labeled = dot_text(replace(p, up_labels=aligned_labels(
        p, {e: (1, 2, 3) for e in covers(p)})))
    assert 'label="(1, 2, 3)"' in labeled


@pytest.mark.parametrize("size", ["p3s2", "p4s2", "p5s1"])
def test_writers_match_the_oracles(size, request):
    # the keys by str, and the element texts given as build gives them,
    # more than 256 of them at (4,2) and (5,1), against the oracles on a
    # poset keyed by those texts
    p = request.getfixturevalue(size)
    named = replace(p, elements=tuple(element_texts(p.elements)))
    for q, labels in ((replace(p, up_labels=None), None), (p, label_map(p))):
        assert json_text(q) == poset_to_json_by_dict(p, labels)
        assert dot_text(q) == poset_to_dot_by_edges(p, labels)
        texts = element_texts(p.elements)
        assert json_text(q, texts) == poset_to_json_by_dict(named, labels)
        texts = element_texts(p.elements)
        assert dot_text(q, texts) == poset_to_dot_by_edges(named, labels)


def test_writers_escape_keys_and_labels_as_the_oracles_do():
    keys = ['lo"', "back\\slash", "new\nline", "\u00e9t\u00e9 \u2192 \U0001d53d", "hi"]
    p = build_poset(keys, [(keys[0], k) for k in keys[1:4]]
                    + [(k, keys[4]) for k in keys[1:4]])
    labels = {(lo, hi): (keys[lo], hi) for lo, hi in covers(p)}
    for q, lab in ((p, None),
                   (replace(p, up_labels=aligned_labels(p, labels)), labels)):
        assert json_text(q) == poset_to_json_by_dict(p, lab)
        assert dot_text(q) == poset_to_dot_by_edges(p, lab)
    assert json.loads(json_text(p))["elements"] == keys


@pytest.mark.parametrize("writer", [json_text, dot_text],
                         ids=["poset_to_json", "poset_to_dot"])
def test_writers_name_the_least_cover_a_short_table_misses(writer, p3s1):
    # (0, 6) is the last cover of the bottom: cut its row and the row of
    # the last cover short by one label each.  The poset carrying them is
    # refused when it is made, so no writer ever reads them
    rows = list(p3s1.up_labels)
    last = covers(p3s1)[-1][0]
    assert p3s1.up[0][-1] == 6
    rows[0], rows[last] = rows[0][:-1], rows[last][:-1]
    with pytest.raises(VpshellError,
                       match=r"^cover \(0, 6\) has no edge label$"):
        writer(replace(p3s1, up_labels=tuple(rows)))


def test_json_writes_int_labels_of_the_partition_lattice():
    lat = set_partition_lattice(4)
    doc = json.loads(json_text(lat))
    assert len(doc["covers"]) == len(covers(lat))
    for cover in doc["covers"]:
        below = set(lat.elements[cover["lo"]])
        merged = next(b for b in lat.elements[cover["hi"]] if b not in below)
        assert cover["label"] == max(merged)
        assert type(cover["label"]) is int


def test_chains_are_freed_without_the_cyclic_collector(p3s2):
    # with the collector off, nothing the order complex's chain walk or
    # the EL scan leaves behind may sit in a reference cycle
    from vpshell.labeling import verify_el
    gc.collect()
    gc.disable()
    try:
        assert len(order_complex(p3s2).facets) == 108
        assert verify_el(p3s2).ok
        assert gc.collect() == 0
    finally:
        gc.enable()
