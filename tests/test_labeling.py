"""Edge labels, EL verification, shelling order, sabotage detection."""
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from vpshell.complexes import order_complex, verify_shelling
from vpshell.errors import VpshellError
from vpshell.labeling import (SABOTAGES, chain_label, cover_label,
                              is_weakly_decreasing, lex_shelling_order,
                              sabotaged_label_map, sabotaged_shelling_order,
                              verify_el, verify_label_structure)
from vpshell.poset import build_indexed_poset
from vpshell.spherecount import count_total
from vpshell.vecpart import (atom_word, bottom_element, canonicalize,
                             first_word_difference, top_element,
                             vector_partition_poset)
from conftest import (aligned_labels, build_poset, count_calls, covers,
                      decoded, el_by_chain_enumeration,
                      first_difference_failures_by_chains, is_increasing,
                      label_map, poset_from_pairs, record,
                      set_partition_lattice, shelling_by_intersections,
                      shelling_order_by_pairs)

_EL_POSETS = {"(2,1)": vector_partition_poset(2, 1),
              "(3,1)": vector_partition_poset(3, 1),
              "(2,2)": vector_partition_poset(2, 2),
              "(3,2)": vector_partition_poset(3, 2),
              "lattice(4)": set_partition_lattice(4)}


def lex_order(p):
    """lex_shelling_order on the order complex of p, built here."""
    return lex_shelling_order(p, order_complex(p))


def sabotaged(p, name):
    """p carrying the labels of the named defect, as verify-el --sabotage
    makes it."""
    return replace(p, up_labels=sabotaged_label_map(p, name))


def golden_chain_s2():
    n, s = 5, 2
    return (
        bottom_element(n, s),
        canonicalize(n, s, [(1,), (2,), (3,), (4,), (5,)],
                     [[(2,), (4,), (1,), (3,), (5,)],
                      [(4,), (1,), (2,), (5,), (3,)]]),
        canonicalize(n, s, [(1,), (2,), (3,), (4, 5)],
                     [[(2,), (4,), (1,), (3, 5)],
                      [(4,), (1,), (2,), (3, 5)]]),
        canonicalize(n, s, [(1,), (2, 3), (4, 5)],
                     [[(2,), (1, 4), (3, 5)],
                      [(4,), (1, 2), (3, 5)]]),
        canonicalize(n, s, [(1, 4, 5), (2, 3)],
                     [[(2, 3, 5), (1, 4)],
                      [(3, 4, 5), (1, 2)]]),
        top_element(n, s),
    )


def golden_chain_s1():
    n, s = 5, 1
    return (
        bottom_element(n, s),
        canonicalize(n, s, [(1,), (2,), (3,), (4,), (5,)],
                     [[(5,), (4,), (1,), (3,), (2,)]]),
        canonicalize(n, s, [(1,), (2, 4), (3,), (5,)],
                     [[(5,), (3, 4), (1,), (2,)]]),
        canonicalize(n, s, [(1,), (2, 3, 4), (5,)],
                     [[(5,), (1, 3, 4), (2,)]]),
        canonicalize(n, s, [(1, 5), (2, 3, 4)],
                     [[(2, 5), (1, 3, 4)]]),
        top_element(n, s),
    )


def test_first_word_difference_scans_position_major():
    # words differ at position 2 of labeling 1 and position 1 of labeling 2;
    # the scan visits (k=1, i=2) before (k=2, i=1)
    a = (1, 3, 2, 2, 1, 3)
    b = (1, 2, 3, 3, 1, 2)
    assert first_word_difference(a, b, 3, 2) == (1, 2, 3)
    with pytest.raises(VpshellError, match="^atom words are identical$"):
        first_word_difference(a, a, 3, 2)


@pytest.mark.parametrize("a, b", [((1, 2, 3), (1, 2, 3, 4)),
                                  ((1, 2, 3, 4), (1, 2, 3)),
                                  ((1, 2), (1, 2))])
def test_first_word_difference_refuses_words_of_the_wrong_length(a, b):
    # a prefix once read as equal words, and short words as a bare
    # IndexError
    with pytest.raises(VpshellError,
                       match=r"^lengths \d+ and \d+, expected 3$"):
        first_word_difference(a, b, 3, 1)


def test_cover_label_bottom_edge():
    bot = bottom_element(3, 1)
    atom = canonicalize(3, 1, [(1,), (2,), (3,)], [[(1,), (2,), (3,)]])
    # identity word is the first atom
    assert cover_label(bot, atom) == (2, 2, 0)
    last = canonicalize(3, 1, [(1,), (2,), (3,)], [[(3,), (2,), (1,)]])
    assert cover_label(bot, last) == (2, 7, 0)


def test_cover_label_same_atom_edge():
    x = canonicalize(3, 1, [(1,), (2,), (3,)], [[(1,), (2,), (3,)]])
    y = canonicalize(3, 1, [(1, 2), (3,)], [[(1, 2), (3,)]])
    assert cover_label(x, y) == (3, 2, 0)
    z = canonicalize(3, 1, [(1,), (2, 3)], [[(1,), (2, 3)]])
    assert cover_label(x, z) == (3, 3, 0)


def test_cover_label_rejects_non_cover():
    x = canonicalize(3, 1, [(1,), (2,), (3,)], [[(1,), (2,), (3,)]])
    with pytest.raises(VpshellError, match=re.escape(
            f"{x} <. {top_element(3, 1)} fails")):
        cover_label(x, top_element(3, 1))


def test_golden_chain_labels_s2():
    labels = chain_label(golden_chain_s2())
    assert labels == ((4, 4396, 0), (4, 2, 3), (2, 1, 1), (1, 2, 3), (1, 1, 1))
    assert is_weakly_decreasing(labels)


def test_golden_chain_labels_s1():
    labels = chain_label(golden_chain_s1())
    assert labels == ((4, 117, 0), (2, 1, 3), (2, 1, 1), (1, 1, 2), (1, 1, 1))
    assert is_weakly_decreasing(labels)


def test_monotonicity_predicates():
    assert is_increasing(((1, 1, 1), (1, 1, 2), (2, 0, 0)))
    assert not is_increasing(((1, 1, 1), (1, 1, 1)))
    assert is_weakly_decreasing(((1, 1, 1), (1, 1, 1)))
    assert is_weakly_decreasing(((2, 1, 1), (2, 1, 1), (1, 5, 5)))
    assert not is_weakly_decreasing(((1, 1, 1), (1, 1, 2)))
    assert is_increasing(()) and is_weakly_decreasing(())


def test_merge_max_label_partition_lattice():
    # the lattice labels each cover with the max of the two merged blocks
    def label(lat, x, y):
        return label_map(lat)[(lat.elements.index(x), lat.elements.index(y))]

    lat = set_partition_lattice(3)
    x = ((1,), (2,), (3,))
    assert label(lat, x, ((1, 2), (3,))) == 2
    assert label(lat, x, ((1, 3), (2,))) == 3
    lat = set_partition_lattice(4)
    assert label(lat, ((1, 2), (3, 4)), ((1, 2, 3, 4),)) == 4
    assert set(label_map(lat)) == set(covers(lat))


def test_verify_el_on_partition_lattice():
    # the classical max-merge labeling of the plain partition lattice
    assert verify_el(set_partition_lattice(4)).ok


def test_verify_el_small_posets(p2s1, p3s1, p2s2, p3s2):
    for p in (p2s1, p3s1, p2s2, p3s2):
        assert verify_el(p).ok


def test_verify_el_flags_bad_labeling():
    # labeling a diamond with equal labels on both chains: two increasing
    p = build_poset("0ab1", [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")])
    rep = verify_el(replace(p, up_labels=tuple((1,) * len(his)
                                               for his in p.up)))
    assert not rep.ok
    assert "increasing" in rep.counterexample[2]


def test_verify_el_reports_the_least_failing_index():
    # listed along a linear extension, the branch a, b, t, h comes before
    # c, d, u, v.  [0, t] passes, with the one increasing word (1, 2);
    # [0, h] extends both its words by 1 and has none.  [0, u] has two,
    # (1, 2) and (1, 3).  The scan meets u at rank 2 before h at rank 3,
    # but h, incomparable to u, has the smaller index and is reported
    p = build_poset("0abthcduv1", [
        ("0", "a"), ("0", "b"), ("a", "t"), ("b", "t"), ("t", "h"),
        ("0", "c"), ("0", "d"), ("c", "u"), ("d", "u"), ("u", "v"),
        ("h", "1"), ("v", "1")])
    i = {k: t for t, k in enumerate(p.elements)}
    labels = {(i[lo], i[hi]): label for lo, hi, label in [
        ("0", "a", 1), ("a", "t", 2), ("0", "b", 3), ("b", "t", 2),
        ("t", "h", 1), ("0", "c", 1), ("c", "u", 2), ("0", "d", 1),
        ("d", "u", 3), ("u", "v", 4), ("h", "1", 5), ("v", "1", 5)]}
    assert (p.ranks[i["h"]], p.ranks[i["u"]]) == (3, 2) and i["h"] < i["u"]
    rep = verify_el(replace(p, up_labels=aligned_labels(p, labels)))
    assert rep.counterexample == (0, i["h"], "0 increasing chains")
    assert rep == el_by_chain_enumeration(p, labels)

    # [0, t] has two increasing words, (1, 2) and (1, 3), and [0, y] has
    # two as well, (1, 2, 4) and (1, 3, 4).  Trusting [0, t] to have one
    # increasing chain, its least word, counts one at y; t lies below y,
    # so t has the smaller index and is reported, and y's count is moot
    p = build_poset("0abty1", [("0", "a"), ("0", "b"), ("a", "t"),
                               ("b", "t"), ("t", "y"), ("y", "1")])
    i = {k: t for t, k in enumerate(p.elements)}
    labels = {(i[lo], i[hi]): label for lo, hi, label in [
        ("0", "a", 1), ("a", "t", 2), ("0", "b", 1), ("b", "t", 3),
        ("t", "y", 4), ("y", "1", 5)]}
    rep = verify_el(replace(p, up_labels=aligned_labels(p, labels)))
    assert rep.counterexample == (0, i["t"], "2 increasing chains")
    assert rep == el_by_chain_enumeration(p, labels)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_verify_el_matches_chain_enumeration_oracle(data):
    # random labels from a small alphabet make ties, intervals without an
    # increasing chain and intervals with several all common; the honest
    # table with a few labels moved makes failures above the bottom; the
    # built posets index elements by rank, so relisting them along a
    # random linear extension interleaves the ranks and lets the least
    # failing index differ from the first failure found by rank
    name = data.draw(st.sampled_from(sorted(_EL_POSETS)), label="poset")
    p = _EL_POSETS[name]
    if data.draw(st.booleans(), label="relist along a linear extension"):
        below = [set() for _ in p.elements]
        for lo, hi in covers(p):
            below[hi].add(lo)
        order, placed = [], set()
        while len(order) < len(p):
            # any element whose lower covers are all placed comes next
            t = data.draw(st.sampled_from([
                t for t in range(len(p))
                if t not in placed and below[t] <= placed]))
            order.append(t)
            placed.add(t)
        to = {t: i for i, t in enumerate(order)}
        moved = {(to[lo], to[hi]): label
                 for (lo, hi), label in label_map(p).items()}
        p = poset_from_pairs([p.elements[t] for t in order], moved)
    pairs = covers(p)
    if data.draw(st.booleans(), label="random labels"):
        alphabet = st.integers(1, data.draw(st.integers(1, 3)))
        labels = dict(zip(pairs, data.draw(st.lists(
            alphabet, min_size=len(pairs), max_size=len(pairs)))))
    else:
        labels = label_map(p)
        values = sorted(set(labels.values()))
        for _ in range(data.draw(st.integers(0, 3), label="moved")):
            labels[data.draw(st.sampled_from(pairs))] = \
                data.draw(st.sampled_from(values))
    assert verify_el(replace(p, up_labels=aligned_labels(p, labels))) == \
        el_by_chain_enumeration(p, labels)


@pytest.mark.parametrize("n, s, swapped, merged", [
    (3, 4, 1297, 1540),
    (4, 2, 577, 1441),
    (5, 1, 121, 721),
])
def test_sabotage_counterexamples_are_pinned(n, s, swapped, merged):
    # values from el_by_chain_enumeration on the same labels
    p = vector_partition_poset(n, s)
    rep = verify_el(replace(
        p, up_labels=sabotaged_label_map(p, "swap-bottom-labels")))
    assert rep.counterexample == (
        0, swapped, "increasing chain is not lexicographically first")
    rep = verify_el(replace(
        p, up_labels=sabotaged_label_map(p, "min-merge-label")))
    assert rep.counterexample == (0, merged, "0 increasing chains")


def test_verify_el_enumerates_no_chains(monkeypatch, p3s2):
    # the order complex lists every maximal chain; verify_el builds none,
    # under whatever name a vpshell module binds order_complex
    calls = count_calls(monkeypatch, order_complex)
    assert verify_el(p3s2).ok
    assert calls == {"order_complex": 0}


@pytest.mark.parametrize("check", [verify_el, verify_label_structure,
                                   lex_order],
                         ids=["verify_el", "verify_label_structure",
                              "lex_shelling_order"])
def test_unlabeled_poset_without_labels_is_refused(check):
    p = build_poset("0ab1", [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")])
    with pytest.raises(VpshellError,
                       match="^the poset carries no edge labels"):
        check(p)


@pytest.mark.parametrize("check", [verify_el, lex_order],
                         ids=["verify_el", "lex_shelling_order"])
def test_labels_missing_a_cover_are_refused(check, p3s1):
    # rows cut short before pairs[20] and before the last cover: the
    # least missing cover is named when the poset carrying them is made,
    # so the check never reads them
    pairs, rows = covers(p3s1), list(p3s1.up_labels)
    lo, hi = pairs[20]
    rows[lo] = rows[lo][:p3s1.up[lo].index(hi)]
    rows[pairs[-1][0]] = rows[pairs[-1][0]][:-1]
    with pytest.raises(VpshellError,
                       match=rf"^cover \({lo}, {hi}\) has no edge label$"):
        check(replace(p3s1, up_labels=tuple(rows)))


@pytest.mark.parametrize("check", [verify_el, lex_order],
                         ids=["verify_el", "lex_shelling_order"])
def test_short_table_is_refused_at_height_1(check):
    # n = 1 has no facet and no interval past its one cover, yet a table
    # of one row for its two elements is bad input
    p = vector_partition_poset(1, 2)
    with pytest.raises(VpshellError, match=r"^1 label lists, 2 elements$"):
        check(replace(p, up_labels=((),)))


@pytest.mark.parametrize("fixture", ["p3s1", "p2s2", "p3s2", "p4s1"])
def test_given_labels_read_as_the_labels_the_poset_carries(fixture, request):
    # every check reads p.up_labels; rows put on the poset by replace or
    # given to build_indexed_poset give the same results, honest or
    # sabotaged
    p = request.getfixturevalue(fixture)
    for labels in (aligned_labels(p, label_map(p)),
                   sabotaged_label_map(p, "min-merge-label"),
                   sabotaged_label_map(p, "swap-bottom-labels")):
        q = replace(p, up_labels=labels)
        for check in (verify_el, lex_order, verify_label_structure):
            assert check(q) == check(
                build_indexed_poset(p.elements, p.up, labels))
    assert not verify_el(q).ok


def test_default_labels_are_read_not_recomputed(monkeypatch):
    from vpshell import labeling, vecpart

    def refuse(*args):
        raise AssertionError("a known cover was proved again")

    monkeypatch.setattr(labeling, "is_cover", refuse)
    monkeypatch.setattr(vecpart, "is_leq", refuse)
    p = vector_partition_poset(3, 2)
    assert verify_el(p).ok
    assert not any(verify_label_structure(p).values())
    assert sabotaged_label_map(p, "drop-tie-break") == p.up_labels


def test_verify_label_structure_clean(p3s1, p2s2):
    for p in (p3s1, p2s2):
        bad = verify_label_structure(p)
        assert all(not v for v in bad.values())


def test_verify_label_structure_sees_defects(p3s1):
    # corrupt one atom-changing edge so j names the lower entry instead
    # of the upper one; conditions (3) and (5) must both object, and (5)
    # report what the chain-enumerating oracle reports
    p, els = p3s1, decoded(p3s1)
    lab = label_map(p)
    for (lo, hi), (k, i, j) in sorted(lab.items()):
        x, y = els[lo], els[hi]
        if lo != p.bottom and atom_word(x) != atom_word(y):
            pos = (i - 1) * x.n + (k - 1)
            lab[(lo, hi)] = (k, i, atom_word(x)[pos])
            break
    rows = aligned_labels(p, lab)
    bad = verify_label_structure(build_indexed_poset(p.elements, p.up, rows))
    assert bad[3] and bad[5]
    assert bad[5] == first_difference_failures_by_chains(p, rows)


def test_verify_label_structure_sees_a_rising_atom_word():
    # condition (1): the middle cover goes from atom word 12 up to 21
    low = canonicalize(2, 1, [[1], [2]], [[[1], [2]]])
    high = canonicalize(2, 1, [[1], [2]], [[[2], [1]]])
    p = build_indexed_poset(
        map(record, [bottom_element(2, 1), low, high, top_element(2, 1)]),
        [(1,), (2,), (3,), ()], [((1, 2, 0),), ((1, 1, 2),), ((1, 1, 1),), ()])
    assert verify_label_structure(p)[1] == [f"{low} <. {high} but atom "
                                            "words rise"]


def test_verify_label_structure_sees_a_rising_chain_change_words(p3s1):
    # condition (2): relabel every atom-changing cover (k, i, j) as
    # (n, i, j), above each bottom edge's (n - 1, s + m, 0), so that an
    # increasing chain leaves an atom by a cover that changes its word
    p = p3s1
    words = [None if e.is_bottom else atom_word(e) for e in decoded(p)]
    rows = tuple(tuple(
        (3,) + label[1:] if lo != p.bottom and words[lo] != words[hi]
        else label for hi, label in zip(his, labs))
        for lo, (his, labs) in enumerate(zip(p.up, p.up_labels)))
    bad = verify_label_structure(
        build_indexed_poset(p.elements, p.up, rows))[2]
    assert len(bad) == 5
    assert all("then changes atom word stepping to" in t for t in bad)


@pytest.mark.parametrize("change", [
    lambda k, i, j: (4, 0, 0),  # k in no block
    lambda k, i, j: (1, 1, 9),  # j in no label set
    lambda k, i, j: (k, 0, j),  # i = 0 once read the last labeling
    lambda k, i, j: (k, 2, j),  # i = 2 > s once indexed past the word
], ids=["k-in-no-block", "j-in-no-set", "i-zero", "i-above-s"])
def test_verify_label_structure_reports_labels_naming_no_block(change, p3s1):
    # conditions (3) and (4): every atom-changing cover relabelled so
    # that its label names no position or no pair of blocks is reported,
    # neither raised nor passed
    p = p3s1
    words = [None if e.is_bottom else atom_word(e) for e in decoded(p)]
    rows = tuple(tuple(
        change(*label) if lo != p.bottom and words[lo] != words[hi]
        else label for hi, label in zip(his, labs))
        for lo, (his, labs) in enumerate(zip(p.up, p.up_labels)))
    bad = verify_label_structure(build_indexed_poset(p.elements, p.up, rows))
    assert len(bad[3]) == len(bad[4]) == 5
    assert all("fails the entry comparison" in t for t in bad[3])
    assert all("does not name the merged blocks" in t for t in bad[4])


@pytest.mark.parametrize("n, s", [(3, 1), (4, 1), (3, 2), (5, 1), (4, 2),
                                  (3, 3)])
def test_first_difference_law_matches_chain_enumeration(n, s):
    # honest labels pass; lowering the label of every atom-changing
    # cover with j > 1 gives more failures than the cap, reported in
    # the same (x, y) order as enumerating each interval's chains
    p = vector_partition_poset(n, s)
    assert verify_label_structure(p)[5] == [] == \
        first_difference_failures_by_chains(p, p.up_labels)
    if (n, s) in ((3, 1), (3, 2)):
        words = [None if e.is_bottom else atom_word(e) for e in decoded(p)]
        rows = tuple(tuple(
            (k, i, j - 1) if lo != p.bottom and j > 1
            and words[lo] != words[hi] else (k, i, j)
            for hi, (k, i, j) in zip(his, labs))
            for lo, (his, labs) in enumerate(zip(p.up, p.up_labels)))
        bad = verify_label_structure(
            build_indexed_poset(p.elements, p.up, rows))[5]
        assert len(bad) == 5
        assert bad == first_difference_failures_by_chains(p, rows)


def test_lex_shelling_order_words_are_sorted(p3s1):
    # words from cover_label on the element keys, not from the table
    keys, ends = decoded(p3s1), (p3s1.bottom, p3s1.top)
    words = [chain_label([keys[t] for t in (ends[0], *f, ends[1])])
             for f in lex_order(p3s1)]
    assert words == sorted(words)
    assert len(words) == 18


@pytest.mark.parametrize("fixture", ["p3s1", "p3s2", "p4s1", "p4s2"])
def test_lex_shelling_order_matches_pair_sort(fixture, request):
    # the stable sort of the walked chains breaks word ties in chain
    # order, as sorting (word, chain) pairs does, under the honest labels
    # and under each label sabotage
    p = request.getfixturevalue(fixture)
    c = order_complex(p)
    for labels in (p.up_labels,
                   sabotaged_label_map(p, "swap-bottom-labels"),
                   sabotaged_label_map(p, "min-merge-label")):
        assert lex_shelling_order(replace(p, up_labels=labels), c) == \
            [f for _, f in shelling_order_by_pairs(p, label_map(p, labels))]
    first = {}
    for word, f in shelling_order_by_pairs(p, label_map(p)):
        first.setdefault(word, f)
    assert sabotaged_shelling_order(p, c, "drop-tie-break") == \
        list(first.values())


def test_sabotaged_orders_at_n_1_are_empty():
    # height 1: no facet to order, one atom, no tie to drop
    p = vector_partition_poset(1, 1)
    assert sabotaged_shelling_order(p, order_complex(p),
                                    "drop-tie-break") == []
    assert sabotaged_label_map(p, "swap-bottom-labels") == p.up_labels


def test_lex_shelling_two_atom_case(p2s1):
    # two single-vertex facets; the identity atom's chain comes first
    order = lex_order(p2s1)
    assert len(order) == 2
    (first,) = order[0]
    assert atom_word(decoded(p2s1)[first]) == (1, 2)


def test_chain_label_single_cover():
    a = canonicalize(2, 1, [(1,), (2,)], [[(1,), (2,)]])
    assert chain_label((a, top_element(2, 1))) == ((2, 2, 0),)
    with pytest.raises(VpshellError, match=re.escape(
            f"BOTTOM <. {top_element(3, 1)} fails")):
        chain_label((bottom_element(3, 1), top_element(3, 1)))


def test_shelling_orders_are_the_complex_facets_as_tuples(p3s2, p4s1):
    # one face format: ascending vertex tuples, facets and orders alike;
    # an order holds the complex's own facet objects, made once
    for p in (p3s2, p4s1):
        c = order_complex(p)
        order = lex_shelling_order(p, c)
        merged = sabotaged_shelling_order(sabotaged(p, "min-merge-label"),
                                          c, "min-merge-label")
        for faces in (c.facets, order, merged):
            assert all(type(f) is tuple for f in faces)
        assert sorted(order) == list(c.facets)
        made = {id(f) for f in c.facets}
        for name in SABOTAGES:
            assert all(id(f) in made for f in sabotaged_shelling_order(
                sabotaged(p, name), c, name)), name


def test_lex_shelling_order_is_valid(p3s1):
    c = order_complex(p3s1)
    rep = verify_shelling(c, lex_shelling_order(p3s1, c))
    assert rep.valid
    assert len(rep.homology_facets) == 4


def test_lex_shelling_order_p42(p4s1):
    c = order_complex(p4s1)
    rep = verify_shelling(c, lex_shelling_order(p4s1, c))
    assert rep.valid
    assert len(rep.homology_facets) == 33


def test_lex_shelling_certifies_large_sizes(p4s2, p5s1):
    # the homology facets count the spheres of the wedge
    for p, n, s, spheres in ((p4s2, 4, 2, 1899), (p5s1, 5, 1, 456)):
        c = order_complex(p)
        rep = verify_shelling(c, lex_shelling_order(p, c))
        assert rep.valid
        assert len(rep.homology_facets) == count_total(n, s) == spheres


def test_sabotaged_orders_at_4_2(p4s2):
    c = order_complex(p4s2)
    swapped = sabotaged_shelling_order(
        sabotaged(p4s2, "swap-bottom-labels"), c, "swap-bottom-labels")
    rep = verify_shelling(c, swapped)
    assert not rep.valid and rep.failing_index == 18
    assert shelling_by_intersections(c, swapped) == rep
    # min-merge-label still shells: only the EL check catches it
    rep = verify_shelling(c, sabotaged_shelling_order(
        sabotaged(p4s2, "min-merge-label"), c, "min-merge-label"))
    assert rep.valid
    assert len(rep.homology_facets) == 1899


def test_sabotages_are_detected(p3s1):
    p = p3s1
    c = order_complex(p)
    for name in SABOTAGES:
        q = sabotaged(p, name)
        el_ok = verify_el(q).ok
        shell_ok = verify_shelling(
            c, sabotaged_shelling_order(q, c, name)).valid
        assert not (el_ok and shell_ok), name


def test_sabotage_swap_bottom_changes_two_edges(p3s1):
    honest = label_map(p3s1)
    swapped = label_map(p3s1, sabotaged_label_map(p3s1, "swap-bottom-labels"))
    diff = {e for e in honest if honest[e] != swapped[e]}
    assert len(diff) == 2
    assert all(e[0] == p3s1.bottom for e in diff)


@pytest.mark.parametrize("fixture", ["p3s1", "p3s2", "p4s2"])
def test_sabotage_min_merge_matches_the_decoded_elements(fixture, request):
    # the sabotage reads blocks off the keys; from the decoded elements,
    # each cover that keeps the atom word merges two blocks of its lower
    # end, and its label (n, max, 0) becomes (n, min, 0) of their union
    p = request.getfixturevalue(fixture)
    els = decoded(p)
    n = els[p.top].n
    want = {}
    for (lo, hi), label in label_map(p).items():
        x, y = els[lo], els[hi]
        if not x.is_bottom and atom_word(x) == atom_word(y):
            merged = [b for b in x.blocks if b not in y.blocks]
            assert len(merged) == 2
            assert label == (n, max(map(max, merged)), 0)
            label = (n, min(map(min, merged)), 0)
        want[(lo, hi)] = label
    assert label_map(p, sabotaged_label_map(p, "min-merge-label")) == want
    assert want != label_map(p)


def test_sabotage_drop_tie_break_loses_facets(p3s1):
    c = order_complex(p3s1)
    full = lex_shelling_order(p3s1, c)
    dropped = sabotaged_shelling_order(p3s1, c, "drop-tie-break")
    assert len(dropped) < len(full)


def test_unknown_sabotage_name(p3s1):
    with pytest.raises(VpshellError,
                       match="^unknown sabotage 'no-such-defect'$"):
        sabotaged_label_map(p3s1, "no-such-defect")


def test_unknown_sabotage_name_is_refused_by_the_shelling_order(p3s1):
    # the poset already carries its labels, so the name is checked here
    with pytest.raises(VpshellError,
                       match="^unknown sabotage 'no-such-defect'$"):
        sabotaged_shelling_order(p3s1, order_complex(p3s1), "no-such-defect")
