"""Labeled partitions: construction, order, enumeration, atom words."""
import gc
import re
from itertools import permutations
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from vpshell import vecpart
from vpshell.complexes import order_complex
from vpshell.errors import ResourceLimit, VpshellError
from vpshell.labeling import cover_label
from vpshell.poset import mobius
from vpshell.vecpart import (VectorPartition, atom_lex_rank, atom_word,
                             bottom_element, canonicalize, check_atom_word,
                             decode, element_count, element_texts,
                             enumerate_elements, format_element, is_cover,
                             is_leq, maximal_chain_count, merge_blocks,
                             perm_lex_rank, set_partitions, top_element,
                             vector_partition_poset)
from conftest import (covers, decoded, decoded_elements,
                      elements_by_permutations, format_element_by_joins, leq,
                      merge_blocks_by_sorting, poset_from_element_covers,
                      record, set_partition_lattice, sorted_word_rank, up_set)

ORACLE_SIZES = [(1, 1), (2, 1), (3, 1), (2, 2), (3, 2), (4, 1), (3, 3),
                (4, 2)]


def test_canonicalize_sorts_blocks_with_labels():
    v = canonicalize(3, 1, [(2, 3), (1,)], [[(1, 3), (2,)]])
    assert v.blocks == ((1,), (2, 3))
    assert v.labels == (((2,), (1, 3)),)


def test_canonicalize_is_idempotent():
    v = canonicalize(4, 2, [(1, 4), (2, 3)],
                     [[(2, 4), (1, 3)], [(1, 2), (3, 4)]])
    w = canonicalize(v.n, v.s, v.blocks, v.labels)
    assert v == w


def test_canonicalize_rejects_bad_partition():
    with pytest.raises(VpshellError,
                       match=re.escape("blocks do not partition 1..3")):
        canonicalize(3, 1, [(1, 2)], [[(1, 2)]])          # 3 missing
    with pytest.raises(VpshellError,
                       match=re.escape("blocks do not partition 1..3")):
        canonicalize(3, 1, [(1, 2), (2, 3)], [[(1, 2), (2, 3)]])
    with pytest.raises(VpshellError,
                       match=re.escape("labeling 1 do not partition 1..3")):
        canonicalize(3, 1, [(1, 2, 3)], [[(1, 2, 4)]])    # label not in {1..3}


@pytest.mark.parametrize("blocks,labels", [
    ([[True]], [[[1]]]),
    ([[1]], [[[True]]]),
    ([[1.0]], [[[1]]]),
    ([[None]], [[[1]]]),
])
def test_canonicalize_rejects_entries_that_are_not_ints(blocks, labels):
    with pytest.raises(VpshellError, match="is not an int$"):
        canonicalize(1, 1, blocks, labels)


def test_canonicalize_rejects_size_mismatch():
    with pytest.raises(VpshellError, match=re.escape(
            "label (1,) has size 1, block (1, 2) has size 2")):
        canonicalize(3, 1, [(1, 2), (3,)], [[(1,), (2, 3)]])
    with pytest.raises(VpshellError, match="^expected 2 labelings, got 1$"):
        canonicalize(3, 2, [(1, 2, 3)], [[(1, 2, 3)]])    # one labeling short


def test_rank_and_atoms(p3s1):
    atom = canonicalize(3, 1, [(1,), (2,), (3,)], [[(2,), (3,), (1,)]])
    assert atom.is_atom and not top_element(3, 1).is_atom
    assert not bottom_element(3, 1).is_atom
    # the poset's ranks: 0 at the bottom, n - #blocks + 1 above it
    assert p3s1.ranks[p3s1.bottom] == 0 and p3s1.height == 3
    els = decoded(p3s1)
    assert all(p3s1.ranks[t] == 4 - v.num_blocks
               for t, v in enumerate(els) if not v.is_bottom)
    assert p3s1.ranks[els.index(atom)] == 1


def test_format_element_pinned():
    v = canonicalize(4, 2, [(1, 4), (2, 3)],
                     [[(2, 4), (1, 3)], [(1, 2), (3, 4)]])
    assert format_element(v) == "{1,4}{2,3}|{2,4}{1,3}|{1,2}{3,4}"
    assert format_element(bottom_element(4, 2)) == "BOTTOM"


def test_format_element_matches_the_joining_oracle():
    els = [v for n, s in ((3, 2), (4, 2), (5, 1))
           for v in decoded_elements(n, s)]
    ten = canonicalize(10, 2, [(1, 10), (2, 3, 4, 5, 6, 7, 8, 9)],
                       [[(9, 10), (1, 2, 3, 4, 5, 6, 7, 8)],
                        [(3, 7), (1, 2, 4, 5, 6, 8, 9, 10)]])
    els += [ten, top_element(10, 1), bottom_element(10, 2)]
    sets = {b for v in els for part in (v.blocks, *v.labels) for b in part}
    seen = len(vecpart._SET_TEXT)
    first = [format_element(v) for v in els]
    assert first == [format_element_by_joins(v) for v in els]
    assert str(ten) == "{1,10}{2,3,4,5,6,7,8,9}|{9,10}{1,2,3,4,5,6,7,8}" \
        "|{3,7}{1,2,4,5,6,8,9,10}"
    # once the memo holds every set, the texts stay the same, and it
    # holds one string per distinct set, nothing per element
    assert [str(v) for v in els] == first
    assert len(vecpart._SET_TEXT) - seen <= len(sets) < len(els)


def test_is_leq_refinement():
    x = canonicalize(3, 1, [(1,), (2,), (3,)], [[(2,), (1,), (3,)]])
    y = canonicalize(3, 1, [(1, 2), (3,)], [[(1, 2), (3,)]])
    z = canonicalize(3, 1, [(1, 2), (3,)], [[(1, 3), (2,)]])
    assert is_leq(x, y)
    assert not is_leq(x, z)      # blocks fit but label unions differ
    assert is_leq(bottom_element(3, 1), x)
    assert is_leq(x, x)
    assert not is_leq(y, x)
    with pytest.raises(VpshellError, match=re.escape(
            "elements of (n, s) = (3, 1) and (3, 2) compared")):
        is_leq(x, bottom_element(3, 2))


def test_is_cover_and_upper_covers():
    x = canonicalize(3, 1, [(1,), (2,), (3,)], [[(2,), (1,), (3,)]])
    ups = [merge_blocks(x, a, b) for a, b in ((0, 1), (0, 2), (1, 2))]
    assert len(ups) == 3
    for u in ups:
        assert is_cover(x, u)
    assert is_cover(bottom_element(3, 1), x)
    assert not is_cover(x, top_element(3, 1))


ATOM_3_1 = canonicalize(3, 1, [(1,), (2,), (3,)], [[(1,), (2,), (3,)]])


@pytest.mark.parametrize("v,a,b", [
    (ATOM_3_1, -1, 0), (ATOM_3_1, 0, 5), (ATOM_3_1, 1, 1),
    (bottom_element(3, 1), 0, 1),
], ids=["below-0", "past-last", "equal", "bottom"])
def test_merge_blocks_refuses_positions_that_are_not_two_blocks(v, a, b):
    # (-1, 0) once merged the last block into the first, leaving five
    # blocks; (0, 5) raised a bare IndexError
    for x, y in ((a, b), (b, a)):
        with pytest.raises(VpshellError,
                           match="are not two distinct positions in"):
            merge_blocks(v, x, y)


@pytest.mark.parametrize("n,s", ORACLE_SIZES)
def test_merge_blocks_splice_matches_sorting_oracle(n, s):
    for v in decoded_elements(n, s)[1:]:
        for a, b in permutations(range(v.num_blocks), 2):
            assert merge_blocks(v, a, b) == merge_blocks_by_sorting(v, a, b)


@pytest.mark.parametrize("n,s", ORACLE_SIZES + [(5, 1), (2, 3), (3, 4)])
def test_labels_born_with_covers_match_cover_label(n, s):
    # up_labels[i][k] labels the cover (i, up[i][k]), as cover_label does
    p = vector_partition_poset(n, s)
    assert p == poset_from_element_covers(n, s)
    keys = decoded(p)
    assert [len(labs) for labs in p.up_labels] == [len(his) for his in p.up]
    for lo, (his, labs) in enumerate(zip(p.up, p.up_labels)):
        assert list(labs) == [cover_label(keys[lo], keys[hi]) for hi in his]
    labels = [label for labs in p.up_labels for label in labs]
    assert len(labels) == len(covers(p))
    assert len({id(v) for v in labels}) == len(set(labels))  # shared


@pytest.mark.parametrize("n,s", [(4, 2), (5, 1)])
def test_rows_share_one_int_per_index(n, s):
    # a row holds the int object of each index that every other row
    # holds, not a fresh int per cover
    p = vector_partition_poset(n, s)
    assert len({id(i) for row in p.up for i in row}) <= len(p.elements)


@pytest.mark.parametrize("n,s", [(1, 1), (3, 2), (4, 1)])
def test_poset_holds_no_mapping(n, s):
    # the covers and their labels are tuples aligned with one another,
    # held once: no record of the covers keyed by (lo, hi), none of the
    # lower covers beside up; bottom and top are the first and last
    # indices, read off the length
    from collections.abc import Mapping
    from dataclasses import fields
    p = vector_partition_poset(n, s)
    assert [f.name for f in fields(p)] == [
        "elements", "up", "ranks", "up_labels"]
    assert (p.bottom, p.top) == (0, len(p) - 1)
    for f in fields(p):
        value = getattr(p, f.name)
        assert not isinstance(value, Mapping), f.name
        if isinstance(value, tuple) and value \
                and isinstance(value[0], tuple):
            assert all(type(row) is tuple for row in value), f.name


def test_set_partitions_counts():
    # Bell numbers 1, 2, 5, 15, 52, 203; each partition canonical, as
    # canonicalize (which also checks it partitions 1..n) leaves it, and
    # none listed twice
    for n, bell in [(1, 1), (2, 2), (3, 5), (4, 15), (5, 52), (6, 203)]:
        parts = set_partitions(n)
        assert len(parts) == len(set(parts)) == bell
        for blocks in parts:
            assert canonicalize(n, 1, blocks, [blocks]).blocks == blocks


def test_enumerate_counts_match_formula():
    for n, s in [(2, 1), (3, 1), (4, 1), (2, 2), (3, 2), (2, 3)]:
        els = decoded_elements(n, s)
        assert len(els) == element_count(n, s)
        atoms = [e for e in els if e.is_atom]
        assert len(atoms) == factorial(n) ** s


@pytest.mark.parametrize("n,s", [(3, 2), (3, 4), (4, 2), (5, 1), (6, 1)])
def test_elements_are_generated_in_canonical_order(n, s):
    els = enumerate_elements(n, s)
    assert els[0] == ((), ()) and decode(els[0], n, s).is_bottom
    assert els[1:] == sorted(els[1:], key=lambda r: (-len(r[0]), r[0], r[1]))
    assert len(set(els)) == len(els) == element_count(n, s)


@pytest.mark.parametrize("n,s", [(n, s) for n in (1, 2, 3)
                                 for s in (1, 2, 3, 4)] + [(4, 2), (5, 1)])
def test_poset_keys_are_records_of_the_elements_in_index_order(n, s):
    # each key is the (blocks, labels) record of the element at its
    # index, the bottom's ((), ()), as an oracle that never calls
    # enumerate_elements lists them
    p = vector_partition_poset(n, s)
    want = elements_by_permutations(n, s)
    assert p.elements[p.bottom] == ((), ())
    assert list(p.elements) == [record(v) for v in want]
    assert [decode(k, n, s) for k in p.elements] == want == decoded(p)


@pytest.mark.parametrize("n,s", [(1, 3), (3, 2), (3, 4), (4, 2), (5, 1)])
def test_element_texts_are_the_decoded_elements_formatted(n, s):
    p = vector_partition_poset(n, s)
    els = decoded(p)
    texts = list(element_texts(p.elements))
    assert texts[0] == "BOTTOM"
    assert texts == [format_element(v) for v in els]
    assert texts == [format_element_by_joins(v) for v in els]


@pytest.mark.parametrize("enabled", [True, False])
def test_construction_leaves_the_collector_as_it_found_it(enabled,
                                                          monkeypatch):
    # construction runs with the cyclic collector paused, and gives the
    # caller's state back, also when it raises
    seen, honest = [], vecpart.build_indexed_poset

    def build(*args):
        seen.append(gc.isenabled())
        return honest(*args)

    monkeypatch.setattr(vecpart, "build_indexed_poset", build)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        vector_partition_poset(3, 2)
        assert gc.isenabled() is enabled
        with pytest.raises(VpshellError, match="n and s must be at least 1"):
            vector_partition_poset(0, 1)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == [False]


def test_enumerate_known_sizes():
    assert element_count(2, 2) == 6  # bottom + 4 atoms + top
    assert element_count(3, 1) == 17
    assert element_count(4, 1) == 132
    assert element_count(3, 2) == 65
    assert element_count(4, 2) == 1614


def test_single_ground_element_gives_two_chain():
    for s in (1, 2, 3):
        els = decoded_elements(1, s)
        assert len(els) == 2
        assert els[0].is_bottom and els[1] == top_element(1, s)
        p = vector_partition_poset(1, s)
        assert len(p.elements) == 2 and leq(p, p.bottom, p.top)


@pytest.mark.parametrize("n, s", [(3, 0), (1, 0), (0, 1), (2, -1)])
def test_sizes_below_1_are_refused(n, s):
    # s = 0 once failed inside construction with a bare ValueError or
    # IndexError, and n = 0 gave a poset whose top has no blocks;
    # canonicalize once made an element with s = 0 and no atom word, or
    # at n = 0 a non-bottom element with no blocks
    singletons = [(k,) for k in range(1, n + 1)]
    for make in (enumerate_elements, element_count, vector_partition_poset,
                 lambda n, s: vecpart.check_budgets(n, s, None),
                 lambda n, s: canonicalize(n, s, singletons, [singletons] * s)):
        with pytest.raises(VpshellError, match="n and s must be at least 1"):
            make(n, s)


def test_enumerate_budget():
    with pytest.raises(ResourceLimit):
        vecpart.check_budgets(9, 3, 1000)


def test_element_budget_stops_at_the_first_count_over_it(monkeypatch):
    # E_m never falls, so a budget below 1 + E_m refuses the poset at m;
    # summing every term up to n = 1000 would call comb a million times
    honest, calls = vecpart.comb, []

    def counted(a, b):
        calls.append(1)
        assert len(calls) < 10_000, "the count was summed past the budget"
        return honest(a, b)

    monkeypatch.setattr(vecpart, "comb", counted)
    with pytest.raises(ResourceLimit, match=r"^poset has at least \d+ "
                       r"elements, budget is 1000000$"):
        vecpart.check_budgets(1000, 1, 10 ** 6)
    with pytest.raises(ResourceLimit, match=r"^poset has 1614 elements, "
                       r"budget is 1613$"):
        vecpart.check_budgets(4, 2, 1613)
    vecpart.check_budgets(4, 2, 1614)
    assert len(enumerate_elements(4, 2)) == 1614


def test_a_huge_s_is_refused_by_its_bound_before_it_is_made(monkeypatch):
    # 1 + E_2 = 2^s + 2: from s = 4096 on, a budget below 2^s refuses it
    # unmade, by the bound; below that, or under a larger budget, the
    # count is made and an over-budget one printed exactly
    def refuse(a, b):  # E_1 = 1 takes comb(0, 0) and comb(1, 1)
        assert a < 2, "E_2 was made"
        return 1

    with monkeypatch.context() as m:
        m.setattr(vecpart, "comb", refuse)
        for n, s, budget in ((2, 4096, 10 ** 6), (3, 10 ** 9, 2 ** 64),
                             (2, 4096, 2 ** 4095)):
            with pytest.raises(ResourceLimit, match=rf"^poset has more "
                               rf"than 2\^{s} elements, budget is {budget}$"):
                vecpart.check_budgets(n, s, budget)
    with pytest.raises(ResourceLimit, match=rf"^poset has {2 ** 4095 + 2} "
                       r"elements, budget is 1000000$"):
        vecpart.check_budgets(2, 4095, 10 ** 6)
    vecpart.check_budgets(2, 5000, 2 ** 5000 + 2)
    with pytest.raises(ResourceLimit, match=rf"^poset has {2 ** 5000 + 2} "
                       rf"elements, budget is {2 ** 5000 + 1}$"):
        vecpart.check_budgets(2, 5000, 2 ** 5000 + 1)


def test_chains_are_charged_only_when_asked_and_the_elements_fit(
        monkeypatch):
    # a refusal on elements never counts the chains, and max_chains=None
    # charges none
    def refuse(n, s):
        raise AssertionError("the maximal chains were counted")

    monkeypatch.setattr(vecpart, "maximal_chain_count", refuse)
    with pytest.raises(ResourceLimit, match=r"^poset has 1614 elements, "
                       r"budget is 1613$"):
        vecpart.check_budgets(4, 2, 1613, 5)
    vecpart.check_budgets(4, 2, 1614)
    vecpart.check_budgets(4, 2, None, None)


def test_maximal_chain_count_formula(p3s1, p3s2):
    assert maximal_chain_count(3, 1) == 18 == len(order_complex(p3s1).facets)
    assert maximal_chain_count(3, 2) == 108 == len(order_complex(p3s2).facets)
    assert maximal_chain_count(4, 1) == 432


@pytest.mark.parametrize("n, s", [(0, 1), (3, 0), (-1, 2)])
def test_maximal_chain_count_refuses_sizes_below_one(n, s):
    # (0, 1) once raised factorial's bare ValueError and (3, 0) gave 3;
    # the chain budget reads it before any poset is built
    from vpshell.spherecount import sphere_count_certificate
    with pytest.raises(VpshellError, match="^n and s must be at least 1$"):
        maximal_chain_count(n, s)
    with pytest.raises(VpshellError, match="^n and s must be at least 1$"):
        sphere_count_certificate(n, s, methods=("enumerate",))


def test_poset_mobius_sign(p2s1, p3s1, p4s1, p2s2, p3s2):
    # |mu| with sign (-1)^n at the full interval
    for n, p, mu in [(2, p2s1, 1), (3, p3s1, -4), (4, p4s1, 33),
                     (2, p2s2, 3), (3, p3s2, -46)]:
        assert mobius(p) == mu
        assert mu == (-1) ** n * abs(mu)


def test_atom_word_anchor():
    v = canonicalize(8, 1, [(1, 4, 8), (2, 3, 7), (5, 6)],
                     [[(2, 3, 7), (1, 5, 6), (4, 8)]])
    assert atom_word(v) == (2, 1, 5, 3, 4, 8, 6, 7)
    with pytest.raises(VpshellError, match="^the formal bottom has no atom"):
        atom_word(bottom_element(3, 1))


def test_atom_word_of_atom_is_its_own_word():
    atom = canonicalize(3, 2, [(1,), (2,), (3,)],
                        [[(2,), (3,), (1,)], [(3,), (1,), (2,)]])
    assert atom_word(atom) == (2, 3, 1, 3, 1, 2)


def test_atom_word_is_lex_least_atom_below():
    # A(x) is the word of the earliest atom below x, and that atom really
    # does sit below x.  Exhaustive over the whole small range.
    for n in (1, 2, 3, 4):
        for s in (1, 2):
            els = decoded_elements(n, s)
            atoms = {atom_word(a): a for a in els
                     if a.is_atom}
            for x in els:
                if x.is_bottom:
                    continue
                w = atom_word(x)
                assert w == min(aw for aw, a in atoms.items() if is_leq(a, x))
                assert is_leq(atoms[w], x)


def test_top_atom_word_is_identity_repeated():
    for n, s in ((3, 1), (2, 3), (4, 2)):
        assert atom_word(top_element(n, s)) == tuple(range(1, n + 1)) * s


def test_identity_word_ranks_first():
    assert atom_lex_rank(tuple(range(1, 6)), 5, 1) == 1
    assert atom_lex_rank((1, 2, 3, 1, 2, 3), 3, 2) == 1


def test_check_atom_word_rejects_junk():
    with pytest.raises(VpshellError, match=re.escape(
            "segment 1 is not a permutation of 1..3")):
        check_atom_word((1, 2, 2), 3, 1)
    with pytest.raises(VpshellError, match="^length 4, expected 3$"):
        check_atom_word((1, 2, 3, 1), 3, 1)


def test_perm_lex_rank_brute():
    for n in (2, 3, 4):
        ranked = sorted(permutations(range(1, n + 1)))
        for r, q in enumerate(ranked):
            assert perm_lex_rank(q) == r


def test_atom_lex_rank_anchors():
    assert perm_lex_rank((2, 4, 1, 3, 5)) == 36
    assert perm_lex_rank((4, 1, 2, 5, 3)) == 73
    assert perm_lex_rank((5, 4, 1, 3, 2)) == 115
    assert atom_lex_rank((5, 4, 1, 3, 2), 5, 1) == 116
    assert atom_lex_rank((2, 4, 1, 3, 5, 4, 1, 2, 5, 3), 5, 2) == 4394


def test_atom_lex_rank_against_sorting_oracle():
    for n, s in [(3, 1), (3, 2), (4, 1)]:
        els = decoded_elements(n, s)
        for e in els:
            if e.is_atom:
                w = atom_word(e)
                assert atom_lex_rank(w, n, s) == sorted_word_rank(w, n, s)


def test_atom_lex_rank_is_monotone_bijection():
    # ranks of all atoms, in word order, are exactly 1..(n!)^s
    n, s = 3, 2
    words = sorted(atom_word(e) for e in decoded_elements(n, s)
                   if e.is_atom)
    assert [atom_lex_rank(w, n, s) for w in words] == \
        list(range(1, factorial(n) ** s + 1))


@given(st.permutations(list(range(1, 7))))
def test_perm_rank_hypothesis_bounds(q):
    r = perm_lex_rank(tuple(q))
    assert 0 <= r < factorial(6)
    assert (r == 0) == (list(q) == sorted(q))


@settings(max_examples=50)
@given(st.permutations(list(range(1, 6))), st.permutations(list(range(1, 6))))
def test_atom_rank_respects_lex_order(a, b):
    wa, wb = tuple(a), tuple(b)
    if wa < wb:
        assert atom_lex_rank(wa, 5, 1) < atom_lex_rank(wb, 5, 1)


def test_atom_words_fall_going_up(p3s2):
    # comparable elements order their atom words the other way around
    p, els = p3s2, decoded(p3s2)
    for (lo, hi) in covers(p):
        if lo == p.bottom:
            continue
        assert atom_word(els[hi]) <= atom_word(els[lo])


def test_same_atom_interval_is_partition_lattice():
    # [atom, top] with matching words mirrors the plain partition lattice:
    # compare zeta matrices under the canonical order isomorphism
    n, s = 3, 2
    p = vector_partition_poset(n, s)
    lat, els = set_partition_lattice(n), decoded(p)
    atom = next(t for t in p.up[p.bottom]
                if atom_word(els[t]) == tuple(range(1, n + 1)) * s)
    inside = sorted([t for t in up_set(p, atom) if leq(p, t, p.top)],
                    key=lambda t: (p.ranks[t], els[t].blocks, els[t].labels))
    assert len(inside) == len(lat.elements)

    def blocks_of(t):
        return els[t].blocks

    index = {k: t for t, k in enumerate(lat.elements)}
    match = {t: index[blocks_of(t)] for t in inside}
    for a in inside:
        for b in inside:
            assert leq(p, a, b) == leq(lat, match[a], match[b])


def _projection_matches(p, els, lat, x, y):
    # dropping labels must map [x, y] order-isomorphically onto the
    # partition-lattice interval between the underlying partitions; els
    # holds p's elements decoded
    index = {k: t for t, k in enumerate(lat.elements)}
    inside = [t for t in up_set(p, x) if leq(p, t, y)]
    image = [index[els[t].blocks] for t in inside]
    assert len(set(image)) == len(inside)
    lx = index[els[x].blocks]
    ly = index[els[y].blocks]
    want = [t for t in up_set(lat, lx) if leq(lat, t, ly)]
    assert sorted(image) == want
    for a, qa in zip(inside, image):
        for b, qb in zip(inside, image):
            assert leq(p, a, b) == leq(lat, qa, qb)


def test_every_interval_projects_onto_partition_lattice():
    for n, s in ((2, 1), (3, 1), (2, 2), (3, 2)):
        p = vector_partition_poset(n, s)
        lat, els = set_partition_lattice(n), decoded(p)
        for x in range(len(p.elements)):
            if x == p.bottom:
                continue
            for y in range(len(p.elements)):
                if leq(p, x, y):
                    _projection_matches(p, els, lat, x, y)


def test_top_intervals_project_onto_partition_lattice_n4():
    # checking up to the top pins down every sub-interval as well
    for n, s in ((4, 1), (4, 2)):
        p = vector_partition_poset(n, s)
        lat, els = set_partition_lattice(n), decoded(p)
        for x in range(len(p.elements)):
            if x != p.bottom:
                _projection_matches(p, els, lat, x, p.top)


def test_top_and_bottom_shapes():
    t = top_element(4, 2)
    assert t.blocks == ((1, 2, 3, 4),)
    assert t.labels == (((1, 2, 3, 4),), ((1, 2, 3, 4),))
    b = bottom_element(4, 2)
    assert b.is_bottom and b.blocks == ()


def test_the_bottom_is_the_element_with_no_blocks():
    # is_bottom is read off the blocks, so the defaults make the bottom,
    # and no flag can make an element with blocks compare as one
    v = VectorPartition(2, 1)
    assert v == bottom_element(2, 1) and v.is_bottom and str(v) == "BOTTOM"
    assert not v.is_atom and not is_cover(bottom_element(2, 1), v)
    top = top_element(2, 1)
    assert not top.is_bottom and str(top) == "{1,2}|{1,2}"
    assert not is_leq(top, bottom_element(2, 1))
    with pytest.raises(TypeError):
        VectorPartition(2, 1, top.blocks, top.labels, is_bottom=True)
