"""Sphere counting: dual-route enumeration, recursion, decomposition."""
import re

import pytest

from vpshell.errors import OracleMismatch, ResourceLimit, VpshellError
from vpshell.labeling import chain_label, is_weakly_decreasing
from vpshell.spherecount import (count_by_recursion, count_total,
                                 count_totals, decompose_chain,
                                 decreasing_chains, nonambiguous_tree_count,
                                 recompose, sphere_count_certificate)
from vpshell.vecpart import (VectorPartition, bottom_element, canonicalize,
                             top_element, vector_partition_poset)
from conftest import (count_calls, decoded, decreasing_by_filter,
                      decreasing_by_splitting, indexed_counts_by_comb,
                      poset_from_pairs, top_label_index_counts)

KNOWN = {(2, 1): 1, (3, 1): 4, (4, 1): 33, (2, 2): 3, (3, 2): 46}


def test_both_enumeration_routes_agree():
    # the routes are compared inside decreasing_chains; see
    # test_enumeration_routes_are_compared for a disagreement
    for (n, s), want in KNOWN.items():
        assert len(decreasing_chains(n, s)) == want == count_total(n, s)


def test_decreasing_chains_are_decreasing_and_unique():
    for (n, s) in KNOWN:
        chains = decreasing_chains(n, s)
        assert len(set(chains)) == len(chains)
        for c in chains:
            assert is_weakly_decreasing(chain_label(c))


def test_decreasing_chain_structure():
    # interior elements: blocks before the leftmost non-singleton are
    # exactly {1}, {2}, ... and that block starts at its position index
    for c in decreasing_chains(3, 2):
        for el in c[1:-1]:
            pos = next((t for t, b in enumerate(el.blocks) if len(b) > 1),
                       None)
            if pos is None:
                continue
            assert all(el.blocks[t] == (t + 1,) for t in range(pos))
            assert el.blocks[pos][0] == pos + 1


def test_chain_budget():
    from vpshell import vecpart
    with pytest.raises(ResourceLimit):
        vecpart.check_budgets(9, 3, None, 100)
    # (4,2) has 10,368 maximal chains
    with pytest.raises(ResourceLimit, match=r"^poset has 10368 maximal "
                       r"chains, budget is 10367$"):
        vecpart.check_budgets(4, 2, 1614, 10367)
    vecpart.check_budgets(4, 2, 1614, 10368)


@pytest.mark.parametrize("n, s", [(3, 1), (3, 2), (4, 1), (4, 2), (5, 1),
                                  (3, 4)])
def test_walk_finds_the_chains_the_filter_keeps(n, s):
    # the pruned walk along up and up_labels against the filter over
    # every maximal chain: the same index chains, in the same order
    from vpshell.spherecount import _walked_decreasing
    p = vector_partition_poset(n, s)
    assert _walked_decreasing(p) == decreasing_by_filter(p)


@pytest.mark.parametrize("n, s", [(3, 1), (4, 1), (3, 2), (4, 2), (5, 1),
                                  (3, 4)])
def test_generation_makes_the_chains_every_split_keeps(n, s):
    # only admissible splits are made, as records, against trying every
    # split of every label set and keeping the admissible ones: the same
    # chains, each element as its (blocks, labels) record
    from vpshell.spherecount import _generated_decreasing
    want = sorted(tuple((v.blocks, v.labels) for v in c)
                  for c in decreasing_by_splitting(n, s))
    assert sorted(_generated_decreasing(n, s)) == want
    assert len(want) == count_total(n, s)


def test_walk_keeps_a_chain_that_repeats_a_label():
    # 0 < a < 1 is labelled (1, 1): weakly decreasing with a repeat, so
    # the walk keeps it beside the strictly decreasing 0 < b < 1, and
    # drops the rising 0 < c < 1
    from vpshell.spherecount import _walked_decreasing
    p = poset_from_pairs("0abc1", {(0, 1): 1, (1, 4): 1, (0, 2): 2,
                                   (2, 4): 1, (0, 3): 1, (3, 4): 2})
    chains = _walked_decreasing(p)
    assert chains == decreasing_by_filter(p) == [(0, 1, 4), (0, 2, 4)]
    assert [tuple(p.elements[t] for t in c) for c in chains] == [
        ("0", "a", "1"), ("0", "b", "1")]


@pytest.mark.parametrize("n, s", [(3, 3), (4, 2), (5, 1), (3, 4)])
def test_no_decreasing_chain_repeats_a_label(n, s):
    # so on these posets a walk that stepped only to smaller labels
    # would find the same chains; the walk above tells the two apart
    for chain in decreasing_chains(n, s):
        word = chain_label(chain)
        assert all(a > b for a, b in zip(word, word[1:])), chain


def test_filter_route_comes_out_in_canonical_order(p4s1, p3s2):
    # decreasing_chains sorts only the generated route, relying on this:
    # the index chains ascend, and so do their elements in canonical
    # (rank, blocks, labels) order, the rank falling as blocks merge
    from vpshell.spherecount import _walked_decreasing
    for p in (p4s1, p3s2):
        chains, keys = _walked_decreasing(p), decoded(p)
        assert chains == sorted(chains)
        els = [tuple(keys[t] for t in c) for c in chains]
        assert els == sorted(els, key=lambda c: tuple(
            (-len(v.blocks), v.blocks, v.labels) for v in c))


def test_top_label_classification():
    assert top_label_index_counts(decreasing_chains(2, 2)) == {1: 2, 2: 1}
    assert top_label_index_counts(decreasing_chains(3, 2)) == {1: 36, 2: 10}
    assert top_label_index_counts(decreasing_chains(3, 1)) == {1: 4}


def test_recursion_matches_enumeration():
    for (n, s), want in KNOWN.items():
        assert count_total(n, s) == want
    by_index = {i: count_by_recursion(3, 2, i) for i in (1, 2)}
    assert by_index == {1: 36, 2: 10}
    assert count_by_recursion(2, 2, 1) == 2
    assert count_by_recursion(2, 2, 2) == 1


@pytest.mark.parametrize("s", [1, 2, 3, 4])
def test_recursion_matches_comb_oracle(s):
    want = indexed_counts_by_comb(40, s)
    assert {(n, i): count_by_recursion(n, s, i) for n, i in want} == want


@pytest.mark.parametrize("s", [1, 2, 3, 4])
def test_totals_list_matches_count_total_and_comb_oracle(s):
    by_index = indexed_counts_by_comb(30, s)
    want = [1] + [sum(by_index[(n, i)] for i in range(1, s + 1))
                  for n in range(2, 31)]
    assert count_totals(30, s) == want
    assert [count_total(n, s) for n in range(1, 31)] == want


def test_recursion_base_and_guards():
    assert count_total(1, 1) == 1
    assert count_total(1, 5) == 1
    with pytest.raises(VpshellError, match=re.escape("index 0 outside 1..2")):
        count_by_recursion(3, 2, 0)
    with pytest.raises(VpshellError, match=re.escape("index 3 outside 1..2")):
        count_by_recursion(3, 2, 3)
    with pytest.raises(VpshellError, match="^indexed counts need n >= 2$"):
        count_by_recursion(1, 2, 1)
    for n, s in [(0, 1), (0, 3), (3, 0), (1, 0)]:
        with pytest.raises(VpshellError, match="n and s must be at least 1"):
            count_total(n, s)
    with pytest.raises(VpshellError, match="^m must be non-negative$"):
        nonambiguous_tree_count(-1)
    # at s = 0 the certificate once agreed on 0 spheres by every method
    with pytest.raises(VpshellError, match="^n and s must be at least 1$"):
        sphere_count_certificate(3, 0)


def test_tree_count_sequence():
    assert [nonambiguous_tree_count(m) for m in range(6)] == \
        [1, 1, 4, 33, 456, 9460]
    assert [count_total(n, 1) for n in range(1, 7)] == \
        [1, 1, 4, 33, 456, 9460]


def test_tree_count_at_600_does_not_recurse_deep():
    assert nonambiguous_tree_count(600) > 0
    assert [nonambiguous_tree_count(m) for m in range(6)] == \
        [1, 1, 4, 33, 456, 9460]
    # the single-labeling totals are the tree numbers (another recursion)
    assert all(nonambiguous_tree_count(m) == count_total(m + 1, 1)
               for m in range(60))


def test_larger_cross_check():
    assert count_total(4, 2) == 1899
    assert len(decreasing_chains(4, 2)) == 1899


def test_certificate_structure():
    cert = sphere_count_certificate(3, 1)
    assert cert["match"]
    assert cert["methods"]["enumerate"] == 4
    assert cert["methods"]["recursion"] == 4
    assert cert["methods"]["mobius"] == 4
    assert cert["methods"]["homology"] == 4
    assert cert["methods"]["euler"] == 4
    assert cert["signed_mobius"] == -4


def test_certificate_builds_one_poset_and_no_complex(monkeypatch):
    from vpshell import complexes, vecpart
    calls = count_calls(monkeypatch, vecpart.vector_partition_poset,
                        complexes.order_complex)
    assert sphere_count_certificate(3, 2)["match"]
    assert calls == {"vector_partition_poset": 1, "order_complex": 0}
    assert sphere_count_certificate(3, 2, methods=("recursion",))["match"]
    assert calls == {"vector_partition_poset": 1, "order_complex": 0}
    # Euler counts chains on the poset, homology reads its covers
    for method in ("euler", "homology"):
        assert sphere_count_certificate(3, 2, methods=(method,))["match"]
    assert calls == {"vector_partition_poset": 3, "order_complex": 0}


def test_certificate_refuses_an_unknown_method():
    # a VpshellError, as every error the package raises, not a ValueError
    with pytest.raises(VpshellError, match="unknown method 'bogus'"):
        sphere_count_certificate(3, 1, methods=("recursion", "bogus"))


def test_certificate_refuses_one_method_name_as_a_string():
    # iterated, "mobius" was the methods "m", "o", ... and the first was
    # reported as unknown
    with pytest.raises(VpshellError,
                       match="expected a sequence of method names"):
        sphere_count_certificate(2, 1, methods="mobius")
    assert sphere_count_certificate(2, 1, methods=("mobius",))["match"]


def test_certificate_degenerate_case():
    cert = sphere_count_certificate(1, 1)
    assert cert["methods"]["homology"] is None
    assert cert["methods"]["euler"] is None
    assert cert["match"]
    assert cert["methods"]["recursion"] == 1


def test_decompose_recompose_roundtrip():
    for (n, s) in [*KNOWN, (4, 2), (5, 1), (3, 4)]:
        for c in decreasing_chains(n, s):
            d = decompose_chain(c)
            assert recompose(d) == c


@pytest.mark.parametrize("n, s", [(3, 2), (4, 2), (5, 1)])
def test_decreasing_chains_decode_the_walked_indices_once(n, s):
    # the poset's keys are records: the chains hold VectorPartitions,
    # decoded along the walked index chains, one object per index, and
    # round-trip through decompose_chain and recompose
    from vpshell.spherecount import _walked_decreasing
    p = vector_partition_poset(n, s)
    chains, els = decreasing_chains(n, s), decoded(p)
    walked = _walked_decreasing(p)
    assert chains == [tuple(els[t] for t in c) for c in walked]
    made = {}
    for c, ts in zip(chains, walked):
        assert all(type(v) is VectorPartition for v in c)
        assert all(made.setdefault(t, v) is v for t, v in zip(ts, c))
        assert recompose(decompose_chain(c)) == c


def test_recompose_decompose_roundtrip():
    # the other composition order: every decomposition datum that arises
    # maps back to itself
    for (n, s) in [(3, 1), (2, 2), (3, 2), (4, 2)]:
        for c in decreasing_chains(n, s):
            d = decompose_chain(c)
            assert decompose_chain(recompose(d)) == d


def test_golden_decomposition():
    n, s = 5, 2
    chain = (
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
    d = decompose_chain(chain)
    assert d.alpha == 3
    assert d.top_index == 1
    assert d.left == (
        bottom_element(3, 2),
        canonicalize(3, 2, [(1,), (2,), (3,)],
                     [[(1,), (2,), (3,)], [(2,), (3,), (1,)]]),
        canonicalize(3, 2, [(1,), (2, 3)],
                     [[(1,), (2, 3)], [(2,), (1, 3)]]),
        top_element(3, 2),
    )
    assert d.right == (
        bottom_element(2, 2),
        canonicalize(2, 2, [(1,), (2,)],
                     [[(2,), (1,)], [(1,), (2,)]]),
        top_element(2, 2),
    )
    assert recompose(d) == chain


def test_decompose_rejects_non_decreasing():
    # an increasing maximal chain is not decomposable
    n, s = 3, 1
    rising = (
        bottom_element(n, s),
        canonicalize(n, s, [(1,), (2,), (3,)], [[(1,), (2,), (3,)]]),
        canonicalize(n, s, [(1, 2), (3,)], [[(1, 2), (3,)]]),
        top_element(n, s),
    )
    with pytest.raises(VpshellError, match="^need a decreasing maximal chain"):
        decompose_chain(rising)


def test_decompose_rejects_short_chain():
    with pytest.raises(VpshellError, match="^need a decreasing maximal chain"):
        decompose_chain((bottom_element(1, 1), top_element(1, 1)))
    with pytest.raises(VpshellError, match="^need a decreasing maximal chain"):
        decompose_chain(())


def test_decompose_rejects_a_chain_of_two_dimensions():
    # a (3,1) chain whose top is the (3,2) top: not a decreasing chain
    chain = decreasing_chains(3, 1)[0]
    with pytest.raises(VpshellError, match=re.escape(
            "elements of (n, s) = (3, 1) and (3, 2) compared")):
        decompose_chain(chain[:-1] + (top_element(3, 2),))
    with pytest.raises(VpshellError, match=re.escape(
            "elements of (n, s) = (3, 2) and (3, 1) compared")):
        decompose_chain((bottom_element(3, 2),) + chain[1:])


def test_recompose_rejects_mismatched_sides():
    good = decompose_chain(decreasing_chains(3, 1)[0])
    from dataclasses import replace
    wrong = replace(good, right=decompose_chain(
        decreasing_chains(3, 2)[0]).right)
    with pytest.raises(VpshellError, match=re.escape(
            "right chain is not maximal over 1..2")):
        recompose(wrong)


def test_recompose_rejects_an_unsaturated_side():
    # right length, bottom and top, but the side's top stands in for its
    # atom, so the step up from the bottom is no cover
    from dataclasses import replace
    good = next(d for d in map(decompose_chain, decreasing_chains(3, 1))
                if d.alpha == 2)
    bottom, _, top = good.left
    with pytest.raises(VpshellError, match="left chain is not saturated"):
        recompose(replace(good, left=(bottom, top, top)))


def test_recompose_rejects_bad_splits():
    good = decompose_chain(decreasing_chains(3, 1)[0])
    from dataclasses import replace
    overlap = tuple(((1, 2), (2, 3)) for _ in good.splits)
    flat = ((1,), (2, 3))  # the sides of one split, not two splits
    with pytest.raises(VpshellError, match=re.escape(
            "split 0 is not an 1/3 bipartition of 1..4")):
        recompose(replace(good, splits=overlap))
    for splits in ((), flat, ((1, 2, 3),) * 2, (((1,), 2),) * 2):
        with pytest.raises(VpshellError,
                           match="^need two or more splits, pairs of tuples$"):
            recompose(replace(good, splits=splits))


def test_top_index_needs_a_labeling_that_moves_1():
    good = decompose_chain(decreasing_chains(3, 1)[0])
    from dataclasses import replace
    stuck = replace(good, splits=(good.splits[0], good.splits[0]))
    with pytest.raises(VpshellError,
                       match="^every labeling keeps 1 on the left$"):
        stuck.top_index


RECOMPOSE_REFUSALS = (r"^(split \d+ is not an \d+/\d+ bipartition"
                      r"|(left|right) chain is not (maximal|saturated)"
                      r"|reassembled chain)")


@pytest.mark.parametrize("n, s", [(3, 1), (3, 2)])
def test_recompose_rejects_malformed_decompositions(n, s):
    # data that no decreasing chain decomposes to is refused by one of
    # recompose's own checks and nothing else; data that one does
    # recompose to that chain
    from dataclasses import replace
    chains = decreasing_chains(n, s)
    valid = {decompose_chain(c): c for c in chains}
    tried = 0
    for d in valid:
        swapped = tuple((ri, le) for le, ri in d.splits)
        data = [
            replace(d, splits=swapped),
            replace(d, alpha=n - d.alpha, splits=swapped),
            replace(d, left=d.right, right=d.left),
            replace(d, alpha=n - d.alpha, left=d.right, right=d.left),
            replace(d, alpha=n - d.alpha, left=d.right, right=d.left,
                    splits=swapped),
            replace(d, splits=(d.splits[0],) * (s + 1)),
        ]
        for e in valid:
            data += [replace(d, splits=e.splits), replace(d, left=e.left)]
        for datum in data:
            if datum in valid:
                assert recompose(datum) == valid[datum]
            else:
                tried += 1
                with pytest.raises(VpshellError, match=RECOMPOSE_REFUSALS):
                    recompose(datum)
    assert tried > 2 * len(valid)


def test_enumeration_routes_are_compared(monkeypatch, capsys):
    # a generation route that loses one chain must be caught by the
    # walk route, in the library and as the CLI's exit code 2
    from vpshell import spherecount
    from vpshell.cli import main
    honest = spherecount._generated_decreasing
    monkeypatch.setattr(spherecount, "_generated_decreasing",
                        lambda n, s: honest(n, s)[1:])
    with pytest.raises(OracleMismatch):
        decreasing_chains(3, 2)
    code = main(["count", "--n", "3", "--s", "2", "--method", "enumerate"])
    assert code == 2
    assert "oracle mismatch" in capsys.readouterr().err
    # the walk route is not sorted, so one out of order is caught too
    monkeypatch.setattr(spherecount, "_generated_decreasing", honest)
    walked = spherecount._walked_decreasing
    monkeypatch.setattr(spherecount, "_walked_decreasing",
                        lambda p: walked(p)[::-1])
    with pytest.raises(OracleMismatch):
        decreasing_chains(3, 2)


def test_generated_record_that_is_no_element_is_a_mismatch(monkeypatch,
                                                           capsys):
    # one atom record with its blocks out of order, so no element of the
    # poset, in a list of the right length: caught at the index lookup,
    # in the library and as the CLI's exit code 2
    from vpshell import spherecount
    from vpshell.cli import main
    honest = spherecount._generated_decreasing

    def corrupt(n, s):
        chains = honest(n, s)
        bottom, (blocks, labels), *rest = chains[0]
        chains[0] = (bottom, (blocks[::-1], labels), *rest)
        return chains

    monkeypatch.setattr(spherecount, "_generated_decreasing", corrupt)
    with pytest.raises(OracleMismatch, match="not an element of the poset"):
        decreasing_chains(3, 2)
    code = main(["count", "--n", "3", "--s", "2", "--method", "enumerate"])
    assert code == 2
    assert "oracle mismatch" in capsys.readouterr().err
