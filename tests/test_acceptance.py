"""Acceptance suite: one criterion per test, one printed verdict line each.

Run as `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Every expected number here was produced by an independent oracle (brute
enumeration, alternating chain counts, full-list sorting) before being
frozen into this file.
"""
import time
from dataclasses import replace

from vpshell import (
    SABOTAGES,
    bottom_element,
    canonicalize,
    chain_label,
    count_by_recursion,
    count_total,
    decompose_chain,
    decreasing_chains,
    lex_shelling_order,
    nonambiguous_tree_count,
    order_complex,
    recompose,
    sabotaged_label_map,
    sabotaged_shelling_order,
    sphere_count_certificate,
    top_element,
    vector_partition_poset,
    verify_el,
    verify_label_structure,
    verify_shelling,
)

EL_CASES = [(2, 1), (3, 1), (4, 1), (2, 2), (3, 2)]
COUNT_CASES = {(2, 1): 1, (3, 1): 4, (4, 1): 33, (2, 2): 3, (3, 2): 46}
SEQ = [1, 1, 4, 33, 456, 9460]


def verdict(num: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_el_verification():
    worst = 0.0
    ok = True
    for n, s in EL_CASES:
        t0 = time.monotonic()
        report = verify_el(vector_partition_poset(n, s))
        dt = time.monotonic() - t0
        worst = max(worst, dt)
        ok = ok and report.ok and dt < 60.0
    verdict(1, ok, f"EL property on {len(EL_CASES)} posets, "
            f"slowest run {worst:.1f}s (limit 60s)")
    assert ok


def test_criterion_2_four_way_counts():
    ok = True
    got = {}
    for (n, s), want in COUNT_CASES.items():
        cert = sphere_count_certificate(n, s)
        vals = set(cert["methods"].values())
        got[(n, s)] = cert["methods"]["enumerate"]
        ok = ok and cert["match"] and vals == {want}
    verdict(2, ok, f"four-way agreement at {got}")
    assert ok


def test_criterion_3_tree_count_sequence():
    count_by_recursion.cache_clear()
    count_total.cache_clear()
    t0 = time.monotonic()
    totals = [count_total(n, 1) for n in range(1, 7)]
    dt = time.monotonic() - t0
    trees = [nonambiguous_tree_count(n - 1) for n in range(1, 7)]
    ok = totals == SEQ == trees and dt < 1.0
    verdict(3, ok, f"totals {totals} = tree counts, cold recursion {dt:.3f}s")
    assert ok


def test_criterion_4_golden_label_vectors():
    n, s = 5, 2
    two = (
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
    m2 = 4394
    want2 = ((4, 2 + m2, 0), (4, 2, 3), (2, 1, 1), (1, 2, 3), (1, 1, 1))
    got2 = chain_label(two)

    n, s = 5, 1
    one = (
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
    m1 = 116
    # second coordinate of the bottom label is s + m by definition
    want1 = ((4, 1 + m1, 0), (2, 1, 3), (2, 1, 1), (1, 1, 2), (1, 1, 1))
    got1 = chain_label(one)

    ok = got2 == want2 and got1 == want1
    verdict(4, ok, f"golden chains label as {got2} and {got1}")
    assert ok


def test_criterion_5_structural_conditions():
    cases = [(2, 1), (3, 1), (4, 1), (3, 2)]
    total = 0
    for n, s in cases:
        bad = verify_label_structure(vector_partition_poset(n, s))
        total += sum(len(v) for v in bad.values())
    ok = total == 0
    verdict(5, ok, f"conditions 1-5 on {len(cases)} posets, "
            f"{total} counterexamples")
    assert ok


def test_criterion_6_shelling_certificate():
    results = {}
    ok = True
    for (n, s), spheres in [((3, 1), 4), ((4, 1), 33)]:
        t0 = time.monotonic()
        p = vector_partition_poset(n, s)
        c = order_complex(p)
        report = verify_shelling(c, lex_shelling_order(p, c))
        dt = time.monotonic() - t0
        results[(n, s)] = len(report.homology_facets)
        ok = (ok and report.valid and
              len(report.homology_facets) == spheres and dt < 120.0)
    verdict(6, ok, f"lex shelling valid, homology facets {results}")
    assert ok


def test_criterion_7_decomposition_bijection():
    ok = True
    checked = 0
    for n, s in [(2, 1), (3, 1), (4, 1), (3, 2)]:
        for c in decreasing_chains(n, s):
            d = decompose_chain(c)
            ok = ok and recompose(d) == c and decompose_chain(recompose(d)) == d
            checked += 1

    # the worked example: left and right parts, verbatim
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
    want_left = (
        bottom_element(3, 2),
        canonicalize(3, 2, [(1,), (2,), (3,)],
                     [[(1,), (2,), (3,)], [(2,), (3,), (1,)]]),
        canonicalize(3, 2, [(1,), (2, 3)],
                     [[(1,), (2, 3)], [(2,), (1, 3)]]),
        top_element(3, 2),
    )
    want_right = (
        bottom_element(2, 2),
        canonicalize(2, 2, [(1,), (2,)],
                     [[(2,), (1,)], [(1,), (2,)]]),
        top_element(2, 2),
    )
    golden = d.left == want_left and d.right == want_right
    ok = ok and golden
    verdict(7, ok, f"both round trips on {checked} chains, "
            f"worked example reproduced: {golden}")
    assert ok


def test_criterion_8_sabotage_detection():
    p = vector_partition_poset(3, 1)
    c = order_complex(p)
    caught = {}
    for name in SABOTAGES:
        q = replace(p, up_labels=sabotaged_label_map(p, name))
        el_ok = verify_el(q).ok
        shell_ok = verify_shelling(
            c, sabotaged_shelling_order(q, c, name)).valid
        caught[name] = not el_ok or not shell_ok
    ok = all(caught.values())
    verdict(8, ok, f"defects detected: {caught}")
    assert ok
