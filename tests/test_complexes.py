"""Simplicial complexes: Euler characteristic, GF(2) homology, shelling."""
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from vpshell import (
    betti,
    count_total,
    order_complex,
    vector_partition_poset,
    verify_shelling,
)
from vpshell.poset import chain_f_vector
from conftest import (f_vector, reduced_betti_numbers,
                      reduced_euler_characteristic, shelling_by_intersections,
                      simplicial_complex)


def hollow_triangle():
    return simplicial_complex([(1, 2), (2, 3), (1, 3)])


def test_factory_dedupes_and_rejects_containment():
    c = simplicial_complex([(1, 2), (2, 1)])
    assert c.facets == ((1, 2),)
    with pytest.raises(ValueError):
        simplicial_complex([(1, 2, 3), (1, 2)])


def test_f_vector_and_dim():
    c = hollow_triangle()
    assert c.dim == 1
    assert f_vector(c) == (3, 3)
    pts = simplicial_complex([(1,), (2,), (3,), (4,)])
    assert pts.dim == 0
    assert f_vector(pts) == (4,)


def test_empty_complex():
    c = simplicial_complex([])
    assert c.is_empty
    assert reduced_euler_characteristic(c) == -1
    assert betti(c) == 0
    assert reduced_betti_numbers(c) == ()


def test_euler_points():
    # four isolated points: chi-tilde = 4 - 1
    pts = simplicial_complex([(1,), (2,), (3,), (4,)])
    assert reduced_euler_characteristic(pts) == 3
    assert betti(pts) == 3
    assert reduced_betti_numbers(pts) == (3,)


def test_euler_hollow_triangle():
    # a circle: chi-tilde = (3 - 3) - 1
    c = hollow_triangle()
    assert reduced_euler_characteristic(c) == -1
    assert betti(c) == 1
    assert reduced_betti_numbers(c) == (0, 1)


def test_betti_filled_triangle():
    c = simplicial_complex([(1, 2, 3)])
    assert reduced_betti_numbers(c) == (0, 0, 0)
    assert betti(c) == 0
    assert reduced_euler_characteristic(c) == 0


def test_betti_mixed_complex():
    # a hollow tetrahedron, a circle and a point: reduced homology in
    # every dimension, the three components giving b_0 = 2
    c = simplicial_complex([(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4),
                            (5, 6), (6, 7), (5, 7), (8,)])
    assert f_vector(c) == (8, 9, 4)
    assert reduced_betti_numbers(c) == (2, 1, 1)
    assert betti(c) == 1
    assert reduced_euler_characteristic(c) == 2


def test_complex_holds_only_its_facets(p3s1):
    c = order_complex(p3s1)
    assert c.dim == 1 and f_vector(c) == (15, 18) and betti(c) == 4
    assert vars(c) == {"facets": c.facets}


def test_top_betti_peak_memory(p4s2):
    c = order_complex(p4s2)
    tracemalloc.start()
    try:
        assert betti(c) == 1899
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12_000_000


@settings(max_examples=300)
@given(st.lists(st.sets(st.integers(0, 6), min_size=1, max_size=5),
                min_size=1, max_size=10))
def test_betti_matches_dense_oracle(sets):
    facets = [f for f in sets if not any(f < g for g in sets)]
    c = simplicial_complex(facets)
    assert betti(c) == reduced_betti_numbers(c)[-1]


@pytest.mark.parametrize("n, s", [(3, 1), (4, 1), (2, 2), (3, 2), (3, 3)])
def test_order_complex_betti_matches_dense_oracle(n, s):
    # the wedge of (n - 2)-spheres: homology only at the top
    c = order_complex(vector_partition_poset(n, s))
    *lower, top = reduced_betti_numbers(c)
    assert betti(c) == top == count_total(n, s)
    assert lower == [0] * (n - 2)


def test_euler_poincare_identity():
    # chi-tilde equals the alternating sum of reduced Betti numbers
    for c in (hollow_triangle(),
              simplicial_complex([(1, 2, 3), (3, 4), (4, 5), (3, 5)]),
              simplicial_complex([(1,), (2,), (3,)])):
        chi = reduced_euler_characteristic(c)
        bettis = reduced_betti_numbers(c)
        assert chi == sum((-1) ** d * b for d, b in enumerate(bettis))


def test_order_complex_proper_part(p3s1):
    c = order_complex(p3s1)
    assert f_vector(c) == (15, 18)
    assert reduced_euler_characteristic(c) == -4
    assert reduced_betti_numbers(c) == (0, 4)
    assert betti(c) == 4


def test_order_complex_height_one():
    from conftest import build_poset
    p = build_poset("01", [("0", "1")])
    assert order_complex(p).is_empty
    assert chain_f_vector(p) == ()
    assert chain_f_vector(build_poset("0", [])) == ()


@pytest.mark.parametrize("n, s", [(3, 1), (4, 1), (3, 2), (4, 2), (3, 4),
                                  (5, 1)])
def test_chain_counts_match_the_faces_of_the_order_complex(n, s):
    # Euler by counting the chains of the proper part against listing
    # every face of its order complex
    p = vector_partition_poset(n, s)
    c = order_complex(p)
    f = chain_f_vector(p)
    assert f == f_vector(c)
    chi = sum((-1) ** k * fk for k, fk in enumerate(f)) - 1
    assert chi == reduced_euler_characteristic(c)
    assert abs(chi) == count_total(n, s)


def test_verify_shelling_hollow_triangle():
    c = hollow_triangle()
    rep = verify_shelling(c, [(1, 2), (2, 3), (1, 3)])
    assert rep.valid
    # the last edge closes the cycle: boundary fully covered
    assert rep.homology_facets == (2,)
    # a face is an ascending tuple: an unsorted tuple or a set of a
    # facet's vertices is not a facet
    for stranger in ((3, 2), frozenset((1, 3))):
        rep = verify_shelling(c, [(1, 2), stranger, (1, 3)])
        assert (rep.valid, rep.failing_index) == (False, 1)
        assert rep.problem == "entry 1 is not a facet of the complex"


def test_verify_shelling_detects_gap():
    # two disjoint edges cannot start a shelling
    c = simplicial_complex([(1, 2), (3, 4), (2, 3), (1, 4)])
    rep = verify_shelling(c, [(1, 2), (3, 4), (2, 3), (1, 4)])
    assert not rep.valid
    assert rep.failing_index == 1


def test_verify_shelling_requires_every_facet():
    c = hollow_triangle()
    rep = verify_shelling(c, [(1, 2), (2, 3)])
    assert not rep.valid
    assert rep.failing_index is None
    assert "every facet" in rep.problem


def test_verify_shelling_rejects_stranger_and_duplicate():
    c = hollow_triangle()
    bad = [(1, 2), (9, 10), (1, 3)]
    rep = verify_shelling(c, bad)
    assert not rep.valid and rep.failing_index == 1
    dup = [(1, 2), (1, 2), (2, 3)]
    rep = verify_shelling(c, dup)
    assert not rep.valid and rep.failing_index == 1
    assert rep.problem == "facet at position 1 listed twice"


def test_verify_shelling_zero_spheres():
    # a shellable cone: single homology facet never appears
    c = simplicial_complex([(0, 1), (0, 2), (0, 3)])
    rep = verify_shelling(c, [(0, 1), (0, 2), (0, 3)])
    assert rep.valid
    assert rep.homology_facets == ()


def test_verify_shelling_point_facets():
    # wedge of 0-spheres: every point after the first is a homology facet
    c = simplicial_complex([(1,), (2,), (3,)])
    rep = verify_shelling(c, [(1,), (2,), (3,)])
    assert rep.valid
    assert rep.homology_facets == (1, 2)


def _vertex_sets(top, sizes):
    return [frozenset(f) for k in sizes for f in combinations(range(top + 1), k)]


@settings(max_examples=300)
@given(st.data())
def test_verify_shelling_matches_intersection_oracle(data):
    # on fewer vertices facets overlap more, so more random orders shell
    top = data.draw(st.sampled_from([5, 4, 3, 2]), label="top vertex")
    if data.draw(st.booleans(), label="pure"):
        size = data.draw(st.integers(1, min(4, top + 1)), label="size")
        candidates = _vertex_sets(top, [size])
    else:
        candidates = _vertex_sets(top, range(1, 5))
    facets = data.draw(st.lists(st.sampled_from(candidates), unique=True,
                                min_size=1, max_size=8), label="facets")
    c = simplicial_complex([f for f in facets
                            if not any(f < g for g in facets)])

    order = data.draw(st.permutations(c.facets), label="order")
    defect = data.draw(st.sampled_from(
        ["none"] * 3 + ["duplicate", "stranger", "set", "missing"]),
        label="defect")
    if defect == "duplicate":
        twin = data.draw(st.sampled_from(order), label="twin")
        order.insert(data.draw(st.integers(0, len(order))), twin)
    elif defect == "stranger":
        strangers = [tuple(sorted(f)) for f in _vertex_sets(5, range(1, 5))
                     if tuple(sorted(f)) not in c.facets]
        order.insert(data.draw(st.integers(0, len(order))),
                     data.draw(st.sampled_from(strangers), label="stranger"))
    elif defect == "set":  # a facet's vertices, not in the face format
        k = data.draw(st.integers(0, len(order) - 1), label="set at")
        order[k] = frozenset(order[k])
    elif defect == "missing":
        order.pop(data.draw(st.integers(0, len(order) - 1)))
    assert verify_shelling(c, order) == shelling_by_intersections(c, order)
