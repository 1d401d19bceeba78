"""Simplicial complexes: Euler characteristic, GF(2) homology, shelling."""
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from vpshell import (
    betti,
    order_complex,
    reduced_betti_numbers,
    reduced_euler_characteristic,
    simplicial_complex,
    verify_shelling,
)
from conftest import facets_by_pairwise_containment, shelling_by_intersections


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
    assert c.f_vector() == (3, 3)
    pts = simplicial_complex([(1,), (2,), (3,), (4,)])
    assert pts.dim == 0
    assert pts.f_vector() == (4,)


def test_empty_complex():
    c = simplicial_complex([])
    assert c.is_empty
    assert reduced_euler_characteristic(c) == -1
    assert betti(c, 0) == 0


def test_euler_points():
    # four isolated points: chi-tilde = 4 - 1
    pts = simplicial_complex([(1,), (2,), (3,), (4,)])
    assert reduced_euler_characteristic(pts) == 3
    assert betti(pts, 0) == 3


def test_euler_hollow_triangle():
    # a circle: chi-tilde = (3 - 3) - 1
    c = hollow_triangle()
    assert reduced_euler_characteristic(c) == -1
    assert betti(c, 0) == 0
    assert betti(c, 1) == 1
    assert reduced_betti_numbers(c) == (0, 1)


def test_betti_filled_triangle():
    c = simplicial_complex([(1, 2, 3)])
    assert reduced_betti_numbers(c) == (0, 0, 0)
    assert reduced_euler_characteristic(c) == 0


def test_betti_rejects_negative_dimension():
    with pytest.raises(ValueError):
        betti(hollow_triangle(), -1)


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
    assert c.f_vector() == (15, 18)
    assert reduced_euler_characteristic(c) == -4
    assert betti(c, 0) == 0
    assert betti(c, 1) == 4


def test_order_complex_height_one():
    from vpshell import build_poset
    p = build_poset("01", [("0", "1")])
    assert order_complex(p).is_empty


def test_verify_shelling_hollow_triangle():
    c = hollow_triangle()
    # entries are read as vertex sets, in any order
    rep = verify_shelling(c, [(1, 2), (3, 2), frozenset((1, 3))])
    assert rep.valid
    # the last edge closes the cycle: boundary fully covered
    assert rep.homology_facets == (2,)


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
    dup = [(1, 2), (2, 1), (2, 3)]
    rep = verify_shelling(c, dup)
    assert not rep.valid and rep.failing_index == 1


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
    if data.draw(st.booleans(), label="keep maximal only"):
        facets = [f for f in facets if not any(f < g for g in facets)]
    try:
        expected = facets_by_pairwise_containment(facets)
    except ValueError as exc:
        with pytest.raises(ValueError) as caught:
            simplicial_complex(facets)
        assert str(caught.value) == str(exc)
        return
    c = simplicial_complex(facets)
    assert c.facets == expected

    order = data.draw(st.permutations(c.facets), label="order")
    defect = data.draw(st.sampled_from(
        ["none"] * 3 + ["duplicate", "stranger", "missing"]), label="defect")
    if defect == "duplicate":
        twin = data.draw(st.sampled_from(order), label="twin")
        order.insert(data.draw(st.integers(0, len(order))), twin)
    elif defect == "stranger":
        strangers = [f for f in _vertex_sets(5, range(1, 5))
                     if tuple(sorted(f)) not in c.facets]
        order.insert(data.draw(st.integers(0, len(order))),
                     data.draw(st.sampled_from(strangers), label="stranger"))
    elif defect == "missing":
        order.pop(data.draw(st.integers(0, len(order) - 1)))
    assert verify_shelling(c, order) == shelling_by_intersections(c, order)
