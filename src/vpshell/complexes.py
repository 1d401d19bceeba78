"""Order complexes of poset proper parts: the top reduced Betti number
over GF(2), from the Hasse diagram alone (bitset elimination, no
floating point, no chain listed), and shelling verification of listed
facet orders, the oracle of labeling.lex_homology_facets.  For the
wedges of equal-dimension spheres here, GF(2) ranks agree with the
ranks over any field.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .poset import Poset


@dataclass(frozen=True)
class SimplicialComplex:
    """Facet-presented complex over integer vertices, each face the
    ascending tuple of its vertices.  The facets are distinct and
    inclusion-maximal because order_complex builds them from the maximal
    chains of a graded poset.  No facets: the empty complex.
    """

    facets: tuple  # of ascending int tuples, in ascending order


def order_complex(p: Poset) -> SimplicialComplex:
    """The chain complex of the proper part (bottom and top removed).

    Its facets, the maximal chains of the proper part, grow a rank at a
    time from the atoms, each chain stepping to every upper cover of its
    last element in up's ascending order: ascending tuples, as covers
    rise, in lexicographic order.  In a graded poset they are distinct
    and of one size, so none contains another.  A poset of height below
    2 has an empty proper part and complex.
    """
    if p.height < 2:
        return SimplicialComplex(facets=())
    up = p.up
    chains = [(a,) for a in up[p.bottom]]
    for _ in range(p.height - 2):
        chains = [c + (w,) for c in chains for w in up[c[-1]]]
    return SimplicialComplex(facets=tuple(chains))


def betti(p: Poset) -> int:
    """Reduced Betti number over GF(2) of the order complex of p's proper
    part in its top dimension, from the Hasse diagram alone.

    In falling index order, W(m) is the space of top cycles of the open
    interval (m, top); W(top) holds the empty chain.  A top chain of
    (m, top) is a sum of x.z_x over the upper covers x of m, and a cycle
    exactly when each z_x is in W(x) and, at every y two ranks above m,
    the components at y of the z_x with m < x < y sum to zero.  So W(m)
    is the kernel of a map from the W(x), laid end to end in up order,
    to the W(y): a basis vector is one int over those ends.  The bottom's
    rows carry no combination, as only their number less their rank is
    read.  Exact for any bounded graded poset, labels unread; height 1
    gives 1, the empty complex's homology in dimension -1.
    """
    up = p.up
    basis: list = [()] * len(p)
    basis[p.top] = (1,)
    for m in range(p.top - 1, -1, -1):
        # a row's combination takes its low tag bits, the W(y) the rest;
        # the bottom's rows carry none, so its zero rows are its kernel
        tag = 0 if m == p.bottom else sum(len(basis[x]) for x in up[m])
        slot, width = {}, tag  # y -> the bit where W(y) starts
        pivots, kernel = {}, []
        bit = 1 if tag else 0  # the next row's combination bit
        for x in up[m]:
            moves, end = [], 0
            for y in up[x]:
                d = len(basis[y])
                if (to := slot.get(y)) is None:
                    to = slot[y] = width
                    width += d
                moves.append((end, (1 << d) - 1, to))
                end += d
            for b in basis[x]:
                row = bit
                for at, mask, to in moves:
                    row |= (b >> at & mask) << to
                bit <<= 1
                while row >> tag:
                    pivot = pivots.get(lead := row.bit_length() - 1)
                    if pivot is None:
                        pivots[lead] = row
                        break
                    row ^= pivot
                else:
                    kernel.append(row)
        basis[m] = kernel
    return len(basis[p.bottom])


@dataclass(frozen=True)
class ShellingReport:
    """Outcome of verify_shelling.

    failing_index is the 0-based position in the given order where the
    shelling condition (or the facet-coverage precondition) first fails;
    None when valid or when the order is merely incomplete.  homology
    facets are 0-based positions of facets whose entire boundary lies in
    the union of the earlier ones; they count the spheres in the wedge.
    """

    valid: bool
    failing_index: int | None
    homology_facets: tuple
    problem: str | None = None


def verify_shelling(c: SimplicialComplex, order) -> ShellingReport:
    """Check that the given facet order is a shelling of c.

    order lists every facet of c once, as c holds it, an ascending vertex
    tuple (an unsorted tuple or a set is a stranger).  At each position
    i >= 1, the intersection of facet F_i with the union of the earlier
    facets must be pure of dimension |F_i| - 2; when |F_i| = 1 that
    intersection is the empty face alone, treated as vacuously pure.
    Failures are reported, never raised.

    The test uses restriction faces (Bjorner, "Shellable and
    Cohen-Macaulay partially ordered sets", Trans. AMS 1980; Bjorner and
    Wachs, "On lexicographically shellable posets", Trans. AMS 1983).
    One pass over the order keeps the set of the faces of the earlier
    facets, the empty face included.  The restriction face R(F_i) is the
    set of vertices v with F_i - v in it.  The order is a shelling exactly
    when R(F_i) is not in it, and F_i is a homology facet exactly when
    R(F_i) = F_i.  The pass stops at the first failure, after one set
    entry per face of each facet before it, not F^2 intersections.
    """
    facets = list(order)
    known = set(c.facets)
    seen: set = set()
    for i, f in enumerate(facets):
        try:  # hashing a tuple that holds an unhashable value raises
            stranger = not isinstance(f, tuple) or f not in known
        except TypeError:
            stranger = True
        if stranger:
            return ShellingReport(False, i, (),
                                  f"entry {i} is not a facet of the complex")
        if f in seen:
            return ShellingReport(False, i, (),
                                  f"facet at position {i} listed twice")
        seen.add(f)
    if len(facets) != len(c.facets):
        return ShellingReport(False, None, (),
                              "order does not list every facet")

    faces: set = set()  # every face of the facets before position i
    homology: list[int] = []
    for i, f in enumerate(facets):
        restriction = tuple(v for t, v in enumerate(f)
                            if f[:t] + f[t + 1:] in faces)
        if restriction in faces:
            return ShellingReport(
                False, i, (),
                f"intersection with earlier facets is not pure of "
                f"codimension 1 at position {i}")
        if i and len(restriction) == len(f):
            homology.append(i)
        faces.update(face for k in range(len(f) + 1)
                     for face in combinations(f, k))
    return ShellingReport(True, None, tuple(homology), None)
