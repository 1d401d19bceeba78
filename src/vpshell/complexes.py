"""Order complexes of poset proper parts: the top reduced Betti number
over GF(2), from an exact boundary-matrix rank (bitset Gaussian
elimination, no floating point), and shelling verification.  For the
wedges of equal-dimension spheres this package produces, GF(2) ranks
agree with the ranks over any field.
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
    chains of a graded poset.  No facets: the empty complex, is_empty.
    """

    facets: tuple  # of ascending int tuples, in ascending order

    @property
    def is_empty(self) -> bool:
        return not self.facets

    @property
    def dim(self) -> int:
        return max((len(f) for f in self.facets), default=0) - 1


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


def _boundary_rank(faces) -> int:
    """GF(2) rank of the reduced boundary map on faces, all of one size.

    Each face a vertex smaller gets the next bit when first met, so no
    lower face is listed or sorted; a vertex's boundary is the empty
    face, the augmentation.  Columns are reduced in falling face order,
    each pivoting on its highest bit."""
    bits, pivots = {}, {}
    for face in sorted(faces, reverse=True):
        column = 0
        for sub in combinations(face, len(face) - 1):
            bit = bits.get(sub)
            if bit is None:
                bit = bits[sub] = len(bits)
            column |= 1 << bit
        while column:
            pivot = pivots.get(lead := column.bit_length() - 1)
            if pivot is None:
                pivots[lead] = column
                break
            column ^= pivot
    return len(pivots)


def betti(c: SimplicialComplex) -> int:
    """Reduced Betti number over GF(2) in the top dimension: the facets
    of top size, which are all its faces there and have none above them,
    less the rank of their boundary map.  0 for the empty complex."""
    size = c.dim + 1
    top = [f for f in c.facets if len(f) == size]
    return len(top) - _boundary_rank(top)


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
    One pass over the order maps every face of every facet, the empty
    face included, to the position of the first facet containing it.
    The restriction face R(F_i) is the set of vertices v with F_i - v in
    an earlier facet.  The order is a shelling exactly when no earlier
    facet contains R(F_i), and F_i is a homology facet exactly when
    R(F_i) = F_i.  The cost is one dictionary entry per face of every
    facet, sum of 2^|F|, instead of F^2 facet intersections.
    """
    facets = list(order)
    known = set(c.facets)
    seen: set = set()
    for i, f in enumerate(facets):
        if not isinstance(f, tuple) or f not in known:
            return ShellingReport(False, i, (),
                                  f"entry {i} is not a facet of the complex")
        if f in seen:
            return ShellingReport(False, i, (),
                                  f"facet at position {i} listed twice")
        seen.add(f)
    if len(facets) != len(c.facets):
        return ShellingReport(False, None, (),
                              "order does not list every facet")

    first: dict[tuple, int] = {}
    for i, fi in enumerate(facets):
        for k in range(len(fi) + 1):
            for face in combinations(fi, k):
                first.setdefault(face, i)

    homology: list[int] = []
    for i in range(1, len(facets)):
        fi = facets[i]
        restriction = tuple(v for t, v in enumerate(fi)
                            if first[fi[:t] + fi[t + 1:]] < i)
        if first[restriction] < i:
            return ShellingReport(
                False, i, (),
                f"intersection with earlier facets is not pure of "
                f"codimension 1 at position {i}")
        if len(restriction) == len(fi):
            homology.append(i)
    return ShellingReport(True, None, tuple(homology), None)
