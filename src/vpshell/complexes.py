"""Simplicial complexes from poset proper parts: Euler characteristic,
homology ranks over GF(2), and shelling verification.

Betti numbers here are reduced and computed from exact boundary-matrix
ranks over GF(2) (bitset Gaussian elimination, no floating point).  For
the wedges of equal-dimension spheres this package produces, GF(2) ranks
agree with the ranks over any field.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from .poset import Poset, maximal_chains


@dataclass(frozen=True)
class SimplicialComplex:
    """Facet-presented complex over integer vertices.

    Every face is the ascending tuple of its vertices; facets are
    inclusion-maximal, as the factory simplicial_complex() checks.  The
    empty complex (no facets) is allowed and flagged by is_empty.
    """

    facets: tuple  # of ascending int tuples, in ascending order

    @property
    def is_empty(self) -> bool:
        return not self.facets

    @property
    def dim(self) -> int:
        return max((len(f) for f in self.facets), default=0) - 1

    @cached_property
    def faces_by_dim(self) -> dict:
        """dim -> sorted list of faces, downward closure."""
        seen: dict[int, set] = {}
        for f in self.facets:
            for k in range(1, len(f) + 1):
                seen.setdefault(k - 1, set()).update(combinations(f, k))
        return {d: sorted(faces) for d, faces in seen.items()}

    def f_vector(self) -> tuple:
        """(f_0, ..., f_dim); empty tuple for the empty complex."""
        fb = self.faces_by_dim
        return tuple(len(fb[d]) for d in range(self.dim + 1)) if fb else ()


def simplicial_complex(facets) -> SimplicialComplex:
    """Build a complex from an iterable of vertex iterables.

    Makes each facet the ascending tuple of its vertices, deduplicates,
    orders facets ascending, and rejects a facet contained in another.
    The pairwise containment scan, O(F^2) in the number of
    facets, runs only when the facets differ in size: distinct facets of
    one size cannot contain one another, so for the equal-sized maximal
    chains of a graded poset the check is skipped, not weakened.
    """
    faces = sorted({tuple(sorted(set(f))) for f in facets})
    if len({len(f) for f in faces}) > 1:
        for a in faces:
            for b in faces:
                if len(a) < len(b) and set(a) <= set(b):
                    raise ValueError(f"facet {list(a)} is contained in {list(b)}")
    return SimplicialComplex(facets=tuple(faces))


def order_complex(p: Poset) -> SimplicialComplex:
    """The chain complex of the proper part (bottom and top removed).

    A poset of height below 2 has an empty proper part; the returned
    complex is then empty (is_empty flags it).
    """
    if p.height < 2:
        return SimplicialComplex(facets=())
    return simplicial_complex(c[1:-1] for c in maximal_chains(p))


def reduced_euler_characteristic(c: SimplicialComplex) -> int:
    """Alternating face-count sum minus one; the empty complex gives -1."""
    return sum((-1) ** d * f for d, f in enumerate(c.f_vector())) - 1


def _gf2_rank(rows: list[int]) -> int:
    """Rank of a GF(2) matrix whose rows are bitmask integers."""
    pivots: dict[int, int] = {}
    rank = 0
    for row in rows:
        while row:
            lead = row.bit_length() - 1
            if lead in pivots:
                row ^= pivots[lead]
            else:
                pivots[lead] = row
                rank += 1
                break
    return rank


def _boundary_ranks(c: SimplicialComplex) -> list[int]:
    """ranks[d] = rank of the d-th reduced boundary map for 0 <= d <= dim.

    The reduced complex augments with the empty face, so the 0-th map is
    the all-ones augmentation (rank 1 whenever a vertex exists).
    """
    fb = c.faces_by_dim
    if not fb:
        return []
    ranks = [1]  # augmentation
    for d in range(1, c.dim + 1):
        idx = {face: i for i, face in enumerate(fb[d - 1])}
        cols = []
        for face in fb[d]:
            m = 0
            for sub in combinations(face, d):
                m |= 1 << idx[sub]
            cols.append(m)
        ranks.append(_gf2_rank(cols))
    return ranks


def betti(c: SimplicialComplex, d: int) -> int:
    """Reduced Betti number over GF(2) in dimension d >= 0."""
    if d < 0:
        raise ValueError("betti is defined here for dimensions >= 0")
    bettis = reduced_betti_numbers(c)
    return bettis[d] if d < len(bettis) else 0


def reduced_betti_numbers(c: SimplicialComplex) -> tuple:
    """(b_0, ..., b_dim) over GF(2); empty tuple for the empty complex."""
    if c.is_empty:
        return ()
    ranks = _boundary_ranks(c)
    out = []
    for d in range(c.dim + 1):
        r_up = ranks[d + 1] if d + 1 <= c.dim else 0
        out.append(len(c.faces_by_dim[d]) - ranks[d] - r_up)
    return tuple(out)


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

    order: iterable of vertex iterables, each read as the ascending tuple
    of its vertices; it must list every facet of c exactly once.  At each
    position i >= 1, the intersection of facet F_i with the union of the
    earlier facets must be pure of dimension |F_i| - 2; when |F_i| = 1
    that intersection is the empty face alone, treated as vacuously pure.
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
    facets = [tuple(sorted(set(f))) for f in order]
    known = set(c.facets)
    seen: set = set()
    for i, f in enumerate(facets):
        if f not in known:
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
