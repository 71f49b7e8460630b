"""Field reduction between PG(k, q^n) and PG((k+1)n - 1, q), and the
regular-spread machinery built on it.

A point of the source plane blows up to the (n-1)-subspace of rational
points of its scalar-multiple set; a line blows up to a (2n-1)-subspace.
The coordinate convention is fixed: source coordinate j expands into target
coordinates j*n .. j*n + n - 1 over the basis {1, x, .., x^(n-1)} of
GF(q^n) over GF(q), x the canonical generator of the top field.  The
convention tag "powerbasis-v1" travels with serialized maps.

The map is GF(q)-linear, so the reductions of any set of points of
PG(k, q^n) span a subspace of GF(q)-rank n times the GF(q^n)-rank of the
points.  Three reduced points therefore span PG(3n-1, q) exactly when the
three points are not collinear, and `reduce_arc` certifies a reduced arc by
verifying its plane arc as a generalized arc with n = 1.
"""

from __future__ import annotations

from .fields import FieldTower, make_tower
from .planearcs import PlaneArc
from .projective import Point, ProjSpace, Subspace, Vec, normalize_point
from .pseudoarcs import PseudoArc, classify_kind, verify_pseudo_arc

CONVENTION = "powerbasis-v1"


class ReductionMap:
    """Transport along GF(q^n)^(k+1) viewed as GF(q)^((k+1)n)."""

    def __init__(self, tower: FieldTower, source_dim: int = 2):
        self.tower = tower
        self.source_dim = source_dim
        self.source = ProjSpace(source_dim, tower.top)
        self.target = ProjSpace((source_dim + 1) * tower.n - 1, tower.base)
        self.convention = CONVENTION

    def __repr__(self):
        return f"ReductionMap({self.source} -> {self.target})"

    # -- coordinate plumbing ------------------------------------------------

    def expand_vec(self, w: Vec) -> Vec:
        """Vector over GF(q^n) -> its GF(q) expansion, coordinate blocks in order."""
        out: list[int] = []
        for c in w:
            out.extend(self.tower.expand(c))
        return tuple(out)

    def compress_vec(self, v: Vec) -> Vec:
        """Inverse of expand_vec on full blocks of n coordinates."""
        n = self.tower.n
        return tuple(self.tower.compress(tuple(v[j * n:(j + 1) * n]))
                     for j in range(len(v) // n))

    # -- reduction ------------------------------------------------------------

    def _blow_up(self, vectors) -> list[Vec]:
        """The expansions of x^i * w, i < n, for each w: rows spanning the
        rational points of the GF(q^n)-multiples of the w."""
        top = self.tower.top
        return [self.expand_vec(tuple(top.mul(1 << i, c) for c in w))
                for w in vectors for i in range(self.tower.n)]

    def reduce_point(self, p: Point | Vec) -> Subspace:
        """(n-1)-subspace of the rational expansions of the scalar multiples."""
        w = p.coords if isinstance(p, Point) else tuple(p)
        sub = self.target.subspace(self._blow_up([w]))
        if sub.rank != self.tower.n:
            raise AssertionError("reduced point has wrong rank")
        return sub

    def invert_point(self, sub: Subspace) -> Point | None:
        """The source point whose reduction is sub, or None."""
        if sub.ambient != self.target or sub.rank != self.tower.n:
            return None
        top = self.tower.top
        first = self.compress_vec(sub.rows[0])
        if not any(first):
            return None
        p = normalize_point(top, first)
        for row in sub.rows[1:]:
            w = self.compress_vec(row)
            if not any(w) or normalize_point(top, w) != p:
                return None
        pt = Point(self.source, p)
        if self.reduce_point(pt) != sub:
            return None
        return pt

    def reduce_arc(self, arc: PlaneArc) -> PseudoArc:
        """Pseudo-arc of the reduced points, tagged regular-by-construction.

        The reduced elements are certified by their plane arc: by the rank
        identity (module docstring) a triple of them spans PG(3n-1, q) iff
        its points span PG(2, q^n), a repeated point fails on both sides,
        and both bounds are q^n + 2 (q is even).  `verify_pseudo_arc` reports
        the first failing triple of either set, so the verdict, the witness
        triple and the reason are those of the sweep in PG(3n-1, q).  The
        points are reduced first, so a zero point still fails
        `reduce_point`'s rank check.
        """
        if arc.ambient != self.source:
            raise ValueError("arc does not live in the source plane")
        elements = tuple(self.reduce_point(p) for p in arc.points)
        plane = arc.ambient
        report = verify_pseudo_arc(plane, [plane.subspace([p.coords]) for p in arc.points])
        if not report.ok:
            raise ValueError(report.reason)
        witness = {
            "source_kind": arc.kind,
            "plane_points": [list(p.coords) for p in arc.points],
            "convention": self.convention,
        }
        n = self.tower.n
        if n == 1:
            # degenerate tower: reduction is the identity on PG(2, q)
            witness["degenerate"] = True
        return PseudoArc(self.target, n, elements, classify_kind(self.target, n, report.k),
                         witness)


def reduction_map(q: int, n: int, source_dim: int = 2) -> ReductionMap:
    """Default-modulus tower GF(q) < GF(q^n) wrapped as a reduction map."""
    h = q.bit_length() - 1
    if q != 1 << h:
        raise ValueError("field reduction is implemented for q a power of two")
    return ReductionMap(make_tower(h, n), source_dim)


# -- extension and rationalization over the tower ---------------------------


def extend_subspace(sub: Subspace, tower: FieldTower, top_space: ProjSpace) -> Subspace:
    """The same subspace read over GF(q^n); RREF survives the embedding."""
    rows = tuple(tuple(tower.embed(c) for c in row) for row in sub.rows)
    return Subspace(top_space, rows, sub.pivots)


def frobenius_subspace(sub: Subspace, tower: FieldTower) -> Subspace:
    """Entrywise x -> x^q; maps subspaces to subspaces and preserves RREF."""
    rows = tuple(tuple(tower.frobenius(c) for c in row) for row in sub.rows)
    return Subspace(sub.ambient, rows, sub.pivots)


def _orbit_sums(x: Vec, tower: FieldTower) -> list[list[int]]:
    """The n orbit sums sum_l sigma^l(lambda * x), lambda = 1 << i the expansion basis."""
    top = tower.top
    n = tower.n
    sums = []
    for i in range(n):
        conj = tuple(top.mul(1 << i, c) for c in x)
        acc = list(conj)
        for _ in range(n - 1):
            conj = tuple(tower.frobenius(c) for c in conj)
            acc = [a ^ c for a, c in zip(acc, conj)]
        sums.append(acc)
    return sums


def rationalize_subspace(sub: Subspace, tower: FieldTower, target: ProjSpace) -> Subspace:
    """Rational form of a Galois-stable subspace over GF(q^n).

    Rows are orbit sums of lambda * r over the expansion basis; the result
    must have the same rank as the input, which is asserted (it fails when
    the input is not an extension of a rational subspace).
    """
    rows = []
    for r in sub.rows:
        for acc in _orbit_sums(r, tower):
            if not all(tower.in_base(c) for c in acc):
                raise ValueError("subspace is not Galois-stable")
            rows.append(tuple(tower.restrict(c) for c in acc))
    out = target.subspace(rows)
    if out.rank != sub.rank:
        raise ValueError("subspace is not the extension of a rational subspace")
    return out


def desarguesian_spread(q: int, n: int):
    """The regular (n-1)-spread of PG(2n-1, q): reduced points of PG(1, q^n)."""
    from .spreads import Spread
    rm = reduction_map(q, n, source_dim=1)
    elements = tuple(rm.reduce_point(p) for p in rm.source.points())
    return Spread(rm.target, elements, origin=f"desarguesian({q},{n})")


def rational_orbit_span(x: Vec, tower: FieldTower, target: ProjSpace) -> Subspace:
    """The (n-1)-subspace over GF(q) spanned by the Galois orbit of x.

    Rows are sum_l sigma^l(lambda * x) for lambda in the expansion basis;
    every coordinate lands in the embedded base field when x's orbit spans
    an n-space, which is asserted.
    """
    rows = [tuple(tower.restrict(c) for c in acc) for acc in _orbit_sums(x, tower)]
    sub = target.subspace(rows)
    if sub.rank != tower.n:
        raise ValueError("Galois orbit does not span an (n-1)-subspace")
    return sub
