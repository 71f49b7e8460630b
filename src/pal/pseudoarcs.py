"""Generalized arcs of PG(3n-1, q): pseudo-ovals and pseudo-hyperovals.

A generalized k-arc is a set of k (n-1)-subspaces every three of which span
the ambient space.  Tangent spaces are computed by partition completion in
the quotient by an element: the other elements' images are pairwise skew
(n-1)-spaces whose uncovered points must form exactly one (n-1)-space, and
the tangent space is its preimage.  That route proves uniqueness while it
computes.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from itertools import combinations

from .projective import (ProjSpace, QuotientMap, Subspace, dual, mat_mul, meet,
                         rank)


@dataclass(frozen=True)
class PseudoArcReport:
    ok: bool
    k: int
    n: int
    max_k: int
    witness_triple: tuple[int, int, int] | None
    reason: str


@dataclass(frozen=True)
class PseudoArc:
    ambient: ProjSpace
    n: int
    elements: tuple[Subspace, ...]
    kind: str  # generalized-arc | pseudo-oval | pseudo-hyperoval
    witness: dict | None = None
    _cache: dict = dc_field(default_factory=dict, compare=False, repr=False)

    @property
    def q(self) -> int:
        return self.ambient.field.order

    def __len__(self) -> int:
        return len(self.elements)


def verify_pseudo_arc(ambient: ProjSpace, elements) -> PseudoArcReport:
    """Triple-spanning sweep plus the size bound q^n+1 / q^n+2.

    Pair-dual criterion: for a pair i < j, D = dual(span(e_i, e_j)) has rank
    n when e_i and e_j are skew, and the kernel of v -> v . D^T is exactly
    span(e_i, e_j).  So e_i, e_j, e_k span the space iff the n x n matrix
    E_k . D^T is invertible.  Each D is computed once, and its transposed
    products D . E_k^T for all k > j come from one matrix product with the
    stacked element matrices.

    Triples are visited in the lexicographic order of `combinations`, and a
    meeting pair fails at (i, j, j + 1), so the witness is the first
    non-spanning triple, the same one a plain triple sweep reports.
    """
    elems = list(elements)
    if len(elems) < 3:
        raise ValueError("a generalized arc needs at least 3 elements")
    ranks = {e.rank for e in elems}
    if len(ranks) != 1:
        raise ValueError(f"mixed element dimensions {sorted(r - 1 for r in ranks)}")
    n = ranks.pop()
    if ambient.dim != 3 * n - 1:
        raise ValueError(f"(n-1)-elements with n={n} need ambient PG({3 * n - 1}, q)")
    q = ambient.field.order
    max_k = q**n + 2 if q % 2 == 0 else q**n + 1
    fld = ambient.field
    k = len(elems)
    if k > max_k:
        return PseudoArcReport(False, k, n, max_k, None,
                               f"{k} elements exceed the bound {max_k}")
    # column t of the stacked element matrices: E_0[:, t], E_1[:, t], ...
    columns = [tuple(row[t] for e in elems for row in e.rows) for t in range(3 * n)]
    for i, j in combinations(range(k - 1), 2):
        pair = ambient.subspace(elems[i].rows + elems[j].rows)
        if pair.rank != 2 * n:
            return _non_spanning(k, n, max_k, (i, j, j + 1))
        # D . E_m^T for every m > j, side by side in n-column blocks
        lo = n * (j + 1)
        blocks = mat_mul(fld, dual(pair).rows, [c[lo:] for c in columns])
        for m in range(j + 1, k):
            at = n * (m - j - 1)
            if rank(fld, [b[at:at + n] for b in blocks]) != n:
                return _non_spanning(k, n, max_k, (i, j, m))
    return PseudoArcReport(True, k, n, max_k, None, "ok")


def _non_spanning(k: int, n: int, max_k: int, triple) -> PseudoArcReport:
    return PseudoArcReport(False, k, n, max_k, triple,
                           "elements {},{},{} do not span the space".format(*triple))


def classify_kind(ambient: ProjSpace, n: int, k: int) -> str:
    q = ambient.field.order
    if k == q**n + 1:
        return "pseudo-oval"
    if k == q**n + 2 and q % 2 == 0:
        return "pseudo-hyperoval"
    return "generalized-arc"


def make_pseudo_arc(ambient: ProjSpace, elements, witness: dict | None = None) -> PseudoArc:
    report = verify_pseudo_arc(ambient, elements)
    if not report.ok:
        raise ValueError(report.reason)
    kind = classify_kind(ambient, report.n, report.k)
    return PseudoArc(ambient, report.n, tuple(elements), kind, witness)


def tangent_space(arc: PseudoArc, i: int) -> Subspace:
    """The unique (2n-1)-space through element i meeting no other element."""
    if "tangents" in arc._cache:
        return arc._cache["tangents"][i]
    return _tangent(arc, i)


def _tangent(arc: PseudoArc, i: int) -> Subspace:
    if arc.kind != "pseudo-oval":
        raise ValueError(f"tangent spaces exist for pseudo-ovals, not {arc.kind}")
    qm = QuotientMap(arc.elements[i])
    images = [qm.image(e) for j, e in enumerate(arc.elements) if j != i]
    covered = set()
    for img in images:
        if img.rank != arc.n:
            raise ValueError(f"element {i} meets another element: not a pseudo-oval")
        covered.update(img.point_codes())
    q = arc.q
    expected = (q**arc.n - 1) // (q - 1)
    uncovered = [c for c in qm.space.whole().point_codes() if c not in covered]
    if len(uncovered) != expected:
        raise ValueError(f"quotient by element {i} leaves {len(uncovered)} uncovered "
                         f"points, expected {expected}: not a pseudo-oval")
    gap = qm.space.subspace([qm.space.decode(c) for c in uncovered])
    if gap.rank != arc.n or gap.n_points() != expected:
        raise ValueError(f"uncovered points in the quotient by element {i} "
                         "do not form an (n-1)-space: not a pseudo-oval")
    tau = qm.preimage(gap)
    fld = arc.ambient.field
    for j, e in enumerate(arc.elements):
        if j != i and rank(fld, tau.rows + e.rows) != tau.rank + e.rank:
            raise AssertionError(f"tangent space at {i} meets element {j}")
    return tau


def tangent_spaces(arc: PseudoArc) -> list[Subspace]:
    """All tangent spaces, index-aligned with the elements; cached."""
    if "tangents" not in arc._cache:
        arc._cache["tangents"] = [_tangent(arc, i) for i in range(len(arc.elements))]
    return arc._cache["tangents"]


def nucleus(arc: PseudoArc) -> Subspace:
    """Common (n-1)-space of all tangent spaces; q even only."""
    if arc.q % 2:
        raise ValueError(f"q={arc.q} is odd: tangent spaces form a dual pseudo-oval, "
                         "there is no nucleus")
    taus = tangent_spaces(arc)
    common = taus[0]
    for t in taus[1:]:
        common = meet(common, t)
        if common.rank < arc.n:
            raise AssertionError("tangent spaces have no common (n-1)-space")
    if common.rank != arc.n:
        raise AssertionError(f"nucleus has rank {common.rank}, expected {arc.n}")
    return common


def extend_to_hyperoval(arc: PseudoArc) -> PseudoArc:
    """Append the nucleus as element q^n + 1, a verified pseudo-hyperoval.

    The oval's own triples were verified when it was built (every PseudoArc
    comes from `make_pseudo_arc`), so only the C(q^n + 1, 2) triples through
    the nucleus are checked.
    """
    if arc.kind != "pseudo-oval":
        raise ValueError(f"only pseudo-ovals extend; got {arc.kind} with {len(arc)} elements")
    nuc = nucleus(arc)
    fld = arc.ambient.field
    for i, j in combinations(range(len(arc)), 2):
        if rank(fld, arc.elements[i].rows + arc.elements[j].rows + nuc.rows) != 3 * arc.n:
            raise AssertionError(f"elements {i},{j} and the nucleus do not span the space: "
                                 "extension is not a pseudo-hyperoval")
    return PseudoArc(arc.ambient, arc.n, arc.elements + (nuc,), "pseudo-hyperoval",
                     arc.witness)
