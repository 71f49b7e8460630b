"""Generalized arcs of PG(3n-1, q): pseudo-ovals and pseudo-hyperovals.

A generalized k-arc is a set of k (n-1)-subspaces every three of which span
the ambient space.  Verification and tangent spaces both work in the
quotient PG(2n-1, q) by one element, on the point codes of the other
elements' images.  Three elements span iff, in the quotient by one of them,
the other two images are skew (n-1)-spaces, so one pass per element checks
every triple through it.  For a tangent space, the other elements' images
are pairwise skew (n-1)-spaces whose uncovered points must form exactly one
(n-1)-space, and the tangent space is its preimage (partition completion).
That route proves uniqueness while it computes, and q odd takes it at every
element.  For q even every tangent space contains the nucleus (Qvist for
n = 1, Thas for pseudo-ovals), so two partition passes give the nucleus as
the meet of their tangent spaces, and one quotient pass with the nucleus as
center certifies that it spans with every pair of elements.  Each other
tangent space is then the span of its element and the nucleus.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .projective import ProjSpace, QuotientMap, Subspace, meet, point_owners, row_columns, span


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
    """Triple-spanning check plus the size bound q^n+1 / q^n+2.

    Quotient criterion: e_i, e_j and e_l span PG(3n-1, q) iff the images of
    e_j and e_l in the quotient PG(2n-1, q) by e_i both have rank n and
    share no point.  Proof: dim span(e_i, e_j, e_l) = n + dim span(image_j,
    image_l), and two images of rank at most n span all 2n dimensions
    exactly when both have rank n and meet trivially.  So one pass per
    center i <= k - 3 over the images of the later elements answers all of
    its triples: images of rank < n are bad, and the others' point codes go
    into one set, where a repeated code is a meeting pair.  Every element
    must lie in `ambient`: their rows are laid out once (`row_columns`), and
    center i reduces the slice of the rows of elements i+1.. in one batch.

    The witness is the first non-spanning triple in `combinations` order,
    the one a plain triple sweep reports: the first center with a failure,
    then the lexicographically first failing pair of its images
    (`_first_failing_pair`).
    """
    elems = list(elements)
    if len(elems) < 3:
        raise ValueError("a generalized arc needs at least 3 elements")
    if any(e.ambient is not ambient and e.ambient != ambient for e in elems):
        raise ValueError("ambient spaces differ")
    ranks = {e.rank for e in elems}
    if len(ranks) != 1:
        raise ValueError(f"mixed element dimensions {sorted(r - 1 for r in ranks)}")
    n = ranks.pop()
    if ambient.dim != 3 * n - 1:
        raise ValueError(f"(n-1)-elements with n={n} need ambient PG({3 * n - 1}, q)")
    q = ambient.field.order
    max_k = q**n + 2 if q % 2 == 0 else q**n + 1
    k = len(elems)
    if k > max_k:
        return PseudoArcReport(False, k, n, max_k, None,
                               f"{k} elements exceed the bound {max_k}")
    columns = row_columns(ambient, elems)
    for i in range(k - 2):
        pair = _first_failing_pair(elems[i], [c[(i + 1) * n:] for c in columns], n)
        if pair is not None:
            triple = (i, i + 1 + pair[0], i + 1 + pair[1])
            return PseudoArcReport(False, k, n, max_k, triple,
                                   "elements {},{},{} do not span the space".format(*triple))
    return PseudoArcReport(True, k, n, max_k, None, "ok")


def _first_failing_pair(center: Subspace, columns, n: int) -> tuple[int, int] | None:
    """Lexicographically first pair (a, b) of the rank-n elements whose rows
    `columns` lays out such that center, a and b do not span; None if none.

    A pair fails iff one of its images in the quotient by `center` has rank
    < n, or the two images share a point.  One `QuotientMap.image_codes`
    call lists the point codes of the images before the first bad one in
    one flat list, and when no code repeats, one set of it settles every
    pair among them.  A first bad image b makes the answer (0, 1) if b = 0
    and (0, b) otherwise, unless a meeting pair before it starts at 0:
    every other pair found before it starts at a > 0, and every later pair
    ends past b.

    Repeated codes take an ordered walk over the images' slices of the
    list.  A code's owner is the last image that listed it, and an image b
    that repeats codes meets the smallest of their owners.  That finds the
    first meeting pair (a*, b*), not just the first met: the owner of a code
    shared by a* and b* lies in [a*, b*) and meets a*, so it is a* itself,
    and no owner of a code of b* is smaller.  Once the best pair starts at
    0, later images only add pairs with a larger b.
    """
    bad, codes = QuotientMap(center).image_codes(columns, n)
    if len(set(codes)) < len(codes):
        count = len(columns[0]) // n if bad is None else bad
        owner: dict[int, int] = {}
        best = None
        for b, cs in enumerate(codes[j::count] for j in range(count)):
            if not owner.keys().isdisjoint(cs):
                meets = (min(owner[c] for c in cs if c in owner), b)
                best = meets if best is None else min(best, meets)
                if best[0] == 0:
                    return best
            owner.update(dict.fromkeys(cs, b))
        if bad is None:
            return best
    return None if bad is None else (0, max(bad, 1))


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


def _tangent(arc: PseudoArc, i: int, owner: dict[int, int]) -> Subspace:
    """Tangent space at element i; `owner` maps each point code of the
    elements to its element (`point_owners`: the elements are pairwise skew).
    One `QuotientMap.image_codes` call lists the points the other images cover."""
    if arc.kind != "pseudo-oval":
        raise ValueError(f"tangent spaces exist for pseudo-ovals, not {arc.kind}")
    qm = QuotientMap(arc.elements[i])
    others = arc.elements[:i] + arc.elements[i + 1:]
    bad, codes = qm.image_codes(row_columns(arc.ambient, others), arc.n)
    if bad is not None:
        raise ValueError(f"element {i} meets another element: not a pseudo-oval")
    covered = set(codes)
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
    met = {owner[c] for c in tau.point_codes() if c in owner} - {i}
    if met:
        raise AssertionError(f"tangent space at {i} meets element {min(met)}")
    return tau


def tangent_spaces(arc: PseudoArc) -> list[Subspace]:
    """All tangent spaces, index-aligned with the elements; cached.

    q odd: partition completion at every element.  q even: partition
    completion at elements 0 and 1 only, whose tangent spaces meet in the
    nucleus pi (`_tangents_through_nucleus`).
    """
    if "tangents" not in arc._cache:
        owner = point_owners(arc.elements)
        if arc.q % 2:
            taus = [_tangent(arc, i, owner) for i in range(len(arc.elements))]
        else:
            taus = _tangents_through_nucleus(arc, owner)
        arc._cache["tangents"] = taus
    return arc._cache["tangents"]


def _tangents_through_nucleus(arc: PseudoArc, owner: dict[int, int]) -> list[Subspace]:
    """Tangent spaces of a pseudo-oval with q even, from pi = tau_0 ^ tau_1.

    One quotient pass with pi as center checks that e_i, e_j and pi span the
    space for all i != j.  Then <e_i, pi> has rank 2n and meets no other
    element, and partition completion at i shows that only one
    (2n-1)-space through e_i does: the images of the other elements leave
    exactly the points of one (n-1)-space uncovered.  So <e_i, pi> is tau_i,
    with the same canonical rows.  The arc was verified when it was built;
    Thas's theorem says the pass cannot fail, so a failure is an invariant
    error.
    """
    tau0, tau1 = _tangent(arc, 0, owner), _tangent(arc, 1, owner)
    pi = meet(tau0, tau1)
    if pi.rank != arc.n:
        raise AssertionError(f"nucleus has rank {pi.rank}, expected {arc.n}")
    pair = _first_failing_pair(pi, row_columns(arc.ambient, arc.elements), arc.n)
    if pair is not None:
        raise AssertionError("elements {},{} and the nucleus do not span the space: "
                             "tangent spaces have no common (n-1)-space".format(*pair))
    return [tau0, tau1] + [span([e, pi]) for e in arc.elements[2:]]


def nucleus(arc: PseudoArc) -> Subspace:
    """Common (n-1)-space of all tangent spaces; q even only.  It is the
    meet of the first two, which `tangent_spaces` certified."""
    if arc.q % 2:
        raise ValueError(f"q={arc.q} is odd: tangent spaces form a dual pseudo-oval, "
                         "there is no nucleus")
    taus = tangent_spaces(arc)
    return meet(taus[0], taus[1])


def extend_to_hyperoval(arc: PseudoArc) -> PseudoArc:
    """Append the nucleus as element q^n + 1, a verified pseudo-hyperoval.

    The oval's own triples were verified when it was built (by
    `make_pseudo_arc`, or by `make_arc` for a plane oval).  The
    C(q^n + 1, 2) triples through the nucleus were checked when `nucleus`
    read the tangent spaces: `_tangents_through_nucleus` makes one quotient
    pass with the same nucleus as center before it fills the cache.
    """
    if arc.kind != "pseudo-oval":
        raise ValueError(f"only pseudo-ovals extend; got {arc.kind} with {len(arc)} elements")
    return PseudoArc(arc.ambient, arc.n, arc.elements + (nucleus(arc),), "pseudo-hyperoval",
                     arc.witness)
