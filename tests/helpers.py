"""Helpers that only the tests use: point and subspace incidence, the empty
subspace, the pencil of lines through a point, Frobenius orbits, reduced
lines, field reduction of an arc by the sweep in PG(3n-1, q) (the oracle of
`ReductionMap.reduce_arc`), the plane-arc writer, the elements of a dual
arc's spreads, a switch to the per-entry kernel, and the regulus frame by
the inverse of [A; C] with the reguli and transversals built on it (the
oracle of the aligned frame in `spreads`), each built on pal's own
operations."""

from __future__ import annotations

from pal.io import SCHEMA, field_to_json
from pal.planearcs import PlaneArc
from pal.projective import (Chart, Point, ProjSpace, Subspace, _normalized_vectors, kernel,
                            mat_inv, mat_mul, reduce_mod, span, vec_mat)
from pal.pseudoarcs import PseudoArc, make_pseudo_arc
from pal.spreads import Regulus


def contains_point(sub: Subspace, p) -> bool:
    """Whether the point p (a `Point` or a coordinate vector) lies in sub."""
    v = p.coords if isinstance(p, Point) else p
    return not any(reduce_mod(sub.ambient.field, v, sub.rows, sub.pivots))


def contains(sub: Subspace, other: Subspace) -> bool:
    """Whether the subspace other lies in sub."""
    if sub.ambient != other.ambient:
        raise ValueError("ambient spaces differ")
    return all(contains_point(sub, r) for r in other.rows)


def empty(space: ProjSpace) -> Subspace:
    """The empty subspace of space: no rows, projective dimension -1."""
    return Subspace(space, (), ())


def lines_through_point(p: Point) -> list[Subspace]:
    """The pencil of Q+1 lines through p, via the dual line's points."""
    space = p.ambient
    duals = kernel(space.field, [p.coords], 3)
    return [space.subspace(kernel(space.field, [vec_mat(space.field, c, duals)], 3))
            for c in _normalized_vectors(space.field, 2)]


def galois_orbit(tower, a: int) -> list[int]:
    """[a, a^q, a^(q^2), ...] up to the first repetition."""
    orbit = [tower.top.check(a)]
    v = tower.frobenius(a)
    while v != a:
        orbit.append(v)
        v = tower.frobenius(v)
    return orbit


def reduce_line(rmap, line: Subspace) -> Subspace:
    """The (2n-1)-subspace of PG(3n-1, q) carrying the reductions of the
    points of a line of the source plane."""
    sub = rmap.target.subspace(rmap._blow_up(line.rows))
    assert sub.rank == 2 * rmap.tower.n
    return sub


def reduce_arc_by_sweep(rmap, plane: PlaneArc) -> PseudoArc:
    """The reduced arc verified by the pseudo-arc sweep in PG(3n-1, q), with
    the witness `ReductionMap.reduce_arc` writes."""
    witness = {"source_kind": plane.kind,
               "plane_points": [list(p.coords) for p in plane.points],
               "convention": rmap.convention}
    if rmap.tower.n == 1:
        witness["degenerate"] = True
    return make_pseudo_arc(rmap.target, [rmap.reduce_point(p) for p in plane.points], witness)


def plane_arc_to_json(arc: PlaneArc) -> dict:
    """A pal-v1 plane-arc file of arc, the kind `pal verify` reads."""
    return {"schema": SCHEMA, "kind": "plane-arc",
            "field": field_to_json(arc.field),
            "points": [list(p.coords) for p in arc.points],
            "arc_kind": arc.kind}


def alpha_internal(da, i: int, j: int) -> Subspace:
    """beta_i ^ beta_j in beta_i's chart: element j (index-aligned) of Gamma_i."""
    return da.gammas[i].elements[j if j < i else j - 1]


def per_entry_kernel(field, monkeypatch) -> None:
    """Send `field` down the per-entry kernel until the test ends: no byte
    tables, and its row operations built again without them."""
    assert field.row_ops  # cached first, so that monkeypatch restores it
    monkeypatch.setattr(field, "mul_table", lambda: None)
    monkeypatch.delitem(vars(field), "row_ops")


def graph_map(fld, m_inv, rows, n: int):
    """Matrix F of the map A -> C whose graph is the row space of `rows`.

    `m_inv` inverts the stacked A and C bases; a row's coordinates over it
    split as (x, y) with y = x.F.
    """
    x_rows, y_rows = [], []
    for row in rows:
        coeff = vec_mat(fld, row, m_inv)
        x_rows.append(coeff[:n])
        y_rows.append(coeff[n:])
    return mat_mul(fld, mat_inv(fld, x_rows), y_rows)


def graph_rows(fld, a_rows, fmap, c_rows):
    """Rows e_k.A + (e_k.F).C spanning the graph of F: A -> C."""
    return [tuple(fld.add(x, y) for x, y in zip(arow, w))
            for arow, w in zip(a_rows, mat_mul(fld, fmap, c_rows))]


def frame_by_inverse(a: Subspace, b: Subspace, c: Subspace):
    """The frame of three pairwise-skew (n-1)-spaces spanning a (2n-1)-space
    by the 2n x 2n inverse of [A; C]: (chart, (a, b, c), F, G) with the
    chart of their span (None when it is the whole ambient), the three in
    chart coordinates, F the matrix of b read as the graph of a map a -> c,
    and G = F.C."""
    hull = span([a, b, c])
    chart = Chart(hull) if hull.rank != a.ambient.dim + 1 else None
    if chart is not None:
        a, b, c = (chart.to_internal(s) for s in (a, b, c))
    fld = a.ambient.field
    fmap = graph_map(fld, mat_inv(fld, list(a.rows) + list(c.rows)), b.rows, a.rank)
    return chart, (a, b, c), fmap, mat_mul(fld, fmap, c.rows)


def regulus_by_scaled_maps(a: Subspace, b: Subspace, c: Subspace) -> Regulus:
    """Reference regulus through a, b, c: `frame_by_inverse`, then one
    `graph_rows` call per lambda on the entrywise scaled matrix lambda.F."""
    gens = (a, b, c)
    chart, (a, b, c), fmap, _ = frame_by_inverse(a, b, c)
    space = a.ambient
    fld = space.field
    elements = [a, c]
    for lam in range(1, fld.order):
        scaled = [tuple(fld.mul(lam, x) for x in row) for row in fmap]
        elements.append(space.subspace(graph_rows(fld, a.rows, scaled, c.rows)))
    assert b in elements
    if chart is None:
        return Regulus(space, gens, tuple(sorted(elements, key=lambda s: s.rows)))
    out = tuple(sorted((chart.to_ambient(e) for e in elements), key=lambda s: s.rows))
    return Regulus(chart.ambient, gens, out, carrier=chart.carrier)


def transversals_by_inverse(a: Subspace, b: Subspace, c: Subspace) -> list[Subspace]:
    """Reference transversal lines of the regulus (a, b, c): for each x in
    `_normalized_vectors` order, the line through x.A and x.(A + F.C)."""
    chart, (a, b, c), fmap, _ = frame_by_inverse(a, b, c)
    space = a.ambient
    fld = space.field
    b_rows = graph_rows(fld, a.rows, fmap, c.rows)
    lines = [space.subspace([vec_mat(fld, x, a.rows), vec_mat(fld, x, b_rows)])
             for x in _normalized_vectors(fld, a.rank)]
    return [chart.to_ambient(s) for s in lines] if chart is not None else lines
