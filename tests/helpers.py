"""Helpers that only the tests use: point and subspace incidence, the empty
subspace, the pencil of lines through a point, Frobenius orbits, reduced
lines and the elements of a dual arc's spreads, each built on pal's own
operations."""

from __future__ import annotations

from pal.projective import (Point, ProjSpace, Subspace, _normalized_vectors, kernel,
                            reduce_mod, vec_mat)


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


def alpha_internal(da, i: int, j: int) -> Subspace:
    """beta_i ^ beta_j in beta_i's chart: element j (index-aligned) of Gamma_i."""
    return da.gammas[i].elements[j if j < i else j - 1]
