from __future__ import annotations

import random

import pytest

from pal import (ProjSpace, conic, desarguesian_spread, gf, is_regular_spread,
                 meet, reduction_map, verify_spread)
from pal.reduction import (ReductionMap, extend_subspace, frobenius_subspace,
                           rational_orbit_span, rationalize_subspace)

from helpers import contains, contains_point, lines_through_point, reduce_line


def test_reduce_point_shape(rmap42):
    sub = rmap42.reduce_point((1, 0, 0))
    assert sub.dim == 1 and sub.ambient.dim == 5
    assert sub.n_points() == 5  # 15 scalar multiples give 5 projective points


def test_reduce_point_injective_and_skew(rmap42):
    rnd = random.Random(5150)
    pts = rmap42.source.points()
    for _ in range(100):
        p, q = rnd.sample(pts, 2)
        a, b = rmap42.reduce_point(p), rmap42.reduce_point(q)
        assert a != b
        assert meet(a, b).rank == 0
    p = rnd.choice(pts)
    assert rmap42.reduce_point(p) == rmap42.reduce_point(p)


def test_reduce_line_incidence(rmap42):
    src = rmap42.source
    line = src.subspace([(1, 0, 0), (0, 1, 0)])
    red = reduce_line(rmap42, line)
    assert red.dim == 3
    inside = 0
    for p in src.points():
        if contains_point(line, p):
            assert contains(red, rmap42.reduce_point(p))
            inside += 1
        else:
            assert not contains(red, rmap42.reduce_point(p))
    assert inside == 17


def test_full_pencil_incidence_both_ways(rmap42):
    src = rmap42.source
    center = src.point((1, 1, 1))
    for line in lines_through_point(center):
        red = reduce_line(rmap42, line)
        for p in src.points():
            assert contains_point(line, p) == contains(red, rmap42.reduce_point(p))


def test_two_lines_meet_in_reduced_point(rmap42):
    src = rmap42.source
    l1 = src.subspace([(1, 0, 0), (0, 1, 0)])
    l2 = src.subspace([(1, 0, 0), (0, 0, 1)])
    r1, r2 = reduce_line(rmap42, l1), reduce_line(rmap42, l2)
    cross = meet(l1, l2)
    assert cross.rank == 1
    assert meet(r1, r2) == rmap42.reduce_point(cross.rows[0])


def test_reduce_arc_tags_witness(rmap42, conic_oval):
    assert conic_oval.witness is not None
    assert conic_oval.witness["convention"] == "powerbasis-v1"
    assert conic_oval.witness["source_kind"] == "oval"


def test_n1_reduction_is_identity():
    rm = reduction_map(4, 1)
    src = rm.source
    assert rm.target.dim == 2
    for p in src.points():
        sub = rm.reduce_point(p)
        assert sub.rank == 1
        assert sub.rows[0] == p.coords
    arc = rm.reduce_arc(conic(4))
    assert [e.rows[0] for e in arc.elements] == [p.coords for p in conic(4).points]


def test_invert_point(rmap42, conic_oval):
    for i, e in enumerate(conic_oval.elements):
        p = rmap42.invert_point(e)
        assert p is not None
        assert p.coords == conic_oval.witness["plane_points"][i] \
            or list(p.coords) == conic_oval.witness["plane_points"][i]
    # spans points of two different reduced images: not itself an image
    stray = conic_oval.ambient.subspace([(1, 0, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0)])
    assert rmap42.invert_point(stray) is None


def test_desarguesian_spread_q4():
    spread = desarguesian_spread(4, 2)
    assert len(spread.elements) == 17
    assert verify_spread(spread).ok
    rep = is_regular_spread(spread)
    assert rep.regular and not rep.vacuous
    assert rep.checked_triples == 680


def test_desarguesian_spread_q2_n3():
    spread = desarguesian_spread(2, 3)
    assert len(spread.elements) == 9
    assert verify_spread(spread).ok
    rep = is_regular_spread(spread)
    assert rep.regular and rep.vacuous


def test_extension_and_rationalization_roundtrip(rmap42, tower42):
    top_space = ProjSpace(5, tower42.top)
    sub = rmap42.reduce_point((1, 7, 9))
    ext = extend_subspace(sub, tower42, top_space)
    assert ext.rank == sub.rank
    back = rationalize_subspace(ext, tower42, rmap42.target)
    assert back == sub
    # a non-stable subspace rationalizes to nothing
    crooked = top_space.subspace([(1, 0, 0, 0, 0, 2), (0, 1, 0, 0, 4, 0)])
    if frobenius_subspace(crooked, tower42) != crooked:
        with pytest.raises(ValueError):
            rationalize_subspace(crooked, tower42, rmap42.target)


def test_rational_orbit_span_inverts_reduction(rmap42, tower42):
    top_space = ProjSpace(5, tower42.top)
    for coords in ((1, 0, 0), (1, 7, 9), (0, 1, 13)):
        sub = rmap42.reduce_point(coords)
        ext = extend_subspace(sub, tower42, top_space)
        # pick a point of the extension with full orbit: the eigen-style
        # generators used by the sigma construction
        for vec in ext.point_vectors():
            conj = tuple(tower42.frobenius(c) for c in vec)
            if not contains_point(ext, conj):
                continue
            try:
                again = rational_orbit_span(vec, tower42, rmap42.target)
            except ValueError:
                continue
            assert again == sub
            break
        else:
            pytest.fail("no orbit generator found in the extension")


def test_reduction_map_caps():
    with pytest.raises(ValueError):
        reduction_map(5, 2)  # q must be a power of two
