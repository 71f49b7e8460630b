from __future__ import annotations

import random
from collections import Counter
from math import gcd

import pytest

from pal import (ProjSpace, conic, desarguesian_spread, gf, is_regular_spread, meet,
                 oval_nucleus_and_complete, reduction_map, translation_oval, verify_spread)
from pal.planearcs import PlaneArc
from pal.projective import Point, QuotientMap
from pal.reduction import (ReductionMap, extend_subspace, frobenius_subspace,
                           rational_orbit_span, rationalize_subspace)

from helpers import (contains, contains_point, lines_through_point, reduce_arc_by_sweep,
                     reduce_line)


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


@pytest.mark.parametrize("q,n", [(4, 2), (2, 3)])
def test_invert_point_inverts_every_reduced_point(q, n):
    rm = reduction_map(q, n)
    for p in rm.source.points():
        assert rm.invert_point(rm.reduce_point(p)) == p


def test_invert_point_is_none_exactly_off_the_reduced_points(rmap42, moved_oval):
    """Moved oval elements, random lines, a plane and a line of another
    ambient: None exactly when the subspace is no reduced point."""
    reduced = {rmap42.reduce_point(p) for p in rmap42.source.points()}
    target = rmap42.target
    rnd = random.Random(35)
    subs = list(moved_oval.elements)
    while len(subs) < len(moved_oval.elements) + 50:
        sub = target.subspace([tuple(rnd.randrange(4) for _ in range(6)) for _ in range(2)])
        if sub.rank == 2:
            subs.append(sub)
    subs.append(target.subspace([(1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0)]))
    subs.append(ProjSpace(5, gf(8)).subspace([(1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0)]))
    for sub in subs:
        pt = rmap42.invert_point(sub)
        assert (pt is None) == (sub not in reduced)
        assert pt is None or rmap42.reduce_point(pt) == sub


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


# -- reduce_arc against the sweep in PG(3n-1, q) ---------------------------------


def _assert_same_as_sweep(rm, plane: PlaneArc):
    """reduce_arc and the sweep in PG(3n-1, q) agree on plane: equal
    pseudo-arcs, or the same exception type and message.  Returns the
    exception, or None."""
    try:
        want = reduce_arc_by_sweep(rm, plane)
    except (ValueError, AssertionError) as exc:
        with pytest.raises(type(exc)) as got:
            rm.reduce_arc(plane)
        assert type(got.value) is type(exc) and str(got.value) == str(exc)
        return exc
    got = rm.reduce_arc(plane)
    assert got.ambient == want.ambient and got.n == want.n
    assert got.elements == want.elements
    assert got.kind == want.kind
    assert got.witness == want.witness
    return None


def _ovals(top) -> list[PlaneArc]:
    """The conic and every other translation oval {(1, t, t^(2^k))} of
    PG(2, top)."""
    m = top.m
    return [conic(top)] + [translation_oval(top, k) for k in range(2, m) if gcd(k, m) == 1]


@pytest.mark.parametrize("q,n", [(2, 2), (4, 2), (8, 2), (2, 3), (4, 3), (2, 5)])
def test_reduce_arc_matches_sweep_on_ovals_and_hyperovals(q, n):
    rm = reduction_map(q, n)
    for oval in _ovals(rm.tower.top):
        hyper = oval_nucleus_and_complete(oval)[1]
        assert _assert_same_as_sweep(rm, oval) is None
        assert _assert_same_as_sweep(rm, hyper) is None


@pytest.mark.parametrize("q", [2, 4, 8])
def test_reduce_arc_matches_sweep_degenerate(q):
    rm = reduction_map(q, 1)
    oval = conic(rm.tower.top)
    assert _assert_same_as_sweep(rm, oval) is None
    assert _assert_same_as_sweep(rm, oval_nucleus_and_complete(oval)[1]) is None


def _hand_built(oval: PlaneArc) -> dict[str, tuple[tuple, type]]:
    """Point tuples that bypass `make_arc`, each with the exception the
    reduction must raise."""
    plane, pts = oval.ambient, oval.points
    fld = plane.field
    chord = plane.point(tuple(fld.add(a, b) for a, b in zip(pts[1].coords, pts[2].coords)))
    mid = len(pts) // 2
    scaled = Point(plane, tuple(fld.mul(fld.order - 1, c) for c in pts[3].coords))
    outside = [p for p in plane.points() if p not in pts]
    return {
        "chord at the front": ((chord,) + pts, ValueError),
        "chord in the middle": (pts[:mid] + (chord,) + pts[mid:], ValueError),
        "chord at the end": (pts + (chord,), ValueError),
        "repeated point": (pts + (pts[3],), ValueError),
        "scaled copy": (pts[:5] + (scaled,), ValueError),
        "over the bound": (pts + tuple(outside[:2]), ValueError),
        "two points": (pts[:2], ValueError),
        "zero vector": (pts[:3] + (Point(plane, (0, 0, 0)),), AssertionError),
    }


@pytest.mark.parametrize("q,n", [(2, 2), (4, 2), (2, 3)])
def test_reduce_arc_matches_sweep_on_hand_built_arcs(q, n):
    rm = reduction_map(q, n)
    oval = conic(rm.tower.top)
    for name, (points, expected) in _hand_built(oval).items():
        exc = _assert_same_as_sweep(rm, PlaneArc(oval.ambient, points, "karc"))
        assert type(exc) is expected, name
    assert len(_hand_built(oval)["over the bound"][0]) == rm.tower.top.order + 3


def test_reduce_arc_work_count(monkeypatch):
    """The (4,3) conic is certified in PG(2, 64): one rank-1 image per later
    point for each of the 63 centers, 64 + 63 + ... + 2 = 2,079, and no
    rank-3 image of a sweep in PG(8, 4)."""
    rm, plane = reduction_map(4, 3), conic(64)
    ranks: list[int] = []
    packed = QuotientMap._packed_images

    def spied(self, columns, image_ranks, reduced):
        ranks.extend(image_ranks)
        return packed(self, columns, image_ranks, reduced)
    monkeypatch.setattr(QuotientMap, "_packed_images", spied)
    assert rm.reduce_arc(plane).kind == "pseudo-oval"
    assert Counter(ranks) == {1: 2079}
