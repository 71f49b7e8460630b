from __future__ import annotations

import random
import sys
from functools import reduce
from itertools import combinations
from operator import xor

import pytest

from pal import (ProjSpace, QuotientMap, Spread, derive_spread_from_element,
                 derive_spread_from_nucleus, desarguesian_spread, dual, gf, meet,
                 nucleus, opposite_regulus, regulus_through, span,
                 tangent_spaces, verify_spread)
from pal.fields import DEFAULT_MODULUS, TABLE_MAX_DEGREE, FiniteField
from pal.projective import (Chart, _normalized_vectors, _packed_echelon, _point_codes,
                            kernel, mat_inv, mat_mul, plane_line_codes, point_codes_of,
                            rank, reduce_mod, rref, vec_mat)
from pal.spreads import SpreadReport

from helpers import contains, empty

F2 = gf(2)
F4 = gf(4)
PG54 = ProjSpace(5, F4)
PG34 = ProjSpace(3, F4)


def rand_subspace(space, rnd, rank=None):
    d = space.dim + 1
    r = rnd.randint(0, d) if rank is None else rank
    rows = [tuple(rnd.randrange(space.field.order) for _ in range(d))
            for _ in range(r)]
    return space.subspace(rows)


def test_point_counts():
    assert PG54.n_points == 1365
    assert PG34.n_points == 85
    assert ProjSpace(2, gf(16)).n_points == 273
    line = PG34.subspace([(1, 0, 0, 0), (0, 1, 0, 0)])
    assert len(line.points()) == 5
    assert len(PG34.points()) == 85
    assert empty(PG34).points() == []


def test_point_count_is_lazy():
    huge = ProjSpace(30_000_000, F2)  # 2^30000001 - 1 points
    assert huge == ProjSpace(30_000_000, F2)
    assert "n_points" not in vars(huge)
    assert ProjSpace(3, F4).n_points == 85


def test_points_counts_all_ranks_small_spaces():
    # every subspace of PG(2,2) and PG(3,2), by brute force over row sets
    for space in (ProjSpace(2, F2), ProjSpace(3, F2)):
        d = space.dim + 1
        all_vecs = [p.coords for p in space.points()]
        seen = {}
        for r in range(1, d + 1):
            for rows in combinations(all_vecs, r):
                sub = space.subspace(rows)
                seen[sub] = sub.rank
        q = 2
        for sub, r in seen.items():
            assert sub.n_points() == (q**r - 1) // (q - 1)
            assert len(sub.points()) == sub.n_points()


def test_canonical_form_is_stable_under_row_operations():
    rnd = random.Random(20240901)
    for _ in range(200):
        sub = rand_subspace(PG54, rnd)
        if sub.rank == 0:
            continue
        rows = [list(r) for r in sub.rows]
        for _ in range(6):
            i, j = rnd.randrange(len(rows)), rnd.randrange(len(rows))
            if i != j:
                lam = rnd.randrange(1, 4)
                rows[i] = [F4.add(a, F4.mul(lam, b)) for a, b in zip(rows[i], rows[j])]
            rnd.shuffle(rows)
        again = PG54.subspace([tuple(r) for r in rows])
        assert again == sub


def test_span_and_meet_examples():
    a = PG34.subspace([(1, 0, 0, 0), (0, 1, 0, 0)])
    assert span([a]) == a
    assert meet(a, a) == a
    p1 = ProjSpace(2, F2).point((1, 0, 0))
    p2 = ProjSpace(2, F2).point((0, 1, 0))
    line = span([p1, p2])
    assert line.rank == 2
    assert len(line.points()) == 3
    skew = PG34.subspace([(0, 0, 1, 0), (0, 0, 0, 1)])
    assert meet(a, skew).rank == 0


def test_modular_law_and_duality_randomized():
    # fixed-seed randomized suite over PG(5,4)
    rnd = random.Random(1234)
    for _ in range(10_000):
        a = rand_subspace(PG54, rnd)
        b = rand_subspace(PG54, rnd)
        s = span([a, b])
        m = meet(a, b)
        assert m.dim + s.dim == a.dim + b.dim
        assert dual(dual(a)) == a
        assert dual(s) == meet(dual(a), dual(b))
        assert contains(s, a) and contains(s, b)
        assert contains(a, m) and contains(b, m)


def test_duality_dimensions():
    whole = PG54.whole()
    assert dual(whole).rank == 0
    assert dual(empty(PG54)) == whole
    line = PG54.subspace([(1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0)])
    assert dual(line).dim == 3  # (n-1)-space of PG(3n-1, q) dualizes to (2n-1)-space
    assert dual(dual(line)) == line


def test_ambient_mismatch_errors():
    a = PG54.subspace([(1, 0, 0, 0, 0, 0)])
    b = PG34.subspace([(1, 0, 0, 0)])
    with pytest.raises(ValueError):
        span([a, b])
    with pytest.raises(ValueError):
        meet(a, b)


def test_quotient_map():
    line = PG54.subspace([(1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0)])
    qm = QuotientMap(line)
    assert qm.space == PG34
    assert qm.images([line])[0].rank == 0
    skew = PG54.subspace([(0, 0, 1, 0, 0, 0), (0, 0, 0, 1, 0, 0)])
    img = qm.images([skew])[0]
    assert img.dim == 1
    lifted = qm.preimage(img)
    assert contains(lifted, skew) and contains(lifted, line)
    assert qm.images([lifted])[0] == img
    with pytest.raises(ValueError):
        QuotientMap(empty(PG54))
    with pytest.raises(ValueError):
        QuotientMap(PG54.whole())


def test_quotient_dimension_formula_randomized():
    rnd = random.Random(77)
    line = PG54.subspace([(1, 2, 3, 0, 1, 0), (0, 1, 1, 1, 0, 2)])
    qm = QuotientMap(line)
    for _ in range(300):
        s = rand_subspace(PG54, rnd)
        img = qm.images([s])[0]
        assert img.rank == span([line, s]).rank - line.rank


def unit_complement_image(center, s):
    """Oracle for QuotientMap.images: the section of span(center, s) by the
    complement W spanned by center's non-pivot unit vectors, read in W's chart."""
    d = center.ambient.dim + 1
    w = center.ambient.subspace([tuple(int(k == j) for k in range(d))
                                 for j in range(d) if j not in center.pivots])
    return Chart(w).to_internal(meet(span([center, s]), w))


def test_quotient_chart_is_unit_complement_section():
    rnd = random.Random(19)
    checked = 0
    for fld in (F2, F4, gf(5)):
        for dim in range(2, 6):
            space = ProjSpace(dim, fld)
            for _ in range(12):
                center = rand_subspace(space, rnd, rnd.randint(1, dim - 1))
                if not 0 < center.rank < dim:
                    continue
                qm = QuotientMap(center)
                for _ in range(5):
                    s = rand_subspace(space, rnd)
                    assert qm.images([s])[0] == unit_complement_image(center, s)
                    checked += 1
    assert checked > 500


def test_derived_spreads_are_unit_complement_sections(conic_oval, conic_hyperoval):
    taus = tangent_spaces(conic_oval)
    for arc in (conic_oval, conic_hyperoval):
        for i, c in enumerate(arc.elements):
            # a pseudo-oval's tangent space fills the gap at index i
            expected = tuple(unit_complement_image(c, taus[i] if j == i else e)
                             for j, e in enumerate(arc.elements)
                             if j != i or arc is conic_oval)
            assert derive_spread_from_element(arc, i).elements == expected
    nuc = nucleus(conic_oval)
    assert derive_spread_from_nucleus(conic_oval).elements == tuple(
        unit_complement_image(nuc, e) for e in conic_oval.elements)


def test_chart_roundtrip():
    carrier = PG54.subspace([(1, 0, 0, 1, 0, 0), (0, 1, 0, 0, 2, 0),
                             (0, 0, 1, 0, 0, 3), (0, 0, 0, 0, 1, 1)])
    chart = Chart(carrier)
    inner = chart.space.subspace([(1, 0, 2, 0), (0, 1, 0, 1)])
    out = chart.to_ambient(inner)
    assert contains(carrier, out)
    assert chart.to_internal(out) == inner


def test_linear_algebra_helpers():
    rows = [(1, 2, 0), (0, 1, 1), (1, 0, 3)]
    inv = mat_inv(F4, rows)
    prod = mat_mul(F4, rows, inv)
    assert prod == [tuple(1 if i == j else 0 for j in range(3)) for i in range(3)]
    with pytest.raises(ValueError):
        mat_inv(F4, [(1, 1, 0), (1, 1, 0), (0, 0, 1)])


def test_rref_canonical_properties():
    rows = [(2, 2, 0, 0), (0, 0, 3, 3)]
    rr, pivots = rref(F4, rows)
    assert all(row[p] == 1 for row, p in zip(rr, pivots))
    assert pivots == (0, 2)
    for i, p in enumerate(pivots):
        assert all(rr[j][p] == 0 for j in range(len(rr)) if j != i)


def _reference_rref(field, rows):
    """Gauss-Jordan elimination with one field.mul per entry, kept as the
    reference the kernel's paths are checked against."""
    work = [list(r) for r in rows if any(r)]
    pivots = []
    for col in range(len(work[0]) if work else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(work)) if work[i][col]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        s = field.inv(work[r][col])
        work[r] = [field.mul(s, x) for x in work[r]]
        for i in range(len(work)):
            c = work[i][col]
            if i != r and c:
                work[i] = [field.sub(x, field.mul(c, y))
                           for x, y in zip(work[i], work[r])]
        pivots.append(col)
    return tuple(tuple(r) for r in work[:len(pivots)]), tuple(pivots)


KERNEL_FIELDS = ([FiniteField(2, m) for m in sorted(DEFAULT_MODULUS)
                  if m <= TABLE_MAX_DEGREE]
                 + [FiniteField(2, 9), FiniteField(2, 12), gf(5)])


def _random_matrices(field, rnd, count=60):
    out = []
    for _ in range(count):
        nrows, ncols = rnd.randint(1, 9), rnd.randint(1, 9)
        rows = [tuple(rnd.randrange(field.order) for _ in range(ncols))
                for _ in range(nrows)]
        if nrows >= 3 and rnd.random() < 0.5:
            # a dependent last row, so that ranks below full occur
            a, b = rnd.randrange(field.order), rnd.randrange(field.order)
            rows[-1] = tuple(field.add(field.mul(a, x), field.mul(b, y))
                             for x, y in zip(rows[0], rows[1]))
        out.append(rows)
    return out


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=repr)
def test_kernel_table_and_per_entry_paths_agree(field, monkeypatch):
    assert (field.mul_table() is not None) == (field.p == 2
                                                and field.m <= TABLE_MAX_DEGREE)
    rnd = random.Random(field.order)
    cases = _random_matrices(field, rnd)
    vecs = [tuple(rnd.randrange(field.order) for _ in rows[0]) for rows in cases]

    def run():
        out = []
        for rows, v in zip(cases, vecs):
            rr, pivots = rref(field, rows)
            out.append((rr, pivots, rank(field, rows),
                        reduce_mod(field, v, rr, pivots),
                        mat_mul(field, rows, list(zip(*rows)))))
        return out

    chosen = run()
    monkeypatch.setattr(field, "mul_table", lambda: None)
    assert run() == chosen
    for rows, (rr, pivots, r, _, _) in zip(cases, chosen):
        assert (rr, pivots) == _reference_rref(field, rows)
        assert r == len(rr)


def _reference_points(sub):
    """Normalized point vectors of `sub` by one vec_mat per coefficient vector."""
    field = sub.ambient.field
    return [vec_mat(field, c, sub.rows) for c in _normalized_vectors(field, sub.rank)]


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=repr)
def test_point_codes_decode_to_point_vectors(field, monkeypatch):
    # the largest length <= 6 whose spaces have at most ~4096 points
    length = 2
    while length < 6 and field.order ** length <= 4096:
        length += 1
    space = ProjSpace(length - 1, field)
    rnd = random.Random(field.order)
    subs = []
    for r in range(length + 1):
        while len(subs) < 3 * (r + 1):
            sub = rand_subspace(space, rnd, r)
            if sub.rank == r:
                subs.append(sub)
    codes = [s.point_codes() for s in subs]
    for sub, cs in zip(subs, codes):
        ref = _reference_points(sub)
        assert len(cs) == sub.n_points() if sub.rank else cs == []
        assert [space.decode(c) for c in cs] == sub.point_vectors() == ref
        assert [space.encode(v) for v in ref] == cs
        assert [p.coords for p in sub.points()] == sorted(ref)
    monkeypatch.setattr(field, "mul_table", lambda: None)
    assert [s.point_codes() for s in subs] == codes


def _rank_exactly(space, rnd, r):
    while True:
        sub = rand_subspace(space, rnd, r)
        if sub.rank == r:
            return sub


@pytest.mark.parametrize("m", range(1, TABLE_MAX_DEGREE + 1))
def test_point_codes_of_matches_encode_at_every_width(m):
    """A batch's codes are `encode` of each point in `_normalized_vectors`
    order, for points of 3, 4, 6 and 9 bytes: chunks padded to 4 and 8
    bytes, an exact 4-byte chunk, and the chunk-by-chunk read past 8."""
    field = FiniteField(2, m)
    rnd = random.Random(m)
    for length in (3, 4, 6, 9):
        space = ProjSpace(length - 1, field)
        for r in range(min(length, 4) + 1):
            if (field.order ** r - 1) // (field.order - 1) > 1100:
                break
            subs = [_rank_exactly(space, rnd, r) for _ in range(5)]
            coeffs = _normalized_vectors(field, r)
            assert point_codes_of(subs) == [
                [space.encode(vec_mat(field, c, s.rows)) for c in coeffs] for s in subs]
    assert point_codes_of([]) == []


def test_point_codes_of_lays_chunks_out_in_host_byte_order(monkeypatch):
    """Each point's bytes fill one chunk in either layout: built for the
    other byte order, the codes read back byte-swapped."""
    space = ProjSpace(5, F4)
    rnd = random.Random(3)
    subs = [_rank_exactly(space, rnd, 3) for _ in range(4)]
    codes = point_codes_of(subs)
    swapped = [[int.from_bytes(c.to_bytes(8, "big"), "little") for c in cs] for cs in codes]
    monkeypatch.setattr(sys, "byteorder", "big" if sys.byteorder == "little" else "little")
    assert point_codes_of(subs) == swapped


def test_point_codes_of_refuses_mixed_batches():
    rnd = random.Random(4)
    with pytest.raises(ValueError, match="^ambient spaces differ$"):
        point_codes_of([_rank_exactly(PG34, rnd, 2), _rank_exactly(ProjSpace(3, gf(8)), rnd, 2)])
    with pytest.raises(ValueError, match="^subspaces of mixed rank$"):
        point_codes_of([_rank_exactly(PG34, rnd, 2), _rank_exactly(PG34, rnd, 1)])


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=repr)
def test_images_match_image_vec_row_by_row(field):
    """`images` of a batch of every rank, with subspaces that meet or lie in
    the center, equals the RREF of `image_vec` on each row."""
    rnd = random.Random(field.order)
    space = ProjSpace(5, field)
    for _ in range(12):
        center = _rank_exactly(space, rnd, rnd.randint(1, 4))
        qm = QuotientMap(center)
        subs = [rand_subspace(space, rnd) for _ in range(6)]
        subs += [space.subspace(center.rows[:1] + (rand_subspace(space, rnd, 1).rows or ())),
                 center]
        rnd.shuffle(subs)
        assert qm.images(subs) == [
            qm.space.subspace([qm.image_vec(r) for r in s.rows]) for s in subs]
        assert [qm.images([s])[0] for s in subs] == qm.images(subs)
    assert qm.images([]) == []
    with pytest.raises(ValueError, match="^ambient spaces differ$"):
        qm.images([PG34.whole()])


TABLE_FIELDS = [f for f in KERNEL_FIELDS if f.mul_bytes() is not None]


def _pack(rows):
    return [int.from_bytes(r, "big") for r in rows]


@pytest.mark.parametrize("field", TABLE_FIELDS, ids=repr)
def test_packed_echelon_matches_rref(field):
    """The packed RREF has `rref`'s rows and pivots, on 1 to 9 columns with
    zero, repeated and dependent rows; the unreduced echelon form has the
    same pivots, pivots 1 and the same row space."""
    rnd = random.Random(field.m)
    tables = field.mul_bytes()
    cases = _random_matrices(field, rnd)
    for rows in cases[:20]:
        ncols = len(rows[0])
        extra = [(0,) * ncols, rnd.choice(rows)]
        cases.append(rnd.sample(rows + extra, len(rows) + 2))
    cases.append([(0,) * 4, (0,) * 4])
    for rows in cases:
        ncols = len(rows[0])
        rr, pivots = rref(field, rows)
        packed = _packed_echelon(_pack(rows), tables, ncols, True)
        assert packed == _pack(rr)
        assert [ncols - 1 - ((r.bit_length() - 1) >> 3) for r in packed] == list(pivots)
        ech = [tuple(r.to_bytes(ncols, "big")) for r in _packed_echelon(_pack(rows), tables,
                                                                         ncols, False)]
        assert [next(j for j, x in enumerate(r) if x) for r in ech] == list(pivots)
        assert all(r[p] == 1 for r, p in zip(ech, pivots))
        assert rref(field, ech) == (rr, pivots)


@pytest.mark.parametrize("m", range(1, TABLE_MAX_DEGREE + 1))
def test_packed_codes_match_point_codes_of(m):
    """`_point_codes` on the rows as bytes is `point_codes_of` on the
    subspaces, for points of 3, 4, 6 and 9 bytes (PG(8, q) reads its chunks
    one by one); on unreduced echelon rows it lists the same points once
    each."""
    field = FiniteField(2, m)
    tables = field.mul_bytes()
    rnd = random.Random(100 + m)
    for length in (3, 4, 6, 9):
        space = ProjSpace(length - 1, field)
        for r in range(1, min(length, 4) + 1):
            if (field.order ** r - 1) // (field.order - 1) > 1100:
                break
            subs = [_rank_exactly(space, rnd, r) for _ in range(5)]
            codes = point_codes_of(subs)
            src = b"".join(bytes(row) for s in subs for row in s.rows)
            assert _point_codes(space, src, len(subs)) == codes
            # a basis in echelon form that is not reduced: add later rows to earlier ones
            mixed = b"".join(reduce(xor, rows[k:]).to_bytes(length, "big")
                             for rows in (_pack(s.rows) for s in subs) for k in range(r))
            ech = _point_codes(space, mixed, len(subs))
            assert [sorted(c) for c in ech] == [sorted(c) for c in codes]
            assert all(len(set(c)) == len(c) for c in ech)
    assert _point_codes(ProjSpace(3, field), b"", 0) == []


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=repr)
def test_image_codes_match_images(field, monkeypatch):
    """`image_codes` gives the first image of another rank and the points
    of the images before it, as `images` and `point_codes_of` do; fields
    without byte tables take `images` and build no packed rows."""
    packed = []
    batch = QuotientMap._packed_images

    def spy(self, subspaces, reduced):
        packed.append(reduced)
        return batch(self, subspaces, reduced)
    monkeypatch.setattr(QuotientMap, "_packed_images", spy)
    rnd = random.Random(field.order + 1)
    space = ProjSpace(5, field)
    for _ in range(10):
        center = _rank_exactly(space, rnd, 2)
        qm = QuotientMap(center)
        subs = [_rank_exactly(space, rnd, 2) for _ in range(5)]
        if rnd.random() < 0.5:
            subs.insert(rnd.randrange(6), space.subspace(center.rows[:1] + subs[0].rows[:1]))
        images = qm.images(subs)
        bad = next((b for b, img in enumerate(images) if img.rank != 2), None)
        got_bad, codes = qm.image_codes(subs, 2)
        assert got_bad == bad
        assert [sorted(c) for c in codes] == [sorted(c) for c in point_codes_of(images[:bad])]
    assert packed == ([True, False] * 10 if field.mul_bytes() else [])


@pytest.mark.parametrize("order", [2, 4, 5, 16])
def test_plane_line_codes_are_the_kernel_lines(order):
    """The lines of PG(2, Q), one per dual point, are the kernel lines."""
    space = ProjSpace(2, gf(order))
    assert plane_line_codes(space) == [
        space.subspace(kernel(space.field, [d], 3)).point_codes()
        for d in _normalized_vectors(space.field, 3)]


def _reference_verify_spread(spread):
    """verify_spread by a walk over plain point tuples, for equal-rank,
    duplicate-free element lists."""
    space, elems = spread.space, spread.elements
    q = space.field.order
    expected = (q ** (space.dim + 1) - 1) // (q ** elems[0].rank - 1)
    if len(elems) != expected:
        return SpreadReport(False, len(elems), expected, {"kind": "wrong-count"},
                            f"{len(elems)} elements, expected {expected}")
    covered = {}
    for idx, e in enumerate(elems):
        for v in _reference_points(e):
            other = covered.setdefault(v, idx)
            if other != idx:
                return SpreadReport(False, len(elems), expected,
                                    {"kind": "not-skew", "pair": [other, idx],
                                     "point": list(v)},
                                    f"elements {other} and {idx} meet")
    if len(covered) != space.n_points:
        missing = space.n_points - len(covered)
        return SpreadReport(False, len(elems), expected,
                            {"kind": "uncovered-points", "missing": missing},
                            f"{missing} points uncovered")
    return SpreadReport(True, len(elems), expected, None, "ok")


def _hall_spread(q, rnd):
    """The Desarguesian spread of PG(3, q) with one regulus switched, shuffled."""
    desarg = desarguesian_spread(q, 2)
    elems = desarg.elements
    reg = regulus_through(*(elems[i] for i in rnd.sample(range(len(elems)), 3)))
    inside = reg.element_set()
    lines = [e for e in elems if e not in inside] + list(opposite_regulus(reg).elements)
    rnd.shuffle(lines)
    return Spread(desarg.space, tuple(lines), origin=f"hall({q})")


def _variants(spread, rnd):
    """The spread, three copies with one element replaced by a subspace through
    points of two others (a meeting pair), and one with an element dropped."""
    space, elems = spread.space, list(spread.elements)
    out = [spread]
    for _ in range(3):
        a, b, k = rnd.sample(range(len(elems)), 3)
        pa = rnd.choice(_reference_points(elems[a]))
        pb = rnd.choice(_reference_points(elems[b]))
        rows = [pa, pb] + list(elems[k].rows[2:])
        planted = elems[:k] + [space.subspace(rows)] + elems[k + 1:]
        out.append(Spread(space, tuple(planted), origin="planted"))
    k = rnd.randrange(len(elems))
    out.append(Spread(space, tuple(elems[:k] + elems[k + 1:]), origin="dropped"))
    return out


def test_verify_spread_matches_point_tuple_reference(arc_q4n3):
    rnd = random.Random(7)
    spreads = [_hall_spread(q, rnd) for q in (4, 4, 8, 8)]
    spreads.append(derive_spread_from_element(arc_q4n3, 11))
    kinds = []
    for spread in spreads:
        for variant in _variants(spread, rnd):
            report = verify_spread(variant)
            assert report == _reference_verify_spread(variant)
            kinds.append((report.witness or {}).get("kind"))
    assert kinds == [None, "not-skew", "not-skew", "not-skew", "wrong-count"] * 5
