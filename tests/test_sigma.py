from __future__ import annotations

import random
from dataclasses import replace
from itertools import combinations

import pytest

import pal.sigma
import pal.spreads
from pal import (NotRegularError, ProjSpace, RecognitionResult, Regulus,
                 Spread, build_sigma, conic, derive_spread_from_element,
                 desarguesian_spread, dual_arc, extend_to_hyperoval, generated_spread, gf,
                 is_regular_spread,
                 make_pseudo_arc, make_tower, meet, opposite_regulus, plane_model,
                 recognize_regular, regulus_through, span, spread_transversals, verify_spread)
from pal.fields import FieldTower, field_make
from pal.projective import _normalized_vectors, mat_mul, rref, vec_mat
from pal.reduction import extend_subspace, frobenius_subspace, rational_orbit_span
from pal.sigma import PlaneModel, _model_lines, _recognize_choice
from pal.spreads import spread_field

from helpers import alpha_internal, contains, contains_point, galois_orbit


@pytest.fixture(scope="module")
def pg34_spread():
    return desarguesian_spread(4, 2)


@pytest.fixture(scope="module")
def lines_q4(pg34_spread, tower42):
    return spread_transversals(pg34_spread, tower42)


def enumerate_lines_rref(space):
    """All rank-2 RREF matrices of a projective space, via pivot patterns."""
    d = space.dim + 1
    fld = space.field
    els = list(fld.elements())
    out = []
    for p1 in range(d):
        for p2 in range(p1 + 1, d):
            free1 = [j for j in range(p1 + 1, d) if j != p2]
            free2 = [j for j in range(p2 + 1, d)]
            free = [(0, j) for j in free1] + [(1, j) for j in free2]

            def fill(idx, rows):
                if idx == len(free):
                    out.append(space.subspace([tuple(rows[0]), tuple(rows[1])]))
                    return
                r, j = free[idx]
                for v in els:
                    rows[r][j] = v
                    fill(idx + 1, rows)
                rows[r][j] = 0

            base1 = [0] * d
            base2 = [0] * d
            base1[p1] = 1
            base2[p2] = 1
            fill(0, [base1, base2])
    return out


def test_transversal_lines_exhaustive_oracle(pg34_spread, tower42, lines_q4):
    """Brute force over all 70161 lines of PG(3,16): exactly the two conjugate
    transversal lines meet every extended spread element."""
    top_space = ProjSpace(3, tower42.top)
    extended = [extend_subspace(e, tower42, top_space)
                for e in pg34_spread.elements]
    lines = enumerate_lines_rref(top_space)
    assert len(lines) == 70161
    fld = top_space.field
    hits = []
    for line in lines:
        ok = True
        for ext in extended:
            if len(rref(fld, line.rows + ext.rows)[0]) == 4:  # skew: no meet
                ok = False
                break
        if ok:
            hits.append(line)
    assert set(hits) == set(lines_q4)
    assert len(hits) == 2


def test_transversals_are_conjugate(lines_q4, tower42):
    u1, u2 = lines_q4
    assert frobenius_subspace(u1, tower42) == u2
    assert frobenius_subspace(u2, tower42) == u1


def test_transversals_meet_every_element_once(pg34_spread, tower42, lines_q4):
    top_space = lines_q4[0].ambient
    for e in pg34_spread.elements:
        ext = extend_subspace(e, tower42, top_space)
        for u in lines_q4:
            assert meet(ext, u).rank == 1


def test_transversals_n3():
    spread = desarguesian_spread(2, 3)
    tower = make_tower(1, 3)
    lines = spread_transversals(spread, tower)
    assert len(lines) == 3
    for l in range(3):
        assert frobenius_subspace(lines[l], tower) == lines[(l + 1) % 3]


def test_transversals_reject_irregular(pg34_spread, tower42):
    reg = regulus_through(*pg34_spread.elements[:3])
    opp = opposite_regulus(reg)
    elems = tuple(e for e in pg34_spread.elements
                  if e not in reg.element_set()) + opp.elements
    bad = Spread(pg34_spread.space, elems)
    with pytest.raises(NotRegularError) as err:
        spread_transversals(bad, tower42)
    assert err.value.witness["kind"] == "regulus-closure"


def test_matrix_field_agrees_with_regulus_closure(pg34_spread, conic_hyperoval, conic_dual,
                                                  arc_q4n3, shuffled_hall, monkeypatch):
    """The spread-set field test and the full regulus-closure sweep (with
    is_regular_spread's certificate off) give one verdict."""
    # the sweep compares CERTIFICATE_AFTER with a count of at least 1
    monkeypatch.setattr(pal.spreads, "CERTIFICATE_AFTER", 0)
    reg = regulus_through(*pg34_spread.elements[:3])
    hall = Spread(pg34_spread.space,
                  tuple(e for e in pg34_spread.elements if e not in reg.element_set())
                  + opposite_regulus(reg).elements)
    derived = [derive_spread_from_element(conic_hyperoval, i) for i in range(18)]
    derived_q4n3 = derive_spread_from_element(arc_q4n3, 0)
    halls_q8 = [shuffled_hall(8, seed) for seed in (1, 2, 3)]
    verdicts = []
    for spread in derived + list(conic_dual.gammas) + [derived_q4n3, hall] + halls_q8:
        field = spread_field(spread) is not None
        assert field == is_regular_spread(spread).regular
        verdicts.append(field)
    assert verdicts == [True] * 37 + [False] * 4


def _closed_matrix_field(fld, mats):
    """Reference: the matrices plus zero are closed under + and x and commute
    (the pairwise O(k^2) check)."""
    n = len(next(iter(mats)))
    zero = tuple(tuple(0 for _ in range(n)) for _ in range(n))
    members = set(mats) | {zero}
    for m1, m2 in combinations(mats, 2):
        total = tuple(tuple(fld.add(x, y) for x, y in zip(r1, r2)) for r1, r2 in zip(m1, m2))
        prod = tuple(mat_mul(fld, m1, m2))
        if total not in members or prod not in members or prod != tuple(mat_mul(fld, m2, m1)):
            return False
    return True


@pytest.mark.parametrize("q,n", [(2, 2), (2, 3), (4, 2), (8, 2), (4, 3)])
def test_spread_field_is_a_closed_matrix_field(q, n):
    spread = desarguesian_spread(q, n)
    field = spread_field(spread)
    assert field is not None
    a, c, _, mats, x, minpoly = field
    fld = spread.space.field
    assert (a, c) == spread.elements[:2] and sorted(mats) == list(range(2, q**n + 1))
    assert len(set(mats.values())) == q**n - 1
    assert _closed_matrix_field(fld, mats.values())
    assert x in mats.values() and len(minpoly) == n + 1 and minpoly[-1] == 1
    value = [[0] * n for _ in range(n)]  # Horner: minpoly(X) must vanish
    for coeff in reversed(minpoly):
        value = mat_mul(fld, value, x)
        for i in range(n):
            value[i] = tuple(fld.add(v, coeff if i == j else 0)
                             for j, v in enumerate(value[i]))
    assert not any(any(row) for row in value)


@pytest.mark.parametrize("q,n", [(4, 2), (2, 3), (8, 2), (4, 3), (2, 4), (16, 2)])
def test_spread_field_minimal_polynomial(q, n):
    """The minimal polynomial read off the kernel, checked a second way: the
    sum of c_k X^k over explicit powers of X vanishes, and the polynomial
    has n distinct roots in GF(q^n), the n conjugates of one of them."""
    spread = desarguesian_spread(q, n)
    *_, x, minpoly = spread_field(spread)
    fld = spread.space.field
    assert len(minpoly) == n + 1 and minpoly[-1] == 1
    total = [[0] * n for _ in range(n)]
    power = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    for coeff in minpoly:
        total = [[fld.add(t, fld.mul(coeff, p)) for t, p in zip(trow, prow)]
                 for trow, prow in zip(total, power)]
        power = mat_mul(fld, power, x)
    assert not any(any(row) for row in total)
    tower = FieldTower(fld, field_make(fld.m * n))
    roots = tower.top.roots([tower.embed(c) for c in minpoly])
    assert len(roots) == n
    assert sorted(galois_orbit(tower, roots[0])) == roots


def test_transversals_reject_ring_spread_set(zero_divisor_set):
    """At q = 2 regulus closure is vacuous, so the spread-set field test is the
    witness: GF(2)[x]/(x^2) is closed and commutative but has a zero divisor."""
    spread = zero_divisor_set(2)
    assert is_regular_spread(spread).vacuous
    # A and C are the coordinate planes and M_2 = I, so each graph's rows read
    # (I | M_i); the ring passes the pairwise check
    mats = [tuple(row[2:] for row in e.rows) for e in spread.elements[2:]]
    assert _closed_matrix_field(spread.space.field, mats)
    assert spread_field(spread) is None
    with pytest.raises(NotRegularError) as err:
        spread_transversals(spread, make_tower(1, 2))
    assert err.value.witness == {"kind": "spread-set-not-field"}


def test_transversals_reject_n1():
    spread = Spread(ProjSpace(1, gf(4)),
                    tuple(ProjSpace(1, gf(4)).subspace([p.coords])
                          for p in ProjSpace(1, gf(4)).points()))
    with pytest.raises(ValueError, match="n >= 2"):
        spread_transversals(spread, make_tower(2, 1))


# -- build_sigma -----------------------------------------------------------------


@pytest.fixture(scope="module")
def sigma_setup(conic_dual, tower42):
    da = conic_dual
    gens = [alpha_internal(da, 1, 0), alpha_internal(da, 1, 2), alpha_internal(da, 1, 3)]
    reg = regulus_through(*gens)
    reg = Regulus(reg.space, reg.generators, reg.elements, carrier=da.betas[1])
    scaffold = build_sigma(reg, da.gammas[0], tower42)
    return da, reg, generated_spread(scaffold), scaffold


def test_sigma_counts_and_partition(sigma_setup):
    _, _, sigma, _ = sigma_setup
    assert len(sigma.elements) == 273  # q^(2n) + q^n + 1
    rep = verify_spread(sigma)
    assert rep.ok  # pairwise skew and all 1365 points covered exactly once


def test_sigma_contains_generators(sigma_setup):
    da, reg, sigma, _ = sigma_setup
    present = sigma.element_set()
    from pal.projective import Chart
    chart = Chart(da.betas[1])
    for e in reg.elements:
        assert chart.to_ambient(e) in present
    chart = Chart(da.gammas[0].carrier)
    for e in da.gammas[0].elements:
        assert chart.to_ambient(e) in present


def test_sigma_scaffold_planes(sigma_setup, tower42):
    _, _, _, scaffold = sigma_setup
    assert len(scaffold.planes) == 2
    th1, th2 = scaffold.planes
    assert th1.rank == 3 and th2.rank == 3
    assert frobenius_subspace(th1, tower42) == th2
    assert meet(th1, th2).rank == 0
    assert len(scaffold.contact_points) == 2
    for u_line, pt in zip(scaffold.transversal_lines, scaffold.contact_points):
        assert contains_point(u_line, pt)
    for t_line, pt in zip(scaffold.regulus_transversals, scaffold.contact_points):
        assert contains_point(t_line, pt)


def _extended_regulus(da, reg, tower, top_amb):
    """The elements of reg, in the carrier beta_1, read over GF(q^n)."""
    from pal.projective import Chart
    chart = Chart(da.betas[1])
    return [extend_subspace(chart.to_ambient(e), tower, top_amb) for e in reg.elements]


def test_regulus_transversal_oracle(sigma_setup, tower42):
    """Each T_l is the unique line inside the extended carrier through u_l
    meeting every extended regulus element."""
    da, reg, _, scaffold = sigma_setup
    top_amb = scaffold.top_space
    beta_ext = extend_subspace(da.betas[1], tower42, top_amb)
    reg_ext = _extended_regulus(da, reg, tower42, top_amb)
    assert len(scaffold.regulus_transversals) == 2
    for u, t_line in zip(scaffold.contact_points, scaffold.regulus_transversals):
        seen = set()
        hits = []
        for w in beta_ext.point_vectors():
            if w == u:
                continue
            line = top_amb.subspace([u, w])
            if line in seen:
                continue
            seen.add(line)
            if all(meet(line, e).rank == 1 for e in reg_ext):
                hits.append(line)
        assert hits == [t_line]


def test_sigma_closed_under_reguli_sampled(sigma_setup):
    _, _, sigma, _ = sigma_setup
    rnd = random.Random(424242)
    present = sigma.element_set()
    checked = 0
    while checked < 200:
        a, b = rnd.sample(sigma.elements, 2)
        hull = span([a, b])
        inside = [e for e in sigma.elements if contains(hull, e)]
        if len(inside) < 3:
            continue
        c = rnd.choice([e for e in inside if e not in (a, b)])
        reg = regulus_through(a, b, c)
        assert reg.element_set() <= present
        checked += 1


def test_sigma_hypothesis_errors(conic_dual, tower42):
    da = conic_dual
    gens = [alpha_internal(da, 1, 0), alpha_internal(da, 1, 2), alpha_internal(da, 1, 3)]
    reg = regulus_through(*gens)
    with pytest.raises(ValueError, match="carrier"):
        build_sigma(reg, da.gammas[0], tower42)
    # regulus not through alpha_{ij}: pick generators avoiding index 0
    gens2 = [alpha_internal(da, 1, 2), alpha_internal(da, 1, 3), alpha_internal(da, 1, 4)]
    reg2 = regulus_through(*gens2)
    reg2 = Regulus(reg2.space, reg2.generators, reg2.elements, carrier=da.betas[1])
    if alpha_internal(da, 1, 0) not in reg2.element_set():
        with pytest.raises(ValueError, match="gamma"):
            build_sigma(reg2, da.gammas[0], tower42)


def test_sigma_rejects_corrupted_gamma(conic_dual, tower42):
    da = conic_dual
    gamma0 = da.gammas[0]
    alpha01 = alpha_internal(da, 0, 1)
    # swap a regulus that keeps alpha_{01} in place, so only regularity breaks
    for t in combinations([e for e in gamma0.elements if e != alpha01], 3):
        reg_in = regulus_through(*t)
        if alpha01 not in reg_in.element_set():
            break
    opp = opposite_regulus(reg_in)
    elems = tuple(e for e in gamma0.elements if e not in reg_in.element_set()) \
        + opp.elements
    bad = Spread(gamma0.space, elems, carrier=gamma0.carrier)
    assert verify_spread(bad).ok
    gens = [alpha_internal(da, 1, 0), alpha_internal(da, 1, 2), alpha_internal(da, 1, 3)]
    reg = regulus_through(*gens)
    reg = Regulus(reg.space, reg.generators, reg.elements, carrier=da.betas[1])
    with pytest.raises(NotRegularError):
        build_sigma(reg, bad, tower42)


def test_sigma_q2_n3(small_arc):
    tower = make_tower(1, 3)
    da = dual_arc(small_arc)
    gens = [alpha_internal(da, 1, 0), alpha_internal(da, 1, 2), alpha_internal(da, 1, 3)]
    reg = regulus_through(*gens)
    reg = Regulus(reg.space, reg.generators, reg.elements, carrier=da.betas[1])
    scaffold = build_sigma(reg, da.gammas[0], tower)
    sigma = generated_spread(scaffold)
    assert len(sigma.elements) == 73  # 64 + 8 + 1
    assert verify_spread(sigma).ok
    assert len(scaffold.planes) == 3
    # at q = 2 the regulus is its three generators; each T_l is a line through
    # u_l, inside the extended carrier, meeting every one of them in a point
    assert len(reg.elements) == 3
    top_amb = scaffold.top_space
    beta_ext = extend_subspace(da.betas[1], tower, top_amb)
    reg_ext = _extended_regulus(da, reg, tower, top_amb)
    assert len(scaffold.regulus_transversals) == 3
    for u, t_line in zip(scaffold.contact_points, scaffold.regulus_transversals):
        assert t_line.rank == 2 and contains_point(t_line, u)
        assert contains(beta_ext, t_line)
        assert all(meet(t_line, e).rank == 1 for e in reg_ext)


# -- plane model ------------------------------------------------------------------


def test_plane_model_axioms(sigma_setup):
    _, _, sigma, scaffold = sigma_setup
    model = plane_model(scaffold)
    assert model.spread == sigma
    assert len(model.lines) == 273
    assert model.points_per_line == 17
    assert all(len(m) == 17 for m in model.members)
    # unique joins: every pair of elements on exactly one line
    pair_count = sum(len(m) * (len(m) - 1) // 2 for m in model.members)
    assert pair_count == 273 * 272 // 2


def pair_span_plane_model(sigma):
    """Reference model: span every pair of elements, then intersect every
    pair of lines."""
    elems = sigma.elements
    order = sigma.space.field.order ** elems[0].rank
    expected = order**2 + order + 1
    if len(elems) != expected:
        raise ValueError("wrong element count")
    by_span = {}
    for i, j in combinations(range(len(elems)), 2):
        s = span([elems[i], elems[j]])
        if s.rank != 2 * elems[0].rank:
            raise ValueError("two elements span too much")
        by_span.setdefault(s, set()).update((i, j))
    lines = sorted(by_span, key=lambda s: s.rows)
    members = [frozenset(by_span[s]) for s in lines]
    if len(lines) != expected or any(len(m) != order + 1 for m in members):
        raise ValueError("wrong line count or size")
    for a, b in combinations(members, 2):
        if len(a & b) != 1:
            raise ValueError("two lines do not meet in one point")
    return PlaneModel(sigma, tuple(lines), tuple(members), order + 1)


@pytest.fixture(scope="module")
def sigma23(small_arc):
    """The dual arc of the (2, 3) conic, the sigma it generates and its
    scaffold."""
    da = dual_arc(small_arc)
    gens = [alpha_internal(da, 1, 0), alpha_internal(da, 1, 2), alpha_internal(da, 1, 3)]
    reg = regulus_through(*gens)
    reg = Regulus(reg.space, reg.generators, reg.elements, carrier=da.betas[1])
    scaffold = build_sigma(reg, da.gammas[0], make_tower(1, 3))
    return da, generated_spread(scaffold), scaffold


def test_plane_model_matches_pair_span_oracle(sigma_setup, sigma23, moved_oval,
                                              conic_hyperoval):
    """On the sigmas of `sigma_setup` and `sigma23`, and on those that
    recognition generates for the (4, 2) conic hyperoval and for the moved
    (4, 2) oval (theta frame)."""
    moved = recognize_regular(moved_oval)
    assert moved.identification["convention"] == "theta-frame-v1"
    hyper = recognize_regular(conic_hyperoval)
    for scaffold in (sigma_setup[3], sigma23[2], moved.scaffold, hyper.scaffold):
        assert plane_model(scaffold) == pair_span_plane_model(generated_spread(scaffold))


def test_sigma_elements_match_rational_orbit_spans(sigma_setup, sigma23, moved_oval,
                                                  conic_hyperoval):
    """generated_spread reads every element off one GF(q) matrix; the oracle
    is the rational span of the Galois orbit of c.theta_1, for c the points
    of PG(2, q^n) in order, on the scaffolds of the pair-span oracle test."""
    moved = recognize_regular(moved_oval)
    hyper = recognize_regular(conic_hyperoval)
    for scaffold in (sigma_setup[3], sigma23[2], moved.scaffold, hyper.scaffold):
        tower, theta1 = scaffold.tower, scaffold.planes[0].rows
        sigma = generated_spread(scaffold)
        assert list(sigma.elements) == [
            rational_orbit_span(vec_mat(tower.top, c, theta1), tower, sigma.space)
            for c in _normalized_vectors(tower.top, 3)]


@pytest.mark.parametrize("q,n", [(2, 2), (4, 2), (8, 2), (4, 3)])
def test_spread_transversals_run_spread_field_once(q, n, monkeypatch):
    """The regularity report carries its certificate's spread_field result,
    which _eigen_lines reuses; the vacuous q = 2 report carries none, so
    _eigen_lines computes it.  The result is not part of the report's
    equality or repr."""
    spread = desarguesian_spread(q, n)
    rep = is_regular_spread(spread)
    assert (rep.spread_set is None) == (q == 2)
    assert rep == replace(rep, spread_set=None) and "spread_set" not in repr(rep)
    calls = []

    def spy(s):
        calls.append(s)
        return spread_field(s)
    monkeypatch.setattr(pal.spreads, "spread_field", spy)
    monkeypatch.setattr(pal.sigma, "spread_field", spy)
    fld = spread.space.field
    spread_transversals(spread, FieldTower(fld, field_make(fld.m * n)))
    assert calls == [spread]


@pytest.fixture(scope="module")
def reduced_plane(rmap42):
    """All 273 reduced points of PG(2, 16) as a spread, with its pair-span
    plane model."""
    full = Spread(rmap42.target,
                  tuple(rmap42.reduce_point(p) for p in rmap42.source.points()))
    return full, pair_span_plane_model(full)


def regulus_switched(reduced_plane, line_index):
    """(full, model, switched): all 273 reduced points of PG(2, 16), their
    plane model, and the spread with one regulus inside model line
    `line_index` swapped for its opposite."""
    full, model = reduced_plane
    on_line = sorted(model.members[line_index])
    reg = regulus_through(*(full.elements[i] for i in on_line[:3]))
    switched = Spread(full.space,
                      tuple(e for e in full.elements if e not in reg.element_set())
                      + opposite_regulus(reg).elements)
    return full, model, switched


@pytest.mark.parametrize("line_index", [0, 5])
def test_plane_model_rejects_regulus_switch(reduced_plane, line_index):
    """Still a spread, no longer a plane.  Line 0 is <e0, e1>; line 5 is away
    from it."""
    _, model, switched = regulus_switched(reduced_plane, line_index)
    assert verify_spread(switched).ok
    assert (span(switched.elements[:2]) == model.lines[line_index]) == (line_index == 0)
    with pytest.raises(ValueError):
        pair_span_plane_model(switched)


# -- incidence through psi^-1 ---------------------------------------------------


def contains_inside(spread, subspaces):
    """Reference: the spread elements inside each subspace, by rank tests."""
    return [[e for e in spread.elements if contains(s, e)] for s in subspaces]


def test_model_lines_of_the_conic_duals(sigma_setup, sigma23):
    """psi^-1 maps every dual element of the conic to a line of PG(2, q^n),
    and the elements of the line's points, at their positions in
    generated_spread, are the ones inside the dual element."""
    da, _, sigma, scaffold = sigma_setup
    for da, sigma, scaffold in ((da, sigma, scaffold), sigma23):
        lines = _model_lines(scaffold, da.betas)
        assert [line.rank for line in lines] == [2] * len(da.betas)
        coords = _normalized_vectors(scaffold.tower.top, 3)
        for line, inside in zip(lines, contains_inside(sigma, da.betas)):
            points = set(line.point_vectors())
            assert [e for c, e in zip(coords, sigma.elements) if c in points] == inside
            assert len(inside) == len(points)


def test_model_lines_off_the_model(sigma_setup, moved_oval):
    """The duals of the moved oval are not lines of the conic's model plane:
    every image spans PG(2, q^n), and no dual element carries q^n + 1
    elements of the conic's sigma."""
    _, _, sigma, scaffold = sigma_setup
    betas = dual_arc(moved_oval).betas
    assert [line.rank for line in _model_lines(scaffold, betas)] == [3] * len(betas)
    assert all(len(inside) < 17 for inside in contains_inside(sigma, betas))


@pytest.fixture(scope="module")
def scaffold_q4n3(arc_q4n3):
    return recognize_regular(arc_q4n3).scaffold


def test_scaffold_is_frobenius_orbits(sigma_setup, sigma23, scaffold_q4n3):
    """U_l, u_l, T_l and theta_l are the Frobenius orbits of their first
    entries, of length n and closing up after n steps."""
    for scaffold in (sigma_setup[3], sigma23[2], scaffold_q4n3):
        tower, n = scaffold.tower, scaffold.tower.n
        for orbit in (scaffold.transversal_lines, scaffold.regulus_transversals,
                      scaffold.planes):
            assert len(orbit) == n
            for l in range(n):
                assert frobenius_subspace(orbit[l], tower) == orbit[(l + 1) % n]
        points = scaffold.contact_points
        assert len(points) == n
        for l in range(n):
            assert tuple(map(tower.frobenius, points[l])) == points[(l + 1) % n]


# -- recognition -------------------------------------------------------------------


def test_recognize_conic_oval(conic_oval, rmap42):
    res = recognize_regular(conic_oval)
    assert res.regular
    assert res.identification["frame"] == "canonical"
    assert res.identification["dropped_nucleus"]
    assert res.plane_arc.kind == "oval"
    back = rmap42.reduce_arc(res.plane_arc)
    assert list(back.elements) == list(conic_oval.elements)
    assert res.line_counts == tuple([17] * 18)
    # the oval rule: the regulus contains the nucleus dual (index 17)
    assert 17 in res.choice["generators"]


def test_recognize_hyperoval(conic_hyperoval, rmap42):
    res = recognize_regular(conic_hyperoval)
    assert res.regular
    assert "dropped_nucleus" not in res.identification
    back = rmap42.reduce_arc(res.plane_arc)
    assert set(back.elements) == set(conic_hyperoval.elements)


def test_recognize_translation_arc(translation_arc, rmap42):
    res = recognize_regular(translation_arc)
    assert res.regular
    back = rmap42.reduce_arc(res.plane_arc)
    assert list(back.elements) == list(translation_arc.elements)


def test_recognize_small_arc(small_arc, rmap23):
    res = recognize_regular(small_arc)
    assert res.regular
    back = rmap23.reduce_arc(res.plane_arc)
    assert list(back.elements) == list(small_arc.elements)


@pytest.mark.parametrize("name", ["small_arc", "conic_oval", "conic_hyperoval",
                                  "translation_arc", "moved_oval"])
def test_every_regulus_choice_recovers_the_arc(request, name):
    """One regulus choice decides: the completions of the first (j, i) pair,
    one per distinct regulus (a fill that spans a regulus already tried
    builds the same Sigma), and a seeded fill of 20 other pairs (the nucleus
    dual included) succeed and recover the arc that `recognize_regular`
    recovers; the moved oval, whose theta frame depends on the choice, as an
    oval in that frame."""
    arc = request.getfixturevalue(name)
    ref = recognize_regular(arc)
    da = dual_arc(arc)
    k = len(da.betas)
    forced = [1, k - 1] if arc.kind == "pseudo-oval" else [1]
    pool = [m for m in range(2, k) if m not in forced]
    choices, reguli = [], set()
    for fill in combinations(pool, 3 - len(forced)):
        generators = forced + list(fill)
        reg = regulus_through(*(alpha_internal(da, 0, m) for m in generators)).element_set()
        if reg not in reguli:
            reguli.add(reg)
            choices.append((0, 1, generators))
    assert ref.choice == {"j": 0, "i": 1, "generators": choices[0][2]}
    rnd = random.Random(k)
    pairs = [(j, i) for j in range(k) for i in range(k) if j != i and (j, i) != (0, 1)]
    for j, i in rnd.sample(pairs, 20):
        choices.append((j, i, [i, *rnd.sample([m for m in range(k) if m not in (j, i)], 2)]))
    for j, i, generators in choices:
        res = _recognize_choice(arc, da.arc, da.betas, j, da.gammas[j], i, da.gammas[i],
                                generators)
        assert res.regular and res.choice == {"j": j, "i": i, "generators": generators}
        assert res.line_counts == ref.line_counts
        if name == "moved_oval":
            assert res.identification["convention"] == "theta-frame-v1"
            assert res.plane_arc.kind == "oval"
        else:
            assert (res.plane_arc, res.identification) == (ref.plane_arc, ref.identification)


@pytest.fixture()
def sigma_calls(monkeypatch):
    """The arguments of every build_sigma call that recognition makes."""
    calls = []
    build = pal.sigma.build_sigma

    def spy(*args):
        calls.append(args)
        return build(*args)
    monkeypatch.setattr(pal.sigma, "build_sigma", spy)
    return calls


def test_recognition_builds_one_sigma(sigma_calls, conic_oval, conic_hyperoval,
                                      translation_arc, small_arc):
    runs = [(conic_oval, None), (conic_hyperoval, None), (conic_hyperoval, list(range(3, 18))),
            (translation_arc, None), (small_arc, None)]
    for n, (arc, given) in enumerate(runs, 1):
        assert recognize_regular(arc, given=given).regular
        assert len(sigma_calls) == n


@pytest.mark.parametrize("name, given, choice", [
    ("conic_oval", None, {"j": 0, "i": 1, "generators": [1, 17, 2]}),
    ("translation_arc", None, {"j": 0, "i": 1, "generators": [1, 17, 2]}),
    ("conic_hyperoval", None, {"j": 0, "i": 1, "generators": [1, 2, 3]}),
    # the given indices of theorem 6.3 with rho = 15 and of 7.1 with delta0 = 1
    ("conic_hyperoval", list(range(3, 18)), {"j": 3, "i": 4, "generators": [4, 0, 1]}),
    ("conic_hyperoval", list(range(2, 18)), {"j": 2, "i": 3, "generators": [3, 0, 1]}),
    ("hyperoval_q4n3", None, {"j": 0, "i": 1, "generators": [1, 2, 3]}),
])
def test_recognition_verifies_two_gammas(request, monkeypatch, arc_q4n3, name, given, choice):
    """Recognition builds and verifies Gamma_j and Gamma_i only, and its
    result is the one read off the full dual arc, with the choice that
    recognition made when it built every Gamma_s."""
    arc = (extend_to_hyperoval(arc_q4n3) if name == "hyperoval_q4n3"
           else request.getfixturevalue(name))
    labels = []
    verify = pal.spreads.verified_spread

    def spy(spread, label):
        labels.append(label)
        return verify(spread, label)
    monkeypatch.setattr(pal.spreads, "verified_spread", spy)
    res = recognize_regular(arc, given=given)
    monkeypatch.undo()
    j, i = choice["j"], choice["i"]
    assert [label for label in labels if label.startswith("Gamma_")] == [f"Gamma_{j}",
                                                                        f"Gamma_{i}"]
    assert res.regular and res.choice == choice
    assert set(res.line_counts) == {arc.q**arc.n + 1}
    assert res.identification["frame"] == "canonical"
    da = dual_arc(arc)
    ref = _recognize_choice(arc, da.arc, da.betas, j, da.gammas[j], i, da.gammas[i],
                            choice["generators"])
    assert (res.choice, res.line_counts, res.identification, res.plane_arc) == \
        (ref.choice, ref.line_counts, ref.identification, ref.plane_arc)


def test_failed_choice_is_reported_after_one_sigma(unrecognizable, sigma_calls, conic_oval):
    """A dual element that psi^-1 maps to a plane: not regular, with no
    second choice."""
    res = recognize_regular(conic_oval)
    assert res == RecognitionResult(False, None, None, None, {}, None)
    assert len(sigma_calls) == 1


def test_recognition_rejects_gamma_j_without_the_regulus(conic_hyperoval, monkeypatch,
                                                         sigma_calls):
    """A Hall spread in place of Gamma_0, ordered so that two of the three
    elements of the first regulus come from the swapped-in opposite regulus
    (built as in test_regulus_blocks_rejects_irregular_gamma)."""
    da = dual_arc(conic_hyperoval)
    g0 = da.gammas[0]
    reg = regulus_through(*g0.elements[:3])
    opposite = opposite_regulus(reg).elements
    rest = tuple(e for e in g0.elements if e not in reg.element_set())
    hall = Spread(g0.space, opposite[:2] + rest + opposite[2:], carrier=g0.carrier)
    assert verify_spread(hall).ok and not is_regular_spread(hall).regular
    dual_spread = pal.sigma._dual_spread
    monkeypatch.setattr(pal.sigma, "_dual_spread",
                        lambda ext, betas, s: hall if s == 0 else dual_spread(ext, betas, s))
    with pytest.raises(NotRegularError, match=r"Gamma_0 is not closed under the regulus "
                       r"through \(1, 2, 3\)") as err:
        recognize_regular(conic_hyperoval)
    assert err.value.witness == {"kind": "regulus-closure", "spread": "gamma[0]",
                                 "triple": [1, 2, 3]}
    assert sigma_calls == []


def test_recognize_given_subset(conic_hyperoval, rmap42):
    # theorem 6.3 style: only 15 derived spreads marked usable; the regulus
    # must run through the intersections with the non-given duals
    given = list(range(3, 18))
    res = recognize_regular(conic_hyperoval, given=given)
    assert res.regular
    assert res.choice["i"] in given and res.choice["j"] in given
    assert len({0, 1, 2} & set(res.choice["generators"])) == 2
    back = rmap42.reduce_arc(res.plane_arc)
    assert set(back.elements) == set(conic_hyperoval.elements)


@pytest.mark.parametrize("given, bad", [([-1, 3], [-1]), ([0, 3, 18], [18]),
                                        ([-2, 1, 2, 40], [-2, 40])])
def test_recognize_refuses_given_out_of_range(conic_hyperoval, given, bad):
    """Indices of the 18 dual elements run over 0..17; others are refused by
    name, with check_theorem's message, before any regulus is chosen."""
    with pytest.raises(ValueError) as err:
        recognize_regular(conic_hyperoval, given=given)
    assert str(err.value) == f"given indices out of range: {bad}"


def test_recognize_moved_arc_theta_frame(moved_oval):
    res = recognize_regular(moved_oval)
    assert res.regular
    assert res.identification["convention"] == "theta-frame-v1"
    assert res.plane_arc.kind == "oval"


def test_recognize_rejects_small_n():
    arc5 = make_pseudo_arc(ProjSpace(2, gf(4)),
                           [span([p]) for p in conic(4).points])
    with pytest.raises(ValueError, match="n >= 2"):
        recognize_regular(arc5)
