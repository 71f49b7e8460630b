from __future__ import annotations

import random
from itertools import product

import pytest

from pal import (ProjSpace, Spread, conic, desarguesian_spread, dual_arc,
                 extend_to_hyperoval, gf, make_pseudo_arc, make_tower, opposite_regulus,
                 reduction_map, regulus_through, translation_oval)
from pal.projective import mat_inv, vec_mat


@pytest.fixture(scope="session")
def rmap42():
    return reduction_map(4, 2)


@pytest.fixture(scope="session")
def tower42():
    return make_tower(2, 2)


@pytest.fixture(scope="session")
def conic_oval(rmap42):
    """17-element pseudo-oval of PG(5, 4) from the conic over GF(16)."""
    return rmap42.reduce_arc(conic(16))


@pytest.fixture(scope="session")
def conic_hyperoval(conic_oval):
    """18-element pseudo-hyperoval of PG(5, 4)."""
    return extend_to_hyperoval(conic_oval)


@pytest.fixture(scope="session")
def translation_arc(rmap42):
    """Pseudo-oval of PG(5, 4) from the translation oval t -> t^8 over GF(16)."""
    return rmap42.reduce_arc(translation_oval(16, 3))


@pytest.fixture(scope="session")
def rmap23():
    return reduction_map(2, 3)


@pytest.fixture(scope="session")
def small_arc(rmap23):
    """9-element pseudo-oval of PG(8, 2) from the conic over GF(8)."""
    return rmap23.reduce_arc(conic(8))


@pytest.fixture(scope="session")
def arc_q8n2():
    """65-element pseudo-oval of PG(5, 8) from the conic over GF(64)."""
    return reduction_map(8, 2).reduce_arc(conic(64))


@pytest.fixture(scope="session")
def arc_q4n3():
    """65-element pseudo-oval of PG(8, 4) from the conic over GF(64)."""
    return reduction_map(4, 3).reduce_arc(conic(64))


@pytest.fixture(scope="session")
def moved_oval(conic_oval):
    """The (4,2) conic oval moved by a seeded collineation of PG(5, 4): not
    canonically reducible, so it is recovered in the theta frame."""
    rnd = random.Random(11)
    fld = conic_oval.ambient.field
    while True:
        m = [tuple(rnd.randrange(4) for _ in range(6)) for _ in range(6)]
        try:
            mat_inv(fld, m)
            break
        except ValueError:
            continue
    return make_pseudo_arc(
        conic_oval.ambient,
        [conic_oval.ambient.subspace([vec_mat(fld, r, m) for r in e.rows])
         for e in conic_oval.elements])


@pytest.fixture(scope="session")
def conic_dual(conic_hyperoval):
    return dual_arc(conic_hyperoval)


@pytest.fixture(scope="session")
def shuffled_hall():
    """shuffled_hall(q, seed): the Desarguesian spread of PG(3, q) with the
    regulus through its first three elements swapped for its opposite, in a
    seeded order."""
    def make(q, seed):
        desarg = desarguesian_spread(q, 2)
        reg = regulus_through(*desarg.elements[:3])
        lines = [e for e in desarg.elements if e not in reg.element_set()]
        lines += opposite_regulus(reg).elements
        random.Random(seed).shuffle(lines)
        return Spread(desarg.space, tuple(lines))
    return make


def _graph_set(fld, mats):
    """A = <e0, e1>, C = <e2, e3> of PG(3, q), then the graphs y = x.M of `mats`."""
    space = ProjSpace(3, fld)
    elems = [space.subspace([(1, 0, 0, 0), (0, 1, 0, 0)]),
             space.subspace([(0, 0, 1, 0), (0, 0, 0, 1)])]
    elems += [space.subspace([(1, 0) + m[0], (0, 1) + m[1]]) for m in mats]
    return Spread(space, tuple(elems))


def _lin(fld, a, b, x):
    """a.I + b.X for a 2x2 matrix X."""
    return tuple(tuple(fld.add(a if i == j else 0, fld.mul(b, x[i][j])) for j in range(2))
                 for i in range(2))


@pytest.fixture(scope="session")
def zero_divisor_set():
    """zero_divisor_set(q): q^2 + 1 subspaces whose spread set is
    GF(q)[x]/(x^2): scalars, then the invertible a.I + b.N, then the
    singular b.N, with N^2 = 0.  The reguli through elements 0 and 1 stay
    inside, so a sweep reaches the spread-set field test, which must refuse
    the singular maps."""
    def make(q):
        fld = gf(q)
        nil = ((0, 1), (0, 0))
        scalars = [(a, 0) for a in range(1, q)]
        units = [(a, b) for a in range(1, q) for b in range(1, q)]
        singular = [(0, b) for b in range(1, q)]
        return _graph_set(fld, [_lin(fld, a, b, nil) for a, b in scalars + units + singular])
    return make


@pytest.fixture(scope="session")
def subfield_closed_set():
    """subfield_closed_set(q): q^2 + 1 subspaces whose spread set is closed
    under the scalars GF(q) of GF(q^2) but not under GF(q^2): the field
    GF(q)[X] with the class of X replaced by the multiples of an invertible
    Y outside it.  Every regulus through elements 0 and 1 stays inside, so
    a sweep reaches the spread-set field test, which must refuse Y."""
    def make(q):
        fld = gf(q)
        t, d = next((t, d) for t in range(q) for d in range(1, q)
                    if all(fld.add(fld.add(fld.mul(r, r), fld.mul(t, r)), d)
                           for r in range(q)))
        x = ((0, 1), (d, t))  # companion matrix of the irreducible x^2 + t x + d
        field = {_lin(fld, a, b, x) for a in range(q) for b in range(q)}
        y = next(m for m in (((a, b), (c, e)) for a, b, c, e in product(range(q), repeat=4))
                 if m not in field
                 and fld.add(fld.mul(m[0][0], m[1][1]), fld.mul(m[0][1], m[1][0])))
        # a.I + b.X with a != 0 is GF(q)[X] without 0 and the class of X
        mats = [_lin(fld, a, b, x) for a in range(1, q) for b in range(q)]
        return _graph_set(fld, mats + [_lin(fld, 0, lam, y) for lam in range(1, q)])
    return make


@pytest.fixture()
def unrecognizable(monkeypatch):
    """Recognition with the model line of the first dual element replaced by
    the whole plane PG(2, q^n), so that element is not a line and no arc is
    recognized."""
    import pal.sigma
    model_lines = pal.sigma._model_lines

    def plane_first(scaffold, subspaces):
        lines = model_lines(scaffold, subspaces)
        plane = lines[0].ambient
        return [plane.subspace([(1, 0, 0), (0, 1, 0), (0, 0, 1)]), *lines[1:]]
    monkeypatch.setattr(pal.sigma, "_model_lines", plane_first)
