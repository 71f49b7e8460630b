from __future__ import annotations

import random

import pytest

from pal import (Spread, conic, desarguesian_spread, dual_arc, extend_to_hyperoval,
                 make_tower, opposite_regulus, reduction_map, regulus_through,
                 translation_oval)


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
