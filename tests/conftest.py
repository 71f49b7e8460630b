from __future__ import annotations

import pytest

from pal import (conic, dual_arc, extend_to_hyperoval, make_tower,
                 reduction_map, translation_oval)


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
def arc_q4n3():
    """65-element pseudo-oval of PG(8, 4) from the conic over GF(64)."""
    return reduction_map(4, 3).reduce_arc(conic(64))


@pytest.fixture(scope="session")
def conic_dual(conic_hyperoval):
    return dual_arc(conic_hyperoval)
