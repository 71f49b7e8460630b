from __future__ import annotations

import pytest

from pal import FieldTower, field_make, gf, make_tower
from pal.fields import DEFAULT_MODULUS, clmod, clmul, is_irreducible

from helpers import galois_orbit


def test_default_moduli_are_irreducible():
    for m, poly in DEFAULT_MODULUS.items():
        assert poly.bit_length() - 1 == m
        assert is_irreducible(poly), f"default modulus for m={m} is reducible"


def test_f4_is_the_unique_degree2_field():
    # exhaustive check: x^2+x+1 is the only irreducible quadratic over GF(2)
    irentries = [p for p in range(0b100, 0b1000) if is_irreducible(p)]
    assert irentries == [0b111]
    f4 = field_make(2)
    assert sorted(f4.elements()) == [0, 1, 2, 3]


def test_f4_multiplication():
    f4 = field_make(2)
    assert f4.mul(2, 2) == 3  # w * w = w + 1 under x^2+x+1
    assert f4.mul(2, 3) == 1
    assert f4.inv(2) == 3


def test_f16_reduction():
    f16 = field_make(4)
    assert f16.mul(2, 8) == 3  # x * x^3 = x^4 = x + 1


def test_char2_addition_is_xor():
    f8 = field_make(3)
    for a in f8.elements():
        assert f8.add(a, a) == 0
        for b in f8.elements():
            assert f8.add(a, b) == (a ^ b)


def test_field_make_errors():
    with pytest.raises(ValueError, match="degree"):
        field_make(4, 0b1011)  # degree 3 modulus for m=4
    with pytest.raises(ValueError, match="reducible"):
        field_make(4, 0b10101)  # x^4+x^2+1 = (x^2+x+1)^2
    with pytest.raises(ValueError):
        field_make(17)  # above MAX_DEGREE
    with pytest.raises(ValueError):
        field_make(0)
    with pytest.raises(ValueError, match="leading"):
        field_make(3, -9)  # degree-3 bit length, but negative


def test_gf_rejects_unsupported_orders():
    # orders below 2 used to reach a negative shift or an AttributeError
    for order in (0, 1, -4, 0.25, 6, 9, 17):
        with pytest.raises(ValueError, match="unsupported field order"):
            gf(order)
    assert gf(2).order == 2 and gf(13).order == 13


def test_explicit_modulus_accepted():
    # the other irreducible quartic
    f = field_make(4, 0b11001)  # x^4 + x^3 + 1
    assert f.mul(2, 8) == 0b1001  # x^4 = x^3 + 1


def test_inverses_exhaustive_up_to_256():
    for m in (1, 2, 3, 4, 6, 8):
        f = field_make(m)
        for a in range(1, f.order):
            assert f.mul(a, f.inv(a)) == 1
        with pytest.raises(ZeroDivisionError):
            f.inv(0)


def test_prime_fields():
    f5 = gf(5)
    assert f5.add(3, 4) == 2
    assert f5.mul(3, 4) == 2
    assert f5.inv(3) == 2
    assert f5.neg(2) == 3
    with pytest.raises(ValueError):
        gf(9)
    with pytest.raises(ValueError):
        gf(17)


@pytest.mark.parametrize("h,n", [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2), (4, 2)])
def test_frobenius_is_automorphism_fixing_base(h, n):
    tower = make_tower(h, n)
    top = tower.top
    els = list(top.elements())
    for a in els:
        sa = tower.frobenius(a)
        for b in els[:16]:
            assert tower.frobenius(top.add(a, b)) == top.add(sa, tower.frobenius(b))
            assert tower.frobenius(top.mul(a, b)) == top.mul(sa, tower.frobenius(b))
    fixed = {a for a in els if tower.frobenius(a) == a}
    assert fixed == set(tower._embed)


@pytest.mark.parametrize("h,n", [(1, 3), (2, 2), (2, 3), (3, 2)])
def test_orbit_lengths_divide_n_and_partition(h, n):
    tower = make_tower(h, n)
    total = 0
    seen = set()
    for a in tower.top.elements():
        if a in seen:
            continue
        orbit = galois_orbit(tower, a)
        assert n % len(orbit) == 0
        seen.update(orbit)
        total += len(orbit)
    assert total == tower.top.order


def test_spec_orbit_examples():
    t = make_tower(2, 2)  # GF(4) < GF(16)
    w = t.embed(2)
    assert galois_orbit(t, w) == [w]
    assert galois_orbit(t, 2) == [2, 3]  # x and x^4 = x+1
    assert t.frobenius(2) == 3
    t8 = make_tower(1, 3)  # GF(2) < GF(8): no intermediate field
    assert len(galois_orbit(t8, 2)) == 3


def test_embed_is_field_homomorphism():
    for h, n in ((2, 2), (3, 2), (2, 3)):
        t = make_tower(h, n)
        base, top = t.base, t.top
        for a in base.elements():
            for b in base.elements():
                assert t.embed(base.add(a, b)) == top.add(t.embed(a), t.embed(b))
                assert t.embed(base.mul(a, b)) == top.mul(t.embed(a), t.embed(b))
        assert t.embed(1) == 1
        assert t.restrict(t.embed(3 % base.order)) == 3 % base.order
        with pytest.raises(ValueError):
            t.restrict(next(x for x in top.elements() if not t.in_base(x)))


def test_expand_compress_roundtrip():
    towers = [make_tower(h, n) for h, n in ((1, 2), (1, 3), (2, 2), (2, 3), (3, 2),
                                             (3, 3), (2, 6))]
    # GF(4) < GF(16) over x^4 + x^3 + 1, not the default top modulus
    towers.append(FieldTower(field_make(2), field_make(4, 0b11001)))
    assert towers[5].top.mul_table() is None  # GF(512): no multiplication table
    for t in towers:
        n = t.n
        for v in t.top.elements():
            chunks = t.expand(v)
            assert len(chunks) == n
            assert all(0 <= c < t.base.order for c in chunks)
            assert t.compress(chunks) == v
    t = make_tower(2, 2)
    for bad in (-1, 16, 2.0, None):
        with pytest.raises(ValueError):
            t.expand(bad)
    # chunks must be GF(4) codes: (5, 0) is not read as (1, 0), nor (4, 0) as 0
    for bad in ((5, 0), (4, 0), (0, -1), (1, 2.0)):
        with pytest.raises(ValueError):
            t.compress(bad)


def test_tower_requires_divisibility():
    with pytest.raises(ValueError):
        FieldTower(field_make(2), field_make(3))


def test_clmul_clmod():
    assert clmul(0b11, 0b11) == 0b101
    assert clmod(0b10000, 0b10011) == 0b11  # x^4 mod x^4+x+1 = x+1
