"""GF(2^h) arithmetic, ranks and point sets, written apart from `pal`.

The benchmark checks pal's outputs with these routines, so a fault in pal's
own linear algebra cannot hide in the checks.  Elements use the pal-v1
coding: an int whose bits are the coefficients of a polynomial over GF(2),
reduced modulo the field's modulus.  Subspaces are lists of spanning rows;
two are compared by rank, never by a canonical form.
"""

from __future__ import annotations

from itertools import product


class Field:
    """GF(2^h) with full multiplication and inverse tables."""

    def __init__(self, modulus: int):
        self.h = modulus.bit_length() - 1
        self.order = 1 << self.h
        self.modulus = modulus
        self.mul = [[self._mul(a, b) for b in range(self.order)]
                    for a in range(self.order)]
        self.inv = [0] * self.order
        for a in range(1, self.order):
            self.inv[a] = self.mul[a].index(1)

    def _mul(self, a: int, b: int) -> int:
        r = 0
        while b:
            if b & 1:
                r ^= a
            b >>= 1
            a <<= 1
            if a >> self.h:
                a ^= self.modulus
        return r


def rank(f: Field, rows) -> int:
    """Rank of a matrix over f by forward elimination."""
    work = [list(r) for r in rows if any(r)]
    r = 0
    ncols = len(work[0]) if work else 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(work)) if work[i][col]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        prow = work[r]
        for i in range(r + 1, len(work)):
            c = work[i][col]
            if c:
                m = f.mul[f.mul[c][f.inv[prow[col]]]]
                work[i] = [x ^ m[y] for x, y in zip(work[i], prow)]
        r += 1
    return r


def same_space(f: Field, a, b) -> bool:
    """True when the row spaces of a and b coincide."""
    ra = rank(f, a)
    return ra == rank(f, b) == rank(f, list(a) + list(b))


def normalize(f: Field, v) -> tuple:
    lead = next(x for x in v if x)
    m = f.mul[f.inv[lead]]
    return tuple(m[x] for x in v)


def points(f: Field, rows) -> set:
    """Normalized coordinate vectors of every point of the row space."""
    rows = [tuple(r) for r in rows]
    out = set()
    for lead in range(len(rows)):
        for tail in product(range(f.order), repeat=len(rows) - lead - 1):
            out.add(_combine(f, (0,) * lead + (1,) + tail, rows))
    out.discard(None)
    return out


def _combine(f: Field, coeff, rows):
    v = [0] * len(rows[0])
    for c, row in zip(coeff, rows):
        if c:
            m = f.mul[c]
            v = [x ^ m[y] for x, y in zip(v, row)]
    return normalize(f, v) if any(v) else None


def n_points(f: Field, rank_: int) -> int:
    return (f.order ** rank_ - 1) // (f.order - 1)


class Tower:
    """GF(q) < GF(q^n) under pal's documented `powerbasis-v1` convention.

    The base generator maps to the smallest-coded root of the base modulus
    in the top field; GF(q^n) coordinates are read over the basis
    1, x, .., x^(n-1), x the top field's generator.
    """

    def __init__(self, base_modulus: int, top_modulus: int):
        self.base = Field(base_modulus)
        self.top = Field(top_modulus)
        self.n = self.top.h // self.base.h
        root = next(a for a in range(self.top.order)
                    if self._eval(base_modulus, a) == 0)
        power = [1]
        for _ in range(self.base.h - 1):
            power.append(self.top.mul[power[-1]][root])
        embed = []
        for c in range(self.base.order):
            v = 0
            for i in range(self.base.h):
                if c >> i & 1:
                    v ^= power[i]
            embed.append(v)
        self.coords = {}
        for cs in product(range(self.base.order), repeat=self.n):
            v = 0
            for i, c in enumerate(cs):
                v ^= self.top.mul[embed[c]][1 << i]
            self.coords[v] = cs
        if len(self.coords) != self.top.order:
            raise AssertionError("expansion basis is degenerate")

    def _eval(self, poly: int, a: int) -> int:
        v = 0
        for i in range(poly.bit_length() - 1, -1, -1):
            v = self.top.mul[v][a] ^ (poly >> i & 1)
        return v

    def reduce_point(self, w) -> list[tuple]:
        """Spanning rows of the (n-1)-space that a point of PG(k, q^n) blows up to."""
        rows = []
        for i in range(self.n):
            lam = self.top.mul[1 << i]
            row = []
            for c in w:
                row.extend(self.coords[lam[c]])
            rows.append(tuple(row))
        return rows
