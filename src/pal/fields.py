"""Exact arithmetic in small finite fields.

Characteristic-2 fields GF(2^m), m <= 16, are the workhorse: elements are
ints whose bits are the coefficients of a polynomial over GF(2), reduced
modulo a fixed irreducible modulus.  Zero and one are always coded 0 and 1,
and addition is xor.  For m <= 8 a field also offers a full multiplication
table, built on first use and shared by all equal fields, which the
linear-algebra kernel in `projective` reads in place of `mul`.  Odd prime
fields GF(p), p <= 13, exist only for the odd-order plane-arc spot checks;
no odd prime-power extensions are provided.

Subfield towers GF(q) < GF(q^n) with q = 2^h carry the Frobenius map
x -> x^q and the expand/compress maps between GF(q^n)^k and GF(q)^(nk)
used by field reduction.
"""

from __future__ import annotations

from functools import lru_cache

MAX_DEGREE = 16
TABLE_MAX_DEGREE = 8  # largest m whose q x q multiplication table is kept

# Fixed moduli shipped with the artifact, one for every degree up to
# MAX_DEGREE.  Any other irreducible modulus is accepted when given explicitly.
DEFAULT_MODULUS = {
    1: 0b11,                    # x + 1
    2: 0b111,                   # x^2 + x + 1
    3: 0b1011,                  # x^3 + x + 1
    4: 0b10011,                 # x^4 + x + 1
    5: 0b100101,                # x^5 + x^2 + 1
    6: 0b1011011,               # x^6 + x^4 + x^3 + x + 1
    7: 0b10000011,              # x^7 + x + 1
    8: 0b100011101,             # x^8 + x^4 + x^3 + x^2 + 1
    9: 0b1000010001,            # x^9 + x^4 + 1
    10: 0b10000001001,          # x^10 + x^3 + 1
    11: 0b100000000101,         # x^11 + x^2 + 1
    12: 0b1000001010011,        # x^12 + x^6 + x^4 + x + 1
    13: 0b10000000011011,       # x^13 + x^4 + x^3 + x + 1
    14: 0b100010001000011,      # x^14 + x^10 + x^6 + x + 1
    15: 0b1000000000000011,     # x^15 + x + 1
    16: 0b10001000000001011,    # x^16 + x^12 + x^3 + x + 1
}

ODD_PRIMES = (3, 5, 7, 11, 13)


def clmul(a: int, b: int) -> int:
    """Carry-less product of two GF(2) polynomials coded as ints."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    return r


def clmod(a: int, mod: int) -> int:
    """Remainder of a modulo mod, both GF(2) polynomials coded as ints."""
    dm = mod.bit_length() - 1
    while a.bit_length() - 1 >= dm:
        a ^= mod << (a.bit_length() - 1 - dm)
    return a


def is_irreducible(poly: int) -> bool:
    """Trial division by every GF(2) polynomial of degree 1..deg/2."""
    deg = poly.bit_length() - 1
    if deg < 1:
        return False
    for d in range(1, deg // 2 + 1):
        for g in range(1 << d, 1 << (d + 1)):
            if clmod(poly, g) == 0:
                return False
    return True


class FiniteField:
    """GF(p^m) with int-coded elements.

    p = 2: codes are polynomial bit vectors, add is xor, mul reduces modulo
    an irreducible modulus.  Odd prime p: m = 1 and codes are residues.
    """

    def __init__(self, p: int, m: int, modulus: int | None = None):
        if p == 2:
            if not 1 <= m <= MAX_DEGREE:
                raise ValueError(f"degree m={m} out of range 1..{MAX_DEGREE}")
            if modulus is None:
                modulus = DEFAULT_MODULUS[m]
            if modulus.bit_length() - 1 != m:
                raise ValueError(f"modulus degree {modulus.bit_length() - 1} != m={m}")
            if not modulus & 1 or modulus >> m != 1:
                raise ValueError("modulus must have leading and constant coefficient 1")
            if not is_irreducible(modulus):
                raise ValueError(f"modulus {modulus:#b} is reducible over GF(2)")
        else:
            if p not in ODD_PRIMES:
                raise ValueError(f"odd characteristic limited to primes {ODD_PRIMES}")
            if m != 1:
                raise ValueError("odd-characteristic fields are prime fields only (m=1)")
            modulus = None
        self.p = p
        self.m = m
        self.modulus = modulus
        self.order = p**m
        self._exp: list[int] | None = None
        self._log: list[int] | None = None
        self._table: tuple[tuple[int, ...], ...] | None = None
        if p == 2 and m <= 12:
            self._build_tables()

    def _mul_slow(self, a: int, b: int) -> int:
        if self.p == 2:
            return clmod(clmul(a, b), self.modulus)
        return a * b % self.p

    def _build_tables(self):
        # log/exp over any multiplicative generator; x need not be primitive
        # for a non-primitive modulus, so search.
        n = self.order - 1
        if n == 1:
            self._exp = [1, 1]
            self._log = [0, 0]
            return
        for g in range(2, self.order):
            seen = 1
            v = g
            while v != 1:
                v = self._mul_slow(v, g)
                seen += 1
            if seen == n:
                break
        else:
            raise AssertionError("no generator found")  # impossible: group is cyclic
        exp = [1] * (2 * n)
        log = [0] * self.order
        v = 1
        for i in range(n):
            exp[i] = v
            exp[i + n] = v
            log[v] = i
            v = self._mul_slow(v, g)
        self._exp = exp
        self._log = log

    # -- arithmetic on int codes ------------------------------------------

    def check(self, a: int) -> int:
        if not isinstance(a, int) or not 0 <= a < self.order:
            raise ValueError(f"{a!r} is not an element code of {self}")
        return a

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        return (a - b) % self.p

    def neg(self, a: int) -> int:
        if self.p == 2:
            return a
        return -a % self.p

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        if self._exp is not None:
            return self._exp[self._log[a] + self._log[b]]
        return self._mul_slow(a, b)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError(f"zero has no inverse in {self}")
        if self._exp is not None:
            return self._exp[self.order - 1 - self._log[a]]
        return self.pow(a, self.order - 2)

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        r = 1
        while e:
            if e & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            e >>= 1
        return r

    def roots(self, coeffs) -> list[int]:
        """The elements x with sum coeffs[i] * x^i = 0, in increasing code order."""
        out = []
        for x in self.elements():
            v = 0
            for c in reversed(coeffs):
                v = self.add(self.mul(v, x), c)
            if v == 0:
                out.append(x)
        return out

    def mul_table(self) -> tuple[tuple[int, ...], ...] | None:
        """Rows T with T[a][b] = a*b for GF(2^m), m <= TABLE_MAX_DEGREE; else None.

        Built on first use and shared by every field with the same modulus.
        """
        if self._table is None and self.p == 2 and self.m <= TABLE_MAX_DEGREE:
            self._table = _mul_table(self.m, self.modulus)
        return self._table

    def mul_bytes(self) -> tuple[bytes, ...] | None:
        """`bytes.translate` tables B with B[c][b] = c*b, beside `mul_table`.

        Each of the q tables is padded to 256 bytes; None where mul_table is.
        """
        return _mul_bytes(self.m, self.modulus) if self.mul_table() is not None else None

    def elements(self) -> range:
        return range(self.order)

    # -- identity ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FiniteField)
            and (self.p, self.m, self.modulus) == (other.p, other.m, other.modulus)
        )

    def __hash__(self) -> int:
        return hash((self.p, self.m, self.modulus))

    def __repr__(self) -> str:
        if self.p == 2:
            return f"GF(2^{self.m}; mod={self.modulus:#b})" if self.m > 1 else "GF(2)"
        return f"GF({self.p})"


@lru_cache(maxsize=None)
def _mul_table(m: int, modulus: int) -> tuple[tuple[int, ...], ...]:
    field = FiniteField(2, m, modulus)
    exp, log = field._exp, field._log
    rest = range(1, field.order)
    rows = [(0,) * field.order]
    for a in rest:
        la = log[a]
        rows.append((0,) + tuple(exp[la + log[b]] for b in rest))
    return tuple(rows)


@lru_cache(maxsize=None)
def _mul_bytes(m: int, modulus: int) -> tuple[bytes, ...]:
    pad = bytes(256 - (1 << m))
    return tuple(bytes(row) + pad for row in _mul_table(m, modulus))


@lru_cache(maxsize=None)
def field_make(m: int, modulus: int | None = None) -> FiniteField:
    """GF(2^m) with the shipped default modulus unless one is given; one
    shared field per argument list."""
    return FiniteField(2, m, modulus)


def gf(order: int) -> FiniteField:
    """Field of the given order: a power of two (default modulus) or an odd prime."""
    if order in ODD_PRIMES:
        return FiniteField(order, 1)
    if order < 2 or order & (order - 1):
        raise ValueError(f"unsupported field order {order}")
    return field_make(order.bit_length() - 1)


class FieldTower:
    """Subfield tower GF(q) < GF(q^n), q = 2^h, with its Galois structure.

    The embedding sends the base generator to the smallest-coded root of the
    base modulus in the top field, which makes it a reproducible field
    homomorphism whose image is exactly the fixed field of x -> x^q.
    """

    def __init__(self, base: FiniteField, top: FiniteField):
        if base.p != 2 or top.p != 2:
            raise ValueError("towers are defined for characteristic 2 only")
        if top.m % base.m != 0:
            raise ValueError(f"degree {base.m} does not divide {top.m}")
        self.base = base
        self.top = top
        self.h = base.m
        self.n = top.m // base.m
        self.q = base.order
        root = top.roots([(base.modulus >> i) & 1 for i in range(base.m + 1)])[0]
        self.root = root
        emb = [0] * base.order
        for a in base.elements():
            v = 0
            for i in range(base.m):
                if (a >> i) & 1:
                    v ^= top.pow(root, i)
            emb[a] = v
        self._embed = emb
        self._restrict = {v: a for a, v in enumerate(emb)}
        if len(self._restrict) != base.order:
            raise AssertionError("embedding is not injective")
        # bit j of c_i in (c_0..c_{n-1}) maps to embed(2^j) * x^i; x^i needs no
        # reduction since i < h*n.  compress is GF(2)-linear, so its value on
        # every bit pattern is an xor of these, and {1, x, .., x^(n-1)} is a
        # GF(q)-basis of GF(q^n) exactly when the q^n values are distinct.
        # values[bits] is the compress of the chunks packed h bits each, c_0 lowest.
        values = [0]
        for col in [top.mul(emb[1 << j], 1 << i) for i in range(self.n) for j in range(self.h)]:
            values += [v ^ col for v in values]
        self._compress = values
        mask = base.order - 1
        self._expand = {v: tuple((bits >> (i * self.h)) & mask for i in range(self.n))
                        for bits, v in enumerate(values)}
        if len(self._expand) != top.order:
            raise AssertionError("expansion basis is degenerate")

    # -- maps ---------------------------------------------------------------

    def embed(self, a: int) -> int:
        """Base element code -> its image in the top field."""
        return self._embed[a]

    def restrict(self, v: int) -> int:
        """Inverse of embed; raises if v is not in the embedded base field."""
        try:
            return self._restrict[v]
        except KeyError:
            raise ValueError(f"{v} is not in the embedded base field") from None

    def in_base(self, v: int) -> bool:
        return v in self._restrict

    def frobenius(self, a: int) -> int:
        """a -> a^q, the generator of Gal(GF(q^n)/GF(q))."""
        self.top.check(a)
        for _ in range(self.h):
            a = self.top.mul(a, a)
        return a

    def compress(self, chunks: tuple[int, ...]) -> int:
        """(c_0..c_{n-1}) over GF(q) -> sum embed(c_i) * x^i in GF(q^n)."""
        bits = 0
        for i, c in enumerate(chunks):
            bits |= self.base.check(c) << (i * self.h)
        return self._compress[bits]

    def expand(self, v: int) -> tuple[int, ...]:
        """GF(q^n) element -> its GF(q) coordinates over the basis {x^i}."""
        return self._expand[self.top.check(v)]

    def __repr__(self) -> str:
        return f"Tower(GF(2^{self.h}) < GF(2^{self.top.m}), n={self.n})"


def make_tower(h: int, n: int) -> FieldTower:
    """Tower GF(2^h) < GF(2^(h*n)) over the default moduli."""
    return FieldTower(field_make(h), field_make(h * n))
