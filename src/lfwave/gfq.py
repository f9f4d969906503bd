"""Exact arithmetic in the residue field GF(q), q = p**c.

Elements are stored as coordinate vectors over GF(p) in the power basis
1, e, e**2, ..., e**(c-1) of a root e of a monic irreducible modulus
polynomial.  Everything is a small immutable value; no global state.
"""

from __future__ import annotations

from itertools import product


class ConfigMismatch(ValueError):
    """Raised when operands belong to different field configurations."""


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _poly_trim(a):
    while a and a[-1] == 0:
        a = a[:-1]
    return a


def _poly_mul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _poly_trim(tuple(out))


def _poly_mod(a, m, p):
    # m monic
    a = list(a)
    dm = len(m) - 1
    while len(a) - 1 >= dm and _poly_trim(tuple(a)):
        a = list(_poly_trim(tuple(a)))
        if len(a) - 1 < dm:
            break
        lead = a[-1]
        shift = len(a) - 1 - dm
        for i in range(dm + 1):
            a[shift + i] = (a[shift + i] - lead * m[i]) % p
        a = list(_poly_trim(tuple(a)))
        if not a:
            break
    return _poly_trim(tuple(a))


def _monic_polys(degree, p):
    for tail in product(range(p), repeat=degree):
        yield tuple(tail) + (1,)


def is_irreducible(modulus, p: int) -> bool:
    """Exhaustive trial-division irreducibility test (degree <= 4 only)."""
    m = _poly_trim(tuple(c % p for c in modulus))
    deg = len(m) - 1
    if deg < 1:
        return False
    for d in range(1, deg // 2 + 1):
        for f in _monic_polys(d, p):
            if not _poly_mod(m, f, p):
                return False
    return True


def default_modulus(p: int, c: int):
    """Lexicographically smallest monic irreducible of degree c over GF(p)."""
    if c == 1:
        return (0, 1)
    for m in _monic_polys(c, p):
        if is_irreducible(m, p):
            return m
    raise ValueError(f"no irreducible polynomial of degree {c} over GF({p})")


class FieldConfig:
    """Parameters of the residue field GF(q), q = p**c, p <= 13, c <= 4.

    The basis is the power basis of the modulus root, so basis[0] is the
    multiplicative identity.
    """

    __slots__ = ("p", "c", "q", "modulus", "_zero", "_one")

    def __init__(self, p: int, c: int = 1, modulus=None):
        if not _is_prime(p) or p > 13:
            raise ValueError(f"p must be a prime <= 13, got {p}")
        if not 1 <= c <= 4:
            raise ValueError(f"extension degree must be in [1, 4], got {c}")
        if modulus is None:
            modulus = default_modulus(p, c)
        modulus = tuple(x % p for x in modulus)
        if len(modulus) != c + 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree c")
        if not is_irreducible(modulus, p):
            raise ValueError(f"modulus {modulus} is reducible over GF({p})")
        self.p = p
        self.c = c
        self.q = p**c
        self.modulus = modulus
        self._zero = FqElement(self, (0,) * c)
        self._one = FqElement(self, (1,) + (0,) * (c - 1))

    @property
    def zero(self) -> "FqElement":
        return self._zero

    @property
    def one(self) -> "FqElement":
        return self._one

    def element(self, coords) -> "FqElement":
        coords = tuple(x % self.p for x in coords)
        if len(coords) != self.c:
            raise ValueError(f"expected {self.c} coordinates, got {len(coords)}")
        return FqElement(self, coords)

    def from_index(self, i: int) -> "FqElement":
        """Element whose coordinates are the base-p digits of i, 0 <= i < q."""
        if not 0 <= i < self.q:
            raise ValueError(f"index out of range [0, {self.q})")
        coords = []
        for _ in range(self.c):
            coords.append(i % self.p)
            i //= self.p
        return FqElement(self, tuple(coords))

    def elements(self):
        for i in range(self.q):
            yield self.from_index(i)

    def __eq__(self, other):
        return (
            isinstance(other, FieldConfig)
            and (self.p, self.c, self.modulus) == (other.p, other.c, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.c, self.modulus))

    def __repr__(self):
        return f"FieldConfig(p={self.p}, c={self.c}, modulus={list(self.modulus)})"


def _check_config(a: "FqElement", b: "FqElement"):
    if a.config != b.config:
        raise ConfigMismatch("operands from different field configurations")


class FqElement:
    """An element of GF(q) in power-basis coordinates over GF(p)."""

    __slots__ = ("config", "coords", "_hash")

    def __init__(self, config: FieldConfig, coords):
        self.config = config
        self.coords = coords
        self._hash = hash(coords)

    @property
    def index(self) -> int:
        """Position in the base-p coordinate enumeration (inverse of from_index)."""
        n = 0
        for a in reversed(self.coords):
            n = n * self.config.p + a
        return n

    def __bool__(self):
        return any(self.coords)

    def __eq__(self, other):
        return (
            isinstance(other, FqElement)
            and self.coords == other.coords
            and self.config == other.config
        )

    def __hash__(self):
        return self._hash

    def __add__(self, other):
        _check_config(self, other)
        p = self.config.p
        return FqElement(
            self.config, tuple((a + b) % p for a, b in zip(self.coords, other.coords))
        )

    def __neg__(self):
        p = self.config.p
        return FqElement(self.config, tuple((-a) % p for a in self.coords))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        _check_config(self, other)
        cfg = self.config
        prod = _poly_mul(self.coords, other.coords, cfg.p)
        red = _poly_mod(prod, cfg.modulus, cfg.p)
        coords = tuple(red) + (0,) * (cfg.c - len(red))
        return FqElement(cfg, coords)

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        acc = self.config.one
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    def inverse(self) -> "FqElement":
        if not self:
            raise ZeroDivisionError("zero has no inverse in GF(q)")
        return self ** (self.config.q - 2)

    def trace(self) -> int:
        """Tr(a) = a + a**p + ... + a**(p**(c-1)), as a residue mod p."""
        acc = self
        x = self
        for _ in range(self.config.c - 1):
            x = x**self.config.p
            acc = acc + x
        if any(acc.coords[1:]):
            raise AssertionError("trace did not land in the prime field")
        return acc.coords[0]

    def __repr__(self):
        if self.config.c == 1:
            return str(self.coords[0])
        return "[" + ",".join(str(a) for a in self.coords) + "]"
