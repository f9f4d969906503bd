"""Exact arithmetic in the residue field GF(q), q = p**c.

An element is an int index in 0..q-1 whose base-p digits, least significant
first, are its coordinates over GF(p) in the power basis 1, e, ..., e**(c-1)
of a root e of a monic irreducible modulus polynomial: 0 is zero, 1 is one.
FieldConfig computes on indices with O(q) tables built on first use: exp/log
of a primitive element g, Zech logarithms log(1 + g**n) for sums, negation
and trace.  FqElement wraps an index for operator syntax.  The only global
state is a cache of default moduli by (p, c).
"""

from __future__ import annotations

from functools import cache
from itertools import product
from operator import mul


class ConfigMismatch(ValueError):
    """Raised when operands belong to different field configurations."""


def check_ints(name: str, *values):
    """Raise ValueError naming the parameter unless every value is an int
    (a bool or a float is refused)."""
    for n in values:
        if type(n) is not int:
            raise ValueError(f"{name} takes only ints, got {n!r}")


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
    # m monic: clear the coefficients of degree >= deg m from the top down
    dm = len(m) - 1
    a = list(a)
    while len(a) > dm:
        lead = a.pop()  # lead - lead * m[dm] is 0
        if lead:
            shift = len(a) - dm
            for i in range(dm):
                a[shift + i] = (a[shift + i] - lead * m[i]) % p
    return _poly_trim(tuple(a))


def _poly_pow(a, n, m, p):
    """a**n mod the monic m, by square-and-multiply."""
    out = (1,)
    while n:
        if n & 1:
            out = _poly_mod(_poly_mul(out, a, p), m, p)
        n >>= 1
        if n:
            a = _poly_mod(_poly_mul(a, a, p), m, p)
    return out


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


@cache
def _default_modulus(p: int, c: int):
    """default_modulus(p, c), searched once per (p, c) a process uses."""
    return default_modulus(p, c)


_TABLES = ("_exp", "_log", "_zech", "_neg", "_trace")


class FieldConfig:
    """The residue field GF(q), q = p**c (p <= 13, c <= 4), and its index arithmetic."""

    __slots__ = ("p", "c", "q", "modulus", "zero", "one") + _TABLES

    def __init__(self, p: int, c: int = 1, modulus=None):
        check_ints("p", p)
        check_ints("c", c)
        if p not in (2, 3, 5, 7, 11, 13):
            raise ValueError(f"p must be a prime <= 13, got {p}")
        if not 1 <= c <= 4:
            raise ValueError(f"extension degree must be in [1, 4], got {c}")
        if modulus is None:
            modulus = _default_modulus(p, c)  # irreducible by construction
        else:
            modulus = tuple(x % p for x in modulus)
            if len(modulus) != c + 1 or modulus[-1] != 1:
                raise ValueError("modulus must be monic of degree c")
            if not is_irreducible(modulus, p):
                raise ValueError(f"modulus {modulus} is reducible over GF({p})")
        self.p = p
        self.c = c
        self.q = p**c
        self.modulus = modulus
        self.zero, self.one = FqElement(self, 0), FqElement(self, 1)

    def __getattr__(self, name):
        # only an unset table slot lands here: the tables are built on first use
        if name not in _TABLES:
            raise AttributeError(name)
        self._build_tables()
        return object.__getattribute__(self, name)

    def _build_tables(self):
        p, c, q, m = self.p, self.c, self.q, self.modulus
        # g is primitive iff g**((q-1)/r) != 1 for every prime r dividing q-1
        primes = [r for r in range(2, q) if (q - 1) % r == 0 and all(r % d for d in range(2, r))]
        for g in map(_poly_trim, map(self.coords, range(1, q))):
            if all(_poly_pow(g, (q - 1) // r, m, p) != (1,) for r in primes):
                break
        # step the coordinates of g**k by the matrix of multiplication by g:
        # column k holds the coordinates of e**k * g
        cols = [(_poly_mod(_poly_mul((0,) * k + (1,), g, p), m, p) + (0,) * c)[:c]
                for k in range(c)]
        rows, weights = list(zip(*cols)), [p**j for j in range(c)]
        powers, x = [1], self.coords(1)
        for _ in range(q - 2):
            x = [sum(map(mul, row, x)) % p for row in rows]
            powers.append(sum(map(mul, weights, x)))
        log = [None] * q
        for k, i in enumerate(powers):
            log[i] = k
        # exp[k] = g**k for k < 2(q-1), so a sum of two logs needs no reduction;
        # exp[2(q-1):] is 0, where the Zech logarithm of a zero sum points
        self._exp = powers * 2 + [0] * (q - 1)
        self._log = log
        # 1 + g**k: the index of g**k with its lowest base-p digit raised by one
        one_plus = [i - i % p + (i + 1) % p for i in powers]
        self._zech = [log[s] if s else 2 * (q - 1) for s in one_plus]
        # -1 is the element of order 2, g**((q-1)/2), and is 1 when p = 2
        half = (q - 1) // 2 if p > 2 else 0
        self._neg = [0] + [self._exp[log[i] + half] for i in range(1, q)]
        # Tr(e**k) is the trace of the matrix of multiplication by e**k
        basis = [sum((_poly_mod((0,) * (k + j) + (1,), m, p) + (0,) * c)[j]
                     for j in range(c)) % p for k in range(c)]
        # the trace is linear: extend the table by one base-p digit at a time
        trace = [0]
        for t in basis:
            trace = [(x + a * t) % p for a in range(p) for x in trace]
        self._trace = trace

    def coords(self, i: int) -> tuple:
        """The c power-basis coordinates of index i: its base-p digits."""
        return tuple(i // self.p**k % self.p for k in range(self.c))

    def index(self, coords) -> int:
        """The index with these coordinates (missing top ones read as 0)."""
        return sum(a * self.p**k for k, a in enumerate(coords))

    def format_digit(self, i: int) -> str:
        """`a` for c = 1, else the coordinate list `[a0,a1,...]`."""
        return str(i) if self.c == 1 else "[" + ",".join(map(str, self.coords(i))) + "]"

    def add(self, a: int, b: int) -> int:
        if not (a and b):
            return a or b
        la = self._log[a]
        return self._exp[la + self._zech[self._log[b] - la]]

    def neg(self, a: int) -> int:
        return self._neg[a]

    def mul(self, a: int, b: int) -> int:
        return self._exp[self._log[a] + self._log[b]] if a and b else 0

    def pow(self, a: int, n: int) -> int:
        if not a:
            if n < 0:
                raise ZeroDivisionError("zero has no inverse in GF(q)")
            return 0 if n else 1
        return self._exp[self._log[a] * n % (self.q - 1)]

    def trace(self, a: int) -> int:
        """Tr(a) = a + a**p + ... + a**(p**(c-1)), as a residue mod p."""
        return self._trace[a]

    def from_index(self, i: int) -> "FqElement":
        """The element with index i, 0 <= i < q."""
        if not 0 <= i < self.q:
            raise ValueError(f"index out of range [0, {self.q})")
        return FqElement(self, i)

    def elements(self):
        return (FqElement(self, i) for i in range(self.q))

    def __eq__(self, other):
        return self is other or (
            isinstance(other, FieldConfig)
            and (self.p, self.c, self.modulus) == (other.p, other.c, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.c, self.modulus))

    def __repr__(self):
        return f"FieldConfig(p={self.p}, c={self.c}, modulus={list(self.modulus)})"


class FqElement:
    """A GF(q) element with operator syntax: its config and its index.

    Every operation is its config's table arithmetic on the index."""

    __slots__ = ("config", "index")

    def __init__(self, config: FieldConfig, index: int):
        self.config = config
        self.index = index

    @property
    def coords(self) -> tuple:
        return self.config.coords(self.index)

    def _index_of(self, other: "FqElement") -> int:
        if self.config != other.config:
            raise ConfigMismatch("operands from different field configurations")
        return other.index

    def __bool__(self):
        return self.index != 0

    def __eq__(self, other):
        return (
            isinstance(other, FqElement)
            and self.index == other.index
            and self.config == other.config
        )

    def __hash__(self):
        return hash(self.index)

    def __add__(self, other):
        return FqElement(self.config, self.config.add(self.index, self._index_of(other)))

    def __neg__(self):
        return FqElement(self.config, self.config.neg(self.index))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return FqElement(self.config, self.config.mul(self.index, self._index_of(other)))

    def __pow__(self, n: int):
        return FqElement(self.config, self.config.pow(self.index, n))

    def inverse(self) -> "FqElement":
        return self ** -1

    def trace(self) -> int:
        return self.config.trace(self.index)

    def __repr__(self):
        return self.config.format_digit(self.index)
