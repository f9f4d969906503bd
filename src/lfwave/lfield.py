"""Exact elements of the local field K = GF(q)((p)) with finite digit support.

An element is a finite formal sum  x = sum_l c_l * p**l  with nonzero digits
c_l in GF(q) and l ranging over the integers, kept as `digits`: exponent ->
GF(q) index in 1..q-1 (see gfq).  All objects the library manipulates (ball
centers, coset representatives, their sums and products) have finite
support, so no truncation ever happens.

The canonical coset representatives of the ring of integers are indexed by
the non-negative integers: coset_rep(n) places the base-q digits of n, as
GF(q) indices, at the negative exponents.
"""

from __future__ import annotations

import math
import re

from .cyclo import CycloScalar
from .gfq import ConfigMismatch, FieldConfig

INFINITY = math.inf


class FieldElement:
    """Finite-support Laurent series in the prime element, digits in GF(q)."""

    __slots__ = ("config", "digits", "_hash")

    def __init__(self, config: FieldConfig, digits, _canonical: bool = False):
        # digits: mapping exponent -> GF(q) index in 0..q-1; zero digits
        # dropped.  _canonical: a dict of nonzero indices, taken unchecked
        if not _canonical:
            for d in digits.values():
                if not isinstance(d, int) or not 0 <= d < config.q:
                    raise ValueError(f"digit {d!r} is not a GF({config.q}) index")
            digits = {e: d for e, d in digits.items() if d}
        self.config = config
        self.digits = digits
        self._hash = None  # computed on first use: most elements are never hashed

    @classmethod
    def zero(cls, config: FieldConfig) -> "FieldElement":
        return cls(config, {}, True)

    @classmethod
    def one(cls, config: FieldConfig) -> "FieldElement":
        return cls(config, {0: 1}, True)

    @classmethod
    def prime_pow(cls, config: FieldConfig, k: int) -> "FieldElement":
        """The monomial p**k."""
        return cls(config, {k: 1}, True)

    @classmethod
    def monomial(cls, config: FieldConfig, digit: int, k: int) -> "FieldElement":
        return cls(config, {k: digit})

    def digit(self, e: int) -> int:
        return self.digits.get(e, 0)

    def __bool__(self):
        return bool(self.digits)

    def valuation(self):
        """min exponent with nonzero digit; +inf for zero (|x| = q**-val)."""
        return min(self.digits) if self.digits else INFINITY

    def abs_log(self):
        """log_q |x| as an integer, -inf for zero."""
        return -self.valuation() if self.digits else -INFINITY

    def __eq__(self, other):
        return (
            isinstance(other, FieldElement)
            and self.config == other.config
            and self.digits == other.digits
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self.digits.items()))
        return self._hash

    def _check(self, other):
        if not isinstance(other, FieldElement) or self.config != other.config:
            raise ConfigMismatch("elements from different field configurations")

    def __add__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        add = self.config.add
        out = dict(self.digits)
        for e, d in other.digits.items():
            s = add(out.get(e, 0), d)
            if s:
                out[e] = s
            else:
                del out[e]
        return FieldElement(self.config, out, True)

    def __neg__(self) -> "FieldElement":
        neg = self.config.neg
        return FieldElement(self.config, {e: neg(d) for e, d in self.digits.items()}, True)

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        return self + (-other)

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        add, mul = self.config.add, self.config.mul
        out: dict[int, int] = {}
        for e1, d1 in self.digits.items():
            for e2, d2 in other.digits.items():
                e = e1 + e2
                s = add(out.get(e, 0), mul(d1, d2))
                if s:
                    out[e] = s
                else:
                    del out[e]
        return FieldElement(self.config, out, True)

    def scale_exponents(self, j: int) -> "FieldElement":
        """Multiply by p**j (shift every exponent by j)."""
        return FieldElement(self.config, {e + j: d for e, d in self.digits.items()}, True)

    def truncate_below(self, k: int) -> "FieldElement":
        """Keep digits at exponents < k."""
        return FieldElement(self.config, {e: d for e, d in self.digits.items() if e < k}, True)

    def truncate_at_least(self, k: int) -> "FieldElement":
        """Keep digits at exponents >= k."""
        return FieldElement(self.config, {e: d for e, d in self.digits.items() if e >= k}, True)

    def __repr__(self):
        return format_element(self)


# ---------------------------------------------------------------------------
# Canonical coset representatives of the ring of integers
# ---------------------------------------------------------------------------


def coset_rep(config: FieldConfig, n: int) -> FieldElement:
    """The n-th canonical representative: base-q digit b_k of n is placed at
    exponent -(k+1) as the GF(q) element of index b_k."""
    if n < 0:
        raise ValueError("index must be non-negative")
    digits = {}
    e = -1
    while n:
        n, b = divmod(n, config.q)
        if b:
            digits[e] = b
        e -= 1
    return FieldElement(config, digits, True)


def coset_index(x: FieldElement) -> int:
    """Inverse of coset_rep on purely fractional elements."""
    if any(e >= 0 for e in x.digits):
        raise ValueError("element has digits at non-negative exponents")
    return sum(d * x.config.q ** (-e - 1) for e, d in x.digits.items())


def split_integral(x: FieldElement):
    """Write x = coset_rep(n) + r with r in the ring of integers; returns (n, r)."""
    frac = x.truncate_below(0)
    rem = x.truncate_at_least(0)
    return coset_index(frac), rem


def character(y: FieldElement, x: FieldElement) -> CycloScalar:
    """The canonical additive character at y*x: zeta_p**Tr(digit_{-1}(y*x)).

    Trivial on the ring of integers, nontrivial one level up, and additive
    in each argument.
    """
    y._check(x)
    cfg = y.config
    return CycloScalar.zeta_pow(cfg.p, cfg.q, cfg.trace((y * x).digit(-1)))


# ---------------------------------------------------------------------------
# Textual element syntax:  `p^-1 + 2*p^3`, `[1,0]*p^2`, `u(17)`, `0`
# ---------------------------------------------------------------------------

_TOKEN = re.compile(
    r"\s*(?:(?P<u>u\(\s*\d+\s*\))|(?P<digits>\[[0-9,\s]+\])|(?P<int>\d+)"
    r"|(?P<p>p)|(?P<caret>\^)|(?P<star>\*)|(?P<plus>\+)|(?P<minus>-))"
)


class ElementSyntaxError(ValueError):
    pass


def parse_element(config: FieldConfig, text: str) -> FieldElement:
    """Parse the monomial-sum syntax; exact inverse of format_element."""
    pos = 0
    n = len(text)
    tokens = []
    while pos < n:
        if text[pos:].strip() == "":
            break
        m = _TOKEN.match(text, pos)
        if not m:
            raise ElementSyntaxError(f"bad element syntax at column {pos}: {text!r}")
        tokens.append(m)
        pos = m.end()

    result = FieldElement.zero(config)
    i = 0

    def expect_plus():
        nonlocal i
        if i < len(tokens):
            if tokens[i].group("plus") is None:
                raise ElementSyntaxError(f"expected '+' in {text!r}")
            i += 1

    while i < len(tokens):
        tok = tokens[i]
        if tok.group("u"):
            idx = int(tok.group("u")[2:-1])
            result = result + coset_rep(config, idx)
            i += 1
            expect_plus()
            continue
        # term := [coeff *] p [^ exp]   |   coeff
        coeff = None
        if tok.group("digits"):
            parts = [int(s) for s in tok.group("digits")[1:-1].split(",")]
            if len(parts) != config.c or any(a >= config.p for a in parts):
                raise ElementSyntaxError(f"digit literal needs {config.c} coordinates "
                                         f"in 0..{config.p - 1}: {tok.group('digits')}")
            coeff = config.index(parts)
            i += 1
        elif tok.group("int"):
            v = int(tok.group("int"))
            if v >= config.p:
                raise ElementSyntaxError(f"digit {v} out of range for p={config.p}")
            coeff = v  # the index of (v, 0, ..., 0)
            i += 1
        if i < len(tokens) and tokens[i].group("star"):
            i += 1
        exp = None
        if i < len(tokens) and tokens[i].group("p"):
            i += 1
            exp = 1
            if i < len(tokens) and tokens[i].group("caret"):
                i += 1
                sign = 1
                if i < len(tokens) and tokens[i].group("minus"):
                    sign = -1
                    i += 1
                if i >= len(tokens) or not tokens[i].group("int"):
                    raise ElementSyntaxError(f"expected exponent in {text!r}")
                exp = sign * int(tokens[i].group("int"))
                i += 1
        if coeff is None and exp is None:
            raise ElementSyntaxError(f"unexpected token in {text!r}")
        if coeff is None:
            coeff = 1
        if exp is None:
            exp = 0
        result = result + FieldElement.monomial(config, coeff, exp)
        expect_plus()
    return result


def format_element(x: FieldElement) -> str:
    if not x:
        return "0"
    cfg = x.config
    terms = []
    for e, d in sorted(x.digits.items()):
        dstr = cfg.format_digit(d)
        if e == 0:
            terms.append(dstr)
            continue
        mono = "p" if e == 1 else f"p^{e}"
        terms.append(mono if d == 1 else f"{dstr}*{mono}")
    return " + ".join(terms)
