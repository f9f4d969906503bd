"""Exact elements of the local field K = GF(q)((p)) with finite digit support.

An element is a finite formal sum  x = sum_l c_l * p**l  with nonzero digits
c_l in GF(q) and l ranging over the integers.  All objects the library
manipulates (ball centers, coset representatives, their sums and products)
have finite support, so no truncation ever happens.

The canonical coset representatives of the ring of integers are indexed by
the non-negative integers: coset_rep(n) places the base-q digits of n at the
negative exponents, mapping each base-q digit into GF(q) through its base-p
expansion in the power basis.
"""

from __future__ import annotations

import math
import re

from .cyclo import CycloScalar
from .gfq import ConfigMismatch, FieldConfig, FqElement

INFINITY = math.inf


class FieldElement:
    """Finite-support Laurent series in the prime element, digits in GF(q)."""

    __slots__ = ("config", "digits", "_hash")

    def __init__(self, config: FieldConfig, digits):
        # digits: mapping exponent -> FqElement; zero digits dropped
        self.config = config
        self.digits = {e: d for e, d in digits.items() if d}
        self._hash = None  # computed on first use: most elements are never hashed

    @classmethod
    def zero(cls, config: FieldConfig) -> "FieldElement":
        return cls(config, {})

    @classmethod
    def one(cls, config: FieldConfig) -> "FieldElement":
        return cls(config, {0: config.one})

    @classmethod
    def prime_pow(cls, config: FieldConfig, k: int) -> "FieldElement":
        """The monomial p**k."""
        return cls(config, {k: config.one})

    @classmethod
    def monomial(cls, config: FieldConfig, digit: FqElement, k: int) -> "FieldElement":
        return cls(config, {k: digit})

    def digit(self, e: int) -> FqElement:
        return self.digits.get(e, self.config.zero)

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
            self._hash = hash(frozenset((e, d.coords) for e, d in self.digits.items()))
        return self._hash

    def _check(self, other):
        if not isinstance(other, FieldElement) or self.config != other.config:
            raise ConfigMismatch("elements from different field configurations")

    def __add__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        out = dict(self.digits)
        for e, d in other.digits.items():
            s = out.get(e, self.config.zero) + d
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return FieldElement(self.config, out)

    def __neg__(self) -> "FieldElement":
        return FieldElement(self.config, {e: -d for e, d in self.digits.items()})

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        return self + (-other)

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        out: dict[int, FqElement] = {}
        for e1, d1 in self.digits.items():
            for e2, d2 in other.digits.items():
                e = e1 + e2
                s = out.get(e, self.config.zero) + d1 * d2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return FieldElement(self.config, out)

    def scale_exponents(self, j: int) -> "FieldElement":
        """Multiply by p**j (shift every exponent by j)."""
        return FieldElement(self.config, {e + j: d for e, d in self.digits.items()})

    def truncate_below(self, k: int) -> "FieldElement":
        """Keep digits at exponents < k."""
        return FieldElement(self.config, {e: d for e, d in self.digits.items() if e < k})

    def truncate_at_least(self, k: int) -> "FieldElement":
        """Keep digits at exponents >= k."""
        return FieldElement(self.config, {e: d for e, d in self.digits.items() if e >= k})

    def __repr__(self):
        return format_element(self)


# ---------------------------------------------------------------------------
# Canonical coset representatives of the ring of integers
# ---------------------------------------------------------------------------


def coset_rep(config: FieldConfig, n: int) -> FieldElement:
    """The n-th canonical representative: base-q digit b_k of n is placed at
    exponent -(k+1), with b_k mapped into GF(q) via its base-p digits."""
    if n < 0:
        raise ValueError("index must be non-negative")
    digits = {}
    k = 0
    while n:
        b = n % config.q
        n //= config.q
        if b:
            digits[-(k + 1)] = config.from_index(b)
        k += 1
    return FieldElement(config, digits)


def coset_index(x: FieldElement) -> int:
    """Inverse of coset_rep on purely fractional elements."""
    if any(e >= 0 for e in x.digits):
        raise ValueError("element has digits at non-negative exponents")
    n = 0
    for e, d in x.digits.items():
        n += d.index * x.config.q ** (-e - 1)
    return n


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
    d = (y * x).digit(-1)
    return CycloScalar.zeta_pow(cfg.p, cfg.q, d.trace())


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
            if len(parts) != config.c:
                raise ElementSyntaxError(
                    f"digit literal needs {config.c} coordinates: {tok.group('digits')}"
                )
            coeff = config.element(parts)
            i += 1
        elif tok.group("int"):
            v = int(tok.group("int"))
            if v >= config.p:
                raise ElementSyntaxError(f"digit {v} out of range for p={config.p}")
            coeff = config.element((v,) + (0,) * (config.c - 1))
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
            coeff = config.one
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
    for e in sorted(x.digits):
        d = x.digits[e]
        if cfg.c == 1:
            dstr = str(d.coords[0])
            is_one = d.coords[0] == 1
        else:
            dstr = "[" + ",".join(str(a) for a in d.coords) + "]"
            is_one = d == cfg.one
        if e == 0:
            terms.append(dstr)
            continue
        mono = "p" if e == 1 else f"p^{e}"
        terms.append(mono if is_one else f"{dstr}*{mono}")
    return " + ".join(terms)
