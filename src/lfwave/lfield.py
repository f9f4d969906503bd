"""Exact elements of the local field K = GF(q)((p)) with finite digit support.

An element is a finite formal sum  x = sum_l c_l * p**l  with nonzero digits
c_l in GF(q) and l ranging over the integers, kept as `digits`: exponent ->
GF(q) index in 1..q-1 (see gfq).  All objects the library manipulates (ball
centers, coset representatives, their sums and products) have finite
support, so no truncation ever happens.

The canonical coset representatives of the ring of integers are indexed by
the non-negative integers: coset_rep(n) places the base-q digits of n, as
GF(q) indices, at the negative exponents.

Elements are written as terms joined by `+`: `u(n)` (coset_rep(n)) or
`[digit][*]p[^e]`, where a digit is an integer below p or, for c > 1, a
coordinate list `[a0,a1,...]`.  parse_element reads the text term by term,
and refuses an empty term (a trailing `+`) and a `*` not between a digit
and p; format_element writes the same syntax.
"""

from __future__ import annotations

import math
import re

from .cyclo import CycloScalar
from .gfq import ConfigMismatch, FieldConfig, check_ints

INFINITY = math.inf


class FieldElement:
    """Finite-support Laurent series in the prime element, digits in GF(q)."""

    __slots__ = ("config", "digits")

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

    @classmethod
    def zero(cls, config: FieldConfig) -> "FieldElement":
        return cls(config, {}, True)

    @classmethod
    def one(cls, config: FieldConfig) -> "FieldElement":
        return cls(config, {0: 1}, True)

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

    def __eq__(self, other):
        return (
            isinstance(other, FieldElement)
            and self.config == other.config
            and self.digits == other.digits
        )

    def __hash__(self):
        return hash(frozenset(self.digits.items()))

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
        self._check(other)
        add, neg = self.config.add, self.config.neg
        out = dict(self.digits)
        get = out.get
        for e, d in other.digits.items():
            a = get(e)
            if a is None:
                out[e] = neg(d)
            elif a == d:
                del out[e]
            else:
                out[e] = add(a, neg(d))
        return FieldElement(self.config, out, True)

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
    check_ints("n", n)
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

    Only the digit at exponent -1 of the product is read, so it is summed
    alone: d = sum over y's digits y_e of y_e * x_{-1-e} in GF(q), without
    building y*x.  Trivial on the ring of integers, nontrivial one level up,
    and additive in each argument.
    """
    y._check(x)
    cfg = y.config
    add, mul = cfg.add, cfg.mul
    get = x.digits.get
    d = 0
    for e, a in y.digits.items():
        b = get(-1 - e)
        if b:
            d = add(d, mul(a, b))
    return CycloScalar.zeta_pow(cfg.p, cfg.q, cfg.trace(d))


# ---------------------------------------------------------------------------
# Textual element syntax:  `p^-1 + 2*p^3`, `[1,0]*p^2`, `u(17)`, `0`
# ---------------------------------------------------------------------------

# one nonempty term; a `*` only between a digit and p; ASCII digits only
_TERM = re.compile(
    r"(?=.)(?:u\(\s*(?P<u>\d+)\s*\)"
    r"|(?P<digit>(?P<int>\d+)|(?P<coords>\[\s*\d+\s*(?:,\s*\d+\s*)*\]))?"
    r"(?P<mono>(?(digit)\s*\*?\s*)p(?:\s*\^\s*(?P<sign>-?)\s*(?P<exp>\d+))?)?)",
    re.ASCII,
)


class ElementSyntaxError(ValueError):
    pass


def parse_element(config: FieldConfig, text: str) -> FieldElement:
    """Parse the monomial-sum syntax term by term; exact inverse of
    format_element.  Blank text is 0."""
    result = FieldElement.zero(config)
    for term in text.split("+") if text.strip() else ():
        m = _TERM.fullmatch(term.strip())
        if not m:
            raise ElementSyntaxError(f"bad element term {term.strip()!r} in {text!r}")
        if m["u"]:
            result = result + coset_rep(config, int(m["u"]))
            continue
        coeff = 1
        if m["coords"]:
            parts = [int(s) for s in m["coords"][1:-1].split(",")]
            if len(parts) != config.c or any(a >= config.p for a in parts):
                raise ElementSyntaxError(f"digit literal needs {config.c} coordinates "
                                         f"in 0..{config.p - 1}: {m['coords']}")
            coeff = config.index(parts)
        elif m["int"]:
            coeff = int(m["int"])  # the index of (coeff, 0, ..., 0)
            if coeff >= config.p:
                raise ElementSyntaxError(f"digit {coeff} out of range for p={config.p}")
        exp = int(m["sign"] + m["exp"]) if m["exp"] else 1 if m["mono"] else 0
        result = result + FieldElement.monomial(config, coeff, exp)
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
