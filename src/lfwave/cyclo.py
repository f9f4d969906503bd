"""Exact scalars for frame computations: Q(zeta_p) graded by half powers of q.

A scalar is  (c_0 + c_1*zeta + ... + c_{p-2}*zeta^{p-2}) * q**(e/2)  with
rational c_i and integer e.  The power basis 1..zeta^{p-2} gives unique
coordinates; zeta^{p-1} is rewritten via 1 + zeta + ... + zeta^{p-1} = 0.
Magnitudes and inner-product sums always cancel the half grade back to an
integer power of q, so equality checks stay exact and no irrational
arithmetic is ever needed.
"""

from __future__ import annotations

import cmath
from fractions import Fraction


class GradeMismatch(ValueError):
    """Adding scalars carrying distinct nonzero q**(e/2) grades."""


class CycloScalar:
    __slots__ = ("p", "q", "coeffs", "grade")

    def __init__(self, p: int, q: int, coeffs, grade: int = 0):
        coeffs = tuple(Fraction(c) for c in coeffs)
        if len(coeffs) != p - 1:
            raise ValueError(f"expected {p - 1} coefficients, got {len(coeffs)}")
        if not any(coeffs):
            grade = 0
        self.p = p
        self.q = q
        self.coeffs = coeffs
        self.grade = grade

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, p: int, q: int) -> "CycloScalar":
        return cls(p, q, (0,) * (p - 1))

    @classmethod
    def rational(cls, p: int, q: int, value, grade: int = 0) -> "CycloScalar":
        return cls(p, q, (Fraction(value),) + (0,) * (p - 2), grade)

    @classmethod
    def zeta_pow(cls, p: int, q: int, t: int, grade: int = 0) -> "CycloScalar":
        """zeta_p**t times q**(grade/2)."""
        t %= p
        coeffs = [Fraction(0)] * (p - 1)
        if t == p - 1:
            coeffs = [Fraction(-1)] * (p - 1)
        else:
            coeffs[t] = Fraction(1)
        return cls(p, q, coeffs, grade)

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def as_fraction(self) -> Fraction:
        """Exact rational value; requires a rational coefficient vector and
        an even grade (so q**(e/2) is itself rational)."""
        if not self.is_rational():
            raise ValueError(f"not a rational scalar: {self!r}")
        if self.is_zero():
            return Fraction(0)
        if self.grade % 2:
            raise ValueError(f"odd half-grade {self.grade} is irrational")
        return self.coeffs[0] * Fraction(self.q) ** (self.grade // 2)

    # -- ring operations ---------------------------------------------------

    def _like(self, other: "CycloScalar"):
        if not isinstance(other, CycloScalar) or (self.p, self.q) != (other.p, other.q):
            raise ValueError("scalars from different cyclotomic configurations")

    def __add__(self, other: "CycloScalar") -> "CycloScalar":
        self._like(other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.grade != other.grade:
            raise GradeMismatch(
                f"cannot add grades q^({self.grade}/2) and q^({other.grade}/2)"
            )
        return CycloScalar(
            self.p, self.q,
            tuple(a + b for a, b in zip(self.coeffs, other.coeffs)),
            self.grade,
        )

    def __neg__(self) -> "CycloScalar":
        return CycloScalar(self.p, self.q, tuple(-a for a in self.coeffs), self.grade)

    def __sub__(self, other: "CycloScalar") -> "CycloScalar":
        return self + (-other)

    def __mul__(self, other: "CycloScalar") -> "CycloScalar":
        self._like(other)
        p = self.p
        acc = [Fraction(0)] * p  # exponents 0..p-1
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    acc[(i + j) % p] += a * b
        top = acc[p - 1]
        coeffs = tuple(acc[k] - top for k in range(p - 1))
        return CycloScalar(p, self.q, coeffs, self.grade + other.grade)

    def conj(self) -> "CycloScalar":
        p = self.p
        acc = [Fraction(0)] * p
        for i, a in enumerate(self.coeffs):
            acc[(-i) % p] += a
        top = acc[p - 1]
        coeffs = tuple(acc[k] - top for k in range(p - 1))
        return CycloScalar(p, self.q, coeffs, self.grade)

    def abs_sq(self) -> "CycloScalar":
        """Squared magnitude; grade doubles into an integer q power."""
        return self * self.conj()

    def q_half_shift(self, e: int) -> "CycloScalar":
        """Multiply by q**(e/2)."""
        if self.is_zero():
            return self
        return CycloScalar(self.p, self.q, self.coeffs, self.grade + e)

    def reduce_grade(self) -> "CycloScalar":
        """Fold an even grade into the rational coefficients (grade -> 0)."""
        if self.grade == 0:
            return self
        if self.grade % 2:
            raise ValueError(f"odd half-grade {self.grade} cannot be reduced")
        f = Fraction(self.q) ** (self.grade // 2)
        return CycloScalar(self.p, self.q, tuple(c * f for c in self.coeffs))

    # -- comparisons, printing, numeric shadow ------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, CycloScalar)
            and (self.p, self.q) == (other.p, other.q)
            and self.coeffs == other.coeffs
            and self.grade == other.grade
        )

    def __hash__(self):
        return hash((self.p, self.coeffs, self.grade))

    def approx(self) -> complex:
        """Floating shadow for tests only; never used in decisions."""
        z = cmath.exp(2j * cmath.pi / self.p)
        val = sum(float(c) * z**k for k, c in enumerate(self.coeffs))
        return val * self.q ** (self.grade / 2)

    def __repr__(self):
        if self.is_zero():
            return "0"
        terms = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            if k == 0:
                terms.append(str(c))
            elif c == 1:
                terms.append(f"z^{k}")
            else:
                terms.append(f"{c}*z^{k}")
        s = " + ".join(terms)
        if self.grade:
            s = f"({s})*qh^{self.grade}"
        a = self.approx()
        approx = f"{a.real:.6g}" if abs(a.imag) < 1e-9 else f"{a:.6g}"
        return f"{s} ({approx})"
