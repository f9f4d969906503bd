"""Exact scalars for frame computations: Q(zeta_p) graded by half powers of q.

A scalar is  (c_0 + c_1*zeta + ... + c_{p-2}*zeta^{p-2}) * q**(g/2)  with
rational c_i and half-grade g in {0, 1}: a factor q**(e/2) is folded on
construction, its rational part q**(e // 2) into the coordinates, while
q**(1/2) stays a formal s with s**2 = q, so scalars are the elements of
Q(zeta_p)[s] / (s**2 - q) (where sqrt(q) lies in Q(zeta_p), s is still
kept apart).  The power basis 1..zeta^{p-2} gives unique coordinates;
zeta^{p-1} is rewritten via 1 + zeta + ... + zeta^{p-1} = 0.  Magnitudes
and inner-product sums cancel the half grade back to grade 0, so equality
checks stay exact and no irrational arithmetic is ever needed.

The coordinates are stored as one integer vector over one common
denominator, c_i = nums[i] / den, in canonical form: den > 0,
gcd(den, *nums) == 1, grade 0 or 1, and zero is all-zero nums with den 1
and grade 0.  Equal scalars therefore have equal fields, across grades too
(q**(2/2) is the rational q), and the ring operations are integer sums,
convolutions and one gcd; negation and conjugation permute and negate
integer coordinates (a unimodular map), so they keep the form without a
gcd.  `coeffs` rebuilds the rational coordinates for printing.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add, neg

from .gfq import check_ints


class GradeMismatch(ValueError):
    """Adding a scalar of grade 0 to one of grade 1."""


def _exact(x):
    """x as an int or Fraction; a float (a binary approximation) is refused."""
    if isinstance(x, float):
        raise TypeError(f"inexact value {x!r}: give an int, a Fraction or a string such as '1/3'")
    return x if isinstance(x, (int, Fraction)) else Fraction(x)


class CycloScalar:
    __slots__ = ("p", "q", "nums", "den", "grade")

    def __init__(self, p: int, q: int, coeffs):
        coeffs = [_exact(c) for c in coeffs]
        if len(coeffs) != p - 1:
            raise ValueError(f"expected {p - 1} coefficients, got {len(coeffs)}")
        den = lcm(*(c.denominator for c in coeffs))
        r = CycloScalar._reduced(p, q, tuple(c.numerator * (den // c.denominator)
                                             for c in coeffs), den, 0)
        self.p, self.q, self.nums, self.den, self.grade = p, q, r.nums, r.den, r.grade

    @classmethod
    def _from_parts(cls, p: int, q: int, nums: tuple, den: int, grade: int) -> "CycloScalar":
        """A scalar from fields already in canonical form, without checks."""
        s = object.__new__(cls)
        s.p = p
        s.q = q
        s.nums = nums
        s.den = den
        s.grade = grade
        return s

    @classmethod
    def _reduced(cls, p: int, q: int, nums: tuple, den: int, grade: int) -> "CycloScalar":
        """nums / den * q**(grade/2) brought to canonical form: the even part
        q**(grade // 2) folded into nums or den, leaving grade 0 or 1, then the
        gcd divided out (all-zero nums end with den 1 and grade 0)."""
        if grade >> 1:
            h, grade = divmod(grade, 2)
            if h > 0:
                nums = tuple([n * q ** h for n in nums])
            else:
                den *= q ** -h
        if den != 1:
            g = gcd(den, *nums)
            if g != 1:
                den //= g
                nums = tuple([n // g for n in nums])
        if not any(nums):
            grade = 0
        return cls._from_parts(p, q, nums, den, grade)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, p: int, q: int) -> "CycloScalar":
        return cls._from_parts(p, q, (0,) * (p - 1), 1, 0)

    @classmethod
    def rational(cls, p: int, q: int, value) -> "CycloScalar":
        value = _exact(value)
        if not value:
            return cls.zero(p, q)
        return cls._from_parts(p, q, (value.numerator,) + (0,) * (p - 2), value.denominator, 0)

    @classmethod
    def q_power(cls, p: int, q: int, e: int) -> "CycloScalar":
        """The rational q**e at grade 0 (a ball of scale s has measure q**-s)."""
        check_ints("e", e)
        if e >= 0:
            return cls._from_parts(p, q, (q ** e,) + (0,) * (p - 2), 1, 0)
        return cls._from_parts(p, q, (1,) + (0,) * (p - 2), q ** -e, 0)

    @classmethod
    def zeta_pow(cls, p: int, q: int, t: int) -> "CycloScalar":
        """zeta_p**t."""
        check_ints("t", t)
        t %= p
        if t == p - 1:
            nums = (-1,) * (p - 1)
        else:
            nums = (0,) * t + (1,) + (0,) * (p - 2 - t)
        return cls._from_parts(p, q, nums, 1, 0)

    # -- predicates --------------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        """The rational coordinates nums[i] / den."""
        return tuple(Fraction(n, self.den) for n in self.nums)

    def is_zero(self) -> bool:
        return not any(self.nums)

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def as_fraction(self) -> Fraction:
        """Exact rational value; requires a rational coefficient vector and
        grade 0 (an even power of q**(1/2) is already folded into it)."""
        if not self.is_rational():
            raise ValueError(f"not a rational scalar: {self!r}")
        if self.grade:
            raise ValueError("odd half-grade 1 is irrational")
        return Fraction(self.nums[0], self.den)

    # -- ring operations ---------------------------------------------------

    def _like(self, other: "CycloScalar"):
        if not isinstance(other, CycloScalar) or (self.p, self.q) != (other.p, other.q):
            raise ValueError("scalars from different cyclotomic configurations")

    def __add__(self, other: "CycloScalar") -> "CycloScalar":
        self._like(other)
        a, b = self.nums, other.nums
        if not any(a):
            return other
        if not any(b):
            return self
        if self.grade != other.grade:
            raise GradeMismatch(
                f"cannot add grades q^({self.grade}/2) and q^({other.grade}/2)"
            )
        da, db = self.den, other.den
        if da == db:
            nums = tuple(map(add, a, b))
        else:
            nums = tuple([x * db + y * da for x, y in zip(a, b)])
            da *= db
        return CycloScalar._reduced(self.p, self.q, nums, da, self.grade)

    def __neg__(self) -> "CycloScalar":
        return CycloScalar._from_parts(self.p, self.q, tuple(map(neg, self.nums)),
                                       self.den, self.grade)

    def __sub__(self, other: "CycloScalar") -> "CycloScalar":
        return self + (-other)

    def __mul__(self, other: "CycloScalar") -> "CycloScalar":
        self._like(other)
        p = self.p
        a, b = self.nums, other.nums
        if not any(a) or not any(b):
            return CycloScalar.zero(p, self.q)
        acc = [0] * p  # exponents 0..p-1
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        acc[(i + j) % p] += x * y
        top = acc[p - 1]
        nums = tuple([acc[k] - top for k in range(p - 1)]) if top else tuple(acc[:-1])
        return CycloScalar._reduced(p, self.q, nums, self.den * other.den,
                                    self.grade + other.grade)

    def conj(self) -> "CycloScalar":
        # zeta^i -> zeta^(p-i); the image of zeta^1 is zeta^(p-1) = -(1 + ... + zeta^(p-2))
        a = self.nums
        if len(a) == 1:  # p = 2: zeta = -1 is real
            return self
        top = a[1]
        nums = (a[0] - top, -top) + tuple([x - top for x in a[:1:-1]])
        return CycloScalar._from_parts(self.p, self.q, nums, self.den, self.grade)

    def abs_sq(self) -> "CycloScalar":
        """Squared magnitude, of grade 0: the grade doubles into a power of q."""
        return self * self.conj()

    def q_half_shift(self, e: int) -> "CycloScalar":
        """Multiply by q**(e/2).  A nonzero scalar landing on grade 0 or 1
        keeps its canonical nums and den."""
        check_ints("e", e)
        grade = self.grade + e
        if grade >> 1 or not any(self.nums):
            return CycloScalar._reduced(self.p, self.q, self.nums, self.den, grade)
        return CycloScalar._from_parts(self.p, self.q, self.nums, self.den, grade)

    def reduce_grade(self) -> "CycloScalar":
        """Itself at grade 0 (even grades are folded on construction); at
        grade 1 the factor q**(1/2) is formal and this raises."""
        if self.grade:
            raise ValueError("odd half-grade 1 cannot be reduced")
        return self

    # -- comparisons, printing ------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, CycloScalar)
            and self.nums == other.nums
            and self.den == other.den
            and self.grade == other.grade
            and (self.p, self.q) == (other.p, other.q)
        )

    def __hash__(self):
        return hash((self.p, self.nums, self.den, self.grade))

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
        return f"({s})*qh^{self.grade}" if self.grade else s
