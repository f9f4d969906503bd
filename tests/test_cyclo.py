"""Cyclotomic scalars: ring laws, conjugation, the half-integer grade, a
floating-point shadow used only here as an independent cross-check, and
agreement with a Fraction-coefficient reference implementation."""

import cmath
import random
from fractions import Fraction
from math import gcd

import pytest

from lfwave.cyclo import CycloScalar, GradeMismatch

PQ = {2: 2, 3: 3, 5: 5}


def rand_scalar(p, q, rng):
    coeffs = [Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
              for _ in range(p - 1)]
    return CycloScalar(p, q, coeffs)


def shadow(x):
    """Numeric embedding at zeta_p = exp(2 pi i / p), sqrt(q) real."""
    zeta = cmath.exp(2j * cmath.pi / x.p)
    val = sum(float(c) * zeta ** t for t, c in enumerate(x.coeffs))
    return val * (x.q ** 0.5) ** x.grade


def test_ring_laws_randomized():
    for p, q in PQ.items():
        rng = random.Random(p)
        zero = CycloScalar.zero(p, q)
        one = CycloScalar.rational(p, q, 1)
        for _ in range(3400):
            a = rand_scalar(p, q, rng)
            b = rand_scalar(p, q, rng)
            x = rand_scalar(p, q, rng)
            assert a + b == b + a
            assert (a + b) + x == a + (b + x)
            assert a * b == b * a
            assert (a * b) * x == a * (b * x)
            assert a * (b + x) == a * b + a * x
            assert a + zero == a
            assert a * one == a
            assert a - a == zero
            assert a.conj().conj() == a
            assert (a * b).conj() == a.conj() * b.conj()


def test_numeric_shadow_agrees():
    for p, q in PQ.items():
        rng = random.Random(10 + p)
        for _ in range(300):
            a = rand_scalar(p, q, rng)
            b = rand_scalar(p, q, rng)
            assert abs(shadow(a * b) - shadow(a) * shadow(b)) < 1e-12
            assert abs(shadow(a + b) - (shadow(a) + shadow(b))) < 1e-12
            assert abs(shadow(a.conj()) - shadow(a).conjugate()) < 1e-12
            got = a.abs_sq().reduce_grade()
            assert abs(shadow(got) - abs(shadow(a)) ** 2) < 1e-12


def test_character_orbit_sums():
    for p, q in PQ.items():
        for s in range(p * p):
            total = CycloScalar.zero(p, q)
            for t in range(p):
                total = total + CycloScalar.zeta_pow(p, q, t * s)
            if s % p == 0:
                assert total == CycloScalar.rational(p, q, p)
            else:
                assert total.is_zero()


def test_root_of_unity_identities():
    z2 = CycloScalar.zeta_pow(2, 2, 1)
    assert z2 * z2 == CycloScalar.rational(2, 2, 1)
    z3 = CycloScalar.zeta_pow(3, 3, 1)
    one3 = CycloScalar.rational(3, 3, 1)
    assert (one3 + z3 + z3 * z3).is_zero()
    assert z3 * z3.conj() == one3


def test_abs_sq_examples():
    assert CycloScalar.zero(3, 3).abs_sq().is_zero()
    # |q^(-1/2) zeta_p|^2 = 1/q
    for p, q in PQ.items():
        a = CycloScalar.zeta_pow(p, q, 1).q_half_shift(-1)
        got = a.abs_sq().reduce_grade()
        assert got.is_rational() and got.as_fraction() == Fraction(1, q)
    # |1 + zeta_3|^2 = (1 + zeta)(1 + zeta^2) = 2 + zeta + zeta^2 = 1
    one_plus = CycloScalar.rational(3, 3, 1) + CycloScalar.zeta_pow(3, 3, 1)
    got = one_plus.abs_sq()
    assert got.is_rational() and got.as_fraction() == 1


def test_abs_sq_is_real():
    for p, q in PQ.items():
        rng = random.Random(20 + p)
        for _ in range(200):
            a = rand_scalar(p, q, rng)
            sq = a.abs_sq()
            assert sq == sq.conj()
            assert abs(shadow(sq).imag) < 1e-12


def test_grade_tracks_q_half_powers():
    a = CycloScalar.rational(3, 3, 2).q_half_shift(3)
    assert a.q_half_shift(-3) == CycloScalar.rational(3, 3, 2)
    doubled = a * a  # grade 6 = q^3
    assert doubled.reduce_grade() == CycloScalar.rational(3, 3, 4 * 27)
    odd = CycloScalar.rational(3, 3, 1).q_half_shift(1)
    with pytest.raises(ValueError):
        odd.reduce_grade()


def test_mixed_grade_addition_rejected():
    a = CycloScalar.rational(3, 3, 1).q_half_shift(1)
    b = CycloScalar.rational(3, 3, 1)
    with pytest.raises(GradeMismatch):
        a + b
    # zero is grade-exempt
    assert CycloScalar.zero(3, 3) + a == a
    # grade 2 is the rational q: no mismatch
    assert CycloScalar.rational(3, 3, 1).q_half_shift(2) + b == CycloScalar.rational(3, 3, 4)


def test_even_grades_fold_on_every_constructor():
    """c * q**((2k + g)/2) is the scalar with coordinates c * q**k at grade
    g, whichever constructor and half shifts build it: equal fields, equal
    hashes."""
    for p, q in AGREEMENT_PQ.items():
        rng = random.Random(3200 + p)
        for k in range(-3, 4):
            for g in (0, 1):
                e = 2 * k + g
                c = [Fraction(rng.randrange(-6, 7), rng.randrange(1, 5)) for _ in range(p - 1)]
                t = rng.randrange(p)
                z = CycloScalar.zeta_pow(p, q, t).coeffs
                built = [
                    (CycloScalar(p, q, c).q_half_shift(e), c),
                    (CycloScalar.rational(p, q, c[0]).q_half_shift(e), [c[0]] + [0] * (p - 2)),
                    (CycloScalar.zeta_pow(p, q, t).q_half_shift(e), z),
                    (CycloScalar(p, q, c).q_half_shift(g).q_half_shift(2 * k), c),
                    # s * c * s**(e - 1): the product's grade reaches 2 at g = 0
                    (CycloScalar(p, q, c).q_half_shift(1)
                     * CycloScalar.rational(p, q, 1).q_half_shift(e - 1), c),
                ]
                for got, coeffs in built:
                    want = CycloScalar(p, q, [x * Fraction(q) ** k for x in coeffs]).q_half_shift(g)
                    assert got.grade in (0, 1) and want.grade in (0, 1)
                    assert got == want and hash(got) == hash(want)
    one, s = CycloScalar.rational(3, 3, 1), CycloScalar.rational(3, 3, 1).q_half_shift(1)
    assert one.reduce_grade() is one
    with pytest.raises(ValueError, match="odd half-grade 1 cannot be reduced"):
        s.reduce_grade()


def test_float_inputs_refused():
    with pytest.raises(TypeError):
        CycloScalar(3, 3, [0.1, 0])
    with pytest.raises(TypeError):
        CycloScalar.rational(3, 3, 0.1)
    third = CycloScalar(3, 3, [Fraction(1, 3), 0])
    assert CycloScalar(3, 3, ["1/3", 0]) == third == CycloScalar.rational(3, 3, "1/3")
    assert CycloScalar(3, 3, [1, 0]) == CycloScalar.rational(3, 3, 1)


def test_zero_normalization():
    z = CycloScalar.rational(5, 5, 0).q_half_shift(4)
    assert z.is_zero()
    assert z == CycloScalar.zero(5, 5)
    assert z.grade == 0


def test_rationality_detection():
    assert CycloScalar.rational(3, 3, Fraction(7, 2)).is_rational()
    assert not CycloScalar.zeta_pow(3, 3, 1).is_rational()
    # 1 + zeta + zeta^2 = 0 is rational (zero)
    s = (CycloScalar.rational(3, 3, 1) + CycloScalar.zeta_pow(3, 3, 1)
         + CycloScalar.zeta_pow(3, 3, 2))
    assert s.is_rational() and s.as_fraction() == 0


def test_exact_formatting_round_trips_value():
    a = CycloScalar.rational(2, 2, Fraction(-3, 4))
    assert "3/4" in repr(a)


# ---------------------------------------------------------------------------
# The integer form against the Fraction reference
# ---------------------------------------------------------------------------


class ReferenceScalar:
    """The Fraction-coefficient implementation that CycloScalar replaced,
    kept as the reference the integer form must agree with.  It folds even
    grades on construction by Fraction arithmetic."""

    __slots__ = ("p", "q", "coeffs", "grade")

    def __init__(self, p: int, q: int, coeffs, grade: int = 0):
        coeffs = tuple(Fraction(c) for c in coeffs)
        if len(coeffs) != p - 1:
            raise ValueError(f"expected {p - 1} coefficients, got {len(coeffs)}")
        if not any(coeffs):
            grade = 0
        f = Fraction(q) ** (grade // 2)
        self.p = p
        self.q = q
        self.coeffs = tuple(c * f for c in coeffs)
        self.grade = grade % 2

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, p: int, q: int) -> "ReferenceScalar":
        return cls(p, q, (0,) * (p - 1))

    @classmethod
    def rational(cls, p: int, q: int, value, grade: int = 0) -> "ReferenceScalar":
        return cls(p, q, (Fraction(value),) + (0,) * (p - 2), grade)

    @classmethod
    def zeta_pow(cls, p: int, q: int, t: int, grade: int = 0) -> "ReferenceScalar":
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
        grade 0."""
        if not self.is_rational():
            raise ValueError(f"not a rational scalar: {self!r}")
        if self.grade:
            raise ValueError(f"odd half-grade {self.grade} is irrational")
        return self.coeffs[0]

    # -- ring operations ---------------------------------------------------

    def _like(self, other: "ReferenceScalar"):
        if not isinstance(other, ReferenceScalar) or (self.p, self.q) != (other.p, other.q):
            raise ValueError("scalars from different cyclotomic configurations")

    def __add__(self, other: "ReferenceScalar") -> "ReferenceScalar":
        self._like(other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.grade != other.grade:
            raise GradeMismatch(
                f"cannot add grades q^({self.grade}/2) and q^({other.grade}/2)"
            )
        return ReferenceScalar(
            self.p, self.q,
            tuple(a + b for a, b in zip(self.coeffs, other.coeffs)),
            self.grade,
        )

    def __neg__(self) -> "ReferenceScalar":
        return ReferenceScalar(self.p, self.q, tuple(-a for a in self.coeffs), self.grade)

    def __sub__(self, other: "ReferenceScalar") -> "ReferenceScalar":
        return self + (-other)

    def __mul__(self, other: "ReferenceScalar") -> "ReferenceScalar":
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
        return ReferenceScalar(p, self.q, coeffs, self.grade + other.grade)

    def conj(self) -> "ReferenceScalar":
        p = self.p
        acc = [Fraction(0)] * p
        for i, a in enumerate(self.coeffs):
            acc[(-i) % p] += a
        top = acc[p - 1]
        coeffs = tuple(acc[k] - top for k in range(p - 1))
        return ReferenceScalar(p, self.q, coeffs, self.grade)

    def abs_sq(self) -> "ReferenceScalar":
        """Squared magnitude, of grade 0: the grade doubles into a power of q."""
        return self * self.conj()

    def q_half_shift(self, e: int) -> "ReferenceScalar":
        """Multiply by q**(e/2)."""
        if self.is_zero():
            return self
        return ReferenceScalar(self.p, self.q, self.coeffs, self.grade + e)

    def reduce_grade(self) -> "ReferenceScalar":
        """Itself at grade 0; a grade-1 scalar has no grade-0 form."""
        if self.grade:
            raise ValueError(f"odd half-grade {self.grade} cannot be reduced")
        return self

    # -- comparisons, printing ------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, ReferenceScalar)
            and (self.p, self.q) == (other.p, other.q)
            and self.coeffs == other.coeffs
            and self.grade == other.grade
        )

    def __hash__(self):
        return hash((self.p, self.coeffs, self.grade))

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


AGREEMENT_PQ = {2: 4, 3: 9, 5: 5, 7: 7, 13: 13}


def rand_pair(p, q, rng):
    """The same random scalar in both forms: mixed denominators, negative
    and odd grades, and a zero or a rational now and then."""
    kind = rng.random()
    if kind < 0.1:
        coeffs = [0] * (p - 1)
    else:
        coeffs = [Fraction(rng.randrange(-6, 7), rng.choice((1, 1, 2, 3, 4, 6, q)))
                  for _ in range(p - 1)]
        if kind < 0.25:
            coeffs[1:] = [0] * (p - 2)
    grade = rng.randrange(-3, 4)
    return CycloScalar(p, q, coeffs).q_half_shift(grade), ReferenceScalar(p, q, coeffs, grade)


def outcome(fn):
    """A comparable record of fn(): a scalar's coordinates, grade and repr,
    a plain value, or the error type and message."""
    try:
        v = fn()
    except ValueError as exc:  # GradeMismatch included
        return type(exc).__name__, str(exc)
    if isinstance(v, (CycloScalar, ReferenceScalar)):
        return "scalar", v.coeffs, v.grade, repr(v)
    return "value", v


def check_canonical(x):
    assert len(x.nums) == x.p - 1
    assert all(type(n) is int for n in x.nums) and type(x.den) is int
    assert x.den > 0 and gcd(x.den, *x.nums) == 1
    assert x.grade in (0, 1)
    if x.is_zero():
        assert x.den == 1 and x.grade == 0


def test_integer_form_agrees_with_fraction_reference():
    for p, q in AGREEMENT_PQ.items():
        rng = random.Random(1200 + p)
        for _ in range(300 if p < 13 else 80):
            (a, ra), (b, rb) = rand_pair(p, q, rng), rand_pair(p, q, rng)
            if rng.random() < 0.5:  # same grades, so most sums are defined
                b = b.q_half_shift(a.grade - b.grade)
                rb = rb.q_half_shift(ra.grade - rb.grade)
            e = rng.randrange(-3, 4)
            for op in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y,
                       lambda x, y: x.conj(), lambda x, y: x.abs_sq(),
                       lambda x, y: x.reduce_grade(), lambda x, y: x.q_half_shift(e),
                       lambda x, y: x.as_fraction(), lambda x, y: (x * y).reduce_grade(),
                       lambda x, y: x == y, lambda x, y: x.is_zero(),
                       lambda x, y: x.is_rational(), lambda x, y: repr(x)):
                assert outcome(lambda: op(a, b)) == outcome(lambda: op(ra, rb))
            assert (a == b) == (ra == rb) and a == a + CycloScalar.zero(p, q)
            assert hash(a) == hash(CycloScalar(p, q, ra.coeffs).q_half_shift(ra.grade))
        # a scalar of another configuration, and a wrong coefficient count
        other = CycloScalar.zeta_pow(p, q + 1 if p > 2 else 2, 1)
        ref_other = ReferenceScalar.zeta_pow(p, q + 1 if p > 2 else 2, 1)
        assert outcome(lambda: a + other) == outcome(lambda: ra + ref_other)
        assert outcome(lambda: a * other) == outcome(lambda: ra * ref_other)
        assert outcome(lambda: CycloScalar(p, q, [1] * p)) == \
            outcome(lambda: ReferenceScalar(p, q, [1] * p))


def test_canonical_form_invariant():
    for p, q in AGREEMENT_PQ.items():
        rng = random.Random(2200 + p)
        for _ in range(200):
            (a, _), (b, _) = rand_pair(p, q, rng), rand_pair(p, q, rng)
            b = b.q_half_shift(a.grade - b.grade)
            results = [a, b, -a, a.conj(), a * b, a.abs_sq(), a + b, a - b, a - a,
                       a.q_half_shift(1), CycloScalar.zero(p, q),
                       CycloScalar.rational(p, q, Fraction(-6, 4)).q_half_shift(2),
                       CycloScalar.q_power(p, q, rng.randrange(-3, 4)),
                       CycloScalar.zeta_pow(p, q, rng.randrange(p)).q_half_shift(-1)]
            if a.grade % 2 == 0:
                results.append(a.reduce_grade())
            for x in results:
                check_canonical(x)
    zero = CycloScalar(5, 5, [Fraction(0, 7)] * 4).q_half_shift(3)
    assert (zero.nums, zero.den, zero.grade) == ((0, 0, 0, 0), 1, 0)
    half = CycloScalar(3, 3, [Fraction(2, 4), Fraction(-3, 6)])
    assert (half.nums, half.den) == ((1, -1), 2)


def test_q_half_shift_matches_reduced_form():
    # the shortcut onto grade 0 or 1 gives the fields _reduced would give
    rng = random.Random(2300)
    for p, q in ((2, 2), (2, 4), (3, 3), (5, 5)):
        for g in (0, 1):
            coeffs = [rng.randrange(1, 9)] + [Fraction(rng.randrange(-4, 5), 3)
                                              for _ in range(p - 2)]
            nonzero = CycloScalar(p, q, coeffs).q_half_shift(g)
            for x in (CycloScalar.zero(p, q), nonzero):
                for e in range(-3, 4):
                    got = x.q_half_shift(e)
                    want = CycloScalar._reduced(p, q, x.nums, x.den, x.grade + e)
                    assert (got.nums, got.den, got.grade) == (want.nums, want.den, want.grade)
                    assert hash(got) == hash(want)
                    check_canonical(got)
