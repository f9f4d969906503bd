"""Cyclotomic scalars: ring laws, conjugation, the half-integer grade, and a
floating-point shadow used only here as an independent cross-check."""

import cmath
import random
from fractions import Fraction

import pytest

from lfwave.cyclo import CycloScalar, GradeMismatch

PQ = {2: 2, 3: 3, 5: 5}


def rand_scalar(p, q, rng, grade=0):
    coeffs = [Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
              for _ in range(p - 1)]
    return CycloScalar(p, q, coeffs, grade)


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
        a = CycloScalar.zeta_pow(p, q, 1, grade=-1)
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
    a = CycloScalar.rational(3, 3, 2, grade=3)
    assert a.q_half_shift(-3) == CycloScalar.rational(3, 3, 2)
    doubled = a * a  # grade 6 = q^3
    assert doubled.reduce_grade() == CycloScalar.rational(3, 3, 4 * 27)
    odd = CycloScalar.rational(3, 3, 1, grade=1)
    with pytest.raises(ValueError):
        odd.reduce_grade()


def test_mixed_grade_addition_rejected():
    a = CycloScalar.rational(3, 3, 1, grade=2)
    b = CycloScalar.rational(3, 3, 1)
    with pytest.raises(GradeMismatch):
        a + b
    # zero is grade-exempt
    assert CycloScalar.zero(3, 3) + a == a


def test_zero_normalization():
    z = CycloScalar.rational(5, 5, 0, grade=4)
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
