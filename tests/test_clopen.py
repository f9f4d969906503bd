"""Clopen-set algebra: canonical form, Boolean operations, fold, the
singular integral, and a large randomized property suite with pointwise
membership oracles."""

import math
import random
from fractions import Fraction

from lfwave.clopen import (
    Ball,
    ClopenSet,
    fractional_ideal,
    integers,
    joint_fold,
    shell,
    units,
)
from lfwave.gfq import FieldConfig
from lfwave.lfield import FieldElement, coset_rep, parse_element

CFG2 = FieldConfig(2, 1)
CFG3 = FieldConfig(3, 1)


def rand_point(cfg, rng, lo=-3, hi=6):
    digits = {}
    for e in range(lo, hi + 1):
        i = rng.randrange(cfg.q)
        if i:
            digits[e] = cfg.from_index(i)
    return FieldElement(cfg, digits)


def rand_set(cfg, rng, max_balls=5, lo=-2, hi=4):
    balls = []
    for _ in range(rng.randrange(1, max_balls + 1)):
        scale = rng.randrange(lo, hi + 1)
        balls.append(Ball(cfg, rand_point(cfg, rng, lo=scale - 3, hi=scale - 1),
                          scale))
    return ClopenSet(cfg, balls)


def test_normalization_examples():
    assert ClopenSet(CFG2, []).is_empty()
    # two siblings merge into the parent
    zero, one = FieldElement.zero(CFG2), FieldElement.one(CFG2)
    merged = ClopenSet(CFG2, [Ball(CFG2, zero, 1), Ball(CFG2, one, 1)])
    assert merged == integers(CFG2)
    # nested balls are absorbed
    nested = ClopenSet(CFG2, [Ball(CFG2, zero, 0), Ball(CFG2, zero, 2)])
    assert nested == integers(CFG2)


def test_normalization_is_idempotent_and_membership_faithful():
    rng = random.Random(21)
    for _ in range(500):
        cfg = rng.choice((CFG2, CFG3))
        raw = [Ball(cfg, rand_point(cfg, rng), rng.randrange(-2, 4))
               for _ in range(rng.randrange(1, 6))]
        canon = ClopenSet(cfg, raw)
        assert ClopenSet(cfg, list(canon.balls)) == canon
        for _ in range(10):
            x = rand_point(cfg, rng)
            assert canon.member(x) == any(b.contains_point(x) for b in raw)


def test_boolean_algebra_examples():
    O2 = integers(CFG2)
    assert O2.subtract(O2).is_empty()
    # O minus pO = the q-1 unit cosets
    for cfg in (CFG2, CFG3):
        got = integers(cfg).subtract(fractional_ideal(cfg, 1))
        assert got == units(cfg)
        assert len(got.balls) == cfg.q - 1
    # distinct integer cosets are disjoint
    w1 = integers(CFG3).translate(coset_rep(CFG3, 1))
    w2 = integers(CFG3).translate(coset_rep(CFG3, 2))
    assert w1.intersect(w2).measure() == 0


def test_measure_examples():
    assert ClopenSet(CFG2, []).measure() == 0
    assert integers(CFG3).measure() == 1
    assert shell(CFG3, 2).measure() == Fraction(2, 27)
    assert fractional_ideal(CFG2, -1).measure() == 2


def test_scaling_and_translation():
    W = units(CFG3)
    assert W.scale_by(0) == W
    for m in range(-2, 4):
        sm = W.scale_by(m)
        assert sm == shell(CFG3, m)
        assert sm.measure() == Fraction(3) ** (-m) * Fraction(2, 3)
    rng = random.Random(22)
    for _ in range(100):
        X = rand_set(CFG3, rng)
        a = rng.randrange(-3, 4)
        assert X.scale_by(a).scale_by(-a) == X
        t = rand_point(CFG3, rng)
        assert X.translate(t).translate(-t) == X
        assert X.translate(t).measure() == X.measure()
        assert X.scale_by(a).measure() == X.measure() * Fraction(3) ** (-a)


def test_translated_integer_coset_has_constant_absolute_value():
    rng = random.Random(23)
    for i in range(1, 3):
        Wi = integers(CFG3).translate(coset_rep(CFG3, i))
        for _ in range(100):
            x = rand_point(CFG3, rng, lo=0)
            xi = x + coset_rep(CFG3, i)
            assert Wi.member(xi)
            assert xi.abs_log() == 1


def test_fold_examples():
    # single translate of O comes straight back
    W = integers(CFG2).translate(coset_rep(CFG2, 1))
    res = W.fold()
    assert res.overlap.is_empty()
    assert res.coverage == integers(CFG2)
    assert [(frag, n) for frag, n in res.fragments] == \
        [(Ball.integers(CFG2), 1)]
    # a shell folds onto itself, a strict subset of O
    for m in (1, 2):
        res = shell(CFG2, m).fold()
        assert res.overlap.is_empty()
        assert res.coverage == shell(CFG2, m)
        assert all(n == 0 for _, n in res.fragments)
    # two overlapping translates collide on all of O
    W = integers(CFG2).union(integers(CFG2).translate(coset_rep(CFG2, 1)))
    res = W.fold()
    assert res.overlap == integers(CFG2)


def test_inv_norm_integral_examples():
    assert ClopenSet(CFG3, []).inv_norm_integral() == 0
    for cfg in (CFG2, CFG3):
        got = units(cfg).inv_norm_integral()
        assert got == Fraction(cfg.q - 1, cfg.q)
    for k in range(3):
        assert fractional_ideal(CFG2, k).inv_norm_integral() == math.inf
    # oracle: partial shell sums inside p^k O each contribute (1 - 1/q)
    for k in range(3):
        partial = Fraction(0)
        for m in range(k, k + 40):
            partial += shell(CFG3, m).inv_norm_integral()
        assert partial == 40 * Fraction(2, 3)  # diverges linearly in depth


def test_shell_decomposition():
    pieces, residual = units(CFG3).shells()
    assert residual is None
    assert pieces == [(0, units(CFG3))]
    pieces, residual = integers(CFG3).shells(depth=3)
    assert [s for s, _ in pieces] == [0, 1, 2]
    assert all(piece == shell(CFG3, s) for s, piece in pieces)
    assert residual == Ball.integers(CFG3, 3)


def test_randomized_property_suite():
    rng = random.Random(24)
    for i in range(10_000):
        cfg = CFG2 if i % 2 else CFG3
        A = rand_set(cfg, rng, max_balls=3)
        law = i % 5
        if law == 0:
            B = rand_set(cfg, rng, max_balls=3)
            assert (A.union(B).measure() + A.intersect(B).measure()
                    == A.measure() + B.measure())
            x = rand_point(cfg, rng)
            assert A.union(B).member(x) == (A.member(x) or B.member(x))
            assert A.intersect(B).member(x) == (A.member(x) and B.member(x))
            assert A.subtract(B).member(x) == (A.member(x) and not B.member(x))
        elif law == 1:
            B = rand_set(cfg, rng, max_balls=3)
            box = fractional_ideal(cfg, -3)
            lhs = box.subtract(A.union(B))
            rhs = box.subtract(A).intersect(box.subtract(B))
            assert lhs == rhs  # De Morgan inside a bounding ball
        elif law == 2:
            B = rand_set(cfg, rng, max_balls=3)
            C = rand_set(cfg, rng, max_balls=3)
            assert A.intersect(B.union(C)) == \
                A.intersect(B).union(A.intersect(C))
        elif law == 3:
            j = rng.randrange(-2, 3)
            t = rand_point(cfg, rng)
            assert A.scale_by(j).measure() == \
                A.measure() * Fraction(cfg.q) ** (-j)
            assert A.translate(t).measure() == A.measure()
        else:
            res = A.fold()
            if res.overlap.is_empty():
                total = sum((f.measure() for f, _ in res.fragments), Fraction(0))
                assert total == A.measure()
            inside = A.intersect(integers(cfg))
            got = inside.inv_norm_integral()
            if got != math.inf:
                assert got >= inside.measure()  # 1/|xi| >= 1 on O


def test_canonical_json_serialization():
    W = shell(CFG2, 1)
    assert W.as_json() == [{"center": "p", "scale": 2}]
    X = parse_element(CFG2, "p^-1")
    B = Ball(CFG2, X, 0)
    assert B.as_json() == {"center": "p^-1", "scale": 0}


def test_joint_fold_finds_collisions_across_sets():
    for cfg in (CFG2, CFG3):
        U = units(cfg)
        # one copy of O* packs; two copies collide on all of O*
        assert U.fold().overlap.is_empty()
        res = joint_fold(cfg, [U, U])
        assert res.overlap == U and res.coverage == U
        assert res.measure() == 2 * U.measure()
        # the one-set case is ClopenSet.fold, and no sets fold to nothing
        assert joint_fold(cfg, [U]) == U.fold()
        assert joint_fold(cfg, []).coverage.is_empty()
