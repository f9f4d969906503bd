"""Clopen-set algebra: canonical form, Boolean operations, fold, the
singular integral, and a large randomized property suite with pointwise
membership oracles."""

import math
import random
from fractions import Fraction

import pytest

from lfwave.clopen import (
    Ball,
    ClopenSet,
    child_keys,
    fold_ball,
    fractional_ideal,
    integers,
    inv_norm_integral,
    joint_fold,
    outer_balls,
    overlay,
    shell,
    translated_keys,
    units,
)
from lfwave.cyclo import CycloScalar
from lfwave.gfq import FieldConfig
from lfwave.lfield import FieldElement, coset_rep, parse_element, split_integral
from lfwave.stepfn import StepFunction, shell_range

CFG2 = FieldConfig(2, 1)
CFG3 = FieldConfig(3, 1)
CFG4 = FieldConfig(2, 2)
CFG5 = FieldConfig(5, 1)


def rand_point(cfg, rng, lo=-3, hi=6):
    digits = {}
    for e in range(lo, hi + 1):
        i = rng.randrange(cfg.q)
        if i:
            digits[e] = i
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
    # shells are built in canonical form, without normalizing
    for cfg in (CFG2, CFG3, CFG4, CFG5):
        for s in (-2, 0, 3):
            W = shell(cfg, s)
            assert ClopenSet(cfg, W.balls).balls == W.balls


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
            assert xi.valuation() == -1


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
    assert inv_norm_integral([]) == 0
    for cfg in (CFG2, CFG3):
        got = inv_norm_integral((b, 1) for b in units(cfg).balls)
        assert got == Fraction(cfg.q - 1, cfg.q)
    for k in range(3):
        assert inv_norm_integral((b, 1) for b in fractional_ideal(CFG2, k).balls) == math.inf
    # oracle: partial shell sums inside p^k O each contribute (1 - 1/q)
    for k in range(3):
        partial = Fraction(0)
        for m in range(k, k + 40):
            partial += inv_norm_integral((b, 1) for b in shell(CFG3, m).balls)
        assert partial == 40 * Fraction(2, 3)  # diverges linearly in depth


def test_shell_decomposition():
    pieces, residual = units(CFG3).shells()
    assert residual is None
    assert pieces == [(0, units(CFG3))]


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
            # centre digits sit at scale-3..scale-1, so lower t see none
            for b in A.balls:
                for k in range(b.scale - 4, b.scale + 1):
                    assert b.ancestor_key(k) == Ball(cfg, b.center, k).sort_key()
                # key helpers: child keys in sort-key order, the ball from its key
                assert child_keys(b.sort_key(), cfg.q) == \
                    sorted(c.sort_key() for c in b.children())
                assert Ball.from_key(cfg, b.sort_key()) == b
            # translate-and-normalize on keys, for balls inside O and a
            # purely fractional shift
            u = rand_point(cfg, rng, lo=-3, hi=-1)
            inside = A.intersect(integers(cfg)).balls
            moved = translated_keys(u, [b.sort_key() for b in inside])
            for b, (key, s, norm) in zip(inside, moved):
                c = b.translate(u)
                assert key == c.sort_key() and s == c.shell_index()
                assert norm == (None if s is None else c.scale_by(-s).sort_key())
            # shell_range against the point 0 and, for each ball away from
            # it, the smallest ideal p**s * O holding the ball
            B = A.scale_by(j).translate(t)
            fns = [StepFunction.indicator(X, CycloScalar.rational(cfg.p, cfg.q, k))
                   for k, X in enumerate((A, B), 1)]
            zero = FieldElement.zero(cfg)
            cells = [c for f in fns for c in f.cells]
            hit = [max(s for s in range(-9, 8) if Ball.integers(cfg, s).contains_ball(b))
                   for b, _ in cells if not b.contains_point(zero)]
            assert shell_range(fns) == (
                min(hit, default=math.inf), max(hit, default=-math.inf),
                next((c for c in cells if c[0].contains_point(zero)), None))
        else:
            res = A.fold()
            if res.overlap.is_empty():
                total = sum((f.measure() for f, _ in res.fragments), Fraction(0))
                assert total == A.measure()
            inside = A.intersect(integers(cfg))
            got = inv_norm_integral((b, 1) for b in inside.balls)
            if got != math.inf:
                assert got >= inside.measure()  # 1/|xi| >= 1 on O
            # a zero-weight ball at zero (even one meeting the others) adds
            # nothing
            weighted = [(b, Fraction(k, 3)) for k, b in enumerate(inside.balls)]
            assert inv_norm_integral(weighted + [(Ball.integers(cfg, 2), 0)]) == \
                inv_norm_integral(weighted)


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


# ---------------------------------------------------------------------------
# Balls built from their sort keys against FieldElement arithmetic
# ---------------------------------------------------------------------------


def reference_children(b):
    """children() by field arithmetic: the centre plus i * p**scale."""
    cfg = b.config
    for i in range(cfg.q):
        yield Ball(cfg, b.center + FieldElement.monomial(cfg, i, b.scale),
                   b.scale + 1)


def reference_split_to(b, scale):
    """split_to() as the recursion over reference_children."""
    if scale <= b.scale:
        yield b
        return
    for child in reference_children(b):
        yield from reference_split_to(child, scale)


def keys(balls):
    return [b.sort_key() for b in balls]


def test_key_built_balls_match_field_arithmetic():
    rng = random.Random(73)
    for cfg in (CFG2, CFG3, CFG4, CFG5):
        for scale in range(-2, 2):
            balls = [Ball.integers(cfg, scale)] + [
                Ball(cfg, rand_point(cfg, rng, lo=scale - 3, hi=scale - 1), scale)
                for _ in range(3)]
            for b in balls:
                for depth in range(4):
                    got = list(b.split_to(scale + depth))
                    assert keys(got) == keys(reference_split_to(b, scale + depth))
                    assert got == [b.sub_ball(scale + depth, n) for n in range(len(got))]
                assert keys(b.children()) == keys(reference_children(b))
                for j in range(-3, 4):
                    ref = Ball(cfg, b.center.scale_exponents(j), scale + j)
                    assert b.scale_by(j).sort_key() == ref.sort_key()
                    assert b.scale_by(j) == ref
                for c in reference_split_to(b, scale + 2):
                    r = Ball.from_key(cfg, c.sort_key())
                    assert r == c and r.center.digits == c.center.digits
                    assert hash(r) == hash(c) and hash(r.center) == hash(c.center)
            with pytest.raises(ValueError):
                balls[0].sub_ball(scale + 1, cfg.q)
            with pytest.raises(ValueError):
                balls[0].sub_ball(scale, 1)


def test_sub_balls_come_from_child_keys_and_coset_rep():
    # split_to(t) is child_keys applied t - scale times, and its n-th ball
    # extends the key by the digits of p**t * u(n)
    rng = random.Random(74)
    for cfg in (CFG2, CFG3, CFG4, CFG5):
        for _ in range(20):
            scale = rng.randrange(-2, 2)
            b = Ball(cfg, rand_point(cfg, rng, lo=scale - 3, hi=scale - 1), scale)
            for depth in range(4):
                t = scale + depth
                want = [b.sort_key()]
                for _ in range(depth):
                    want = [k for key in want for k in child_keys(key, cfg.q)]
                assert keys(b.split_to(t)) == want
                n = rng.randrange(cfg.q ** depth)
                tail = sorted(coset_rep(cfg, n).scale_exponents(t).digits.items())
                assert b.sub_ball(t, n).sort_key() == (t, b.sort_key()[1] + tuple(tail))
            assert keys(b.children()) == child_keys(b.sort_key(), cfg.q)


def test_from_key_rejects_malformed_keys():
    good = Ball(CFG3, parse_element(CFG3, "p^-2 + 2*p^-1"), 0)
    assert Ball.from_key(CFG3, (0, ((-2, 1), (-1, 2)))) == good
    assert Ball.from_key(CFG3, [0, [[-2, 1], [-1, 2]]]).sort_key() == good.sort_key()
    for key in [
        (0, ((1, 1),)),  # a digit at or above the scale
        (0, ((0, 1),)),
        (3, ((1, 1), (0, 1))),  # exponents not increasing
        (3, ((1, 1), (1, 2))),
        (0, ((-1, 0),)),  # digit indices outside 1..q-1
        (0, ((-1, 3),)),
        (0, ((-2, 1), (-1, -1))),
        (0.5, ()),  # not ints, or not a (scale, digits) pair
        ("a", ()),
        (0, [(-1, 1.5)]),
        (True, ((False, 1),)),
        (1, ((0, True),)),
        5,
        (0,),
        (0, 5),
        (0, ((-1,),)),
        "ab",
    ]:
        with pytest.raises(ValueError):
            Ball.from_key(CFG3, key)


# ---------------------------------------------------------------------------
# A ball is its key: the centre on demand, nested balls by key lookup
# ---------------------------------------------------------------------------


def rand_key(cfg, rng):
    """A random valid sort key: scale in -2..4, up to five digits below it."""
    scale = rng.randrange(-2, 5)
    digits = tuple((e, rng.randrange(1, cfg.q))
                   for e in range(scale - 5, scale) if rng.random() < 0.5)
    return scale, digits


def reference_fold_ball(ball):
    """fold_ball by field arithmetic: split each piece's centre at exponent 0."""
    for piece in ball.split_to(max(ball.scale, 0)):
        n, rem = split_integral(piece.center)
        yield Ball(ball.config, rem, piece.scale), n


def test_key_only_balls_agree_with_centre_built_balls():
    rng = random.Random(1313)
    for cfg in (CFG2, CFG3, CFG4, CFG5, FieldConfig(3, 2)):
        for _ in range(150):
            key = rand_key(cfg, rng)
            scale = key[0]
            # the centre also carries digits at and above the scale, which
            # Ball truncates away
            above = rand_point(cfg, rng, lo=scale, hi=scale + 2)
            ref = Ball(cfg, FieldElement(cfg, dict(key[1])) + above, scale)
            lazy = Ball._from_key(cfg, key)
            assert lazy.contains_zero() == ref.contains_zero() == (not ref.center)
            assert lazy.shell_index() == ref.shell_index() == \
                (None if not ref.center else ref.center.valuation())
            assert lazy == ref and hash(lazy) == hash(ref)
            folded = list(fold_ball(lazy))
            assert folded == list(fold_ball(ref)) == list(reference_fold_ball(ref))
            # none of the above reads a centre
            assert lazy._center is None
            assert all(frag._center is None for frag, _ in folded)
            assert repr(lazy) == repr(ref) and lazy.as_json() == ref.as_json()
            assert lazy.center == ref.center
            assert lazy.center is lazy.center  # built once, then kept


def reference_drop_nested(balls):
    """The quadratic nested-ball drop: each distinct ball, in sort-key order,
    against every ball kept so far."""
    kept = []
    for b in sorted(set(balls), key=Ball.sort_key):
        if not any(r.contains_ball(b) for r in kept):
            kept.append(b)
    return kept


def nested_multiset(cfg, rng):
    """Chains of balls nested several scales deep, with duplicates and
    siblings at equal scales."""
    balls = []
    for _ in range(rng.randrange(1, 5)):
        b = Ball._from_key(cfg, rand_key(cfg, rng))
        for _ in range(rng.randrange(1, 5)):
            balls.append(b)
            depth = rng.randrange(0, 3)
            b = b.sub_ball(b.scale + depth, rng.randrange(cfg.q ** depth))
    for _ in range(rng.randrange(0, 4)):
        balls.append(rng.choice(balls))
    rng.shuffle(balls)
    return balls


def test_key_lookup_nesting_agrees_with_pairwise_containment():
    rng = random.Random(6464)
    for cfg in (CFG2, CFG3, CFG4, CFG5):
        for _ in range(150):
            balls = nested_multiset(cfg, rng)
            ref = reference_drop_nested(balls)
            ordered = sorted(set(balls), key=Ball.sort_key)
            pairs = list(outer_balls(ordered))
            assert [b for outer, b in pairs if outer is None] == ref
            for outer, b in pairs:
                assert outer is None or (outer in ref and outer.contains_ball(b))
            # the full canonical form: the reference drop leaves nothing to drop
            assert ClopenSet(cfg, balls) == ClopenSet(cfg, ref)
            S = ClopenSet(cfg, balls)
            for _ in range(10):
                x = rand_point(cfg, rng, lo=-6, hi=6)
                assert S.member(x) == any(b.contains_point(x) for b in balls)


# ---------------------------------------------------------------------------
# Set algebra on keys against the pairwise centre-subtraction algebra
# ---------------------------------------------------------------------------


def ref_ball_intersect(a: Ball, b: Ball):
    """Ultrametric: balls are nested or disjoint."""
    if a.contains_ball(b):
        return b
    if b.contains_ball(a):
        return a
    return None


def ref_ball_subtract(a: Ball, b: Ball):
    """a minus b as a list of balls."""
    if a.is_disjoint(b):
        return [a]
    if b.contains_ball(a):
        return []
    out = []
    cur = a
    while cur.scale < b.scale:
        for child in cur.children():
            if child.contains_ball(b):
                nxt = child
            else:
                out.append(child)
        cur = nxt
    return out


def ref_intersect(A, B):
    pieces = []
    for a in A.balls:
        for b in B.balls:
            c = ref_ball_intersect(a, b)
            if c is not None:
                pieces.append(c)
    return ClopenSet(A.config, pieces)


def ref_subtract(A, B):
    cur = list(A.balls)
    for b in B.balls:
        cur = [p for piece in cur for p in ref_ball_subtract(piece, b)]
    return ClopenSet(A.config, cur)


def ref_overlay(config, sets):
    coverage = ClopenSet.empty(config)
    overlap = ClopenSet.empty(config)
    for s in sets:
        overlap = overlap.union(ref_intersect(coverage, s))
        coverage = coverage.union(s)
    return coverage, overlap


def ref_joint_fold(config, sets):
    fragments = [fr for s in sets for b in s.balls for fr in fold_ball(b)]
    fragments.sort(key=lambda fr: (fr[1], fr[0].sort_key()))
    coverage, overlap = ref_overlay(
        config, (ClopenSet.from_ball(frag) for frag, _ in fragments))
    return fragments, coverage, overlap


def overlapping_set(cfg, rng, roots, max_balls=8):
    """0..max_balls balls at scales -3..5, each a random descendant of one of
    a few shared roots, so that sets drawn this way often meet and nest."""
    balls = []
    for _ in range(rng.randrange(max_balls + 1)):
        b = rng.choice(roots)
        for _ in range(rng.randrange(b.scale, 6) - b.scale):
            b = b.sub_ball(b.scale + 1, rng.randrange(cfg.q))
        balls.append(b)
    return ClopenSet(cfg, balls)


def forced_families(cfg, rng, A):
    """Families that pin the corner cases: equal sets, empty sets, a set
    inside one ball of the other, equal balls across sets, and a chain
    nested three deep across three sets."""
    empty = ClopenSet.empty(cfg)
    yield [A, A]
    yield [A, empty]
    yield [empty, empty]
    if A.balls:
        a = rng.choice(A.balls)
        inside = ClopenSet(cfg, [a.sub_ball(a.scale + 2, rng.randrange(cfg.q ** 2))
                                 for _ in range(3)])
        yield [A, inside]
        yield [inside, A]
        yield [A, ClopenSet.from_ball(a)]
        mid = a.sub_ball(a.scale + 1, rng.randrange(cfg.q))
        low = mid.sub_ball(mid.scale + rng.randrange(1, 3), 0)
        yield [ClopenSet.from_ball(a), ClopenSet.from_ball(mid),
               ClopenSet.from_ball(low), A]


def test_key_set_algebra_agrees_with_pairwise_reference():
    """Each operation agrees with the pairwise reference, and every result
    that skips normalization (intersect, subtract, translate, the shells()
    pieces, a fold's coverage and overlap) is already in canonical form."""
    rng, shifts = random.Random(1414), random.Random(1415)
    for cfg in (CFG2, CFG3, CFG4, CFG5, FieldConfig(3, 2)):
        for _ in range(30):
            # roots at scales -3..3, descendants down to scale 5
            roots = [Ball._from_key(cfg, rand_key(cfg, rng)).scale_by(-1) for _ in range(3)]
            sets = [overlapping_set(cfg, rng, roots) for _ in range(rng.randrange(2, 5))]
            families = [sets, *forced_families(cfg, rng, sets[0])]
            for fam in families:
                results = []
                for A in fam:
                    for B in fam:
                        meet, rest = A.intersect(B), A.subtract(B)
                        assert meet == ref_intersect(A, B)
                        assert rest == ref_subtract(A, B)
                        assert A.contains_set(B) == ref_subtract(B, A).is_empty()
                        results += [meet, rest]
                    results.append(A.translate(rand_point(cfg, shifts)))
                    results += [piece for _, piece in A.shells()[0]]
                assert fam[0].subtract(fam[0]).is_empty()
                assert overlay(cfg, fam) == ref_overlay(cfg, fam)
                got = joint_fold(cfg, fam)
                assert (got.fragments, got.coverage, got.overlap) == ref_joint_fold(cfg, fam)
                results += [got.coverage, got.overlap]
                for R in results:
                    assert ClopenSet(cfg, R.balls).balls == R.balls
