"""Decision procedures for tiling, frame, super-wavelet, equivalence, and
bound computations, cross-checked against direct pointwise counting oracles."""

import math
import random
from fractions import Fraction

import pytest

from lfwave.clopen import Ball, ClopenSet, fractional_ideal, integers, shell, units
from lfwave.cyclo import CycloScalar
from lfwave.gfq import FieldConfig
from lfwave.lfield import FieldElement, coset_rep, parse_element
from lfwave.stepfn import StepFunction
from lfwave.verify import (
    check_dilation_tiling,
    check_translation,
    decomposability_bound,
    equivalent_superwavelets,
    extendability_bound,
    mra_scaling_check,
    verify_frame_pointwise,
    verify_multiwavelet_set,
    verify_super_functions,
    verify_superwavelet,
    verify_translates,
)

CFG2 = FieldConfig(2, 1)
CFG3 = FieldConfig(3, 1)


def rat(cfg, x, grade=0):
    return CycloScalar.rational(cfg.p, cfg.q, x, grade)


def shannon(cfg):
    return [integers(cfg).translate(coset_rep(cfg, i))
            for i in range(1, cfg.q)]


def dilate_count(W, x):
    """Direct oracle: how many integer j have p**j * x inside W (finite for
    x != 0 because W spans finitely many shells)."""
    spans = [b.center.valuation() if b.center else b.scale for b in W.balls]
    if not spans or not x:
        return 0
    lo, hi = min(spans), max(max(b.scale for b in W.balls), max(spans))
    v = x.valuation()
    return sum(1 for j in range(lo - v - 2, hi - v + 3)
               if W.member(x.scale_exponents(j)))


# -- dilation tiling ---------------------------------------------------------


def test_dilation_tiling_examples():
    assert check_dilation_tiling(units(CFG3)).passed
    for m in range(-3, 4):
        assert check_dilation_tiling(shell(CFG2, m)).passed
    v = check_dilation_tiling(integers(CFG2))
    assert not v.passed
    assert v.check("no-ball-at-zero").witness is not None
    assert not check_dilation_tiling(ClopenSet.empty(CFG2)).passed


def rand_bounded_set(cfg, rng):
    balls = []
    for _ in range(rng.randrange(1, 4)):
        scale = rng.randrange(-1, 4)
        digits = {e: cfg.from_index(rng.randrange(cfg.q))
                  for e in range(scale - 3, scale)}
        center = FieldElement(cfg, {e: d for e, d in digits.items() if d})
        balls.append(Ball(cfg, center, scale))
    return ClopenSet(cfg, balls)


def witness_points(cfg, w):
    """Sample points of a witness: for a set, the ball centers (perturbed off
    zero when needed); for a ball, a nonzero interior point."""
    out = []
    items = [w["ball"]] if w["kind"] == "ball" else w.get("balls", [])
    for item in items:
        c = parse_element(cfg, item["center"])
        if not c:
            c = FieldElement.prime_pow(cfg, item["scale"])
        out.append(c)
    return out


def test_dilation_reduction_matches_counting_oracle():
    rng = random.Random(41)
    for i in range(200):
        cfg = CFG2 if i % 2 else CFG3
        W = rand_bounded_set(cfg, rng)
        v = check_dilation_tiling(W)
        if v.passed:
            for _ in range(500):
                digits = {e: cfg.from_index(rng.randrange(cfg.q))
                          for e in range(-4, 7)}
                x = FieldElement(cfg, {e: d for e, d in digits.items() if d})
                if not x:
                    continue
                assert dilate_count(W, x) == 1
        else:
            failed = next(c for c in v.checks if c.binding and not c.ok)
            if failed.witness is None:
                assert W.is_empty()
                continue
            pts = witness_points(cfg, failed.witness)
            assert pts
            if failed.name == "dilates-cover-unit-shell":
                assert all(dilate_count(W, x) == 0 for x in pts)
            else:
                assert all(dilate_count(W, x) >= 2 for x in pts)


# -- translation packing / tiling --------------------------------------------


def test_translation_examples():
    for cfg in (CFG2, CFG3):
        for i in range(1, cfg.q):
            Wi = integers(cfg).translate(coset_rep(cfg, i))
            assert check_translation(Wi, "tiling").passed
    for m in (1, 2):
        assert check_translation(shell(CFG2, m), "packing").passed
        v = check_translation(shell(CFG2, m), "tiling")
        assert not v.passed
        gap = v.check("translates-cover").witness
        assert gap is not None
        # the gap reaches inside p^(m+1) O
        ideal = fractional_ideal(CFG2, m + 1)
        assert any(ideal.member(x) for x in witness_points(CFG2, gap))
    W = integers(CFG2).union(integers(CFG2).translate(coset_rep(CFG2, 1)))
    v = check_translation(W, "packing")
    assert not v.passed
    assert v.check("translates-disjoint").witness == {
        "kind": "set", "balls": integers(CFG2).as_json()}


# -- multiwavelet set criteria -----------------------------------------------


def test_parseval_multiwavelet_set():
    assert verify_multiwavelet_set([shell(CFG2, 1)], mode="parseval").passed
    fam = [W.scale_by(1) for W in shannon(CFG3)]
    v = verify_multiwavelet_set(fam, mode="parseval")
    assert v.passed and v.bounds["order"] == 2
    assert not verify_multiwavelet_set([integers(CFG2)], mode="parseval").passed
    # overlapping components are rejected up front
    v = verify_multiwavelet_set([units(CFG2), units(CFG2)], mode="parseval")
    assert not v.passed and v.check("components-disjoint").witness is not None


def test_multiwavelet_set():
    for cfg in (CFG2, CFG3):
        v = verify_multiwavelet_set(shannon(cfg))
        assert v.passed and v.bounds["order"] == cfg.q - 1
    assert not verify_multiwavelet_set([shell(CFG2, 1)]).passed
    for cfg in (CFG2, CFG3):
        v = verify_multiwavelet_set([units(cfg)])
        assert not v.passed  # the fold never reaches pO
        assert verify_multiwavelet_set([units(cfg)], mode="parseval").passed


def test_superwavelet_set_criterion():
    for cfg in (CFG2, CFG3):
        tup = [shell(cfg, i) for i in range(1, 4)]
        assert verify_superwavelet(tup, "parseval").passed
        v = verify_superwavelet(tup, "orthonormal")
        assert not v.passed
        gap = v.check("(c)-joint-translates-cover").witness
        ideal = fractional_ideal(cfg, 4)
        assert any(ideal.member(x) for x in witness_points(cfg, gap))
        q = cfg.q
        expect = sum(Fraction(q) ** -i * Fraction(q - 1, q) for i in (1, 2, 3))
        assert Fraction(v.bounds["joint_fold_measure"]) == expect
    # length 1 with a full multiwavelet set is orthonormal
    assert verify_superwavelet([shannon(CFG2)[0]], "orthonormal").passed


# -- pointwise frame equations -----------------------------------------------


def test_frame_pointwise_examples():
    for cfg in (CFG2, CFG3):
        fns = [StepFunction.indicator(W) for W in shannon(cfg)]
        assert verify_frame_pointwise(fns).passed
    # scaling by q^(-1/2) breaks the normalization: square sum becomes 1/q
    f = StepFunction.indicator(units(CFG2), rat(CFG2, 1, grade=-1))
    v = verify_frame_pointwise([f])
    assert not v.passed and not v.check("dilation-square-sum").ok
    # spectra charged at zero are rejected with the offending ball
    g = StepFunction.indicator(integers(CFG2))
    v = verify_frame_pointwise([g])
    assert not v.passed and v.check("bounded-away-from-zero").witness is not None


def rand_disjoint_family(cfg, rng):
    pool = rand_bounded_set(cfg, rng)
    if pool.is_empty():
        return [pool]
    k = rng.randrange(1, min(3, len(pool.balls)) + 1)
    balls = list(pool.balls)
    rng.shuffle(balls)
    cuts = sorted(rng.sample(range(1, len(balls)), k - 1)) if k > 1 else []
    parts, prev = [], 0
    for cut in cuts + [len(balls)]:
        parts.append(ClopenSet(cfg, balls[prev:cut]))
        prev = cut
    return [p for p in parts if not p.is_empty()]


def test_set_and_pointwise_criteria_agree_on_indicator_families():
    rng = random.Random(42)
    done = 0
    while done < 20:
        cfg = CFG2 if done % 2 else CFG3
        fam = rand_disjoint_family(cfg, rng)
        if any(W.is_empty() or any(b.contains_zero() for b in W.balls)
               for W in fam):
            continue
        done += 1
        set_v = verify_multiwavelet_set(fam, mode="parseval")
        pt_v = verify_frame_pointwise([StepFunction.indicator(W) for W in fam])
        packs = all(check_translation(W, "packing").passed for W in fam)
        if set_v.passed:
            assert pt_v.passed
        if pt_v.passed and packs:
            assert set_v.passed


# -- translate systems ---------------------------------------------------------


def test_translates_examples():
    v = verify_translates(StepFunction.indicator(fractional_ideal(CFG2, 1)),
                          "parseval")
    assert v.passed
    assert not verify_translates(
        StepFunction.indicator(fractional_ideal(CFG2, 1)), "orthonormal").passed
    assert verify_translates(StepFunction.indicator(integers(CFG2)),
                             "orthonormal").passed
    half = StepFunction.indicator(integers(CFG2), rat(CFG2, Fraction(1, 2)))
    v = verify_translates(half, "parseval")
    assert v.passed
    flag = v.check("weight-is-indicator")
    assert not flag.ok and not flag.binding  # w = 1/4, outside {0, 1}


# -- super-wavelet tuples of functions ---------------------------------------


def test_super_functions_criterion():
    tup = [StepFunction.indicator(shell(CFG2, i)) for i in (1, 2)]
    v = verify_super_functions(tup)
    assert not v.passed
    for c in v.checks:
        ok_expected = not c.name.startswith("(iii)")
        assert c.ok == ok_expected, c.name
    assert "j=0" in v.check("(iii)-joint-correlation").note
    # a single multiwavelet set of order one is an orthonormal tuple
    v = verify_super_functions([StepFunction.indicator(shannon(CFG2)[0])])
    assert v.passed


def test_super_functions_cross_checks_set_criterion():
    for cfg in (CFG2, CFG3):
        for n in (1, 2):
            tup = [shell(cfg, i) for i in range(1, n + 1)]
            fns = [StepFunction.indicator(W) for W in tup]
            assert verify_super_functions(fns).passed == \
                verify_superwavelet(tup, "orthonormal").passed


# -- equivalence ---------------------------------------------------------------


def test_equivalence_criterion():
    tup = [StepFunction.indicator(shell(CFG2, i)) for i in (1, 2)]
    assert equivalent_superwavelets(tup, tup).passed
    assert equivalent_superwavelets(tup, list(reversed(tup))).passed
    a = [StepFunction.indicator(shell(CFG2, 1))]
    b = [StepFunction.indicator(shell(CFG2, 2))]
    v = equivalent_superwavelets(a, b)
    assert not v.passed
    assert "n=0" in v.check("correlations-agree").note


# -- decomposability / extendability bounds -----------------------------------


def test_decomposability_bound_examples():
    for p in (2, 3, 5):
        cfg = FieldConfig(p, 1)
        I, m = decomposability_bound(StepFunction.indicator(units(cfg)))
        assert I == Fraction(p - 1, p) and m == 1
    I, m = decomposability_bound(StepFunction.zero(CFG2))
    assert I == 0 and m == 0
    I, m = decomposability_bound(StepFunction.indicator(integers(CFG2)))
    assert I == math.inf and m is None


def test_extendability_bound_examples():
    J, m = extendability_bound(StepFunction.indicator(units(CFG2)))
    assert J == math.inf and m is None
    J, m = extendability_bound(StepFunction.indicator(integers(CFG3)))
    assert J == 0 and m == 0  # weight identically one
    W = shell(CFG2, 1).translate(coset_rep(CFG2, 1))
    J, m = extendability_bound(StepFunction.indicator(W))
    assert J == math.inf  # complement of the fold still clusters at zero
    # precondition: weight above one is rejected with the offending cell
    double = integers(CFG2).union(integers(CFG2).translate(coset_rep(CFG2, 1)))
    with pytest.raises(ValueError):
        extendability_bound(StepFunction.indicator(double))


def test_bound_sum_diverges():
    # I + J integrates 1/|xi| over all of O, so at least one side is infinite
    rng = random.Random(43)
    for _ in range(50):
        W = rand_bounded_set(CFG2, rng).intersect(integers(CFG2))
        f = StepFunction.indicator(W)
        try:
            J, _ = extendability_bound(f)
        except ValueError:
            continue
        I, _ = decomposability_bound(f)
        assert I == math.inf or J == math.inf


def test_singular_integral_monotone_in_support():
    rng = random.Random(44)
    for _ in range(50):
        A = rand_bounded_set(CFG2, rng).intersect(integers(CFG2))
        B = A.union(rand_bounded_set(CFG2, rng).intersect(integers(CFG2)))
        Ia, _ = decomposability_bound(StepFunction.indicator(A))
        Ib, _ = decomposability_bound(StepFunction.indicator(B))
        assert (Ib == math.inf) or (Ia != math.inf and Ia <= Ib)


# -- scaling-set / multiresolution checks --------------------------------------


def test_mra_scaling_examples():
    for cfg in (CFG2, CFG3):
        W = ClopenSet.empty(cfg)
        for Wi in shannon(cfg):
            W = W.union(Wi)
        v = mra_scaling_check(W, integers(cfg))
        assert v.passed and v.bounds["mra_kind"] == "orthonormal"
    for m in (1, 2):
        v = mra_scaling_check(shell(CFG2, m), fractional_ideal(CFG2, m + 1))
        assert v.passed and v.bounds["mra_kind"] == "parseval"
        assert fractional_ideal(CFG2, m + 1).measure() == Fraction(2) ** -(m + 1)
    # wrong scaling set: measure law and layer checks fail
    v = mra_scaling_check(shell(CFG2, 1), fractional_ideal(CFG2, 1))
    assert not v.passed


def test_superwavelet_joint_fold_overlap_across_components():
    for cfg in (CFG2, CFG3):
        v = verify_superwavelet([units(cfg), units(cfg)], "parseval")
        assert not v.passed
        # each component packs on its own; only the joint translates collide
        assert v.check("(b)-component-1-translation-packing").ok
        assert v.check("(b)-component-2-translation-packing").ok
        c = v.check("(c)-joint-translates-disjoint")
        assert not c.ok
        assert c.witness == {"kind": "set", "balls": units(cfg).as_json()}


def test_correlation_witnesses_are_the_first_failing_cell():
    a, b = (StepFunction.indicator(shell(CFG2, m)) for m in (1, 2))
    c = verify_super_functions([a, b]).check("(iii)-joint-correlation")
    assert (c.ok, c.witness, c.note) == (
        False, {"kind": "point", "point": "1"}, "j=0, sum = 0")
    # translates tile, so every j = 0 sum is 1; the first failure is at j = 1
    W = ClopenSet(CFG2, [Ball(CFG2, parse_element(CFG2, x), 1)
                         for x in ("p^-1", "p^-2 + 1")])
    w = StepFunction.indicator(W)
    v = verify_super_functions([w])
    c = v.check("(iii)-joint-correlation")
    assert (c.ok, c.witness, c.note) == (
        False, {"kind": "point", "point": "p"}, "j=1, sum = 1 (1)")
    assert v.bounds == {"j_max": 1, "k_max": 3}

    v = equivalent_superwavelets([a], [b])
    c = v.check("correlations-agree")
    assert (c.ok, c.witness, c.note) == (
        False, {"kind": "point", "point": "p"}, "first discrepancy at scale offset n=0")
    assert v.bounds == {"n_max": 1, "k_max": 0}
    shannon1 = StepFunction.indicator(integers(CFG2).translate(coset_rep(CFG2, 1)))
    v = equivalent_superwavelets([w], [shannon1])
    c = v.check("correlations-agree")
    assert (c.ok, c.witness, c.note) == (
        False, {"kind": "point", "point": "p"}, "first discrepancy at scale offset n=1")
    assert v.bounds == {"n_max": 1, "k_max": 3}


def test_multiwavelet_mode_is_checked():
    with pytest.raises(ValueError, match="unknown mode"):
        verify_multiwavelet_set([units(CFG2)], mode="tiling")
