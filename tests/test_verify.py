"""Decision procedures for tiling, frame, super-wavelet, equivalence, and
bound computations, cross-checked against direct pointwise counting oracles."""

import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from lfwave.clopen import Ball, ClopenSet, fractional_ideal, integers, joint_fold, shell, units
from lfwave.construct import (_solver_preconditions, scaled_shannon_family, shannon_family,
                              shell_wavelet)
from lfwave.cyclo import CycloScalar
from lfwave.framesim import gram_entry
from lfwave.gfq import FieldConfig
from lfwave.lfield import FieldElement, coset_rep, parse_element
from lfwave.stepfn import StepFunction, common_refinement, difference, shell_range
from lfwave.verify import (
    Verdict,
    _correlation,
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
    witness_point,
)

from verdict_checks import named_check

CFG2 = FieldConfig(2, 1)
CFG3 = FieldConfig(3, 1)


def rat(cfg, x):
    return CycloScalar.rational(cfg.p, cfg.q, x)


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
    assert named_check(v, "no-ball-at-zero").witness is not None
    assert not check_dilation_tiling(ClopenSet(CFG2, ())).passed


def rand_bounded_set(cfg, rng):
    balls = []
    for _ in range(rng.randrange(1, 4)):
        scale = rng.randrange(-1, 4)
        digits = {e: rng.randrange(cfg.q)
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
            c = FieldElement.monomial(cfg, 1, item["scale"])
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
                digits = {e: rng.randrange(cfg.q)
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
        gap = named_check(v, "translates-cover").witness
        assert gap is not None
        # the gap reaches inside p^(m+1) O
        ideal = fractional_ideal(CFG2, m + 1)
        assert any(ideal.member(x) for x in witness_points(CFG2, gap))
    W = integers(CFG2).union(integers(CFG2).translate(coset_rep(CFG2, 1)))
    v = check_translation(W, "packing")
    assert not v.passed
    assert named_check(v, "translates-disjoint").witness == {
        "kind": "set", "balls": integers(CFG2).as_json()}
    # four translates of pO all fold onto pO: the fragments' measures sum to
    # 2, while the bound adds coverage and overlap (1/2 + 1/2)
    W = ClopenSet(CFG2, [fractional_ideal(CFG2, 1).translate(coset_rep(CFG2, k)).balls[0]
                         for k in range(4)])
    assert sum(frag.measure() for frag in joint_fold([W])) == 2
    v = check_translation(W)
    assert v.bounds["fold_measure"] == "1"
    assert not v.passed


def test_translation_check_builds_the_fragment_union_once(monkeypatch):
    # the points in two or more fragments and the fragments' union are the
    # two sets normalized, in either mode: tiling reads the union its cover
    # check built.  The bound keeps its value (1 + 1 on the p=5 shell -1)
    W = shell(FieldConfig(5, 1), -1)
    normalize, calls = ClopenSet._normalize, []

    def counted(config, raw):
        calls.append(config)
        return normalize(config, raw)

    monkeypatch.setattr(ClopenSet, "_normalize", staticmethod(counted))
    for mode in ("packing", "tiling"):
        calls.clear()
        assert check_translation(W, mode).bounds["fold_measure"] == "2"
        assert len(calls) == 2, mode


# -- multiwavelet set criteria -----------------------------------------------


def test_parseval_multiwavelet_set():
    assert verify_multiwavelet_set([shell(CFG2, 1)], mode="parseval").passed
    fam = [W.scale_by(1) for W in shannon(CFG3)]
    v = verify_multiwavelet_set(fam, mode="parseval")
    assert v.passed and v.bounds["order"] == 2
    assert not verify_multiwavelet_set([integers(CFG2)], mode="parseval").passed
    # overlapping components are rejected up front
    v = verify_multiwavelet_set([units(CFG2), units(CFG2)], mode="parseval")
    assert not v.passed and named_check(v, "components-disjoint").witness is not None


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
        gap = named_check(v, "(c)-joint-translates-cover").witness
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
    f = StepFunction.indicator(units(CFG2), rat(CFG2, 1).q_half_shift(-1))
    v = verify_frame_pointwise([f])
    assert not v.passed and not named_check(v, "dilation-square-sum").ok
    # spectra charged at zero are rejected with the offending ball
    g = StepFunction.indicator(integers(CFG2))
    v = verify_frame_pointwise([g])
    assert not v.passed and named_check(v, "bounded-away-from-zero").witness is not None


def test_translation_correlation_sums_each_half_grade():
    # at p=3, t_1 on p^-1 + O is 1 from f and q^(1/2) from g: products of
    # half-grades 0 and 1, which vanish together only when each grade sums
    # to zero on its own (as with the negated copies), since q^(1/2) is not
    # in Q(zeta_3)
    def spectrum(b):
        return StepFunction(CFG3, [(Ball(CFG3, parse_element(CFG3, "p^-1"), 0), rat(CFG3, 1)),
                                   (Ball(CFG3, parse_element(CFG3, "2*p^-1"), 0), b)])
    f, g = spectrum(rat(CFG3, 1)), spectrum(rat(CFG3, 1).q_half_shift(1))
    c = named_check(verify_frame_pointwise([f, g]), "translation-correlation")
    assert (c.ok, c.witness["point"], c.note) == \
        (False, "p^-1", "nonzero at translation index s=1")
    negated = [spectrum(rat(CFG3, -1)), spectrum(rat(CFG3, -1).q_half_shift(1))]
    assert named_check(verify_frame_pointwise([f, g] + negated), "translation-correlation").ok


def random_shell_set(cfg, rng):
    """1-3 random balls on shells -2..2, up to two digits below the shell."""
    balls = []
    for _ in range(rng.randrange(1, 4)):
        s = rng.randrange(-2, 3)
        scale = s + rng.randrange(0, 3)
        digits = {s: rng.randrange(1, cfg.q)}
        digits.update((e, rng.randrange(cfg.q)) for e in range(s + 1, scale))
        balls.append(Ball(cfg, FieldElement(cfg, digits), scale))
    return ClopenSet(cfg, balls)


def indicator_family(cfg, rng):
    """(kind, sets): a stock family (Shannon, scaled Shannon, a shell); the
    balls of one, each split to one level finer, dealt out to 1-3 sets,
    with one of them moved by some u(k) about half the time; or 1-3 random
    sets in shells -2..2, which may overlap."""
    kind = rng.choice(["stock", "dealt", "random"])
    if kind == "random":
        return kind, [random_shell_set(cfg, rng) for _ in range(rng.randrange(1, 4))]
    fam = rng.choice([shannon_family(cfg), scaled_shannon_family(cfg, rng.randrange(1, 3)),
                      [shell_wavelet(cfg, rng.randrange(1, 3))]])
    if kind == "stock":
        return kind, fam
    balls = [c for W in fam for b in W.balls for c in b.split_to(b.scale + 1)]
    rng.shuffle(balls)
    if rng.random() < 0.5:
        balls[0] = balls[0].translate(coset_rep(cfg, rng.randrange(1, cfg.q ** 2)))
    k = rng.randrange(1, 4)
    return kind, [ClopenSet(cfg, balls[i::k]) for i in range(k)]


def test_set_and_pointwise_criteria_agree_on_indicator_families():
    # verify's two engines decide the Parseval frame property of a family of
    # sets alike: the set criterion passes exactly when the pointwise one
    # passes on the indicators
    rng = random.Random(42)
    configs = [CFG2, CFG3, FieldConfig(2, 2), FieldConfig(5, 1)]
    seen = Counter()
    for seed in range(600):
        cfg = configs[seed % 4]
        kind, fam = indicator_family(cfg, rng)
        passed = verify_multiwavelet_set(fam, "parseval").passed
        assert passed == verify_frame_pointwise([StepFunction.indicator(W) for W in fam]).passed, \
            (seed, fam)
        seen[kind, passed] += 1
    # the stock families pass, and dealt ones both pass and fail
    assert seen["stock", False] == 0 and seen["dealt", True] >= 20, seen
    assert seen["dealt", False] >= 20 and seen["random", False] >= 100, seen


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
    flag = named_check(v, "weight-is-indicator")
    assert not flag.ok and not flag.binding  # w = 1/4, outside {0, 1}


# -- super-wavelet tuples of functions ---------------------------------------


def test_super_functions_criterion():
    tup = [StepFunction.indicator(shell(CFG2, i)) for i in (1, 2)]
    v = verify_super_functions(tup)
    assert not v.passed
    for c in v.checks:
        ok_expected = not c.name.startswith("(iii)")
        assert c.ok == ok_expected, c.name
    assert "j=0" in named_check(v, "(iii)-joint-correlation").note
    # a single multiwavelet set of order one is an orthonormal tuple
    v = verify_super_functions([StepFunction.indicator(shannon(CFG2)[0])])
    assert v.passed
    # each per-component check carries its own witness, none on a pass;
    # here (i) fails (square sum 4) and (ii) passes
    v = verify_super_functions([StepFunction.indicator(units(CFG3), rat(CFG3, 2))])
    assert named_check(v, "(i)-component-1-dilation-square-sum").as_json() == {
        "name": "(i)-component-1-dilation-square-sum", "status": "fail",
        "witness": {"kind": "point", "point": "1"}}
    assert named_check(v, "(ii)-component-1-translation-correlation").as_json() == {
        "name": "(ii)-component-1-translation-correlation", "status": "pass"}
    # (i) passes, (ii) fails at its own witness
    v = verify_super_functions([StepFunction.indicator(shell(CFG3, -1))])
    i, ii = (named_check(v, f"({n})-component-1-{name}") for n, name in (
        ("i", "dilation-square-sum"), ("ii", "translation-correlation")))
    assert (i.ok, i.witness) == (True, None)
    assert (ii.ok, ii.witness) == (False, {"kind": "point", "point": "p^-1"})
    # charged at zero: neither part runs, both carry the zero ball
    v = verify_super_functions([StepFunction.indicator(fractional_ideal(CFG3, 1))])
    zero_ball = {"kind": "ball", "ball": {"center": "0", "scale": 1}}
    for c in v.checks:
        assert (c.ok, c.witness) == (False, zero_ball), c.name


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
    assert "n=0" in named_check(v, "correlations-agree").note


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


def test_weight_readers_refuse_an_irrational_weight_alike():
    # at p=5, |1/2 + 1/2 zeta|^2 = 1/4 (2 + zeta + zeta^-1) is not rational
    cfg = FieldConfig(5, 1)
    value = rat(cfg, Fraction(1, 2)) * (rat(cfg, 1) + CycloScalar.zeta_pow(5, 5, 1))
    f = StepFunction.indicator(ClopenSet.from_ball(Ball(cfg, parse_element(cfg, "1"), 1)), value)
    for reader in (verify_translates, decomposability_bound, extendability_bound):
        with pytest.raises(ValueError) as err:
            reader(f)
        assert str(err.value) == "periodized weight is not rational on ball(1, 1)", reader


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
        W = ClopenSet(cfg, ())
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
        assert named_check(v, "(b)-component-1-translation-packing").ok
        assert named_check(v, "(b)-component-2-translation-packing").ok
        c = named_check(v, "(c)-joint-translates-disjoint")
        assert not c.ok
        assert c.witness == {"kind": "set", "balls": units(cfg).as_json()}


def test_correlation_witnesses_are_the_first_failing_cell():
    a, b = (StepFunction.indicator(shell(CFG2, m)) for m in (1, 2))
    c = named_check(verify_super_functions([a, b]), "(iii)-joint-correlation")
    assert (c.ok, c.witness, c.note) == (
        False, {"kind": "point", "point": "1"}, "j=0, sum = 0")
    # translates tile, so every j = 0 sum is 1; the first failure is at j = 1
    W = ClopenSet(CFG2, [Ball(CFG2, parse_element(CFG2, x), 1)
                         for x in ("p^-1", "p^-2 + 1")])
    w = StepFunction.indicator(W)
    v = verify_super_functions([w])
    c = named_check(v, "(iii)-joint-correlation")
    assert (c.ok, c.witness, c.note) == (
        False, {"kind": "point", "point": "p"}, "j=1, sum = 1")
    assert v.bounds == {"j_max": 1, "k_max": 3}

    v = equivalent_superwavelets([a], [b])
    c = named_check(v, "correlations-agree")
    assert (c.ok, c.witness, c.note) == (
        False, {"kind": "point", "point": "p"}, "first discrepancy at scale offset n=0")
    assert v.bounds == {"n_max": 1, "k_max": 0}
    shannon1 = StepFunction.indicator(integers(CFG2).translate(coset_rep(CFG2, 1)))
    v = equivalent_superwavelets([w], [shannon1])
    c = named_check(v, "correlations-agree")
    assert (c.ok, c.witness, c.note) == (
        False, {"kind": "point", "point": "p"}, "first discrepancy at scale offset n=1")
    assert v.bounds == {"n_max": 1, "k_max": 3}


def random_spectrum(cfg, rng, grade):
    """Up to three disjoint balls on shells -2..2 with small cyclotomic
    values of half-grade `grade` (None: each cell draws its own), or the
    indicator of one shell."""
    if rng.random() < 0.3:
        return StepFunction.indicator(shell(cfg, rng.randrange(-2, 3)))
    cells = []
    for _ in range(rng.randrange(1, 4)):
        s = rng.randrange(-2, 3)
        scale = s + rng.randrange(1, 3)
        digits = {s: rng.randrange(1, cfg.q)}
        digits.update((e, rng.randrange(cfg.q)) for e in range(s + 1, scale))
        ball = Ball(cfg, FieldElement(cfg, digits), scale)
        if all(ball.is_disjoint(b) for b, _ in cells):
            g = rng.randrange(2) if grade is None else grade
            coeffs = [0] * (cfg.p - 1)
            while not any(coeffs):
                coeffs = [rng.randrange(-1, 2) for _ in coeffs]
            cells.append((ball, CycloScalar(cfg.p, cfg.q, coeffs).q_half_shift(g)))
    return StepFunction(cfg, cells)


def tiling_tuple(cfg, rng):
    """Roots of unity on the atoms of O at scale 1 or 2, each moved by some
    u(k), k < q^2, and dealt out to 1-3 spectra: P_0 is 1, so the later
    offsets decide.  For q > 2 the atoms are at scale 1 and k < q, which
    keeps the translation-correlation checks small."""
    m = rng.randrange(1, 4)
    cells = [[] for _ in range(m)]
    r = 2 if cfg.q == 2 else 1
    for atom in Ball.integers(cfg).split_to(rng.randrange(1, r + 1)):
        k = rng.randrange(1 if atom.contains_zero() else 0, cfg.q ** r)
        value = CycloScalar.zeta_pow(cfg.p, cfg.q, rng.randrange(cfg.p))
        cells[rng.randrange(m)].append((atom.translate(coset_rep(cfg, k)), value))
    return [StepFunction(cfg, c) for c in cells if c]


def split_tiling_tuple(cfg, rng):
    """A tiling tuple at scale 1 whose cells C = pO + u(k), 0 < k < q, and
    pC carry split values: one spectrum holds a and c on them, another
    b*q^(1/2) and e, times roots of unity, with a^2 + q*b^2 = c^2 + e^2 = 1.
    So P_0 is still 1, while P_1 on pC adds a*conj(c) from the one and
    b*q^(1/2)*conj(e) from the other: both half-grades on one cell.  The
    other atoms of O, with the one holding pC cut into its children, are
    moved by some u(k), k < q, and dealt out to the two and 0-2 more."""
    q = cfg.q
    t = rng.choice([Fraction(1), Fraction(2), Fraction(1, 3)])
    s = rng.choice([Fraction(2), Fraction(3), Fraction(1, 2)])
    a, b = (1 - q * t * t) / (1 + q * t * t), 2 * t / (1 + q * t * t)
    c, e = (1 - s * s) / (1 + s * s), 2 * s / (1 + s * s)
    cell = Ball.integers(cfg, 1).translate(coset_rep(cfg, rng.randrange(1, q)))
    inner = cell.scale_by(1)
    z1, z2 = (CycloScalar.zeta_pow(cfg.p, q, rng.randrange(cfg.p)) for _ in range(2))
    cells = [[(cell, rat(cfg, a) * z1), (inner, rat(cfg, c) * z2)],
             [(cell, (rat(cfg, b) * z1).q_half_shift(1)), (inner, rat(cfg, e) * z2)]]
    cells += [[] for _ in range(rng.randrange(3))]
    host = Ball._from_key(cfg, inner.ancestor_key(1))
    rest = [atom for atom in Ball.integers(cfg).split_to(1)
            if not atom.contains_zero() and atom != host]
    for atom in rest + [child for child in host.children() if child != inner]:
        moved = atom.translate(coset_rep(cfg, rng.randrange(q)))
        value = CycloScalar.zeta_pow(cfg.p, q, rng.randrange(cfg.p))
        cells[rng.randrange(len(cells))].append((moved, value))
    return [StepFunction(cfg, c) for c in cells if c]


def correlation_family(cfg, rng):
    """(a, b): random spectra or a tiling tuple (split or not), with b = a
    about 30 % of the time; otherwise a tiling tuple is paired with its own
    spectra times roots of unity (equivalent) or with another tiling
    tuple."""
    r = rng.random()
    if r < 0.5:
        grade = None if rng.random() < 0.15 else rng.randrange(2)
        a, b = ([random_spectrum(cfg, rng, grade) for _ in range(rng.randrange(1, 4))]
                for _ in range(2))
    else:
        a = tiling_tuple(cfg, rng) if r < 0.85 else split_tiling_tuple(cfg, rng)
        b = rng.choice([[StepFunction(cfg, [(ball, v * z) for ball, v in f.cells])
                         for f in a for z in [CycloScalar.zeta_pow(cfg.p, cfg.q, rng.randrange(cfg.p))]],
                        tiling_tuple(cfg, rng)])
    return a, (a if rng.random() < 0.3 else b)


def correlation_at(fns, n, x):
    """P_n of fns at x in O by direct evaluation, as its parts of half-grade
    0 and 1 (terms of different grades cannot cancel): the sum over f in fns
    and over the q**-smin cosets that reach the spectra of
    f(p**-n * (x + u(k))) * conj f(x + u(k))."""
    cfg = fns[0].config
    smin = min((b.shell_index() for f in fns for b, _ in f.cells), default=0)
    parts = [rat(cfg, 0), rat(cfg, 0)]
    for f in fns:
        for k in range(cfg.q ** max(-smin, 0)):
            y = x + coset_rep(cfg, k)
            t = f.evaluate(y.scale_exponents(-n)) * f.evaluate(y).conj()
            parts[t.grade] = parts[t.grade] + t
    return parts


def grade_sum(parts):
    """A value given by its half-grade parts, as a verdict note prints it."""
    return " + ".join(repr(t) for t in parts if not t.is_zero()) or "0"


def square_sum_at(fns, x):
    """The dilation square sum of fns at x by direct evaluation: the sum over
    f in fns and over the dilations j = -smax..-smin that reach the spectra
    of |f(p**-j * x)|**2."""
    smin, smax, _ = shell_range(fns)
    total = rat(fns[0].config, 0)
    for f in fns:
        for j in range(-smax, -smin + 1):
            total = total + f.evaluate(x.scale_exponents(-j)).abs_sq()
    return total


def translation_correlation_vanishes(fns, j_max, s, x):
    """Is t_s of fns zero at x, by direct evaluation of the sum over f in fns
    and over j = 0..j_max of f(p**-j * x) * conj f(p**-j * (x + u(s)))?
    Terms of half-grades 0 and 1 cannot cancel, so each grade is summed
    apart."""
    cfg = fns[0].config
    y = x + coset_rep(cfg, s)
    parts = [rat(cfg, 0), rat(cfg, 0)]
    for f in fns:
        for j in range(j_max + 1):
            t = f.evaluate(x.scale_exponents(-j)) * f.evaluate(y.scale_exponents(-j)).conj()
            parts[t.grade] = parts[t.grade] + t
    return all(part.is_zero() for part in parts)


def point_of_shell(cfg, rng, v):
    """A random point of absolute value q**-v with four random digits."""
    return FieldElement(cfg, {v: rng.randrange(1, cfg.q),
                              **{e: rng.randrange(cfg.q) for e in range(v + 1, v + 4)}})


def test_correlation_witnesses_hold_by_direct_evaluation():
    # every failing witness of check frame's two sums, of (iii) or of
    # correlations-agree is a point where the directly evaluated sums miss
    # their target, or differ, at the reported index; passing verdicts hold
    # at sampled points (of the unit shell, of shells -3..2, and of O)
    rng = random.Random(46)
    seen = Counter()
    for _ in range(500):
        cfg = rng.choice([CFG2, CFG3, FieldConfig(2, 2), FieldConfig(5, 1)])
        a, b = correlation_family(cfg, rng)
        # offsets stay <= 4 on shells -2..2
        delta = [[rat(cfg, 1), rat(cfg, 0)]] + [[rat(cfg, 0)] * 2] * 4
        sample = [FieldElement(cfg, {e: rng.randrange(cfg.q) for e in range(3)})
                  for _ in range(2)]
        v = verify_frame_pointwise(a)
        c = named_check(v, "dilation-square-sum")
        if c.ok:
            assert all(square_sum_at(a, point_of_shell(cfg, rng, 0)) == rat(cfg, 1)
                       for _ in range(2))
        else:
            total = square_sum_at(a, parse_element(cfg, c.witness["point"]))
            assert total != rat(cfg, 1) and c.note == f"sum = {total!r}"
        seen["i", c.ok] += 1
        c = named_check(v, "translation-correlation")
        j_max = v.bounds["j_max"]
        if c.ok:
            points = [point_of_shell(cfg, rng, rng.randrange(-3, 3)) for _ in range(2)]
            assert all(translation_correlation_vanishes(a, j_max, s, x)
                       for s in range(1, v.bounds["s_max"] + 1) if s % cfg.q for x in points)
        else:
            s = int(c.note.rsplit("=", 1)[1])
            x = parse_element(cfg, c.witness["point"])
            assert not translation_correlation_vanishes(a, j_max, s, x)
        seen["ii", c.ok] += 1

        v = verify_super_functions(a)
        c = named_check(v, "(iii)-joint-correlation")
        if c.ok:
            assert all(correlation_at(a, j, x) == delta[j]
                       for j in range(v.bounds["j_max"] + 1) for x in sample)
        else:
            j = int(c.note.split(",")[0].removeprefix("j="))
            parts = correlation_at(a, j, parse_element(cfg, c.witness["point"]))
            assert parts != delta[j] and c.note == f"j={j}, sum = {grade_sum(parts)}"
        seen["iii", c.ok, c.ok or j > 0] += 1
        # P_n as verify sums it, one periodization per half-grade: where both
        # grades are nonzero on one cell, both match direct evaluation
        mixed = False
        for n in range(v.bounds.get("j_max", -1) + 1):
            for cell, parts in common_refinement(cfg, _correlation(a, n)):
                if not any(t.is_zero() for t in parts):
                    assert correlation_at(a, n, cell.center) == parts
                    mixed = True
        seen["mixed"] += mixed

        v = equivalent_superwavelets(a, b)
        c = named_check(v, "correlations-agree")
        assert c.ok or b is not a
        if c.ok:
            assert all(correlation_at(a, n, x) == correlation_at(b, n, x)
                       for n in range(v.bounds["n_max"] + 1) for x in sample)
        else:
            n = int(c.note.rsplit("=", 1)[1])
            x = parse_element(cfg, c.witness["point"])
            assert correlation_at(a, n, x) != correlation_at(b, n, x)
        seen["eq", c.ok, c.ok or n > 0] += 1
    # passes and failures of check frame's sums, and passes, failures at
    # offset 0 and failures past it of the correlations, all occur
    assert all(seen[kind, ok] >= 20 for kind in ("i", "ii") for ok in (True, False)), seen
    assert all(seen[kind, ok, later] >= 20 for kind in ("iii", "eq")
               for ok, later in ((True, True), (False, False), (False, True))), seen
    # and families whose P_n holds both half-grades on one cell
    assert seen["mixed"] >= 20, seen


def first_discrepancy(offsets, pair):
    """The refinement-based reference, verify's former _first_discrepancy
    over any offsets: (n, cell, x) at the first offset n and the first cell
    where pair(n) = (xs, ys), step functions one per half-grade, refined
    together by common_refinement, differ; x is the value of xs there as
    the sum of its nonzero grades.  None when they agree at every offset."""
    for n in offsets:
        xs, ys = pair(n)
        k = len(xs)
        for cell, values in common_refinement(xs[0].config, [*xs, *ys]):
            if values[:k] != values[k:]:
                return n, cell, " + ".join(repr(x) for x in values[:k] if not x.is_zero()) or "0"
    return None


def reference_agreement(self, name, offsets, pair, note):
    """Verdict.add_agreement decided by first_discrepancy.  t_s had its
    half-grades summed and searched apart: its witness is the least first
    cell of either grade at the first failing s."""
    bad = first_discrepancy(offsets, pair)
    if bad is not None and name == "translation-correlation":
        s = bad[0]
        hits = [first_discrepancy([s], lambda _, x=x, y=y: ([x], [y])) for x, y in zip(*pair(s))]
        bad = min((h for h in hits if h is not None), key=lambda h: h[1].sort_key())
    if bad is None:
        return self.add(name, True)
    n, cell, x = bad
    return self.add(name, False, witness_point(cell.center), note=note.format(n, x))


def graded_spectrum(cfg, rng):
    """1-4 disjoint balls on shells -2..1, up to three digits below the
    shell, with small cyclotomic values, times q**(1/2) or q**(-1/2) on
    about 40 % of the cells."""
    cells = []
    for _ in range(rng.randrange(1, 5)):
        s = rng.randrange(-2, 2)
        scale = s + rng.randrange(1, 4)
        digits = {s: rng.randrange(1, cfg.q)}
        digits.update((e, rng.randrange(cfg.q)) for e in range(s + 1, scale))
        ball = Ball(cfg, FieldElement(cfg, digits), scale)
        if all(ball.is_disjoint(b) for b, _ in cells):
            coeffs = [0] * (cfg.p - 1)
            while not any(coeffs):
                coeffs = [rng.randrange(-1, 2) for _ in coeffs]
            e = rng.choice([-1, 1]) if rng.random() < 0.4 else 0
            cells.append((ball, CycloScalar(cfg.p, cfg.q, coeffs).q_half_shift(e)))
    return StepFunction(cfg, cells)


def agreement_reports(monkeypatch, agreement, a, b):
    """The checks and bounds of check frame, check super-functions on a and
    check equivalent a, b, with Verdict.add_agreement replaced by
    `agreement`, and the last pair function each named check was given."""
    pairs = {}

    def recorded(self, name, offsets, pair, note):
        pairs[name] = pair
        return agreement(self, name, offsets, pair, note)

    monkeypatch.setattr(Verdict, "add_agreement", recorded)
    verdicts = [verify_frame_pointwise(a), verify_super_functions(a),
                equivalent_superwavelets(a, b)]
    return [v.as_json() for v in verdicts], pairs


def test_agreement_check_matches_the_refinement_reference(monkeypatch):
    # on seeded families with mixed half-grades, the four function checks
    # (check frame's two sums, (iii) and correlations-agree) report what
    # the parent's refinement-based search reported, and == agrees with
    # equality on a common refinement.  The one known difference: past
    # offset 0, a ball of the other half-grade strictly inside the least
    # differing cell splits the reference's mesh, so its first cell can
    # lie elsewhere in that cell; both points then witness the failure
    new = Verdict.add_agreement
    rng = random.Random(35)
    seen = Counter()
    for seed in range(400):
        cfg = rng.choice([CFG2, CFG3, FieldConfig(2, 2), FieldConfig(5, 1)])
        if seed % 5 < 2:
            a, b = correlation_family(cfg, rng)
        else:
            a = [graded_spectrum(cfg, rng) for _ in range(rng.randrange(1, 3))]
            b = rng.choice([a, [graded_spectrum(cfg, rng) for _ in range(rng.randrange(1, 3))],
                            [StepFunction(cfg, [(ball, v * CycloScalar.zeta_pow(
                                cfg.p, cfg.q, rng.randrange(cfg.p))) for ball, v in f.cells])
                             for f in a]])
        got, pairs = agreement_reports(monkeypatch, new, a, b)
        want, _ = agreement_reports(monkeypatch, reference_agreement, a, b)
        for g, w in zip(got, want):
            assert g["bounds"] == w["bounds"] and len(g["checks"]) == len(w["checks"])
            for c, r in zip(g["checks"], w["checks"]):
                seen[c["status"]] += c["name"] in pairs
                if c == r:
                    continue
                assert c["name"] in ("(iii)-joint-correlation", "correlations-agree"), (seed, c, r)
                n = int(c["note"].split(",")[0].rsplit("=", 1)[1])
                assert n > 0 and c["status"] == r["status"] == "fail", (seed, c, r)
                assert c["note"].split(",")[0] == r["note"].split(",")[0]
                xs, ys = pairs[c["name"]](n)
                least = min((ball for x, y in zip(xs, ys) for ball, _ in difference(x, y)),
                            key=Ball.sort_key)
                assert c["witness"] == witness_point(least.center), (seed, c)
                assert any(least.contains_ball(ball) and ball != least
                           for f in (*xs, *ys) for ball, _ in f.cells), (seed, c, r)
                for witness in (c["witness"], r["witness"]):
                    x = parse_element(cfg, witness["point"])
                    assert [f.evaluate(x) for f in xs] != [f.evaluate(x) for f in ys]
                seen["moved"] += 1
        # == against equality on a common refinement: f, f with every cell
        # cut into its children (equal), that copy with one child's value
        # replaced (grade 0 or 1), and the first spectrum of b
        f = a[0]
        split = [(child, v) for ball, v in f.cells for child in ball.children()]
        i = rng.randrange(len(split))
        changed = split[:i] + [(split[i][0], split[i][1].q_half_shift(rng.choice([0, 1])) *
                                CycloScalar.zeta_pow(cfg.p, cfg.q, 1))] + split[i + 1:]
        for g in (f, StepFunction(cfg, split), StepFunction(cfg, changed), b[0]):
            same = all(x == y for _, (x, y) in common_refinement(cfg, [f, g]))
            assert (f == g) is same, (seed, f, g)
            seen["==", same] += 1
    # passes and failures of the function checks, moved witnesses, and
    # both answers of == all occur
    assert seen["pass"] >= 200 and seen["fail"] >= 200, seen
    assert seen["==", True] >= 400 and seen["==", False] >= 400, seen


def test_agreement_witness_is_the_least_cell_of_its_grade(monkeypatch):
    # the spectra differ only in sign on the shell -2 ball p^-2 + p^-1 O, so
    # P_0 agrees and P_1 is 1 and -1 on O in grade 0.  The grade-1 parts of
    # P_1 have cells at scale 4 inside p^3 O: the parent refined them
    # together with grade 0, so its first differing cell was 1 + pO, while
    # the least cell of the grade-0 difference is O itself
    def spectrum(sign):
        return StepFunction(CFG2, [(Ball(CFG2, parse_element(CFG2, x), scale), value)
                                   for x, scale, value in [("p^-2", -1, rat(CFG2, sign)),
                                                           ("p^-1", 0, rat(CFG2, 1)),
                                                           ("p^-4", 2, rat(CFG2, 1)),
                                                           ("p^-3", 3, half(CFG2, 1))]])
    a, b = [spectrum(1)], [spectrum(-1)]
    c = named_check(equivalent_superwavelets(a, b), "correlations-agree")
    assert (c.ok, c.witness, c.note) == (
        False, {"kind": "point", "point": "0"}, "first discrepancy at scale offset n=1")
    monkeypatch.setattr(Verdict, "add_agreement", reference_agreement)
    c = named_check(equivalent_superwavelets(a, b), "correlations-agree")
    assert (c.ok, c.witness["point"]) == (False, "1")


def test_joint_correlation_reports_the_smallest_failing_offset():
    # P_0 misses 1 on p^3 O, which no translate reaches, and P_2 is -1 at
    # p^2: the witness is the j=0 failure, although finer meshes of the
    # dilated spectra would put a j=2 cell first in sort order
    def cell(x, scale, value):
        return Ball(CFG2, parse_element(CFG2, x), scale), rat(CFG2, value)
    fns = [StepFunction(CFG2, [cell("1", 2, 1), cell("p^2", 3, -1)]),
           StepFunction(CFG2, [cell("p", 2, 1)]),
           StepFunction(CFG2, [cell("1 + p", 2, -1)])]
    c = named_check(verify_super_functions(fns), "(iii)-joint-correlation")
    assert (c.ok, c.witness, c.note) == (False, {"kind": "point", "point": "0"}, "j=0, sum = 0")
    assert correlation_at(fns, 2, parse_element(CFG2, "p^2")) == [rat(CFG2, -1), rat(CFG2, 0)]


def half(cfg, x):
    return rat(cfg, x).q_half_shift(1)


def test_correlations_of_mixed_half_grades_get_verdicts():
    # family 146 of a seeded fuzz at p=2, where `check equivalent [f1, f2,
    # f3], [f1, f2, f3]` reported a grade error: on ball(1, 2), P_2 is -1
    # from f3 and -q^(1/2) from f1, which raised when summed.  Each grade of
    # P_2 is nonzero there, and the family is now equivalent to itself
    def cell(x, scale, value):
        return Ball(CFG2, parse_element(CFG2, x), scale), value
    f1 = StepFunction(CFG2, [cell("p^-2", -1, rat(CFG2, -1)), cell("1", 2, half(CFG2, 1))])
    f2 = StepFunction(CFG2, [cell("p^-1 + 1", 1, rat(CFG2, 1)),
                             cell("p^2 + p^3", 4, half(CFG2, 1))])
    f3 = StepFunction(CFG2, [cell("p^-2", -1, rat(CFG2, 1)), cell("1", 2, rat(CFG2, -1))])
    fam = [f1, f2, f3]
    assert named_check(equivalent_superwavelets(fam, fam), "correlations-agree").ok
    assert correlation_at(fam, 2, FieldElement.one(CFG2)) == [rat(CFG2, -1), half(CFG2, -1)]
    # P_0 is 1 on O, and ball(1, 2) is p times the cell ball(p^-1, 1) of f
    # and g, so P_1 there is 1/3 * conj(q^(1/2)/2) from f plus
    # 2/3*q^(1/2) * conj(q^(1/2)/2) = 2/3 from g: (iii) first fails at j=1,
    # with both grades in its sum
    f = StepFunction(CFG2, [cell("p^-1", 1, rat(CFG2, Fraction(1, 3))),
                            cell("1", 2, half(CFG2, Fraction(1, 2)))])
    g = StepFunction(CFG2, [cell("p^-1", 1, half(CFG2, Fraction(2, 3))),
                            cell("1", 2, half(CFG2, Fraction(1, 2)))])
    h = StepFunction(CFG2, [cell("1 + p", 2, rat(CFG2, 1))])
    c = named_check(verify_super_functions([f, g, h]), "(iii)-joint-correlation")
    assert (c.ok, c.witness, c.note) == (
        False, {"kind": "point", "point": "1"}, "j=1, sum = 2/3 + (1/6)*qh^1")
    x = parse_element(CFG2, c.witness["point"])
    assert correlation_at([f, g, h], 1, x) == [rat(CFG2, Fraction(2, 3)),
                                               half(CFG2, Fraction(1, 6))]
    # and P_0 is 1 on each cell of O at scale 2, so j=1 is the first failure
    for y in ("0", "p", "1", "1 + p"):
        assert correlation_at([f, g, h], 0, parse_element(CFG2, y)) == [rat(CFG2, 1), rat(CFG2, 0)]


@pytest.mark.parametrize("entry, arg", [
    pytest.param(verify_multiwavelet_set, [units(CFG2)], id="multiwavelet"),
    pytest.param(check_translation, units(CFG2), id="translation"),
    pytest.param(verify_superwavelet, [units(CFG2)], id="superwavelet"),
    pytest.param(verify_translates, StepFunction.indicator(units(CFG2)), id="translates"),
])
def test_unknown_modes_are_refused(entry, arg):
    with pytest.raises(ValueError, match="unknown mode 'frame'"):
        entry(arg, "frame")


UNIT_SPECTRUM = StepFunction.indicator(units(CFG2))


@pytest.mark.parametrize("entry, args", [
    pytest.param(verify_multiwavelet_set, ([],), id="multiwavelet"),
    pytest.param(verify_superwavelet, ([],), id="superwavelet"),
    pytest.param(verify_frame_pointwise, ([],), id="frame"),
    pytest.param(verify_super_functions, ([],), id="super-functions"),
    pytest.param(equivalent_superwavelets, ([], [UNIT_SPECTRUM]), id="equivalent-first"),
    pytest.param(equivalent_superwavelets, ([UNIT_SPECTRUM], []), id="equivalent-second"),
    pytest.param(gram_entry, ([], (0, 0), (0, 0)), id="gram-entry"),
])
def test_empty_families_raise_value_error(entry, args):
    with pytest.raises(ValueError, match="empty"):
        entry(*args)


def failing_verdicts():
    """Every verdict producer on failing inputs built elsewhere in the suite."""
    ind = StepFunction.indicator
    double = integers(CFG2).union(integers(CFG2).translate(coset_rep(CFG2, 1)))
    a, b = (ind(shell(CFG2, m)) for m in (1, 2))
    return [
        check_dilation_tiling(integers(CFG2)),
        check_dilation_tiling(ClopenSet(CFG2, ())),
        check_translation(shell(CFG2, 1), "tiling"),
        check_translation(double, "packing"),
        verify_multiwavelet_set([integers(CFG2)], mode="parseval"),
        verify_multiwavelet_set([units(CFG2), units(CFG2)], mode="parseval"),
        verify_multiwavelet_set([shell(CFG2, 1)]),
        verify_multiwavelet_set([units(CFG3)]),
        verify_superwavelet([shell(CFG2, i) for i in range(1, 4)], "orthonormal"),
        verify_superwavelet([units(CFG3), units(CFG3)], "parseval"),
        verify_frame_pointwise([ind(units(CFG2), rat(CFG2, 1).q_half_shift(-1))]),
        verify_frame_pointwise([ind(integers(CFG2))]),
        verify_translates(ind(fractional_ideal(CFG2, 1)), "orthonormal"),
        verify_translates(ind(double), "parseval"),
        verify_super_functions([a, b]),
        verify_super_functions([ind(units(CFG3), rat(CFG3, 2))]),
        verify_super_functions([ind(shell(CFG3, -1))]),
        verify_super_functions([ind(fractional_ideal(CFG3, 1))]),
        equivalent_superwavelets([a], [b]),
        mra_scaling_check(shell(CFG2, 1), fractional_ideal(CFG2, 1)),
        _solver_preconditions([integers(CFG2)], CFG2)[0],
        _solver_preconditions([units(CFG2), units(CFG2)], CFG2)[0],
        _solver_preconditions(shannon(CFG2), CFG2)[0],
    ]


def test_failing_binding_checks_carry_witnesses():
    for v in failing_verdicts():
        assert not v.passed
        for c in v.checks:
            if c.binding and not c.ok:
                assert c.witness is not None, (c.name, v.as_json())
