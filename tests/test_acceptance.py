"""Acceptance gate: the library's headline constructions, their exact
verdicts and measures, the complement solver's certificates, and agreement
between the set-theoretic criteria and the frequency-domain oracle — all at
zero tolerance.

Every numeric assertion here is an exact Fraction or cyclotomic equality;
nothing is compared approximately.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from lfwave.clopen import Ball, ClopenSet, fractional_ideal, integers, shell, units
from lfwave.construct import (
    scaled_shannon_family,
    scaling_set,
    shannon_family,
    shell_tuple,
    shell_wavelet,
    solve_complement,
    tower_audit,
    tower_components,
    tower_corrected_target,
    tower_printed_target,
)
from lfwave.cyclo import CycloScalar
from lfwave.framesim import (
    FiniteModel,
    gram_entry,
    mesh_delta_residuals,
    parseval_residual,
    super_parseval_residual,
    truncation_spot_check,
)
from lfwave.gfq import FieldConfig
from lfwave.lfield import FieldElement, character, coset_rep, coset_index
from lfwave.stepfn import StepFunction
from lfwave.verify import (
    decomposability_bound,
    extendability_bound,
    mra_scaling_check,
    verify_multiwavelet_set,
    verify_superwavelet,
)

CONFIGS = {
    2: FieldConfig(2, 1),
    3: FieldConfig(3, 1),
    4: FieldConfig(2, 2),
    5: FieldConfig(5, 1),
}
CFG2, CFG3 = CONFIGS[2], CONFIGS[3]


def union(sets):
    out = sets[0]
    for W in sets[1:]:
        out = out.union(W)
    return out


def ind(W):
    return StepFunction.indicator(W)


def test_acceptance_1_translated_coset_families():
    for q in (2, 3, 4, 5):
        cfg = CONFIGS[q]
        start = time.monotonic()
        fam = shannon_family(cfg)
        assert len(fam) == q - 1
        assert verify_multiwavelet_set(fam).passed
        W = union(fam)
        S, certified = scaling_set(W, 6)
        assert certified and S.measure() == 1
        v = mra_scaling_check(W, S)
        assert v.passed and v.bounds["mra_kind"] == "orthonormal"
        assert v.check("translates-tile").ok
        assert time.monotonic() - start < 1.0


def test_acceptance_2_shell_families():
    for q in (2, 3):
        cfg = CONFIGS[q]
        for m in (1, 2, 3):
            W = shell_wavelet(cfg, m)
            assert verify_multiwavelet_set([W], mode="parseval").passed
            v = verify_multiwavelet_set([W])
            assert not v.passed
            gap = v.check("component-1:translates-cover")
            assert not gap.ok and gap.witness is not None
            S, certified = scaling_set(W, 6)
            assert certified
            assert S == fractional_ideal(cfg, m + 1)
            assert S.measure() == Fraction(q) ** -(m + 1)
            mra = mra_scaling_check(W, S)
            assert mra.passed and mra.bounds["mra_kind"] == "parseval"
            assert mra.check("translates-pack").ok


def test_acceptance_3_contracted_coset_families():
    for m in (1, 2):
        fam = scaled_shannon_family(CFG3, m)
        assert len(fam) == 2  # order q - 1
        assert verify_multiwavelet_set(fam, mode="parseval").passed
        S, certified = scaling_set(union(fam), 6)
        assert certified and S.measure() == Fraction(3) ** -m


def test_acceptance_4_shell_tuples():
    for q in (2, 3):
        cfg = CONFIGS[q]
        for n in (1, 2, 3):
            tup = shell_tuple(cfg, n)
            pv = verify_superwavelet(tup, "parseval")
            assert pv.passed
            assert not verify_superwavelet(tup, "orthonormal").passed
            expect = sum(
                (Fraction(q) ** -i * (1 - Fraction(1, q)) for i in
                 range(1, n + 1)), Fraction(0))
            assert Fraction(pv.bounds["joint_fold_measure"]) == expect


def test_acceptance_5_tower_audit_and_complement_search():
    for q in (2, 3):
        cfg = CONFIGS[q]
        for n in (2, 3):
            comps = tower_components(cfg, n)
            # the family as printed misses its stated target by an exact
            # excess: the translates double-cover a full unit of measure
            printed = tower_audit(comps, tower_printed_target(cfg, n))
            assert printed["joint_fold_measure"] == \
                1 + Fraction(q - 1) * Fraction(q) ** (1 - n)
            assert not printed["tiling_possible"]
            corrected = tower_audit(comps, tower_corrected_target(cfg, n))
            assert corrected["joint_fold_measure"] == 1
            assert corrected["tiling_possible"]
            # measure balance alone does not make the completion solvable:
            # the search is exhaustive at this resolution and certifies
            # that no clopen complement exists
            start = time.monotonic()
            res = solve_complement(comps, shells=(-3, 3), max_scale=5)
            assert time.monotonic() - start < 60.0
            assert res.status == "unsat"
            if q == 3:
                assert res.certificate["kind"] == "parity"
            else:
                assert res.certificate["kind"] == "exhausted"


@pytest.mark.xfail(
    strict=True,
    reason="no clopen complement exists at any probed resolution: odd q is "
           "excluded by the parity certificate outright, and for q = 2 the "
           "exhaustive search stays unsatisfiable when the shell range or "
           "the scale bound is widened",
)
def test_acceptance_5_wider_resolution_completion():
    res = solve_complement(tower_components(CFG2, 2), shells=(-4, 4),
                           max_scale=5)
    assert res.status == "sat"


def test_acceptance_6_singular_integral_bounds():
    for q in (2, 3, 5):
        cfg = CONFIGS[q]
        f = ind(units(cfg))
        value, max_m = decomposability_bound(f)
        assert value == Fraction(q - 1, q)
        assert max_m == 1  # the integral forbids splitting into m >= 2 parts
        value, max_m = extendability_bound(f)
        assert value == math.inf and max_m is None


def test_acceptance_7_oracle_agreement_single_families():
    families = []
    for q in (2, 3, 4, 5):
        families.append((CONFIGS[q], shannon_family(CONFIGS[q])))
    for q in (2, 3):
        for m in (1, 2, 3):
            families.append((CONFIGS[q], [shell_wavelet(CONFIGS[q], m)]))
    for m in (1, 2):
        families.append((CFG3, scaled_shannon_family(CFG3, m)))

    for cfg, fam in families:
        model = FiniteModel(cfg, 3, 3)
        psis = [ind(W) for W in fam]
        assert all(r.is_zero() for _, r in mesh_delta_residuals(model, psis))
        rng = random.Random(q_seed(cfg))
        for _ in range(100):
            f = model.random_step(rng)
            residual, _ = parseval_residual(model, psis, f)
            assert residual.is_zero()
        assert truncation_spot_check(model, psis, ind(units(cfg)))


def q_seed(cfg):
    return 1000 + cfg.q


def test_acceptance_7_oracle_agreement_tuples():
    for q in (2, 3):
        cfg = CONFIGS[q]
        model = FiniteModel(cfg, 3, 3)
        for n in (1, 2, 3):
            etas = [ind(W) for W in shell_tuple(cfg, n)]
            # a tuple with one active slot reduces to the slot's own family,
            # so the batched per-delta path covers all per-slot deltas
            for eta in etas:
                assert all(r.is_zero()
                           for _, r in mesh_delta_residuals(model, [eta]))
            rng = random.Random(2000 + 10 * q + n)
            for _ in range(100):
                fs = [model.random_step(rng, n_cells=3) for _ in range(n)]
                assert super_parseval_residual(model, etas, fs).is_zero()


def test_acceptance_7_gram_identity():
    etas = [ind(W) for W in shannon_family(CFG2)]
    one = CycloScalar.rational(2, 2, 1)
    indices = [(j, k) for j in range(-2, 3) for k in range(8)]
    for a in indices:
        for b in indices:
            got = gram_entry(etas, a, b)
            if a == b:
                assert got.reduce_grade() == one
            else:
                assert got.is_zero()


def test_acceptance_8_structure_laws():
    # |u(n)| lands in the length class of n's base-q expansion
    for q in (2, 3):
        cfg = CONFIGS[q]
        for n in range(1, 10_000):
            k = len_base_q(n, q)
            assert coset_rep(cfg, n).valuation() == -k
        # negation permutes the representatives (an involution fixing 0)
        seen = {}
        for n in range(10_000):
            m = coset_index(-coset_rep(cfg, n))
            seen[n] = m
        assert all(seen[m] == n for n, m in seen.items() if m < 10_000)
    # adding a fixed representative permutes each length class
    cfg = CFG2
    for l in range(64):
        block = {coset_index(coset_rep(cfg, l) + coset_rep(cfg, n))
                 for n in range(64)}
        assert block == set(range(64))
    # the splitting identity u(r q^k + s) = u(r) p^-k + u(s)
    for q in (2, 3):
        cfg = CONFIGS[q]
        for r in range(32):
            for k in range(4):
                for s in range(q ** k):
                    lhs = coset_rep(cfg, r * q ** k + s)
                    rhs = coset_rep(cfg, r).scale_exponents(-k) + \
                        coset_rep(cfg, s)
                    assert lhs == rhs
    # the character is trivial on all products of representatives
    one = CycloScalar.rational(2, 2, 1)
    reps = [coset_rep(CFG2, k) for k in range(256)]
    for x in reps:
        for y in reps:
            assert character(x, y) == one
    # the 10^4-case randomized clopen algebra suite runs as part of this
    # same test session (see the clopen property tests); re-assert a compact
    # slice here so the gate is self-contained
    rng = random.Random(77)
    for _ in range(500):
        cfg = CONFIGS[rng.choice((2, 3))]
        balls = [Ball(cfg, coset_rep(cfg, rng.randrange(27)),
                      rng.randrange(-1, 3)) for _ in range(3)]
        A = ClopenSet(cfg, balls[:2])
        B = ClopenSet(cfg, balls[1:])
        assert (A.union(B).measure() + A.intersect(B).measure()
                == A.measure() + B.measure())
        x = coset_rep(cfg, rng.randrange(81))
        assert A.subtract(B).member(x) == (A.member(x) and not B.member(x))


def len_base_q(n, q):
    k = 0
    while n:
        n //= q
        k += 1
    return k
