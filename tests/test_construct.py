"""Builders, scaling sets with certified tails, tower-family audits, and the
double-exact-cover complement solver."""

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
from lfwave.gfq import FieldConfig
from lfwave.lfield import FieldElement, coset_rep
from lfwave.verify import (
    verify_multiwavelet_set,
    verify_superwavelet,
)

CFG2 = FieldConfig(2, 1)
CFG3 = FieldConfig(3, 1)
CFG4 = FieldConfig(2, 2)


def union(sets):
    out = sets[0]
    for W in sets[1:]:
        out = out.union(W)
    return out


def test_shannon_family():
    fam = shannon_family(CFG2)
    assert fam == [integers(CFG2).translate(coset_rep(CFG2, 1))]
    fam3 = shannon_family(CFG3)
    assert len(fam3) == 2 and all(W.measure() == 1 for W in fam3)
    assert verify_multiwavelet_set(shannon_family(CFG4)).passed


def test_shell_wavelet():
    W = shell_wavelet(CFG2, 1)
    assert W.balls == (Ball(CFG2, FieldElement.prime_pow(CFG2, 1), 2),)
    assert W.measure() == Fraction(1, 4)
    for m in (1, 2, 3):
        for cfg in (CFG2, CFG3):
            Wm = shell_wavelet(cfg, m)
            assert verify_multiwavelet_set([Wm], mode="parseval").passed
            assert not verify_multiwavelet_set([Wm]).passed
    with pytest.raises(ValueError):
        shell_wavelet(CFG2, 0)


def test_scaled_shannon_family():
    fam = scaled_shannon_family(CFG3, 1)
    assert len(fam) == 2 and all(W.measure() == Fraction(1, 3) for W in fam)
    for m in (1, 2):
        fam = scaled_shannon_family(CFG3, m)
        assert verify_multiwavelet_set(fam, mode="parseval").passed
        assert not verify_multiwavelet_set(fam).passed


def test_scaled_shannon_translate_disjointness_identity():
    # translates by u(q**m * k) shift by u(k) * p**-m, which maps distinct
    # contracted components to disjoint sets
    m, q = 1, 3
    fam = scaled_shannon_family(CFG3, m)
    for k in range(1, 4):
        for kp in range(k + 1, 5):
            t = coset_rep(CFG3, k * q ** m)
            tp = coset_rep(CFG3, kp * q ** m)
            for W in fam:
                assert W.translate(t).intersect(W.translate(tp)).is_empty()


def test_shell_tuple():
    assert shell_tuple(CFG2, 1) == [shell(CFG2, 1)]
    for cfg in (CFG2, CFG3):
        for n in (1, 2, 3):
            tup = shell_tuple(cfg, n)
            assert verify_superwavelet(tup, "parseval").passed
            assert not verify_superwavelet(tup, "orthonormal").passed


def test_scaling_sets_certified():
    for cfg in (CFG2, CFG3, CFG4):
        W = union(shannon_family(cfg))
        S, certified = scaling_set(W, 6)
        assert certified and S == integers(cfg)
        assert S.measure() == W.measure() / (cfg.q - 1) == 1
    for m in (1, 2, 3):
        S, certified = scaling_set(shell_wavelet(CFG2, m), 6)
        assert certified and S == fractional_ideal(CFG2, m + 1)
        assert S.measure() == Fraction(2) ** -(m + 1)
    for m in (1, 2):
        S, certified = scaling_set(union(scaled_shannon_family(CFG3, m)), 6)
        assert certified and S.measure() == Fraction(3) ** -m


def test_scaling_set_requires_dilation_tiling():
    with pytest.raises(ValueError):
        scaling_set(integers(CFG2), 4)


def test_tower_audit_measures():
    for cfg in (CFG2, CFG3):
        q = cfg.q
        for n in (2, 3):
            comps = tower_components(cfg, n)
            printed = tower_audit(comps, tower_printed_target(cfg, n))
            assert printed["joint_fold_measure"] == \
                1 + Fraction(q - 1) * Fraction(q) ** (1 - n)
            assert not printed["tiling_possible"]
            corrected = tower_audit(comps, tower_corrected_target(cfg, n))
            assert corrected["joint_fold_measure"] == 1
            assert corrected["tiling_possible"]


def test_solver_degenerate_instance_is_sat_and_reverified():
    res = solve_complement([], shells=(-1, -1), max_scale=0, config=CFG2)
    assert res.status == "sat"
    expect = integers(CFG2).translate(coset_rep(CFG2, 1))
    assert res.complement == expect
    assert verify_superwavelet([res.complement], "orthonormal").passed


def test_solver_parity_certificate_for_odd_q():
    # odd q tower targets have an odd canonical ball count, so the double
    # cover is impossible at every resolution, no search needed
    for n in (2, 3):
        comps = tower_components(CFG3, n)
        res = solve_complement(comps, shells=(-3, 3), max_scale=5)
        assert res.status == "unsat"
        assert res.certificate["kind"] == "parity"
        assert "nodes" not in res.stats


def test_solver_exhausts_even_q_tower_at_stated_resolution():
    for n in (2, 3):
        comps = tower_components(CFG2, n)
        res = solve_complement(comps, shells=(-3, 3), max_scale=5)
        assert res.status == "unsat"
        assert res.certificate["kind"] == "exhausted"
        assert res.stats["nodes"] > 0


def test_solver_node_cap_reported_distinctly():
    comps = tower_components(CFG2, 2)
    res = solve_complement(comps, shells=(-3, 3), max_scale=5, node_cap=10)
    assert res.status == "cap"
    assert res.complement is None
    assert res.stats["node_cap"] == 10


def test_solver_preconditions():
    with pytest.raises(ValueError):
        solve_complement([integers(CFG2)], shells=(-2, 2), max_scale=3)
    with pytest.raises(ValueError):
        solve_complement([], shells=(-1, 1), max_scale=2)  # no field given
    with pytest.raises(ValueError):
        solve_complement([units(CFG2)], shells=(1, -1), max_scale=2)
    # full multiwavelet set leaves no complement to solve for
    with pytest.raises(ValueError):
        solve_complement(shannon_family(CFG2), shells=(-1, 1), max_scale=2)


def test_solver_result_serialization():
    res = solve_complement([], shells=(-1, -1), max_scale=0, config=CFG2)
    js = res.as_json()
    assert js["status"] == "sat"
    assert js["complement"] == [{"center": "p^-1", "scale": 0}]


def test_solver_rejects_family_whose_joint_translates_collide():
    for cfg in (CFG2, CFG3):
        with pytest.raises(ValueError, match="'existing-joint-packing', 'status': 'fail'"):
            solve_complement([units(cfg), units(cfg)], (0, 1), 2)
