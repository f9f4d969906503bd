"""Finite frequency-window oracle: affine coefficients, exact Parseval
residuals (cross-checked against direct coefficient enumeration), direct-sum
residuals, Gram entries, and the batched mesh-delta path."""

import random
from fractions import Fraction

import pytest

from lfwave.clopen import Ball, ClopenSet, fractional_ideal, integers, shell, units
from lfwave.construct import shannon_family, shell_tuple
from lfwave.cyclo import CycloScalar
from lfwave.framesim import (
    FiniteModel,
    WindowEscape,
    _k_sum,
    affine_coef,
    gram_entry,
    mesh_delta_residuals,
    parseval_residual,
    super_parseval_residual,
    truncation_spot_check,
)
from lfwave.gfq import FieldConfig
from lfwave.lfield import FieldElement, coset_rep, parse_element
from lfwave.stepfn import StepFunction, common_refinement

CFG2 = FieldConfig(2, 1)
CFG3 = FieldConfig(3, 1)
CFG4 = FieldConfig(2, 2)
CFG5 = FieldConfig(5, 1)


def rat(cfg, x, grade=0):
    return CycloScalar.rational(cfg.p, cfg.q, x, grade)


def ind(W, value=None):
    return StepFunction.indicator(W) if value is None else \
        StepFunction.indicator(W, value)


def shannon_spectra(cfg):
    return [ind(W) for W in shannon_family(cfg)]


def shell_bounds(f):
    vals = [b.center.valuation() for b, _ in f.cells if not b.contains_zero()]
    return min(vals), max(vals)


def energy_by_enumeration(cfg, f, psis):
    """Direct finite (j, k) enumeration; valid when f carries no cell at
    zero, so only finitely many dilation levels meet the support of f."""
    flo, fhi = shell_bounds(f)
    total = CycloScalar.zero(cfg.p, cfg.q)
    for psi in psis:
        pa, pb = shell_bounds(psi)
        for j in range(pa - fhi, pb - flo + 1):
            mesh = common_refinement(cfg, [f, psi.precompose(-j)])
            sigma = max(b.scale for b in mesh)
            for k in range(cfg.q ** max(j + sigma, 0)):
                c = affine_coef(f, psi, j, k)
                total = total + c.abs_sq().reduce_grade()
    return total


def test_affine_coef_examples():
    psi = ind(integers(CFG2).translate(coset_rep(CFG2, 1)))
    assert affine_coef(psi, psi, 0, 0) == rat(CFG2, 1)
    assert affine_coef(psi, psi, 0, 1).is_zero()
    # disjoint supports: every coefficient at j = 0 vanishes
    f = ind(integers(CFG2))
    for k in range(4):
        assert affine_coef(f, psi, 0, k).is_zero()


def test_affine_coef_against_riemann_sum_oracle():
    # brute-force the defining integral on a fine common mesh, evaluating
    # the character at cell centers (it is constant on fine enough cells)
    cfg = CFG2
    psi = ind(units(cfg))
    f = StepFunction(cfg, [
        (Ball(cfg, FieldElement.one(cfg), 2), rat(cfg, Fraction(1, 2))),
        (Ball(cfg, coset_rep(cfg, 1), 1), CycloScalar.zeta_pow(2, 2, 1)),
    ])
    from lfwave.lfield import character
    for j in (-1, 0, 1):
        for k in range(6):
            psi_j = psi.precompose(-j)
            y = coset_rep(cfg, k).scale_exponents(j)
            fine = max(4, -min(y.valuation(), 0) + 1) if y else 4
            total = CycloScalar.zero(cfg.p, cfg.q)
            for cell in common_refinement(cfg, [f, psi_j]):
                for a in cell.split_to(fine):
                    v = f.evaluate(a.center) * psi_j.evaluate(a.center).conj()
                    if v.is_zero():
                        continue
                    total = total + v * character(y, a.center) * \
                        rat(cfg, a.measure())
            assert affine_coef(f, psi, j, k) == total.q_half_shift(-j)


def test_parseval_residual_shannon_examples():
    model = FiniteModel(CFG2, 3, 3)
    psis = shannon_spectra(CFG2)
    res, bounds = parseval_residual(model, psis, ind(integers(CFG2)))
    assert res.is_zero()
    assert any("j_tail" in key for key in bounds)
    res, _ = parseval_residual(model, psis, ind(shell(CFG2, 1)))
    assert res.is_zero()
    model3 = FiniteModel(CFG3, 2, 2)
    res, _ = parseval_residual(model3, shannon_spectra(CFG3),
                               ind(units(CFG3), CycloScalar.zeta_pow(3, 3, 1)))
    assert res.is_zero()


def test_parseval_residual_detects_deficient_family():
    # halving the analyzing spectrum quarters the energy:
    # residual = 1/2 - (1/4) * (1/2) = 3/8
    model = FiniteModel(CFG2, 3, 3)
    half = [ind(units(CFG2), rat(CFG2, Fraction(1, 2)))]
    res, _ = parseval_residual(model, half, ind(units(CFG2)))
    assert res == rat(CFG2, Fraction(3, 8))


def test_collapsed_ksum_matches_direct_enumeration():
    rng = random.Random(41)
    model = FiniteModel(CFG2, 2, 2)
    psis = shannon_spectra(CFG2)
    window_off_zero = fractional_ideal(CFG2, -2).subtract(
        fractional_ideal(CFG2, 2))
    for trial in range(12):
        f = model.random_step(rng, n_cells=4)
        # drop any zero-charged cell so the enumeration oracle is finite
        f = StepFunction(CFG2, [(b, v) for b, v in f.cells
                                if not b.contains_zero()])
        if not f.cells:
            continue
        res, _ = parseval_residual(model, psis, f)
        norm = CycloScalar.zero(2, 2)
        for b, v in f.cells:
            norm = norm + v.abs_sq().reduce_grade() * rat(CFG2, b.measure())
        assert norm - energy_by_enumeration(CFG2, f, psis) == res
        assert res.is_zero()  # the family is Parseval
        assert window_off_zero.contains_set(f.support())


def test_nonparseval_residuals_match_enumeration_too():
    model = FiniteModel(CFG2, 2, 2)
    psis = [ind(shell(CFG2, 1), rat(CFG2, Fraction(1, 2)))]
    f = ind(units(CFG2))
    res, _ = parseval_residual(model, psis, f)
    norm = rat(CFG2, Fraction(1, 2))
    assert res == norm - energy_by_enumeration(CFG2, f, psis)
    assert res.is_rational() and res.as_fraction() == Fraction(3, 8)


def test_residuals_are_rational():
    rng = random.Random(42)
    model = FiniteModel(CFG3, 2, 2)
    psis = shannon_spectra(CFG3)
    for _ in range(10):
        f = model.random_step(rng, n_cells=3)
        res, _ = parseval_residual(model, psis, f)
        assert res.is_rational()


def test_window_escape():
    model = FiniteModel(CFG2, 1, 1)
    with pytest.raises(WindowEscape):
        parseval_residual(model, shannon_spectra(CFG2),
                          ind(fractional_ideal(CFG2, -2)))
    with pytest.raises(WindowEscape):
        # test functions must live on the model mesh
        parseval_residual(model, shannon_spectra(CFG2), ind(shell(CFG2, 2)))
    # analyzing spectra only need window support, not mesh alignment:
    # the scale-3 cells of this spectrum are finer than the scale-1 mesh
    res, _ = parseval_residual(model, [ind(shell(CFG2, 2))],
                               ind(fractional_ideal(CFG2, 1)))
    assert res.is_zero()
    with pytest.raises(ValueError):
        parseval_residual(model, [ind(integers(CFG2))], ind(units(CFG2)))


def test_gram_entries():
    etas = shannon_spectra(CFG2)
    for a in ((0, 0), (1, 0), (-1, 2), (0, 3)):
        for b in ((0, 0), (1, 0), (-1, 2), (0, 3)):
            got = gram_entry(etas, a, b)
            if a == b:
                assert got.reduce_grade() == rat(CFG2, 1)
            else:
                assert got.is_zero()
    # direct-sum tuple: diagonal is the summed measure, off-diagonal zero
    tup = [ind(W) for W in shell_tuple(CFG2, 2)]
    assert gram_entry(tup, (0, 0), (0, 0)) == rat(CFG2, Fraction(3, 8))
    # u(1) translation acts trivially this deep inside the integers, so the
    # off-diagonal entry is again the summed measure: Parseval, never
    # orthonormal
    assert gram_entry(tup, (0, 0), (0, 1)) == rat(CFG2, Fraction(3, 8))
    # dilation offsets separate the slot supports
    assert gram_entry(tup, (0, 0), (1, 0)).is_zero()


def test_super_parseval_residual():
    for cfg in (CFG2, CFG3):
        # the deepest slot (p^3 O*) needs scale-4 mesh cells
        model = FiniteModel(cfg, 3, 4)
        for n in (2, 3):
            etas = [ind(W) for W in shell_tuple(cfg, n)]
            fs = [ind(W) for W in shell_tuple(cfg, n)]
            assert super_parseval_residual(model, etas, fs).is_zero()
            # per-slot mesh deltas, one activated slot at a time
            atom = next(iter(model.atoms()))
            delta = ind(ClopenSet.from_ball(atom))
            zero_fn = StepFunction(cfg, [])
            for i in range(n):
                fs = [delta if j == i else zero_fn for j in range(n)]
                assert super_parseval_residual(model, etas, fs).is_zero()
    with pytest.raises(ValueError):
        super_parseval_residual(FiniteModel(CFG2, 1, 1),
                                [ind(units(CFG2))], [])


def test_super_residual_matches_single_slot_case():
    model = FiniteModel(CFG2, 2, 2)
    rng = random.Random(43)
    psis = [ind(shell(CFG2, 1))]
    for _ in range(5):
        f = model.random_step(rng, n_cells=3)
        res, _ = parseval_residual(model, psis, f)
        assert super_parseval_residual(model, psis, [f]) == res


def test_mesh_delta_residuals_match_general_path():
    for cfg, R, S in ((CFG2, 2, 2), (CFG3, 1, 1), (CFG4, 1, 1)):
        model = FiniteModel(cfg, R, S)
        z = CycloScalar.zeta_pow(cfg.p, cfg.q, 1)
        half = rat(cfg, Fraction(1, 2))
        families = [
            (shannon_spectra(cfg), False),
            ([ind(shell(cfg, 1))], False),
            ([ind(units(cfg), half)], True),
            # cyclotomic values off the unit circle
            ([ind(shell(cfg, 1), z + half), ind(shell(cfg, -1), z)], True),
            # cells finer than the mesh, inside atoms away from zero
            ([StepFunction(cfg, [
                (Ball(cfg, FieldElement.one(cfg), S + 1), z),
                (Ball(cfg, parse_element(cfg, f"p^-1 + p^{S}"), S + 2), half),
            ])], True),
        ]
        for psis, deficient in families:
            batched = mesh_delta_residuals(model, psis)
            assert [atom for atom, _ in batched] == list(model.atoms())
            assert len(batched) == cfg.q ** (R + S)
            for atom, res in batched:
                delta = ind(ClopenSet.from_ball(atom))
                direct, _ = parseval_residual(model, psis, delta)
                assert res == direct
            assert any(not res.is_zero() for _, res in batched) == deficient


# ---------------------------------------------------------------------------
# Kernels against their enumerating forms
# ---------------------------------------------------------------------------

WINDOWS = ((0, 0), (1, 0), (0, 2), (2, 1), (3, 2))


def test_atom_index_decodes_the_atoms_order():
    for cfg in (CFG2, CFG3, CFG4, CFG5):
        for R, S in WINDOWS:
            model = FiniteModel(cfg, R, S)
            atoms = list(model.atoms())
            assert len(atoms) == cfg.q ** (R + S)
            for i, atom in enumerate(atoms):
                got = model._atom(i)
                assert got == atom and got.sort_key() == atom.sort_key()


def reference_random_step(model, rng, n_cells=5):
    """random_step as a sample of the enumerated atom list."""
    cfg = model.config
    atoms = list(model.atoms())
    cells = []
    for a in rng.sample(atoms, min(n_cells, len(atoms))):
        while True:
            coeffs = [Fraction(rng.randrange(-2, 3)) for _ in range(cfg.p - 1)]
            if any(coeffs):
                break
        cells.append((a, CycloScalar(cfg.p, cfg.q, coeffs)))
    return StepFunction(cfg, cells)


def test_random_step_matches_sampling_the_atom_list():
    for cfg in (CFG2, CFG3, CFG4, CFG5):
        for R, S in ((0, 0), (1, 0), (0, 2), (2, 1)):
            model = FiniteModel(cfg, R, S)
            for seed in range(12):
                for k in (0, 1, 2, 3, 5, 17, 40):
                    rng, ref = random.Random(seed), random.Random(seed)
                    got = model.random_step(rng, k)
                    want = reference_random_step(model, ref, k)
                    assert repr(got) == repr(want)
                    assert rng.getstate() == ref.getstate()


def pair_sum_k_sum(config, j, cells):
    """The collapsed k-sum in its O(n**2) pair-sum form: level n pairs two
    cells when p^j (b1 - b2) has no digits at exponents 0..n-1."""
    zero = CycloScalar.zero(config.p, config.q)
    q = config.q
    if not cells:
        return zero

    def vanishes_on(x, n):
        return all(e < 0 or e >= n for e in x.digits)

    def pair_sum(n, active):
        acc = zero
        for b1, _, t1 in active:
            for b2, _, t2 in active:
                if vanishes_on((b1 - b2).scale_exponents(j), n):
                    acc = acc + (t1 * t2.conj()).reduce_grade()
        return acc

    l_max = max(j + s for _, s, _ in cells)
    total = pair_sum(0, cells)
    for L in range(1, max(l_max, 0) + 1):
        active = [c for c in cells if j + c[1] >= L]
        if not active:
            continue
        hi = rat(config, Fraction(q) ** L) * pair_sum(L, active)
        lo = rat(config, Fraction(q) ** (L - 1)) * pair_sum(L - 1, active)
        total = total + hi - lo
    return total


def random_k_cells(cfg, rng, j, n, grades):
    """n cells whose centers share a few digit prefixes at the exponents
    that p^j moves to 0, 1, 2, with cyclotomic values (some zero)."""
    prefixes = [{e: rng.randrange(cfg.q) for e in range(-j, -j + 3)} for _ in range(3)]
    cells = []
    for _ in range(n):
        digits = dict(rng.choice(prefixes))
        for e in range(-j - 2, -j + 5):
            if e not in digits or rng.random() < 0.2:
                digits[e] = rng.randrange(cfg.q)
        b = FieldElement(cfg, {e: cfg.from_index(d) for e, d in digits.items()})
        if rng.random() < 0.1:
            t = CycloScalar.zero(cfg.p, cfg.q)
        else:
            coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(cfg.p - 1)]
            t = CycloScalar(cfg.p, cfg.q, coeffs, rng.choice(grades))
        cells.append((b, rng.randint(-j - 1, -j + 5), t))
    return cells


def test_k_sum_matches_pair_sum():
    rng = random.Random(20151123)
    for cfg in (CFG2, CFG3, CFG4, CFG5):
        for j in range(-2, 4):
            for grades in ((0,), (1,), (-3,), (0, 2, -2)):
                for n in (1, 2, 5, 12):
                    cells = random_k_cells(cfg, rng, j, n, grades)
                    assert _k_sum(cfg, j, cells) == pair_sum_k_sum(cfg, j, cells)
            cells = [c for c in random_k_cells(cfg, rng, j, 6, (1,)) if not c[2].is_zero()]
            cells += random_k_cells(cfg, rng, j, 6, (2,))
            with pytest.raises(ValueError, match="odd half-grade"):
                pair_sum_k_sum(cfg, j, cells)
            with pytest.raises(ValueError, match="odd half-grade"):
                _k_sum(cfg, j, cells)
    assert _k_sum(CFG2, 0, []).is_zero()


def test_truncation_spot_check():
    model = FiniteModel(CFG2, 2, 2)
    f = ind(units(CFG2))
    assert truncation_spot_check(model, shannon_spectra(CFG2), f)
    assert truncation_spot_check(model, [ind(shell(CFG2, 2))], f, samples=5)
