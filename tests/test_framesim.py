"""Finite frequency-window oracle: affine coefficients, exact Parseval
residuals (cross-checked against direct coefficient enumeration), direct-sum
residuals, Gram entries, the batched mesh-delta path, and a pinned corpus
of their outputs."""

import hashlib
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

import lfwave.framesim as fs

from lfwave.clopen import Ball, ClopenSet, fractional_ideal, integers, shell, units
from lfwave.construct import scaled_shannon_family, shannon_family, shell_tuple, shell_wavelet
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
from lfwave.gfq import ConfigMismatch, FieldConfig
from lfwave.lfield import FieldElement, character, coset_rep, parse_element
from lfwave.stepfn import StepFunction, common_refinement, shell_range

CFG2 = FieldConfig(2, 1)
CFG3 = FieldConfig(3, 1)
CFG4 = FieldConfig(2, 2)
CFG5 = FieldConfig(5, 1)


def rat(cfg, x):
    return CycloScalar.rational(cfg.p, cfg.q, x)


def ind(W, value=None):
    return StepFunction.indicator(W) if value is None else \
        StepFunction.indicator(W, value)


def shannon_spectra(cfg):
    return [ind(W) for W in shannon_family(cfg)]


def shell_bounds(f):
    vals = [b.center.valuation() for b, _ in f.cells if not b.contains_zero()]
    return min(vals), max(vals)


def energy_by_enumeration(cfg, f, psis):
    """Direct finite (j, k) enumeration of the energy of f against each psi
    in psis; valid when f carries no cell at zero."""
    return sum((tuple_energy_by_enumeration(cfg, [f], [psi]) for psi in psis),
               CycloScalar.zero(cfg.p, cfg.q))


def tuple_energy_by_enumeration(cfg, fs, etas):
    """The direct-sum energy by direct finite (j, k) enumeration: at each
    (j, k) the slots' affine coefficients are summed, then squared.  Valid
    when no f_i carries a cell at zero, so that each slot meets finitely
    many dilation levels, and beyond its mesh's cutoff in k each slot's
    coefficient vanishes."""
    k_ends = {}
    for f, eta in zip(fs, etas):
        if not f.cells:
            continue
        flo, fhi = shell_bounds(f)
        pa, pb = shell_bounds(eta)
        for j in range(pa - fhi, pb - flo + 1):
            sigma = max(b.scale for b, _ in common_refinement(cfg, [f, eta.precompose(-j)]))
            k_ends[j] = max(k_ends.get(j, 0), cfg.q ** max(j + sigma, 0))
    zero = CycloScalar.zero(cfg.p, cfg.q)
    total = zero
    for j, k_end in sorted(k_ends.items()):
        for k in range(k_end):
            c = sum((affine_coef(f, eta, j, k) for f, eta in zip(fs, etas)), zero)
            total = total + c.abs_sq()
    return total


def test_affine_coef_examples():
    psi = ind(integers(CFG2).translate(coset_rep(CFG2, 1)))
    assert affine_coef(psi, psi, 0, 0) == rat(CFG2, 1)
    assert affine_coef(psi, psi, 0, 1).is_zero()
    # disjoint supports: every coefficient at j = 0 vanishes
    f = ind(integers(CFG2))
    for k in range(4):
        assert affine_coef(f, psi, 0, k).is_zero()


def riemann_coef(f, psi, j, k):
    """<f, D^j T^k psi> brute-forced as a Riemann sum: every cell of the
    common mesh is split until the character is constant on it (scale at
    least -v(y), and at least 4), and the integrand is evaluated at the
    centers."""
    cfg = f.config
    psi_j = psi.precompose(-j)
    y = coset_rep(cfg, k).scale_exponents(j)
    fine = max(4, -min(y.valuation(), 0) + 1) if y else 4
    total = CycloScalar.zero(cfg.p, cfg.q)
    for cell, _ in common_refinement(cfg, [f, psi_j]):
        for a in cell.split_to(fine):
            v = f.evaluate(a.center) * psi_j.evaluate(a.center).conj()
            if v.is_zero():
                continue
            total = total + v * character(y, a.center) * rat(cfg, a.measure())
    return total.q_half_shift(-j)


def test_affine_coef_against_riemann_sum_oracle():
    cfg = CFG2
    psi = ind(units(cfg))
    f = StepFunction(cfg, [
        (Ball(cfg, FieldElement.one(cfg), 2), rat(cfg, Fraction(1, 2))),
        (Ball(cfg, coset_rep(cfg, 1), 1), CycloScalar.zeta_pow(2, 2, 1)),
    ])
    for j in (-1, 0, 1):
        for k in range(6):
            assert affine_coef(f, psi, j, k) == riemann_coef(f, psi, j, k)


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


def window_entry_points(model, psi, good):
    """Each framesim entry point that checks psi against the model window,
    as a thunk: psi as the test function or as the analyzer, next to the
    fitting spectrum good."""
    return [
        lambda: model.check(psi),
        lambda: model.check_analyzer(psi),
        lambda: parseval_residual(model, [psi], good),
        lambda: parseval_residual(model, [good], psi),
        lambda: super_parseval_residual(model, [psi], [good]),
        lambda: super_parseval_residual(model, [good], [psi]),
        lambda: mesh_delta_residuals(model, [psi]),
    ]


def test_window_escape_by_a_centre_digit():
    # ball(d p^-2, 3) has a fine scale but a centre digit below -R = -1,
    # so its support leaves p^-1 O although its scale does not
    for cfg in (CFG2, CFG3, CFG4):
        model = FiniteModel(cfg, 1, 3)
        good = ind(units(cfg))
        for d in range(1, cfg.q):
            bad = ind(ClopenSet.from_ball(Ball(cfg, FieldElement.monomial(cfg, d, -2), 3)))
            for call in window_entry_points(model, bad, good):
                with pytest.raises(WindowEscape, match=r"^support escapes p\^-1 O$"):
                    call()
            # a digit at -R itself stays inside
            edge = ind(ClopenSet.from_ball(Ball(cfg, FieldElement.monomial(cfg, d, -1), 3)))
            assert model.check(edge) is edge and model.check_analyzer(edge) is edge


def test_spectrum_over_another_field_is_refused():
    # GF(9) under two moduli: same q, another configuration
    gf9, gf9b = FieldConfig(3, 2), FieldConfig(3, 2, (2, 1, 1))
    for cfg, other in ((CFG2, CFG3), (CFG3, CFG2), (CFG4, CFG2), (gf9, gf9b)):
        model = FiniteModel(cfg, 1, 3)
        foreign = ind(units(other))
        for call in window_entry_points(model, foreign, ind(units(cfg))):
            with pytest.raises(ConfigMismatch, match="^sets from different field configurations$"):
                call()


def test_window_and_translation_index_are_checked():
    for R, S in ((-1, 0), (0, -1)):
        with pytest.raises(ValueError, match="window parameters must be non-negative"):
            FiniteModel(CFG2, R, S)
    psi = ind(units(CFG2))
    with pytest.raises(ValueError, match="translation index must be non-negative"):
        affine_coef(psi, psi, 0, -1)


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


def test_tuple_residuals_match_enumeration():
    # seeded tuples that are not Parseval: random analyzers, and 1-4 slots
    # of window functions away from zero; the collapsed direct-sum residual
    # equals the norms minus the enumerated energy, is mostly nonzero, and
    # on some tuples differs from the sum of the slots' own energies
    rng = random.Random(2025)
    nonzero = cross = 0
    for cfg in (CFG2, CFG3, CFG4):
        model = FiniteModel(cfg, 1, 1)
        for _ in range(4):
            n = rng.randint(1, 4)
            etas = [random_analyzer(cfg, rng, 1, 1, rng.randint(1, 3)) for _ in range(n)]
            fs = [StepFunction(cfg, [(b, v) for b, v in model.random_step(rng, 3).cells
                                     if not b.contains_zero()]) for _ in range(n)]
            norm = CycloScalar.zero(cfg.p, cfg.q)
            for f in fs:
                for b, v in f.cells:
                    norm = norm + v.abs_sq() * rat(cfg, b.measure())
            res = super_parseval_residual(model, etas, fs)
            assert res == norm - tuple_energy_by_enumeration(cfg, fs, etas)
            nonzero += not res.is_zero()
            cross += res != sum((super_parseval_residual(model, [eta], [f])
                                 for f, eta in zip(fs, etas)), CycloScalar.zero(cfg.p, cfg.q))
    assert nonzero >= 8 and cross >= 3, (nonzero, cross)


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
        for b1, t1 in active:
            for b2, t2 in active:
                if vanishes_on((b1.center - b2.center).scale_exponents(j), n):
                    acc = acc + (t1 * t2.conj()).reduce_grade()
        return acc

    l_max = max(j + b.scale for b, _ in cells)
    total = pair_sum(0, cells)
    for L in range(1, max(l_max, 0) + 1):
        active = [c for c in cells if j + c[0].scale >= L]
        if not active:
            continue
        hi = rat(config, Fraction(q) ** L) * pair_sum(L, active)
        lo = rat(config, Fraction(q) ** (L - 1)) * pair_sum(L - 1, active)
        total = total + hi - lo
    return total


def random_k_cells(cfg, rng, j, n, grades):
    """n (ball, value) cells whose centers share a few digit prefixes at the
    exponents that p^j moves to 0, 1, 2, with cyclotomic values (some zero)."""
    prefixes = [{e: rng.randrange(cfg.q) for e in range(-j, -j + 3)} for _ in range(3)]
    cells = []
    for _ in range(n):
        digits = dict(rng.choice(prefixes))
        for e in range(-j - 2, -j + 5):
            if e not in digits or rng.random() < 0.2:
                digits[e] = rng.randrange(cfg.q)
        b = FieldElement(cfg, digits)
        if rng.random() < 0.1:
            t = CycloScalar.zero(cfg.p, cfg.q)
        else:
            coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(cfg.p - 1)]
            t = CycloScalar(cfg.p, cfg.q, coeffs).q_half_shift(rng.choice(grades))
        cells.append((Ball(cfg, b, rng.randint(-j - 1, -j + 5)), t))
    return cells


def test_k_sum_matches_pair_sum():
    rng = random.Random(20151123)
    for cfg in (CFG2, CFG3, CFG4, CFG5):
        for j in range(-2, 4):
            for grades in ((0,), (1,), (-3,), (0, 2, -2)):
                for n in (1, 2, 5, 12):
                    cells = random_k_cells(cfg, rng, j, n, grades)
                    assert _k_sum(cfg, j, cells) == pair_sum_k_sum(cfg, j, cells)
                    if n == 1:
                        # the level weights telescope: the mesh sweep's closed form
                        (b, t), = cells
                        q_l = rat(cfg, Fraction(cfg.q) ** max(j + b.scale, 0))
                        assert _k_sum(cfg, j, cells) == q_l * t.abs_sq().reduce_grade()
            cells = [c for c in random_k_cells(cfg, rng, j, 6, (1,)) if not c[1].is_zero()]
            cells += random_k_cells(cfg, rng, j, 6, (2,))
            with pytest.raises(ValueError, match="odd half-grade"):
                pair_sum_k_sum(cfg, j, cells)
            with pytest.raises(ValueError, match="odd half-grade"):
                _k_sum(cfg, j, cells)
    assert _k_sum(CFG2, 0, []).is_zero()


def test_truncation_spot_check():
    # truncation_spot_check applies _character_sum's own valuation rule, so
    # the coefficients it samples beyond each cutoff are evaluated here again
    # as Riemann sums, and the coefficient just below some cutoff must not
    # vanish
    for cfg in (CFG2, CFG3):
        model = FiniteModel(cfg, 2, 2)
        z = CycloScalar.zeta_pow(cfg.p, cfg.q, 1)
        g = StepFunction(cfg, [
            (Ball(cfg, FieldElement.one(cfg), 2), rat(cfg, Fraction(1, 2))),
            (Ball(cfg, coset_rep(cfg, 1), 1), z),
        ])
        cases = [
            (shannon_spectra(cfg), ind(units(cfg)), 3),
            ([ind(shell(cfg, 2))], ind(units(cfg)), 5),
            ([ind(shell(cfg, 1), z), ind(shell(cfg, -1), rat(cfg, Fraction(1, 2)))], g, 3),
        ]
        for psis, f, samples in cases:
            assert truncation_spot_check(model, psis, f, samples)
            flo, fhi, _ = shell_range([f])
            tight = False
            for psi in psis:
                pa, pb, _ = shell_range([psi])
                for j in range(pa - fhi, pb - flo + 1):
                    mesh = [cell for cell, (a, b) in common_refinement(cfg, [f, psi.precompose(-j)])
                            if not (a.is_zero() or b.is_zero())]
                    if not mesh:
                        continue
                    k0 = cfg.q ** max(j + max(cell.scale for cell in mesh), 0)
                    for k in range(k0, k0 + samples):
                        assert riemann_coef(f, psi, j, k).is_zero()
                    tight = tight or not riemann_coef(f, psi, j, k0 - 1).is_zero()
            assert tight


# ---------------------------------------------------------------------------
# The cached mesh sweep against the per-atom loop
# ---------------------------------------------------------------------------


def reference_mesh_delta_residuals(model, psis):
    """mesh_delta_residuals as a plain per-atom loop: one k-sum per (atom,
    layer) hit, each atom's cells built afresh."""
    cfg = model.config
    S = model.S
    q = Fraction(cfg.q)
    layers = []
    for psi in psis:
        model.check_analyzer(psi)
        fs._check_away_from_zero(psi)
        if not psi.cells:
            continue
        pa, pb, _ = shell_range([psi])
        for j in range(pa - (model.R + S), pb + model.R + 1):
            coarse, fine = {}, {}
            for ball, v in psi.precompose(-j).cells:
                if ball.scale <= S:
                    coarse[ball.sort_key()] = v.conj()
                else:
                    fine.setdefault(ball.ancestor_key(S), []).append((ball, v.conj()))
            layers.append((j, coarse, sorted({s for s, _ in coarse}), fine))
    out = []
    for a in model.atoms():
        if a.contains_zero():
            residual, _ = parseval_residual(model, psis, ind(ClopenSet.from_ball(a)))
            out.append((a, residual))
            continue
        residual = rat(cfg, q ** (-S))
        for j, coarse, scales, fine in layers:
            for s in scales:
                v = coarse.get(a.ancestor_key(s))
                if v is not None:
                    entries = [(a, v)]
                    break
            else:
                entries = fine.get(a.sort_key())
                if not entries:
                    continue
            cells = [(b, v * rat(cfg, q ** (-b.scale))) for b, v in entries]
            residual = residual - rat(cfg, q ** (-j)) * fs._k_sum(cfg, j, cells)
        out.append((a, residual))
    return out


def random_analyzer(cfg, rng, R, S, n):
    """n disjoint balls away from zero inside p^-R O, at scales -R+1..S+2
    (so some are finer than the mesh), valued on a small cyclotomic lattice,
    some at half-grade 2."""
    balls = []
    while len(balls) < n:
        s = rng.randint(-R + 1, S + 2)
        digits = {e: rng.randrange(cfg.q) for e in range(-R, s)}
        b = Ball(cfg, FieldElement(cfg, digits), s)
        if not b.contains_zero() and all(b.is_disjoint(c) for c in balls):
            balls.append(b)
    cells = []
    for b in balls:
        coeffs = [0] * (cfg.p - 1)
        while not any(coeffs):
            coeffs = [Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in coeffs]
        cells.append((b, CycloScalar(cfg.p, cfg.q, coeffs).q_half_shift(rng.choice((0, 0, 2)))))
    return StepFunction(cfg, cells)


def mesh_families(cfg, S, rng):
    z = CycloScalar.zeta_pow(cfg.p, cfg.q, 1)
    half = rat(cfg, Fraction(1, 2))
    families = [
        shannon_spectra(cfg),
        [ind(units(cfg), half)],  # not Parseval
        [ind(shell(cfg, 1), z + half), ind(shell(cfg, -1), z)],  # zeta-valued
        # cells finer than the mesh, inside atoms away from zero
        [StepFunction(cfg, [
            (Ball(cfg, FieldElement.one(cfg), S + 1), z),
            (Ball(cfg, parse_element(cfg, f"p^-1 + p^{S}"), S + 2), half),
        ])],
        # layer j puts z on the shell(-j) balls that layer j+1 gives 1/2:
        # the same coarse keys in two layers, with different terms
        [StepFunction(cfg, [(b, z) for b in shell(cfg, 0).balls]
                      + [(b, half) for b in shell(cfg, 1).balls])],
        # half-grade +-1 values: the closed-form coarse energy at odd grades
        [ind(shell(cfg, 1), z.q_half_shift(1)), ind(shell(cfg, 2), half.q_half_shift(-1))],
    ]
    families += [[random_analyzer(cfg, rng, 1, S, rng.randint(2, 5))
                  for _ in range(rng.randint(1, 2))] for _ in range(4)]
    return families


def nested_chain(cfg, R, S, rng):
    """Spectra on nested balls no finer than the mesh, from a random half of
    the shell p^-R O* at its coarsest scale, each next one a random half of
    the sub-balls one or two scales finer: their dilates hold an atom at
    several coarse scales, some with a scale between them left empty."""
    chain, balls = [], list(shell(cfg, -R).balls)
    while balls[0].scale <= S:
        balls = rng.sample(balls, (len(balls) + 1) // 2)
        chain.append(StepFunction(cfg, [(b, CycloScalar.zeta_pow(
            cfg.p, cfg.q, rng.randrange(cfg.p)) * rat(cfg, Fraction(1, rng.randint(1, 3))))
            for b in balls]))
        depth = rng.randint(1, 2)
        balls = [c for b in balls for c in b.split_to(b.scale + depth)]
    return chain


def atom_hits(model, psis):
    """Per atom away from zero: the scales of the coarse cells (of scale <=
    S) of all layers that hold it, and whether finer cells lie in it."""
    S = model.S
    coarse, hosts = {}, set()
    for psi in psis:
        pa, pb, _ = shell_range([psi])
        for j in range(pa - (model.R + S), pb + model.R + 1):
            for b, _ in psi.precompose(-j).cells:
                if b.scale <= S:
                    coarse.setdefault(b.scale, set()).add(b.sort_key())
                else:
                    hosts.add(b.ancestor_key(S))
    return [([s for s in sorted(coarse) if a.ancestor_key(s) in coarse[s]],
             a.sort_key() in hosts) for a in model.atoms() if not a.contains_zero()]


def test_mesh_sweep_matches_per_atom_reference():
    # an atom's coarse residual is one table entry holding the energies of
    # its whole chain of coarse hits: atoms with hits at three or more
    # scales, with a scale skipped in the chain, with coarse and fine hits,
    # and with no hit at all must all match the per-atom loop
    rng = random.Random(20151124)
    seen = Counter()
    for cfg in (CFG2, CFG3, CFG4, CFG5):
        for R, S in ((1, 1), (2, 1), (1, 2)):
            if cfg.q ** (R + S) > 125:
                continue
            model = FiniteModel(cfg, R, S)
            # the shell p^-R O*: at R >= 2 a layer j < -S has cells no finer
            # than the mesh, whose closed-form energy takes q**max(j+S, 0) = 1
            for psis in mesh_families(cfg, S, rng) + [[ind(shell(cfg, -R))]] + [
                    nested_chain(cfg, R, S, rng) for _ in range(3)]:
                want = reference_mesh_delta_residuals(model, psis)
                assert repr(mesh_delta_residuals(model, psis)) == repr(want)
                for hit, fine in atom_hits(model, psis):
                    seen["three scales"] += len(hit) >= 3
                    seen["skipped scale"] += any(t - s > 1 for s, t in zip(hit, hit[1:]))
                    seen["coarse and fine"] += bool(hit) and fine
                    seen["no hit"] += not (hit or fine)
    assert min(seen.values()) >= 40 and len(seen) == 4, seen


class AtomSlice(FiniteModel):
    """The window model restricted to a fixed list of its mesh atoms."""

    def __init__(self, base, atoms):
        super().__init__(base.config, base.R, base.S)
        self.slice = atoms

    def atoms(self):
        return iter(self.slice)


def fine_hosts(model, psis):
    """Sort keys of the atoms holding a dilated cell finer than the mesh."""
    hosts = set()
    for psi in psis:
        pa, pb, _ = shell_range([psi])
        for j in range(pa - (model.R + model.S), pb + model.R + 1):
            hosts.update(b.ancestor_key(model.S) for b, _ in psi.precompose(-j).cells
                         if b.scale > model.S)
    return hosts


def test_sliced_mesh_sweep_matches_full_sweep():
    # every 7th atom from each offset, as a mesh check slices the window,
    # and the empty slice; the residual caches start afresh in each slice
    rng = random.Random(16)
    fine_atoms = 0
    for cfg, R, S in ((CFG2, 3, 3), (CFG3, 2, 2), (CFG4, 1, 2), (CFG5, 1, 1)):
        model = FiniteModel(cfg, R, S)
        atoms = list(model.atoms())
        for psis in mesh_families(cfg, S, rng):
            full = mesh_delta_residuals(model, psis)
            hosts = fine_hosts(model, psis)
            for i in range(7):
                part = mesh_delta_residuals(AtomSlice(model, atoms[i::7]), psis)
                assert repr(part) == repr(full[i::7]), (cfg, i)
                fine_atoms += sum(a.sort_key() in hosts for a, _ in part)
            assert mesh_delta_residuals(AtomSlice(model, []), psis) == []
    assert fine_atoms >= 100


def test_mesh_sweep_k_sum_calls(monkeypatch):
    calls = []
    k_sum = fs._k_sum

    def counted(config, j, cells):
        calls.append(len(cells))
        return k_sum(config, j, cells)

    monkeypatch.setattr(fs, "_k_sum", counted)
    cfg = CFG3
    model = FiniteModel(cfg, 2, 2)
    psis = mesh_families(cfg, 2, random.Random(7))[3] + shannon_spectra(cfg)
    # 22 layers: 4 k-sums for the zero atom's general path and one per fine
    # hit (6); a coarse hit's energy is in closed form and takes none
    mesh_delta_residuals(model, psis)
    assert len(calls) == 4 + 6
    # the per-atom loop takes one per (atom, layer) hit (90) instead
    calls.clear()
    reference_mesh_delta_residuals(model, psis)
    assert len(calls) == 4 + 90


def test_mesh_atoms_are_key_only_balls():
    """The q = 5, R = S = 3 mesh (15,625 atoms) holds each atom as its key:
    no centre is built, and the list stays under 300 bytes per atom."""
    model = FiniteModel(FieldConfig(5, 1), 3, 3)
    tracemalloc.start()
    try:
        atoms = list(model.atoms())
        used, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(atoms) == 5 ** 6
    assert all(a._center is None for a in atoms)
    assert used / len(atoms) < 300


# ---------------------------------------------------------------------------
# A pinned framesim corpus
# ---------------------------------------------------------------------------


def stock_spectra(cfg):
    """The stock families as spectra: Shannon, the shells p^m O* and the
    contracted Shannon families, m = 1, 2."""
    return [shannon_spectra(cfg)] + [
        [ind(W) for W in fam] for m in (1, 2)
        for fam in ([shell_wavelet(cfg, m)], scaled_shannon_family(cfg, m))]


def framesim_corpus():
    """Seeded framesim outputs as (kind, output): mesh-delta residuals over
    full R = S = 2 windows of the stock and mesh-test families, Parseval
    residuals with their bounds and truncation spot checks on random window
    functions, direct-sum residuals of shell tuples against random slots,
    and a grid of Gram entries, at q = 2, 3, 4, 5."""
    rng = random.Random(2027)
    for cfg in (CFG2, CFG3, CFG4, CFG5):
        model = FiniteModel(cfg, 2, 2)
        families = stock_spectra(cfg) + mesh_families(cfg, 2, rng)
        for psis in families:
            yield "mesh", mesh_delta_residuals(model, psis)
            for _ in range(3):
                f = model.random_step(rng, rng.randint(1, 4))
                yield "parseval", parseval_residual(model, psis, f)
                yield "spot check", truncation_spot_check(model, psis, f, 2)
        # the shell tuples are Parseval; the random analyzers are not
        for etas in [[ind(W) for W in shell_tuple(cfg, n)] for n in (1, 2, 3)] + families[-2:]:
            slots = [model.random_step(rng, rng.randint(0, 3)) for _ in etas]
            yield "super", super_parseval_residual(model, etas, slots)
        grid = [(j, k) for j in (-1, 0, 1, 2) for k in range(cfg.q + 1)]
        for etas in (shannon_spectra(cfg), [ind(W) for W in shell_tuple(cfg, 2)]):
            yield "gram", [gram_entry(etas, a, b) for a in grid for b in grid]


def test_framesim_corpus_is_pinned():
    # exact residuals, bounds and Gram entries that must not change with a
    # faster code path: one sha256 over every output's repr, NUL-separated
    digest, count, nonzero = hashlib.sha256(), Counter(), Counter()
    for kind, out in framesim_corpus():
        digest.update(repr(out).encode() + b"\0")
        count[kind] += 1
        if kind == "mesh":
            nonzero[kind] += sum(not r.is_zero() for _, r in out)
        elif kind in ("parseval", "super"):
            nonzero[kind] += not (out[0] if kind == "parseval" else out).is_zero()
    assert count == {"mesh": 60, "parseval": 180, "spot check": 180, "super": 20, "gram": 8}
    assert nonzero["mesh"] >= 5000 and nonzero["parseval"] >= 50 and nonzero["super"] >= 5
    assert digest.hexdigest() == \
        "379f94d3283d6f5a50764d0370af66d83e1104941999d1dfcd705598aec5a6d4"
