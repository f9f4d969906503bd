"""Brute-force frequency-domain oracle on a finite window.

Everything is computed from spectra: an affine-system coefficient is an
integral of step functions against a character, and the integral of the
character over a ball is exact (the character either averages to zero or is
constant).  Sums over the translation index collapse by character
orthogonality over the group of representatives of bounded length, and the
infinite dilation tail over a zero-neighborhood cell is a geometric series
in exact rationals, so Parseval defects carry no truncation error at all.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .clopen import Ball, ClopenSet, fractional_ideal
from .cyclo import CycloScalar
from .gfq import FieldConfig
from .lfield import FieldElement, character, coset_rep
from .stepfn import StepFunction, common_refinement


class WindowEscape(ValueError):
    """A spectrum does not fit the model window (never silently truncated)."""


class FiniteModel:
    """Window of spectra supported in p**-R * O and constant on balls of
    scale S; the mesh of the q**(R+S) scale-S balls spans the model."""

    def __init__(self, config: FieldConfig, R: int, S: int):
        if R < 0 or S < 0:
            raise ValueError("window parameters must be non-negative")
        self.config = config
        self.R = R
        self.S = S
        self.window = fractional_ideal(config, -R)

    def check(self, f: StepFunction) -> StepFunction:
        if not self.window.contains_set(f.support()):
            raise WindowEscape(f"support escapes p^-{self.R} O")
        if any(b.scale > self.S for b, _ in f.cells):
            raise WindowEscape(f"cells finer than the scale-{self.S} mesh")
        return f

    def check_analyzer(self, psi: StepFunction) -> StepFunction:
        """Analyzing spectra only need bounded support inside the window;
        the energy sums are exact at any cell fineness."""
        if not self.window.contains_set(psi.support()):
            raise WindowEscape(f"support escapes p^-{self.R} O")
        return psi

    def atoms(self):
        for b in self.window.balls:
            yield from b.split_to(self.S)

    def _atom(self, i: int) -> Ball:
        """The i-th atom in the order of atoms(): the base-q digits of i, most
        significant first, at exponents -R..S-1."""
        cfg = self.config
        q = cfg.q
        digits = {}
        for e in range(-self.R, self.S):
            d = i // q ** (self.S - 1 - e) % q
            if d:
                digits[e] = cfg.from_index(d)
        return Ball(cfg, FieldElement(cfg, digits), self.S)

    def random_step(self, rng: random.Random, n_cells: int = 5) -> StepFunction:
        """Seeded random window function: distinct mesh atoms with nonzero
        cyclotomic values on a small rational lattice.  The atoms are drawn
        by index, which picks the same atoms as sampling the list atoms()."""
        cfg = self.config
        n = cfg.q ** (self.R + self.S)
        cells = []
        for i in rng.sample(range(n), min(n_cells, n)):
            while True:
                coeffs = [Fraction(rng.randrange(-2, 3)) for _ in range(cfg.p - 1)]
                if any(coeffs):
                    break
            cells.append((self._atom(i), CycloScalar(cfg.p, cfg.q, coeffs)))
        return StepFunction(cfg, cells)


def _rat(cfg, x) -> CycloScalar:
    return CycloScalar.rational(cfg.p, cfg.q, x)


def _check_away_from_zero(psi: StepFunction):
    if any(b.contains_zero() for b, _ in psi.cells):
        raise ValueError("analyzing spectrum charged at zero: dilation sum diverges")


def _norm_sq(f: StepFunction) -> CycloScalar:
    cfg = f.config
    total = CycloScalar.zero(cfg.p, cfg.q)
    for b, v in f.cells:
        total = total + v.abs_sq().reduce_grade() * _rat(cfg, b.measure())
    return total


def _shell_bounds(f: StepFunction):
    """(lowest, highest) shell index over cells not containing zero."""
    vals = [b.center.valuation() for b, _ in f.cells if not b.contains_zero()]
    return (min(vals), max(vals)) if vals else (None, None)


def _zero_cell(f: StepFunction):
    for b, v in f.cells:
        if b.contains_zero():
            return b, v
    return None


def _cell_products(a: StepFunction, b: StepFunction):
    """(cell, a(c) * conj(b(c))) over the common refinement of a and b, for
    the cells where neither value is zero; b is evaluated only where a is
    nonzero."""
    for cell in common_refinement(a.config, [a, b]):
        av = a.evaluate(cell.center)
        if av.is_zero():
            continue
        bv = b.evaluate(cell.center)
        if bv.is_zero():
            continue
        yield cell, av * bv.conj()


def _character_terms(a: StepFunction, b: StepFunction, y: FieldElement):
    """Per-cell terms of the integral of a * conj(b) * chi(y, .): exact,
    because the character is either constant on a refinement cell or
    averages to zero over it."""
    cfg = a.config
    vy = y.valuation()  # +inf for y = 0: the trivial character
    for cell, t in _cell_products(a, b):
        if vy < -cell.scale:
            continue  # character averages to zero over the cell
        yield t * character(y, cell.center) * _rat(cfg, cell.measure())


def affine_coef(f: StepFunction, psi: StepFunction, j: int, k: int) -> CycloScalar:
    """<f, D^j T^k psi> via Plancherel: the analyzing spectrum at xi is
    q**(-j/2) * conj(chi(u(k) p^j xi)) * psi^(p^j xi), and the character
    integrates exactly over each refinement cell (zero unless the character
    is constant on the cell)."""
    cfg = f.config
    if k < 0:
        raise ValueError("translation index must be non-negative")
    psi_j = psi.precompose(-j)  # xi -> psi^(p^j xi)
    y = coset_rep(cfg, k).scale_exponents(j)
    total = sum(_character_terms(f, psi_j, y), CycloScalar.zero(cfg.p, cfg.q))
    return total.q_half_shift(-j)


def _k_sum(config: FieldConfig, j: int, cells) -> CycloScalar:
    """Sum over all k >= 0 of |q**(j/2) * coef(j,k)|**2 where
    coef(j,k) = q**(-j/2) * sum over active cells of t * chi(u(k) p^j b).

    k = 0 activates every cell; a cell (b, s, t) is active for representative
    length L >= 1 (u(k) of absolute value q**L) iff L <= j + s.  Character
    sums over all representatives of length < N collapse:
    sum_k chi(u(k) z) = q**N when z has no digits at exponents 0..N-1, else
    0.  The result is the exact full k-sum, not a truncation.

    Addition is digitwise (no carries), so two cells pair up at level n
    exactly when p^j b1 and p^j b2 agree on their digits at exponents
    0..n-1, and the level-n pair sum is a sum over digit-prefix groups of
    |sum of t|**2.  Each group's integer weight is accumulated over all
    levels, and only the groups left with a nonzero weight are squared.
    """
    zero = CycloScalar.zero(config.p, config.q)
    q = config.q
    if not cells:
        return zero
    # mixed parities pair into odd grades, which reduce_grade refuses
    grades = [t.grade for _, _, t in cells if not t.is_zero()]
    odd = [g for g in grades if (g - grades[0]) % 2]
    if odd:
        raise ValueError(f"odd half-grade {grades[0] + odd[0]} cannot be reduced")
    l_max = max(max(j + s for _, s, _ in cells), 0)
    # the digit of p^j b at exponent n is the digit of b at exponent n - j
    keys = [tuple(b.digit(e).coords for e in range(-j, l_max - j)) for b, _, _ in cells]
    weights = {}

    def weigh(n, active, w):
        groups = {}
        for i in active:
            groups.setdefault(keys[i][:n], []).append(i)
        for members in groups.values():
            members = tuple(members)
            weights[members] = weights.get(members, 0) + w

    weigh(0, range(len(cells)), 1)  # the k = 0 term
    for L in range(1, l_max + 1):
        active = [i for i, (_, s, _) in enumerate(cells) if j + s >= L]
        if active:
            weigh(L, active, q ** L)
            weigh(L - 1, active, -q ** (L - 1))
    total = zero
    for members, w in weights.items():
        if not w:
            continue
        sums = {}  # per grade, so that mixed grades pair as in reduce_grade
        for i in members:
            t = cells[i][2]
            sums[t.grade] = sums[t.grade] + t if t.grade in sums else t
        for a in sums.values():
            for b in sums.values():
                total = total + _rat(config, w) * (a * b.conj()).reduce_grade()
    return total


def _coef_cells(f: StepFunction, psi_j: StepFunction):
    """Refinement cells (center, scale, t) entering the coefficient sum,
    with t = f(b) * conj(psi_j(b)) * measure(cell)."""
    cfg = f.config
    return [(cell.center, cell.scale, t * _rat(cfg, cell.measure()))
            for cell, t in _cell_products(f, psi_j)]


def _total_energy(cfg: FieldConfig, pairs, bounds=None):
    """Exact sum over all (j, k) of |sum over pairs (f_i, psi_i) of
    <f_i, D^j T^k psi_i>|**2.

    Finite part: j where some pair's dilated spectrum meets a cell away from
    zero.  Tail: once every dilated spectrum sits inside a zero-neighborhood
    cell where f is constant, the per-j energy scales exactly by q per unit
    of j (substituting the dilation into the integral), so the remaining
    infinite sum is a geometric series evaluated in closed form.
    """
    zero = CycloScalar.zero(cfg.p, cfg.q)
    live = []
    for f, psi in pairs:
        if not f.cells or not psi.cells:
            continue
        _check_away_from_zero(psi)
        live.append((f, psi))
    if not live:
        return zero
    j_tail = None  # largest j handled by the geometric tail
    j_hi = None
    tail_cells = []
    for f, psi in live:
        pa, pb = _shell_bounds(psi)
        flo, fhi = _shell_bounds(f)
        zc = _zero_cell(f)
        hi_candidates = []
        if flo is not None:
            hi_candidates.append(pb - flo)
        if zc is not None:
            s0 = zc[0].scale
            hi_candidates.append(pb - s0)
            pj = pa - s0
            v0 = zc[1]
            for b, v in psi.cells:
                tail_cells.append(
                    (b.center, b.scale, v0 * v.conj() * _rat(cfg, b.measure()))
                )
        else:
            pj = pa - fhi - 1
        hi = max(hi_candidates)
        j_tail = pj if j_tail is None else min(j_tail, pj)
        j_hi = hi if j_hi is None else max(j_hi, hi)

    total = zero
    if tail_cells:
        # sum over j <= j_tail of q**j times the j-independent k-energy
        c = _k_sum(cfg, 0, tail_cells)
        geom = Fraction(cfg.q) ** (j_tail + 1) / (cfg.q - 1)
        total = total + c * _rat(cfg, geom)
        if bounds is not None:
            bounds["j_tail"] = j_tail
    for j in range(j_tail + 1, j_hi + 1):
        cells = []
        for f, psi in live:
            cells.extend(_coef_cells(f, psi.precompose(-j)))
        if not cells:
            continue
        if bounds is not None:
            sigma = max(s for _, s, _ in cells)
            bounds[f"j={j}"] = f"k < q^{max(j + sigma, 0)}"
        total = total + _rat(cfg, Fraction(cfg.q) ** (-j)) * _k_sum(cfg, j, cells)
    return total


def parseval_residual(model: FiniteModel, psis, f: StepFunction):
    """||f||**2 minus the full affine-coefficient energy of the family,
    exactly; returns (residual, bounds).  The bounds record, per dilation
    level, the translation cutoff beyond which coefficients vanish (the
    k-sum is exact regardless) and the start of the geometric dilation tail.
    """
    model.check(f)
    cfg = model.config
    bounds = {}
    residual = _norm_sq(f)
    for m, psi in enumerate(psis, 1):
        model.check_analyzer(psi)
        sub = {}
        energy = _total_energy(cfg, [(f, psi)], sub)
        residual = residual - energy
        for key, val in sub.items():
            bounds[f"m{m},{key}"] = val
    return residual, bounds


def super_parseval_residual(model: FiniteModel, etas, fs) -> CycloScalar:
    """Residual of the direct-sum Parseval identity: the coefficient of the
    tuple (f_1, ..., f_n) against (j, k) sums the slot-wise affine
    coefficients before squaring, so all slots' cells enter one k-collapse."""
    if len(etas) != len(fs):
        raise ValueError("tuple length mismatch")
    cfg = model.config
    residual = CycloScalar.zero(cfg.p, cfg.q)
    for f in fs:
        model.check(f)
        residual = residual + _norm_sq(f)
    for eta in etas:
        model.check_analyzer(eta)
    return residual - _total_energy(cfg, list(zip(fs, etas)))


def truncation_spot_check(model: FiniteModel, psis, f: StepFunction,
                          samples: int = 3) -> bool:
    """Directly evaluates a few coefficients beyond the recorded cutoff and
    confirms they are exactly zero."""
    cfg = model.config
    for psi in psis:
        pa, pb = _shell_bounds(psi)
        flo, fhi = _shell_bounds(f)
        if flo is None or pa is None:
            continue
        for j in range(pa - fhi, pb - flo + 1):
            cells = _coef_cells(f, psi.precompose(-j))
            if not cells:
                continue
            sigma = max(s for _, s, _ in cells)
            k0 = cfg.q ** max(j + sigma, 0)
            for k in range(k0, k0 + samples):
                if not affine_coef(f, psi, j, k).is_zero():
                    return False
    return True


def gram_entry(etas, a: tuple[int, int], b: tuple[int, int]) -> CycloScalar:
    """Sum over slots of <D^j T^k eta_i, D^j' T^k' eta_i>; equals the
    Kronecker delta exactly when the tuple generates an orthonormal
    direct-sum system."""
    j1, k1 = a
    j2, k2 = b
    cfg = etas[0].config
    y = coset_rep(cfg, k2).scale_exponents(j2) - coset_rep(cfg, k1).scale_exponents(j1)
    total = CycloScalar.zero(cfg.p, cfg.q)
    for eta in etas:
        total = sum(_character_terms(eta.precompose(-j1), eta.precompose(-j2), y), total)
    return total.q_half_shift(-j1 - j2)


def mesh_delta_residuals(model: FiniteModel, psis):
    """Residuals of all mesh deltas at once.

    Each analysis layer (psi, j) is tabled once: its dilated cells of scale
    <= S by their sort key, and its finer cells grouped under the sort key
    of their scale-S host.  For an atom away from zero, the coefficient
    cells are then the one coarse cell holding it, found by the atom's
    digit prefix at each coarse scale (the cells are disjoint), or else the
    fine cells inside it.  The zero atom goes through the general path (it
    needs the geometric tail).
    """
    cfg = model.config
    S = model.S
    q = Fraction(cfg.q)
    layers = []
    for psi in psis:
        model.check_analyzer(psi)
        _check_away_from_zero(psi)
        if not psi.cells:
            continue
        pa, pb = _shell_bounds(psi)
        for j in range(pa - (model.R + S), pb + model.R + 1):
            coarse, fine = {}, {}
            for ball, v in psi.precompose(-j).cells:
                if ball.scale <= S:
                    coarse[ball.sort_key()] = v.conj()
                else:
                    host = Ball(cfg, ball.center, S).sort_key()
                    fine.setdefault(host, []).append((ball.center, ball.scale, v.conj()))
            layers.append((j, coarse, sorted({s for s, _ in coarse}), fine))
    out = []
    base = _rat(cfg, q ** (-S))
    for a in model.atoms():
        if a.contains_zero():
            delta = StepFunction.indicator(ClopenSet.from_ball(a))
            residual, _ = parseval_residual(model, psis, delta)
            out.append((a, residual))
            continue
        key = a.sort_key()
        residual = base  # ||delta||^2
        for j, coarse, scales, fine in layers:
            for s in scales:
                v = coarse.get((s, tuple(d for d in key[1] if d[0] < s)))
                if v is not None:
                    entries = [(a.center, S, v)]
                    break
            else:
                entries = fine.get(key)
                if not entries:
                    continue
            cells = [(c, s, v * _rat(cfg, q ** (-s))) for c, s, v in entries]
            residual = residual - _rat(cfg, q ** (-j)) * _k_sum(cfg, j, cells)
        out.append((a, residual))
    return out
