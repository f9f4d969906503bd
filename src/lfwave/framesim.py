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

from .clopen import INF, Ball
from .cyclo import CycloScalar
from .gfq import ConfigMismatch, FieldConfig, check_ints
from .lfield import FieldElement, character, coset_rep
from .stepfn import StepFunction, cell_sum, products, shell_range


class WindowEscape(ValueError):
    """A spectrum does not fit the model window (never silently truncated)."""


class FiniteModel:
    """Window of spectra supported in p**-R * O and constant on balls of
    scale S; the mesh of the q**(R+S) scale-S balls spans the model."""

    def __init__(self, config: FieldConfig, R: int, S: int):
        check_ints("R", R)
        check_ints("S", S)
        if R < 0 or S < 0:
            raise ValueError("window parameters must be non-negative")
        self.config = config
        self.R = R
        self.S = S
        self.window = Ball.integers(config, -R)

    def check(self, f: StepFunction) -> StepFunction:
        self.check_analyzer(f)
        if any(b.scale > self.S for b, _ in f.cells):
            raise WindowEscape(f"cells finer than the scale-{self.S} mesh")
        return f

    def check_analyzer(self, psi: StepFunction) -> StepFunction:
        """Analyzing spectra only need bounded support inside the window;
        the energy sums are exact at any cell fineness.  The support lies in
        p**-R * O when each cell does, and a cell's key decides that: its
        scale is at least -R and no digit of its centre sits below -R."""
        if psi.config != self.config:
            raise ConfigMismatch("sets from different field configurations")
        low = -self.R
        for b, _ in psi.cells:
            scale, digits = b.sort_key()
            if scale < low or (digits and digits[0][0] < low):
                raise WindowEscape(f"support escapes p^-{self.R} O")
        return psi

    def atoms(self):
        return self.window.split_to(self.S)

    def _atom(self, i: int) -> Ball:
        """The i-th atom in the order of atoms(): the base-q digits of i, most
        significant first, at exponents -R..S-1, i.e. p**S * u(i)."""
        return self.window.sub_ball(self.S, i)

    def random_step(self, rng: random.Random, n_cells: int = 5) -> StepFunction:
        """Seeded random window function: distinct mesh atoms with nonzero
        cyclotomic values on a small rational lattice.  The atoms are drawn
        by index, which picks the same atoms as sampling the list atoms()."""
        check_ints("n_cells", n_cells)
        if n_cells < 0:
            raise ValueError(f"n_cells must be non-negative, got {n_cells}")
        cfg = self.config
        n = cfg.q ** (self.R + self.S)
        cells = []
        for i in rng.sample(range(n), min(n_cells, n)):
            while True:
                coeffs = [rng.randrange(-2, 3) for _ in range(cfg.p - 1)]
                if any(coeffs):
                    break
            cells.append((self._atom(i), CycloScalar(cfg.p, cfg.q, coeffs)))
        return StepFunction(cfg, cells)


def _rat(cfg, x) -> CycloScalar:
    return CycloScalar.rational(cfg.p, cfg.q, x)


def _q_pow(cfg, e: int) -> CycloScalar:
    """q**e; the measure of a ball of scale s is q**-s."""
    return CycloScalar.q_power(cfg.p, cfg.q, e)


def _check_away_from_zero(psi: StepFunction):
    if any(b.contains_zero() for b, _ in psi.cells):
        raise ValueError("analyzing spectrum charged at zero: dilation sum diverges")


def _norm_sq(f: StepFunction) -> CycloScalar:
    cfg = f.config
    total = CycloScalar.zero(cfg.p, cfg.q)
    for b, v in f.cells:
        total = total + v.abs_sq() * _q_pow(cfg, -b.scale)
    return total


def _character_sum(cfg: FieldConfig, cells, y: FieldElement) -> CycloScalar:
    """Integral of the products in _coef_cells against chi(y, .): exact,
    because the character is either constant on a refinement cell or
    averages to zero over it."""
    vy = y.valuation()  # +inf for y = 0: the trivial character
    total = CycloScalar.zero(cfg.p, cfg.q)
    for cell, t in cells:
        if vy >= -cell.scale:
            total = total + t * character(y, cell.center)
    return total


def affine_coef(f: StepFunction, psi: StepFunction, j: int, k: int) -> CycloScalar:
    """<f, D^j T^k psi> via Plancherel: the analyzing spectrum at xi is
    q**(-j/2) * conj(chi(u(k) p^j xi)) * psi^(p^j xi), and the character
    integrates exactly over each refinement cell (zero unless the character
    is constant on the cell)."""
    check_ints("j", j)
    check_ints("k", k)
    cfg = f.config
    if k < 0:
        raise ValueError("translation index must be non-negative")
    y = coset_rep(cfg, k).scale_exponents(j)
    cells = _coef_cells(f, psi.precompose(-j))  # xi -> psi^(p^j xi)
    return _character_sum(cfg, cells, y).q_half_shift(-j)


def _k_sum(config: FieldConfig, j: int, cells) -> CycloScalar:
    """Sum over all k >= 0 of |q**(j/2) * coef(j,k)|**2 where
    coef(j,k) = q**(-j/2) * sum over active cells of t * chi(u(k) p^j b).

    k = 0 activates every cell; a cell (b, t) of scale s is active for
    representative length L >= 1 (u(k) of absolute value q**L) iff
    L <= j + s.  Character sums over all representatives of length < N
    collapse:
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
    # grades 0 and 1 would pair into cross terms of grade 1
    if len({t.grade for _, t in cells if not t.is_zero()}) > 1:
        raise ValueError("odd half-grade 1 cannot be reduced")
    l_max = max(max(j + b.scale for b, _ in cells), 0)
    # the digit of p^j b at exponent n is the digit of b at exponent n - j
    keys = [tuple(map(b.center.digit, range(-j, l_max - j))) for b, _ in cells]
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
        active = [i for i, (b, _) in enumerate(cells) if j + b.scale >= L]
        if active:
            weigh(L, active, q ** L)
            weigh(L - 1, active, -q ** (L - 1))
    total = zero
    for members, w in weights.items():
        if w:
            total = total + _rat(config, w) * sum([cells[i][1] for i in members], zero).abs_sq()
    return total


def _coef_cells(f: StepFunction, psi_j: StepFunction):
    """The (cell, t) cells entering the coefficient sum, with t = f(b) *
    conj(psi_j(b)) * measure(cell) nonzero."""
    cfg = f.config
    return [(cell, t * _q_pow(cfg, -cell.scale)) for cell, t in products(f, psi_j)]


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
    j_tail, j_hi = INF, -INF  # j_tail: largest j handled by the geometric tail
    tail_cells = []
    for f, psi in live:
        pa, pb, _ = shell_range([psi])
        flo, fhi, zc = shell_range([f])
        if zc is not None:
            s0, v0 = zc[0].scale, zc[1]
            pj = pa - s0
            # f is the constant v0 on p^pa O, which holds every cell of psi
            const = StepFunction(cfg, [(Ball.integers(cfg, pa), v0)], _canonical=True)
            tail_cells.extend(_coef_cells(const, psi))
        else:
            s0, pj = INF, pa - fhi - 1
        j_tail, j_hi = min(j_tail, pj), max(j_hi, pb - min(flo, s0))

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
            sigma = max(b.scale for b, _ in cells)
            bounds[f"j={j}"] = f"k < q^{max(j + sigma, 0)}"
        total = total + _q_pow(cfg, -j) * _k_sum(cfg, j, cells)
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
    """Evaluates a few coefficients beyond each recorded cutoff with
    _character_sum and confirms they are zero.  The cutoff and the integral
    apply the same valuation rule (beyond the cutoff no cell is fine enough
    for the character to be constant on it, so every cell is dropped), so
    this checks that the two agree and cannot return False; it does not
    evaluate the integral independently."""
    check_ints("samples", samples)
    if samples < 0:
        raise ValueError(f"samples must be non-negative, got {samples}")
    cfg = model.config
    flo, fhi, _ = shell_range([f])
    for psi in psis:
        pa, pb, _ = shell_range([psi])
        if flo == INF or pa == INF:
            continue
        for j in range(pa - fhi, pb - flo + 1):
            cells = _coef_cells(f, psi.precompose(-j))
            if not cells:
                continue
            sigma = max(b.scale for b, _ in cells)
            k0 = cfg.q ** max(j + sigma, 0)
            for k in range(k0, k0 + samples):
                y = coset_rep(cfg, k).scale_exponents(j)
                if not _character_sum(cfg, cells, y).is_zero():
                    return False
    return True


def gram_entry(etas, a: tuple[int, int], b: tuple[int, int]) -> CycloScalar:
    """Sum over slots of <D^j T^k eta_i, D^j' T^k' eta_i>; equals the
    Kronecker delta exactly when the tuple generates an orthonormal
    direct-sum system.  Raises ValueError on an empty tuple."""
    if not etas:
        raise ValueError("empty tuple")
    check_ints("a", *a)
    check_ints("b", *b)
    (j1, k1), (j2, k2) = a, b
    cfg = etas[0].config
    y = coset_rep(cfg, k2).scale_exponents(j2) - coset_rep(cfg, k1).scale_exponents(j1)
    total = CycloScalar.zero(cfg.p, cfg.q)
    for eta in etas:
        cells = _coef_cells(eta.precompose(-j1), eta.precompose(-j2))
        total = total + _character_sum(cfg, cells, y)
    return total.q_half_shift(-j1 - j2)


def mesh_delta_residuals(model: FiniteModel, psis):
    """Residuals of all mesh deltas at once.

    The k-sum of a single cell (b, t) of scale s at level j is
    q**max(j+s, 0) * |t|**2: its level weights 1, q - 1, ..., q**L - q**(L-1) telescope, and
    it does not depend on b.  So a dilated cell (b, v) of layer (psi, j) of
    scale <= S, which is constant on every atom a under it, takes the energy
    q**-j * k-sum of (a, conj(v) * q**-S) = q**(max(j+S, 0) - j - 2S) * |v|**2
    from each such atom.  These cells, over all layers, go through one
    cell_sum, whose disjoint cells of scale <= S carry the energy of every
    layer cell holding them.  The cells finer than S are filed under the key
    of their scale-S host, with their layer's j.  A layer's cells are
    disjoint, so an atom away from zero meets a layer at most once, in the
    one coarse cell holding it or in its fine cells.  Its residual is
    ||delta||**2 = q**-S minus the energy of the one cell_sum cell holding
    it (tabled per cell, read by one ancestor-key lookup per cell scale),
    minus the k-sum of each fine group in it.  Every term is an exact scalar
    of grade 0 in canonical form, so the order of the sums does not change
    a residual.  The zero atom goes through the general path (it needs the
    geometric tail).
    """
    cfg = model.config
    S = model.S
    one = _rat(cfg, 1)

    def delta(a):  # the mesh delta of the atom a
        return StepFunction(cfg, [(a, one)], _canonical=True)

    coarse = []  # (cell, energy) for the layers' cells of scale <= S
    fine = {}  # scale-S key -> [(j, step function of the finer cells in it), ...]
    for psi in psis:
        model.check_analyzer(psi)
        _check_away_from_zero(psi)
        if not psi.cells:
            continue
        pa, pb, _ = shell_range([psi])
        for j in range(pa - (model.R + S), pb + model.R + 1):
            weight = _q_pow(cfg, max(j + S, 0) - j - 2 * S)
            hosted = {}
            for ball, v in psi.precompose(-j).cells:
                if ball.scale <= S:
                    coarse.append((ball, weight * v.abs_sq()))
                else:
                    hosted.setdefault(ball.ancestor_key(S), []).append((ball, v))
            for key, cells in hosted.items():
                fine.setdefault(key, []).append((j, StepFunction(cfg, cells, _canonical=True)))
    norm = _q_pow(cfg, -S)  # ||delta||^2
    summed = cell_sum(cfg, coarse)  # disjoint cells of scale <= S
    remainder = {cell.sort_key(): norm - e for cell, e in summed.cells}
    scales = sorted({cell.scale for cell, _ in summed.cells})
    out = []
    for a in model.atoms():
        if a.contains_zero():
            out.append((a, parseval_residual(model, psis, delta(a))[0]))
            continue
        r = next((remainder[k] for k in map(a.ancestor_key, scales) if k in remainder), norm)
        for j, psi_j in fine.get(a.sort_key(), ()):
            # the delta is 1 on the atom, which holds psi_j's cells
            r = r - _q_pow(cfg, -j) * _k_sum(cfg, j, _coef_cells(delta(a), psi_j))
        out.append((a, r))
    return out
