"""Exact decision procedures for tiling, frame, and super-wavelet criteria.

Every check returns a Verdict whose failed items carry an explicit witness
(a ball, a point, or a measure discrepancy), and whose bounds record the
finite index ranges that make the almost-everywhere statements decidable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .clopen import Ball, ClopenSet, integers, joint_fold, overlay, units
from .cyclo import CycloScalar
from .lfield import FieldElement, coset_rep, format_element
from .stepfn import StepFunction, common_refinement, periodized_weight

INF = math.inf


# ---------------------------------------------------------------------------
# Verdicts and witnesses
# ---------------------------------------------------------------------------


@dataclass
class Check:
    name: str
    ok: bool
    witness: dict | None = None
    binding: bool = True
    note: str = ""

    def as_json(self):
        out = {"name": self.name, "status": "pass" if self.ok else "fail"}
        if not self.binding:
            out["binding"] = False
        if self.witness is not None:
            out["witness"] = self.witness
        if self.note:
            out["note"] = self.note
        return out


@dataclass
class Verdict:
    checks: list = field(default_factory=list)
    bounds: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks if c.binding)

    def add(self, name, ok, witness=None, binding=True, note=""):
        self.checks.append(Check(name, bool(ok), witness, binding, note))
        return ok

    def check(self, name):
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def as_json(self):
        return {
            "passed": self.passed,
            "checks": [c.as_json() for c in self.checks],
            "bounds": self.bounds,
        }


def witness_ball(ball: Ball):
    return {"kind": "ball", "ball": ball.as_json()}


def witness_set(cs: ClopenSet):
    return {"kind": "set", "balls": cs.as_json()}


def witness_point(x: FieldElement):
    return {"kind": "point", "point": format_element(x)}


def witness_measure(value):
    return {"kind": "measure", "value": "inf" if value == INF else str(Fraction(value))}


# ---------------------------------------------------------------------------
# Tiling and packing criteria for clopen sets
# ---------------------------------------------------------------------------


def check_dilation_tiling(W: ClopenSet) -> Verdict:
    """Do the dilates p**j * W (all integer j) partition the whole field?

    Reduction: split W along shells of constant absolute value and pull each
    piece back into the unit shell.  The dilates partition the field exactly
    when those normalized pieces are pairwise disjoint and cover the unit
    group exactly once.
    """
    v = Verdict()
    cfg = W.config
    if W.is_empty():
        v.add("nonempty", False, witness_measure(0))
        return v
    v.add("nonempty", True)
    pieces, residual = W.shells()
    if residual is not None:
        # a ball around zero meets infinitely many of its own dilates
        v.add("no-ball-at-zero", False, witness_ball(residual))
        return v
    v.add("no-ball-at-zero", True)
    target = units(cfg)
    coverage, overlap = overlay(cfg, (piece.scale_by(-s) for s, piece in pieces))
    v.add("dilates-disjoint", overlap.is_empty(),
          None if overlap.is_empty() else witness_set(overlap))
    gap = target.subtract(coverage)
    v.add("dilates-cover-unit-shell", gap.is_empty(),
          None if gap.is_empty() else witness_set(gap))
    v.bounds["shells"] = [s for s, _ in pieces]
    return v


def check_translation(W: ClopenSet, mode: str = "packing") -> Verdict:
    """Are the integral translates W + u(k) pairwise disjoint (packing), and
    do they additionally cover the whole field (tiling)?

    Translates beyond the diameter bound of W are disjoint automatically, so
    folding W into the ring of integers decides both questions.
    """
    if mode not in ("packing", "tiling"):
        raise ValueError(f"unknown mode {mode!r}")
    v = Verdict()
    fold = W.fold()
    v.add("translates-disjoint", fold.overlap.is_empty(),
          None if fold.overlap.is_empty() else witness_set(fold.overlap))
    if mode == "tiling":
        gap = integers(W.config).subtract(fold.coverage)
        v.add("translates-cover", gap.is_empty(),
              None if gap.is_empty() else witness_set(gap))
    v.bounds["fold_measure"] = str(fold.coverage.measure() + fold.overlap.measure())
    return v


def verify_multiwavelet_set(components, mode: str = "orthonormal") -> Verdict:
    """Set criterion for a multiwavelet: disjoint components whose union
    tiles under dilation, and every component tiles (orthonormal) or packs
    (semi-orthogonal Parseval frame) under translation."""
    if mode not in ("orthonormal", "parseval"):
        raise ValueError(f"unknown mode {mode!r}")
    v = Verdict()
    union, bad = overlay(components[0].config, components)
    v.add("components-disjoint", bad.is_empty(),
          None if bad.is_empty() else witness_set(bad))
    if not v.passed:
        return v
    dil = check_dilation_tiling(union)
    for c in dil.checks:
        v.checks.append(Check("union-dilation:" + c.name, c.ok, c.witness, c.binding))
    translation = "tiling" if mode == "orthonormal" else "packing"
    for i, W in enumerate(components, 1):
        tr = check_translation(W, translation)
        for c in tr.checks:
            v.checks.append(Check(f"component-{i}:" + c.name, c.ok, c.witness, c.binding))
    v.bounds["order"] = len(components)
    return v


def verify_superwavelet(components, mode: str = "orthonormal") -> Verdict:
    """Set criterion for a super-wavelet tuple: (a) each component tiles
    under dilation, (b) each component packs under translation, (c) the
    joint translates tile the field (orthonormal) or pack (parseval)."""
    if mode not in ("orthonormal", "parseval"):
        raise ValueError(f"unknown mode {mode!r}")
    v = Verdict()
    cfg = components[0].config
    for i, W in enumerate(components, 1):
        dil = check_dilation_tiling(W)
        v.add(f"(a)-component-{i}-dilation-tiling", dil.passed,
              None if dil.passed else next(
                  (c.witness for c in dil.checks if not c.ok), None))
        tr = check_translation(W, "packing")
        v.add(f"(b)-component-{i}-translation-packing", tr.passed,
              None if tr.passed else next(
                  (c.witness for c in tr.checks if not c.ok), None))
    fold = joint_fold(cfg, components)
    v.add("(c)-joint-translates-disjoint", fold.overlap.is_empty(),
          None if fold.overlap.is_empty() else witness_set(fold.overlap))
    if mode == "orthonormal":
        gap = integers(cfg).subtract(fold.coverage)
        v.add("(c)-joint-translates-cover", gap.is_empty(),
              None if gap.is_empty() else witness_set(gap))
    v.bounds["joint_fold_measure"] = str(fold.measure())
    v.bounds["length"] = len(components)
    return v


# ---------------------------------------------------------------------------
# Pointwise frame equations for step functions
# ---------------------------------------------------------------------------


def _shell_range(fns):
    """(smin, smax) over all support cells; None if any cell contains zero."""
    smin, smax = INF, -INF
    for f in fns:
        for ball, _ in f.cells:
            if ball.contains_zero():
                return None, ball
            s = ball.center.valuation()
            smin = min(smin, s)
            smax = max(smax, s)
    return (smin, smax), None


def verify_frame_pointwise(fns) -> Verdict:
    """Pointwise Parseval criterion for a family of spectra: the dilation
    square sum must be identically one, and the translated correlation sums
    must vanish for every non-divisible translation index."""
    v = Verdict()
    cfg = fns[0].config
    rng, zball = _shell_range(fns)
    if rng is None:
        v.add("bounded-away-from-zero", False, witness_ball(zball),
              note="a spectrum charged at zero meets infinitely many dilates")
        return v
    v.add("bounded-away-from-zero", True)
    smin, smax = rng

    # dilation square sum == 1, checked on the unit shell (the sum is
    # invariant under scaling the argument by p); with no cells it is 0
    target = units(cfg)
    dilations = range(-smax, -smin + 1) if smin < INF else ()
    scaled = [f.precompose(j=j) for f in fns for j in dilations]
    mesh = common_refinement(cfg, scaled, extras=[target])
    one = CycloScalar.rational(cfg.p, cfg.q, 1)
    bad = None
    for cell in mesh:
        if cell.center.valuation() != 0:
            continue
        total = CycloScalar.zero(cfg.p, cfg.q)
        for g in scaled:
            total = total + g.evaluate(cell.center).abs_sq().reduce_grade()
        if total != one:
            bad = (cell, total)
            break
    v.add("dilation-square-sum", bad is None,
          None if bad is None else witness_point(bad[0].center),
          note="" if bad is None else f"sum = {bad[1]!r}")

    # translated correlations vanish
    j_max = max(-smin - 1, -1)
    s_max = cfg.q ** max(-smin, 0) - 1
    v.bounds["j_max"] = j_max
    v.bounds["s_max"] = s_max
    bad = None
    for s in range(1, s_max + 1):
        if s % cfg.q == 0:
            continue
        us = coset_rep(cfg, s)
        pairs = [(f.precompose(j=j), f.precompose(j=j, shift=us))
                 for f in fns for j in range(0, j_max + 1)]
        mesh = common_refinement(cfg, [g for gh in pairs for g in gh])
        bad = next(((s, cell) for cell, total in _pair_sums(cfg, pairs, mesh)
                    if not total.is_zero()), None)
        if bad:
            break
    v.add("translation-correlation", bad is None,
          None if bad is None else witness_point(bad[1].center),
          note="" if bad is None else f"nonzero at translation index s={bad[0]}")
    return v


def verify_translates(phi: StepFunction, mode: str = "parseval") -> Verdict:
    """Is the integral-translate system of phi a Parseval frame for its span
    (periodized weight within [0, 1]) or an orthonormal system (identically
    one)?  The sharper indicator-valued condition is reported non-bindingly."""
    if mode not in ("parseval", "orthonormal"):
        raise ValueError(f"unknown mode {mode!r}")
    v = Verdict()
    cfg = phi.config
    w = periodized_weight(phi)
    values = []
    for ball, val in w.cells:
        if not val.is_rational() or val.grade:
            raise ValueError(f"periodized weight is not rational on {ball}")
        values.append((ball, val.as_fraction()))
    gap = integers(cfg).subtract(w.support())

    bad = next(((b, x) for b, x in values if not 0 <= x <= 1), None)
    if mode == "parseval":
        v.add("weight-within-unit-interval", bad is None,
              None if bad is None else witness_ball(bad[0]),
              note="" if bad is None else f"weight = {bad[1]}")
    else:
        bad1 = next(((b, x) for b, x in values if x != 1), None)
        if bad1 is not None:
            v.add("weight-identically-one", False, witness_ball(bad1[0]),
                  note=f"weight = {bad1[1]}")
        else:
            v.add("weight-identically-one", gap.is_empty(),
                  None if gap.is_empty() else witness_set(gap),
                  note="" if gap.is_empty() else "weight vanishes here")
    indicator = bad is None and all(x in (0, 1) for _, x in values)
    v.add("weight-is-indicator", indicator, binding=False)
    return v


def verify_super_functions(fns) -> Verdict:
    """Pointwise criterion for an orthonormal super-wavelet tuple of spectra:
    per-component dilation square sum and translated correlations, plus the
    joint cross-scale periodized correlation reproducing the Kronecker delta."""
    v = Verdict()
    cfg = fns[0].config
    for i, f in enumerate(fns, 1):
        sub = verify_frame_pointwise([f])
        done = {c.name: c for c in sub.checks}
        sq = done.get("dilation-square-sum")
        tc = done.get("translation-correlation")
        bad = next((c.witness for c in sub.checks if not c.ok), None)
        v.add(f"(i)-component-{i}-dilation-square-sum",
              sq is not None and sq.ok and done["bounded-away-from-zero"].ok, bad)
        v.add(f"(ii)-component-{i}-translation-correlation",
              tc is not None and tc.ok, bad)

    rng, zball = _shell_range(fns)
    if rng is None:
        v.add("(iii)-joint-correlation", False, witness_ball(zball))
        return v
    smin, smax = rng
    j_max = max(smax - smin, 0)
    k_max = cfg.q ** max(-smin, 0) - 1
    v.bounds["j_max"] = j_max
    v.bounds["k_max"] = k_max

    shifts = [coset_rep(cfg, k) for k in range(0, k_max + 1)]
    mesh = _correlation_mesh(fns, range(j_max + 1), shifts)
    one = CycloScalar.rational(cfg.p, cfg.q, 1)
    zero = CycloScalar.zero(cfg.p, cfg.q)
    # cell-major, scale offset inner: the first failing cell is the witness
    rows = zip(*(_correlations(fns, j, mesh, shifts) for j in range(j_max + 1)))
    bad = next(((j, cell, total) for row in rows
                for j, (cell, total) in enumerate(row)
                if total != (one if j == 0 else zero)), None)
    v.add("(iii)-joint-correlation", bad is None,
          None if bad is None else witness_point(bad[1].center),
          note="" if bad is None else f"j={bad[0]}, sum = {bad[2]!r}")
    return v


def _correlation_mesh(fns, offsets, shifts):
    """Refinement of the integers on which every f(p**-n * (x + u)) is
    constant, for f in fns, n in offsets and u in shifts."""
    cfg = fns[0].config
    pool = [f.precompose(n, shift=uk) for f in fns for uk in shifts for n in offsets]
    return common_refinement(cfg, pool, extras=[integers(cfg)])


def _pair_sums(cfg, pairs, cells):
    """(cell, sum over (g, h) in pairs of g(x) * conj(h(x))) for each cell,
    with x the cell center."""
    for cell in cells:
        total = CycloScalar.zero(cfg.p, cfg.q)
        for g, h in pairs:
            total = total + g.evaluate(cell.center) * h.evaluate(cell.center).conj()
        yield cell, total


def _correlations(fns, n, mesh, shifts):
    """(cell, periodized correlation at scale offset n) for every mesh cell
    inside the integers: the sum over f in fns and u in shifts of
    f(p**-n * (x + u)) * conj(f(x + u)) at the cell center x."""
    pairs = [(f.precompose(n, shift=uk), f.precompose(0, shift=uk))
             for f in fns for uk in shifts]
    inside = (cell for cell in mesh if cell.center.valuation() >= 0)
    return _pair_sums(fns[0].config, pairs, inside)


def equivalent_superwavelets(a_fns, b_fns) -> Verdict:
    """Two Parseval frame super-wavelet tuples are equivalent exactly when
    their periodized cross-scale correlations agree at every scale offset."""
    v = Verdict()
    cfg = a_fns[0].config
    rng_a, za = _shell_range(a_fns)
    rng_b, zb = _shell_range(b_fns)
    if rng_a is None or rng_b is None:
        v.add("bounded-away-from-zero", False,
              witness_ball(za if rng_a is None else zb))
        return v
    smin = min(rng_a[0], rng_b[0])
    smax = max(rng_a[1], rng_b[1])
    n_max = max(smax - smin, 0)
    k_max = cfg.q ** max(-smin, 0) - 1
    v.bounds["n_max"] = n_max
    v.bounds["k_max"] = k_max
    shifts = [coset_rep(cfg, k) for k in range(0, k_max + 1)]
    bad = None
    for n in range(0, n_max + 1):
        mesh = _correlation_mesh(list(a_fns) + list(b_fns), (0, n), shifts)
        pairs = zip(_correlations(a_fns, n, mesh, shifts),
                    _correlations(b_fns, n, mesh, shifts))
        bad = next(((n, cell) for (cell, x), (_, y) in pairs if x != y), None)
        if bad:
            break
    v.add("correlations-agree", bad is None,
          None if bad is None else witness_point(bad[1].center),
          note="" if bad is None else f"first discrepancy at scale offset n={bad[0]}")
    return v


# ---------------------------------------------------------------------------
# Decomposability / extendability bounds (necessary conditions only)
# ---------------------------------------------------------------------------


def _weighted_inv_norm_integral(cells):
    """Integral of value/|xi| for rational-valued cells inside O."""
    total = Fraction(0)
    for ball, value in cells:
        if value == 0:
            continue
        if ball.contains_zero():
            return INF
        q = ball.config.q
        total += value * Fraction(q) ** (ball.center.valuation() - ball.scale)
    return total


def _max_m_not_excluded(bound, q):
    if bound == INF:
        return None  # no length excluded
    return int(bound * q / (q - 1))


def decomposability_bound(psi: StepFunction):
    """Exact value of the weighted singular integral of the periodized weight
    and the largest decomposition length it fails to exclude.  Necessary
    condition only: never claims decomposability."""
    cfg = psi.config
    w = periodized_weight(psi)
    cells = [(b, val.as_fraction()) for b, val in w.cells]
    value = _weighted_inv_norm_integral(cells)
    return value, _max_m_not_excluded(value, cfg.q)


def extendability_bound(psi: StepFunction):
    """Same singular integral applied to the complement weight 1 - w;
    bounds the length of any super-wavelet extension."""
    cfg = psi.config
    w = periodized_weight(psi)
    cells = []
    for ball, val in w.cells:
        x = val.as_fraction()
        if x > 1:
            raise ValueError(
                f"periodized weight exceeds 1 on {ball}: not a Parseval frame wavelet"
            )
        cells.append((ball, 1 - x))
    for ball in integers(cfg).subtract(w.support()).balls:
        cells.append((ball, Fraction(1)))
    value = _weighted_inv_norm_integral(cells)
    return value, _max_m_not_excluded(value, cfg.q)


# ---------------------------------------------------------------------------
# Scaling-set / multiresolution checks
# ---------------------------------------------------------------------------


def mra_scaling_check(W: ClopenSet, S: ClopenSet) -> Verdict:
    """Does S behave as the scaling set of the wavelet set W: stable under
    the contracting dilation, with W as the next dilation layer, the measure
    law |S|*(q-1) = |W|, and translates at least packing (tiling means a
    full multiresolution analysis, packing only a Parseval frame one)."""
    v = Verdict()
    cfg = W.config
    q = cfg.q
    shrunk = S.scale_by(1)
    esc = shrunk.subtract(S)
    v.add("dilation-stable", esc.is_empty(),
          None if esc.is_empty() else witness_set(esc))
    layer = S.scale_by(-1).subtract(S)
    ok = layer == W
    v.add("wavelet-is-dilation-layer", ok,
          None if ok else witness_set(layer.subtract(W).union(W.subtract(layer))))
    ok = S.measure() * (q - 1) == W.measure()
    v.add("measure-law", ok, None if ok else witness_measure(S.measure()))
    tr = check_translation(S, "tiling")
    packing = tr.check("translates-disjoint").ok
    tiling = packing and tr.check("translates-cover").ok
    v.add("translates-pack", packing,
          None if packing else tr.check("translates-disjoint").witness)
    v.add("translates-tile", tiling, binding=False,
          note="multiresolution analysis" if tiling else "Parseval frame multiresolution analysis")
    v.bounds["mra_kind"] = "orthonormal" if tiling else "parseval"
    return v
