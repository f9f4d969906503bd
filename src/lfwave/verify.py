"""Exact decision procedures for tiling, frame, and super-wavelet criteria.

Every check returns a Verdict whose failed items carry an explicit witness
(a ball, a point, or a measure discrepancy), and whose bounds record the
finite index ranges that make the almost-everywhere statements decidable.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction

from .clopen import (INF, Ball, ClopenSet, integers, inv_norm_integral, joint_fold, nested_balls,
                     units)
from .lfield import FieldElement, coset_rep, format_element
from .stepfn import (StepFunction, by_grade, cell_sum, difference, periodize, periodized_weight,
                     products, shell_range)


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

    def add_set(self, name, s: ClopenSet, note=""):
        """A check that passes when the set s is empty and otherwise fails
        with s as its witness (and the note)."""
        if s.is_empty():
            return self.add(name, True)
        return self.add(name, False, witness_set(s), note=note)

    def add_nonempty(self, name, s: ClopenSet):
        """A check that passes when the set s is non-empty and otherwise fails
        with the witness measure 0."""
        if s.is_empty():
            return self.add(name, False, witness_measure(0))
        return self.add(name, True)

    def add_partition(self, config, pieces, disjoint, universe=None, cover=None):
        """Add the check named `disjoint` (no two of the balls `pieces` meet,
        witness the points in two or more) and, when a name is given,
        `cover` (the pieces cover the set `universe`, witness the gap); their
        union is built only then.  Returns (the points in two or more, the
        union or None)."""
        overlap = ClopenSet(config, nested_balls(pieces))
        self.add_set(disjoint, overlap)
        if cover is None:
            return overlap, None
        union = ClopenSet(config, pieces)
        self.add_set(cover, universe.subtract(union))
        return overlap, union

    def add_agreement(self, name, offsets, pair, note):
        """Add the check `name`: at each offset n in turn, pair(n) gives
        (xs, ys), step functions one per half-grade, and the check fails at
        the first n where they differ, with the centre of the least cell of
        their difference as witness and the note note.format(n, x), x the
        value of xs there as the sum of its nonzero grades."""
        for n in offsets:
            xs, ys = pair(n)
            cells = [b for x, y in zip(xs, ys) for b, _ in difference(x, y)]
            if cells:
                point = min(cells, key=Ball.sort_key).center
                values = [f.evaluate(point) for f in xs]
                value = " + ".join(repr(t) for t in values if not t.is_zero()) or "0"
                return self.add(name, False, witness_point(point), note=note.format(n, value))
        return self.add(name, True)

    def add_components(self, sets, dilation, packing):
        """Per set in order, the checks `dilation.format(i)` (it tiles under
        dilation) and `packing.format(i)` (its integral translates pack),
        numbering the sets from 1; each failure carries the witness of the
        first failing sub-check."""
        for i, W in enumerate(sets, 1):
            self.add(dilation.format(i), *check_dilation_tiling(W).outcome())
            self.add_partition(W.config, joint_fold([W]), packing.format(i))

    def outcome(self, *names):
        """(ok, witness) of the named checks taken together (of all checks
        when none are named): ok unless one of them fails bindingly, and
        then the witness of the first that does."""
        bad = next((c for c in self.checks if c.binding and not c.ok
                    and (not names or c.name in names)), None)
        return bad is None, None if bad is None else bad.witness

    def as_json(self):
        return {
            "passed": self.passed,
            "checks": [c.as_json() for c in self.checks],
            "bounds": self.bounds,
        }


def _config(*families):
    """The field configuration of non-empty families of sets or spectra."""
    if not all(families):
        raise ValueError("empty family")
    return families[0][0].config


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

    Reduction: a ball away from zero lies in one shell of constant absolute
    value, say p**s * O*, and p**-s pulls it back into the unit shell.  The
    dilates partition the field exactly when the pulled-back balls are
    pairwise disjoint and cover the unit group exactly once.
    """
    v = Verdict()
    if not v.add_nonempty("nonempty", W):
        return v
    residual = next((b for b in W.balls if b.contains_zero()), None)
    if residual is not None:
        # a ball around zero meets infinitely many of its own dilates
        v.add("no-ball-at-zero", False, witness_ball(residual))
        return v
    v.add("no-ball-at-zero", True)
    v.add_partition(W.config, [b.scale_by(-b.shell_index()) for b in W.balls],
                    "dilates-disjoint", units(W.config), "dilates-cover-unit-shell")
    v.bounds["shells"] = sorted({b.shell_index() for b in W.balls})
    return v


def check_translation(W: ClopenSet, mode: str = "packing") -> Verdict:
    """Are the integral translates W + u(k) pairwise disjoint (packing), and
    do they additionally cover the whole field (tiling)?

    Translates beyond the diameter bound of W are disjoint automatically, so
    folding W into the ring of integers decides both questions.

    bounds["fold_measure"] is the measure of the fragments' union plus that
    of the points in two or more fragments.  That is the fold measure with
    multiplicity only while at most two translates meet: a point in three
    or more is still counted twice (four translates of pO at q = 2 give
    "1", where the fragments' measures sum to 2).
    """
    if mode not in ("packing", "tiling"):
        raise ValueError(f"unknown mode {mode!r}")
    v = Verdict()
    cfg = W.config
    fragments = joint_fold([W])
    overlap, union = v.add_partition(cfg, fragments, "translates-disjoint", integers(cfg),
                                     "translates-cover" if mode == "tiling" else None)
    if union is None:
        union = ClopenSet(cfg, fragments)
    v.bounds["fold_measure"] = str(union.measure() + overlap.measure())
    return v


def verify_multiwavelet_set(components, mode: str = "orthonormal") -> Verdict:
    """Set criterion for a multiwavelet: disjoint components whose union
    tiles under dilation, and every component tiles (orthonormal) or packs
    (semi-orthogonal Parseval frame) under translation.  Raises ValueError
    on an empty family."""
    if mode not in ("orthonormal", "parseval"):
        raise ValueError(f"unknown mode {mode!r}")
    v = Verdict()
    cfg = _config(components)
    balls = [b for W in components for b in W.balls]
    v.add_partition(cfg, balls, "components-disjoint")
    if not v.passed:
        return v
    v.checks += [replace(c, name=f"union-dilation:{c.name}")
                 for c in check_dilation_tiling(ClopenSet(cfg, balls)).checks]
    for i, W in enumerate(components, 1):
        v.add_partition(cfg, joint_fold([W]), f"component-{i}:translates-disjoint", integers(cfg),
                        f"component-{i}:translates-cover" if mode == "orthonormal" else None)
    v.bounds["order"] = len(components)
    return v


def verify_superwavelet(components, mode: str = "orthonormal") -> Verdict:
    """Set criterion for a super-wavelet tuple: (a) each component tiles
    under dilation, (b) each component packs under translation, (c) the
    joint translates tile the field (orthonormal) or pack (parseval).
    Raises ValueError on an empty tuple."""
    if mode not in ("orthonormal", "parseval"):
        raise ValueError(f"unknown mode {mode!r}")
    v = Verdict()
    cfg = _config(components)
    v.add_components(components, "(a)-component-{}-dilation-tiling",
                     "(b)-component-{}-translation-packing")
    v.add_partition(cfg, joint_fold(components), "(c)-joint-translates-disjoint", integers(cfg),
                    "(c)-joint-translates-cover" if mode == "orthonormal" else None)
    # a fold cuts and shifts balls, so it keeps their total measure
    v.bounds["joint_fold_measure"] = str(sum((W.measure() for W in components), Fraction(0)))
    v.bounds["length"] = len(components)
    return v


# ---------------------------------------------------------------------------
# Pointwise frame equations for step functions
# ---------------------------------------------------------------------------


def verify_frame_pointwise(fns) -> Verdict:
    """Pointwise Parseval criterion for a family of spectra: the dilation
    square sum must be identically one, and the translated correlation sums
    must vanish for every non-divisible translation index.  Raises
    ValueError on an empty family."""
    v = Verdict()
    cfg = _config(fns)
    smin, _, zero = shell_range(fns)
    if zero is not None:
        v.add("bounded-away-from-zero", False, witness_ball(zero[0]),
              note="a spectrum charged at zero meets infinitely many dilates")
        return v
    v.add("bounded-away-from-zero", True)

    # dilation square sum == 1, checked on the unit shell (the sum is
    # invariant under scaling the argument by p); a cell of shell s lands
    # there only under the dilation by p**-s.  With no cells the sum is 0
    squares = cell_sum(cfg, [(b.scale_by(-b.shell_index()), x.abs_sq())
                             for f in fns for b, x in f.cells])
    v.add_agreement("dilation-square-sum", [0],
                    lambda _: ([squares], [StepFunction.indicator(units(cfg))]), "sum = {1}")

    # translated correlations vanish
    j_max = max(-smin - 1, -1)
    s_max = cfg.q ** max(-smin, 0) - 1
    v.bounds["j_max"] = j_max
    v.bounds["s_max"] = s_max
    nothing = [StepFunction.zero(cfg)] * 2

    def t(s):  # t_s, one step function per half-grade, against zero
        us = coset_rep(cfg, s)
        terms = [c for f in fns for j in range(j_max + 1)
                 for c in products(f.precompose(j), f.precompose(j, shift=us))]
        return [cell_sum(cfg, part) for part in by_grade(terms)], nothing

    v.add_agreement("translation-correlation", [s for s in range(1, s_max + 1) if s % cfg.q], t,
                    "nonzero at translation index s={0}")
    return v


def _rational_cells(w: StepFunction):
    """The (ball, Fraction) cells of a periodized weight w.  Raises
    ValueError naming the first ball where w is not rational."""
    cells = []
    for ball, val in w.cells:
        try:
            cells.append((ball, val.as_fraction()))
        except ValueError:
            raise ValueError(f"periodized weight is not rational on {ball}") from None
    return cells


def verify_translates(phi: StepFunction, mode: str = "parseval") -> Verdict:
    """Is the integral-translate system of phi a Parseval frame for its span
    (periodized weight within [0, 1]) or an orthonormal system (identically
    one)?  The sharper indicator-valued condition is reported non-bindingly."""
    if mode not in ("parseval", "orthonormal"):
        raise ValueError(f"unknown mode {mode!r}")
    v = Verdict()
    cfg = phi.config
    w = periodized_weight(phi)
    values = _rational_cells(w)
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
            v.add_set("weight-identically-one", integers(cfg).subtract(w.support()),
                      note="weight vanishes here")
    indicator = bad is None and all(x in (0, 1) for _, x in values)
    v.add("weight-is-indicator", indicator, binding=False)
    return v


def verify_super_functions(fns) -> Verdict:
    """Pointwise criterion for an orthonormal super-wavelet tuple of spectra:
    per-component dilation square sum and translated correlations, plus the
    joint cross-scale periodized correlation reproducing the Kronecker delta.
    Each per-component check carries the witness of its own failure.
    Raises ValueError on an empty tuple."""
    v = Verdict()
    cfg = _config(fns)
    for i, f in enumerate(fns, 1):
        sub = verify_frame_pointwise([f])
        # both parts need the spectrum away from zero, else neither runs
        for part, name in (("i", "dilation-square-sum"), ("ii", "translation-correlation")):
            v.add(f"({part})-component-{i}-{name}",
                  *sub.outcome("bounded-away-from-zero", name))

    smin, smax, zero = shell_range(fns)
    if zero is not None:
        v.add("(iii)-joint-correlation", False, witness_ball(zero[0]))
        return v
    j_max = max(smax - smin, 0)
    v.bounds["j_max"] = j_max
    v.bounds["k_max"] = cfg.q ** max(-smin, 0) - 1
    # P_0 must be one on the integers and every other P_j zero, in each grade
    zero, one = StepFunction.zero(cfg), StepFunction.indicator(integers(cfg))
    v.add_agreement("(iii)-joint-correlation", range(j_max + 1),
                    lambda j: (_correlation(fns, j), [zero if j else one, zero]),
                    "j={0}, sum = {1}")
    return v


def _correlation(fns, n):
    """P_n, the periodized cross-scale correlation at scale offset n: the
    periodization of the products f(p**-n * x) * conj f(x), f in fns, as one
    step function per half-grade."""
    terms = [c for f in fns for c in products(f.precompose(n), f)]
    return [periodize(fns[0].config, part) for part in by_grade(terms)]


def equivalent_superwavelets(a_fns, b_fns) -> Verdict:
    """Two Parseval frame super-wavelet tuples are equivalent exactly when
    their periodized cross-scale correlations agree at every scale offset.
    Raises ValueError when either tuple is empty."""
    v = Verdict()
    cfg = _config(a_fns, b_fns)
    smin, smax, zero = shell_range(list(a_fns) + list(b_fns))
    if zero is not None:
        v.add("bounded-away-from-zero", False, witness_ball(zero[0]))
        return v
    n_max = max(smax - smin, 0)
    v.bounds["n_max"] = n_max
    v.bounds["k_max"] = cfg.q ** max(-smin, 0) - 1
    v.add_agreement("correlations-agree", range(n_max + 1),
                    lambda n: (_correlation(a_fns, n), _correlation(b_fns, n)),
                    "first discrepancy at scale offset n={0}")
    return v


# ---------------------------------------------------------------------------
# Decomposability / extendability bounds (necessary conditions only)
# ---------------------------------------------------------------------------


def _max_m_not_excluded(bound, q):
    if bound == INF:
        return None  # no length excluded
    return int(bound * q / (q - 1))


def decomposability_bound(psi: StepFunction):
    """Exact value of the weighted singular integral of the periodized weight
    and the largest decomposition length it fails to exclude.  Necessary
    condition only: never claims decomposability."""
    value = inv_norm_integral(_rational_cells(periodized_weight(psi)))
    return value, _max_m_not_excluded(value, psi.config.q)


def extendability_bound(psi: StepFunction):
    """Same singular integral applied to the complement weight 1 - w;
    bounds the length of any super-wavelet extension."""
    cfg = psi.config
    w = periodized_weight(psi)
    cells = []
    for ball, x in _rational_cells(w):
        if x > 1:
            raise ValueError(
                f"periodized weight exceeds 1 on {ball}: not a Parseval frame wavelet"
            )
        cells.append((ball, 1 - x))
    cells.extend((ball, 1) for ball in integers(cfg).subtract(w.support()).balls)
    value = inv_norm_integral(cells)
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
    v.add_set("dilation-stable", S.scale_by(1).subtract(S))
    layer = S.scale_by(-1).subtract(S)
    v.add_set("wavelet-is-dilation-layer", layer.subtract(W).union(W.subtract(layer)))
    ok = S.measure() * (q - 1) == W.measure()
    v.add("measure-law", ok, None if ok else witness_measure(S.measure()))
    overlap, _ = v.add_partition(cfg, joint_fold([S]), "translates-pack", integers(cfg),
                                 "translates-tile")
    # tiling is packing and covering; it names the kind of analysis only
    tiling = overlap.is_empty() and v.checks[-1].ok
    v.checks[-1] = Check("translates-tile", tiling, binding=False,
                         note="multiresolution analysis" if tiling
                         else "Parseval frame multiresolution analysis")
    v.bounds["mra_kind"] = "orthonormal" if tiling else "parseval"
    return v
