"""Piecewise-constant functions on the local field with exact cyclotomic values.

A step function is a finite list of (ball, value) cells with pairwise
disjoint balls and the implicit value 0 elsewhere.  Every function the
library handles is constant on the cells of a common refinement, so
"almost everywhere" statements are decided exactly at one representative
point per refinement cell.
"""

from __future__ import annotations

from operator import itemgetter

from .clopen import INF, Ball, ClopenSet, child_keys, fold_ball, outer_balls
from .cyclo import CycloScalar
from .gfq import ConfigMismatch, FieldConfig
from .lfield import FieldElement


class StepFunction:
    __slots__ = ("config", "cells")

    def __init__(self, config: FieldConfig, cells, _canonical: bool = False):
        if _canonical:
            self.config = config
            self.cells = tuple(cells)
            return
        kept = []
        for ball, value in cells:
            if ball.config != config:
                raise ConfigMismatch("cell ball from a different configuration")
            if not value.is_zero():
                kept.append((ball, value))
        kept.sort(key=lambda cv: cv[0].sort_key())
        for outer, b in outer_balls(ball for ball, _ in kept):
            if outer is not None:
                raise ValueError(f"overlapping cells {outer} and {b}")
        self.config = config
        self.cells = tuple(kept)

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, config: FieldConfig) -> "StepFunction":
        return cls(config, (), _canonical=True)

    @classmethod
    def indicator(cls, support: ClopenSet, value: CycloScalar | None = None) -> "StepFunction":
        cfg = support.config
        if value is None:
            value = CycloScalar.rational(cfg.p, cfg.q, 1)
        return cls(cfg, [(b, value) for b in support.balls])

    # -- evaluation ------------------------------------------------------------

    def evaluate(self, x: FieldElement) -> CycloScalar:
        for ball, value in self.cells:
            if ball.contains_point(x):
                return value
        return CycloScalar.zero(self.config.p, self.config.q)

    def support(self) -> ClopenSet:
        return ClopenSet(self.config, [b for b, _ in self.cells])

    # -- pointwise algebra -------------------------------------------------------

    def conj(self) -> "StepFunction":
        return StepFunction(
            self.config, [(b, v.conj()) for b, v in self.cells], _canonical=True
        )

    def precompose(self, j: int = 0, shift: FieldElement | None = None) -> "StepFunction":
        """The function  xi -> f(p**-j * (xi + shift)).

        Cell preimages are balls again: B maps to p**j * B - shift.
        """
        if shift is None:
            # dilation keeps the cells disjoint and nonzero, and their order
            return StepFunction(self.config, [(b.scale_by(j), v) for b, v in self.cells],
                                _canonical=True)
        neg = -shift
        return StepFunction(self.config, [(b.scale_by(j).translate(neg), v)
                                          for b, v in self.cells])

    def __eq__(self, other):
        if not isinstance(other, StepFunction) or self.config != other.config:
            return NotImplemented
        return all(a == b for _, (a, b) in common_refinement(self.config, [self, other]))

    def __repr__(self):
        if not self.cells:
            return "step{}"
        return "step{" + ", ".join(f"({b!r}, {v!r})" for b, v in self.cells) + "}"


def _shells(f: StepFunction):
    """(shells, zero cell): the shell indices of f's cells away from zero,
    and its (ball, value) cell that contains zero, or None."""
    shells = {cell[0].shell_index(): cell for cell in f.cells}
    zero = shells.pop(None, None)  # the one cell without a shell index
    return shells.keys(), zero


def shell_range(fns):
    """(smin, smax, zero cell): the lowest and highest shell index over the
    cells of all fns that do not contain zero (inf and -inf when there are
    none), and the first (ball, value) cell that contains zero, or None."""
    scans = [_shells(f) for f in fns]
    shells = set().union(*(s for s, _ in scans))
    zero = next((z for _, z in scans if z), None)
    return min(shells, default=INF), max(shells, default=-INF), zero


def common_refinement(config, fns):
    """A pairwise-disjoint ball mesh on which every input function is constant
    and which covers every input support.

    Returns a list of (cell, values) sorted by cell, where values[i] is the
    value of fns[i] on the cell (zero off its support).

    One outer_balls pass over the input balls in sort-key order yields the
    regions, the maximal input balls, and files every input ball under the
    region holding it; each region is then split down to where every ball
    filed under it covers the cell.
    """
    pool = sorted(((b, i, v) for i, f in enumerate(fns) for b, v in f.cells),
                  key=lambda c: c[0].sort_key())
    if any(b.config != config for b, _, _ in pool):
        raise ConfigMismatch("ball from a different field configuration")
    regions = {}  # maximal input ball -> the input cells inside it
    for c, (outer, b) in zip(pool, outer_balls(c[0] for c in pool)):
        regions.setdefault(b if outer is None else outer, []).append(c)
    zero = CycloScalar.zero(config.p, config.q)

    def cells(ball, relevant):
        if all(b.contains_ball(ball) for b, _, _ in relevant):
            values = [zero] * len(fns)
            for _, i, v in relevant:
                values[i] = v
            yield ball, values
            return
        for child in ball.children():
            sub = [c for c in relevant if not child.is_disjoint(c[0])]
            if sub:
                yield from cells(child, sub)

    # finest ball first: the likeliest to fail the containment test
    mesh = [cell for region, filed in regions.items() for cell in cells(region, filed[::-1])]
    mesh.sort(key=lambda cv: cv[0].sort_key())
    return mesh


def products(g: StepFunction, h: StepFunction):
    """The (cell, x * conj y) cells of g * conj h where both are nonzero, in
    cell order: the one product of two spectra.

    A ball away from zero lies in one shell, so two spectra with no shell in
    common have no cell in common, and their product is empty without a
    refinement."""
    cfg = g.config
    if any(ball.config != cfg for ball, _ in h.cells):
        raise ConfigMismatch("ball from a different field configuration")
    (gs, gz), (hs, hz) = _shells(g), _shells(h)
    # the scale of the zero cell, which holds every shell from it up
    gt, ht = (INF if z is None else z[0].scale for z in (gz, hz))
    if (gs.isdisjoint(hs) and max(gt, ht) == INF
            and max(hs, default=-INF) < gt and max(gs, default=-INF) < ht):
        return []
    return [(cell, x * y.conj())
            for cell, (x, y) in common_refinement(cfg, [g, h])
            if not (x.is_zero() or y.is_zero())]


def cell_sum(config: FieldConfig, cells) -> StepFunction:
    """The sum of (ball, value) cells, which may overlap, as a step function,
    found on sort keys: equal balls are added first, then each maximal ball
    is walked down its child keys, carrying the sum of the input values on
    the path.  A ball with no input strictly inside it is a cell of the
    coarsest common refinement of the balls; cells where the values sum to
    zero are dropped."""
    totals = {}
    for ball, value in cells:
        if ball.config != config:
            raise ConfigMismatch("ball from a different field configuration")
        key = ball.sort_key()
        totals[key] = totals[key] + value if key in totals else value
    inner = {}  # maximal key -> the input balls strictly inside it, in key order
    for outer, b in outer_balls(Ball._from_key(config, k) for k in sorted(totals)):
        if outer is None:
            inner[b.sort_key()] = []
        else:
            inner[outer.sort_key()].append(b)
    q, out = config.q, []

    def walk(key, value, balls):
        if not balls:
            if not value.is_zero():
                out.append((key, value))
            return
        under: dict = {}
        for b in balls:
            under.setdefault(b.ancestor_key(key[0] + 1), []).append(b)
        for child in child_keys(key, q):
            below = under.get(child, ())
            if below and below[0].sort_key() == child:  # an input equal to the child
                walk(child, value + totals[child], below[1:])
            else:
                walk(child, value, below)

    for key, balls in inner.items():
        walk(key, totals[key], balls)
    out.sort(key=itemgetter(0))
    return StepFunction(config, [(Ball._from_key(config, k), v) for k, v in out],
                        _canonical=True)


def periodize(config: FieldConfig, cells) -> StepFunction:
    """The sum over all integral translates of (ball, value) cells, which
    may overlap, as a step function on the ring of integers: the cell_sum
    of the fragments fold_ball cuts each ball into.  The fold is finite
    because every ball is bounded; the result is integral periodic by
    construction."""
    return cell_sum(config, [(frag, value) for ball, value in cells
                             for frag, _ in fold_ball(ball)])


def periodized_weight(f: StepFunction) -> StepFunction:
    """The periodization of |f|**2."""
    return periodize(f.config, [(ball, value.abs_sq()) for ball, value in f.cells])
