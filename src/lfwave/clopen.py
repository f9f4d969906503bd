"""Canonical algebra of compact-open subsets of the local field.

Every set is a finite disjoint union of balls  center + p**scale * O  in
canonical form: centers reduced below the scale, nesting removed, any q
sibling balls merged into their parent, deterministic ordering.  Equal
point-sets therefore have identical representations, and measures are exact
rationals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .gfq import ConfigMismatch, FieldConfig
from .lfield import FieldElement, split_integral

INF = math.inf


class Ball:
    """center + p**scale * O, with center digits all below the scale."""

    __slots__ = ("config", "center", "scale", "_key")

    def __init__(self, config: FieldConfig, center: FieldElement, scale: int):
        self.config = config
        self.center = center.truncate_below(scale)
        self.scale = scale
        self._key = (
            scale,
            tuple(sorted((e, self.center.digit(e).index) for e in self.center.digits)),
        )

    @classmethod
    def integers(cls, config: FieldConfig, scale: int = 0) -> "Ball":
        """The fractional ideal p**scale * O."""
        return cls(config, FieldElement.zero(config), scale)

    def measure(self) -> Fraction:
        return Fraction(self.config.q) ** (-self.scale)

    def contains_point(self, x: FieldElement) -> bool:
        return (x - self.center).valuation() >= self.scale

    def contains_ball(self, other: "Ball") -> bool:
        return self.scale <= other.scale and self.contains_point(other.center)

    def is_disjoint(self, other: "Ball") -> bool:
        return not (self.contains_ball(other) or other.contains_ball(self))

    def contains_zero(self) -> bool:
        return not self.center

    def shell_index(self):
        """Common valuation of all points; None for a ball containing zero."""
        return None if not self.center else self.center.valuation()

    def children(self):
        cfg = self.config
        for i in range(cfg.q):
            d = cfg.from_index(i)
            yield Ball(cfg, self.center + FieldElement.monomial(cfg, d, self.scale), self.scale + 1)

    def split_to(self, scale: int):
        """All sub-balls at the given finer (or equal) scale."""
        if scale <= self.scale:
            yield self
            return
        for child in self.children():
            yield from child.split_to(scale)

    def scale_by(self, j: int) -> "Ball":
        return Ball(self.config, self.center.scale_exponents(j), self.scale + j)

    def translate(self, t: FieldElement) -> "Ball":
        return Ball(self.config, self.center + t, self.scale)

    def sort_key(self):
        return self._key

    def __eq__(self, other):
        return (
            isinstance(other, Ball)
            and self.config == other.config
            and self.scale == other.scale
            and self.center == other.center
        )

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return f"ball({self.center!r}, {self.scale})"

    def as_json(self):
        from .lfield import format_element

        return {"center": format_element(self.center), "scale": self.scale}


def ball_intersect(a: Ball, b: Ball):
    """Ultrametric: balls are nested or disjoint."""
    if a.contains_ball(b):
        return b
    if b.contains_ball(a):
        return a
    return None


def ball_subtract(a: Ball, b: Ball):
    """a minus b as a list of balls."""
    if a.is_disjoint(b):
        return [a]
    if b.contains_ball(a):
        return []
    out = []
    cur = a
    while cur.scale < b.scale:
        for child in cur.children():
            if child.contains_ball(b):
                nxt = child
            else:
                out.append(child)
        cur = nxt
    return out


class ClopenSet:
    """Finite disjoint union of balls in canonical form."""

    __slots__ = ("config", "balls")

    def __init__(self, config: FieldConfig, balls, _canonical: bool = False):
        self.config = config
        if _canonical:
            self.balls = tuple(balls)
        else:
            self.balls = ClopenSet._normalize(config, balls)

    @staticmethod
    def _normalize(config, raw):
        balls = []
        seen = set()
        for b in raw:
            if b.config != config:
                raise ConfigMismatch("ball from a different field configuration")
            if b not in seen:
                seen.add(b)
                balls.append(b)
        # drop balls nested inside coarser ones
        balls.sort(key=Ball.sort_key)
        kept: list[Ball] = []
        for b in balls:
            if not any(r.contains_ball(b) for r in kept):
                kept.append(b)
        # merge complete sibling groups into their parent, to a fixpoint
        q = config.q
        changed = True
        while changed:
            changed = False
            groups: dict = {}
            for b in kept:
                pkey = (b.scale - 1, b.center.truncate_below(b.scale - 1))
                groups.setdefault(pkey, []).append(b)
            merged = []
            for (pscale, pcenter), members in groups.items():
                if len(members) == q:
                    merged.append(Ball(config, pcenter, pscale))
                    changed = True
                else:
                    merged.extend(members)
            kept = merged
        kept.sort(key=Ball.sort_key)
        return tuple(kept)

    # -- constructors --------------------------------------------------------

    @classmethod
    def empty(cls, config: FieldConfig) -> "ClopenSet":
        return cls(config, (), _canonical=True)

    @classmethod
    def from_ball(cls, ball: Ball) -> "ClopenSet":
        return cls(ball.config, (ball,), _canonical=True)

    def is_empty(self) -> bool:
        return not self.balls

    # -- Boolean algebra -------------------------------------------------------

    def _check(self, other: "ClopenSet"):
        if self.config != other.config:
            raise ConfigMismatch("sets from different field configurations")

    def union(self, other: "ClopenSet") -> "ClopenSet":
        self._check(other)
        return ClopenSet(self.config, self.balls + other.balls)

    def intersect(self, other: "ClopenSet") -> "ClopenSet":
        self._check(other)
        pieces = []
        for a in self.balls:
            for b in other.balls:
                c = ball_intersect(a, b)
                if c is not None:
                    pieces.append(c)
        return ClopenSet(self.config, pieces)

    def subtract(self, other: "ClopenSet") -> "ClopenSet":
        self._check(other)
        cur = list(self.balls)
        for b in other.balls:
            cur = [p for piece in cur for p in ball_subtract(piece, b)]
        return ClopenSet(self.config, cur)

    def contains_set(self, other: "ClopenSet") -> bool:
        return other.subtract(self).is_empty()

    def member(self, x: FieldElement) -> bool:
        return any(b.contains_point(x) for b in self.balls)

    def __eq__(self, other):
        return (
            isinstance(other, ClopenSet)
            and self.config == other.config
            and self.balls == other.balls
        )

    def __hash__(self):
        return hash(self.balls)

    # -- measure, actions ------------------------------------------------------

    def measure(self) -> Fraction:
        return sum((b.measure() for b in self.balls), Fraction(0))

    def scale_by(self, j: int) -> "ClopenSet":
        """Image under multiplication by p**j (canonical form is preserved)."""
        return ClopenSet(
            self.config, [b.scale_by(j) for b in self.balls], _canonical=True
        )

    def translate(self, t: FieldElement) -> "ClopenSet":
        return ClopenSet(self.config, [b.translate(t) for b in self.balls])

    # -- structure -------------------------------------------------------------

    def min_valuation(self):
        """m with the set inside p**m * O; +inf for the empty set."""
        m = INF
        for b in self.balls:
            v = b.scale if b.contains_zero() else b.center.valuation()
            m = min(m, v)
        return m

    def shells(self, depth: int | None = None):
        """Split along shells of constant absolute value.

        Returns (pieces, residual) where pieces is a sorted list of
        (shell index, ClopenSet) and residual is the zero-containing ball,
        if any (peeled `depth` more levels when requested).
        """
        by_shell: dict[int, list[Ball]] = {}
        residual = None
        for b in self.balls:
            if b.contains_zero():
                residual = b  # at most one: nesting is forbidden
            else:
                by_shell.setdefault(b.center.valuation(), []).append(b)
        if residual is not None and depth is not None:
            for i in range(depth):
                s = residual.scale + i
                by_shell.setdefault(s, []).extend(shell(self.config, s).balls)
            residual = Ball.integers(self.config, residual.scale + depth)
        pieces = [
            (s, ClopenSet(self.config, bs)) for s, bs in sorted(by_shell.items())
        ]
        return pieces, residual

    def fold(self) -> "FoldResult":
        """Translate every ball back into the ring of integers; see joint_fold."""
        return joint_fold(self.config, [self])

    def inv_norm_integral(self):
        """Integral of 1/|xi| over the set: exact rational, or +inf when the
        set has positive mass arbitrarily close to zero."""
        total = Fraction(0)
        for b in self.balls:
            if b.contains_zero():
                return INF
            total += Fraction(self.config.q) ** (b.center.valuation() - b.scale)
        return total

    def __repr__(self):
        if not self.balls:
            return "{}"
        return "{" + ", ".join(repr(b) for b in self.balls) + "}"

    def as_json(self):
        return [b.as_json() for b in self.balls]


@dataclass
class FoldResult:
    fragments: list  # (Ball inside O, source coset index)
    coverage: ClopenSet
    overlap: ClopenSet

    def measure(self) -> Fraction:
        """Total fragment measure: the coverage counted with multiplicity."""
        return sum((frag.measure() for frag, _ in self.fragments), Fraction(0))


def overlay(config: FieldConfig, sets):
    """(coverage, overlap): the union of the sets, and the points lying in
    two or more of them."""
    coverage = ClopenSet.empty(config)
    overlap = ClopenSet.empty(config)
    for s in sets:
        overlap = overlap.union(coverage.intersect(s))
        coverage = coverage.union(s)
    return coverage, overlap


def joint_fold(config: FieldConfig, sets) -> FoldResult:
    """Translate every ball of every set back into the ring of integers.

    Each ball is refined to scale >= 0 (so it sits inside a single coset),
    then shifted by the canonical representative of its coset.  The
    overlap set witnesses any collision between translates, within one set
    or across sets.
    """
    fragments = []
    for s in sets:
        for b in s.balls:
            for piece in b.split_to(max(b.scale, 0)):
                n, rem = split_integral(piece.center)
                fragments.append((Ball(s.config, rem, piece.scale), n))
    fragments.sort(key=lambda fr: (fr[1], fr[0].sort_key()))
    coverage, overlap = overlay(
        config, (ClopenSet.from_ball(frag) for frag, _ in fragments))
    return FoldResult(fragments, coverage, overlap)


# ---------------------------------------------------------------------------
# Stock sets
# ---------------------------------------------------------------------------


def integers(config: FieldConfig) -> ClopenSet:
    """The ring of integers O."""
    return ClopenSet.from_ball(Ball.integers(config))


def fractional_ideal(config: FieldConfig, k: int) -> ClopenSet:
    """p**k * O."""
    return ClopenSet.from_ball(Ball.integers(config, k))


def shell(config: FieldConfig, s: int) -> ClopenSet:
    """p**s * O* : all elements of absolute value exactly q**-s."""
    balls = [
        Ball(config, FieldElement.monomial(config, config.from_index(i), s), s + 1)
        for i in range(1, config.q)
    ]
    return ClopenSet(config, balls)


def units(config: FieldConfig) -> ClopenSet:
    """The unit group O* = O minus pO."""
    return shell(config, 0)
