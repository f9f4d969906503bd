"""Canonical algebra of compact-open subsets of the local field.

Every set is a finite disjoint union of balls  center + p**scale * O  in
canonical form: centers reduced below the scale, nesting removed, any q
sibling balls merged into their parent, deterministic ordering.  Equal
point-sets therefore have identical representations, and measures are exact
rationals.  The set algebra decides nesting on sort keys: balls in sort-key
order meet the balls kept so far by one ancestor-key lookup per kept scale
(outer_balls), and intersection, difference, overlay and the fold's
collisions all come from that pass.  Only the pointwise oracle `member`
subtracts centres here.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction

from .gfq import ConfigMismatch, FieldConfig
from .lfield import FieldElement

INF = math.inf


class Ball:
    """center + p**scale * O, with center digits all below the scale.

    A ball is its sort key (scale, ((e, i), ...)): the centre's digits as
    (exponent, GF(q) index) pairs in increasing exponent."""

    __slots__ = ("config", "scale", "_key", "_center")

    def __init__(self, config: FieldConfig, center: FieldElement, scale: int):
        self.config = config
        self._center = center = center.truncate_below(scale)
        self.scale = scale
        self._key = (scale, tuple(sorted(center.digits.items())))

    @classmethod
    def integers(cls, config: FieldConfig, scale: int = 0) -> "Ball":
        """The fractional ideal p**scale * O."""
        return cls._from_key(config, (scale, ()))

    @classmethod
    def from_key(cls, config: FieldConfig, key) -> "Ball":
        """The ball whose sort key is `key`: (scale, ((e, i), ...)) of ints
        with exponents strictly increasing and below the scale, and digit
        indices in 1..q-1.  Raises ValueError on any other key."""
        try:
            scale, digits = key
            digits = tuple((e, i) for e, i in digits)
        except (TypeError, ValueError):
            raise ValueError(f"a ball key is a pair (scale, ((e, i), ...)): {key!r}") from None
        if not all(type(n) is int for n in (scale, *(n for d in digits for n in d))):
            raise ValueError(f"a ball key holds only ints: {key!r}")
        prev = -INF
        for e, i in digits:
            if not prev < e < scale:
                raise ValueError(
                    f"digit exponents must increase strictly and stay below "
                    f"the scale {scale}: {digits}")
            if not 0 < i < config.q:
                raise ValueError(f"digit index {i} outside 1..{config.q - 1}")
            prev = e
        return cls._from_key(config, (scale, digits))

    @classmethod
    def _from_key(cls, config: FieldConfig, key) -> "Ball":
        """from_key without the checks, for keys built as sort keys."""
        ball = object.__new__(cls)
        ball.config = config
        ball.scale = key[0]
        ball._key = key
        ball._center = None
        return ball

    @property
    def center(self) -> FieldElement:
        """The centre: built from the key on first read, then kept."""
        center = self._center
        if center is None:
            center = self._center = FieldElement(self.config, dict(self._key[1]), True)
        return center

    def measure(self) -> Fraction:
        return Fraction(self.config.q) ** (-self.scale)

    def contains_point(self, x: FieldElement) -> bool:
        return (x - self.center).valuation() >= self.scale

    def contains_ball(self, other: "Ball") -> bool:
        return self.scale <= other.scale and self.contains_point(other.center)

    def is_disjoint(self, other: "Ball") -> bool:
        return not (self.contains_ball(other) or other.contains_ball(self))

    def contains_zero(self) -> bool:
        return not self._key[1]

    def shell_index(self):
        """Common valuation of all points; None for a ball containing zero."""
        digits = self._key[1]
        return digits[0][0] if digits else None

    def ancestor_key(self, t: int):
        """Sort key of the scale-t ball containing this one (t <= scale)."""
        digits = self._key[1]
        return t, digits[:bisect_left(digits, (t,))]

    def sub_keys(self, t: int):
        """Sort keys of the sub-balls at scale t, in sort-key order; the
        ball's own key when t <= scale (the keys of split_to(t))."""
        scale, digits = self._key
        if t <= scale:
            yield self._key
            return
        q = self.config.q

        def extend(prefix, e0):
            # prefix first, then every extension by a nonzero digit at
            # e0..t-1 in increasing (exponent, digit): sort-key order
            yield prefix
            for e in range(e0, t):
                for i in range(1, q):
                    yield from extend(prefix + ((e, i),), e + 1)

        for d in extend(digits, scale):
            yield t, d

    def children(self):
        """The q sub-balls one scale finer, in digit index order 0..q-1."""
        return self.split_to(self.scale + 1)

    def split_to(self, scale: int):
        """All sub-balls at the given finer (or equal) scale: the digit at
        this ball's scale is the most significant, each digit runs through
        index order 0..q-1."""
        if scale <= self.scale:
            yield self
            return
        cfg = self.config
        level = [self._key[1]]
        for e in range(self.scale, scale):
            ext = [((e, i),) for i in range(1, cfg.q)]
            nxt = []
            for d in level:
                nxt.append(d)
                nxt.extend([d + x for x in ext])
            level = nxt
        for d in level:
            yield Ball._from_key(cfg, (scale, d))

    def sub_ball(self, scale: int, n: int) -> "Ball":
        """The n-th ball of split_to(scale), without enumerating: the base-q
        digits of n, least significant at exponent scale-1, follow the
        centre's digits."""
        q = self.config.q
        if not 0 <= n < q ** max(scale - self.scale, 0):
            raise ValueError(f"sub-ball index {n} out of range")
        if scale <= self.scale:
            return self
        tail = []
        e = scale
        while n:
            n, i = divmod(n, q)
            e -= 1
            if i:
                tail.append((e, i))
        return Ball._from_key(self.config, (scale, self._key[1] + tuple(reversed(tail))))

    def scale_by(self, j: int) -> "Ball":
        scale, digits = self._key
        return Ball._from_key(self.config, (scale + j, tuple([(e + j, i) for e, i in digits])))

    def translate(self, t: FieldElement) -> "Ball":
        return Ball(self.config, self.center + t, self.scale)

    def sort_key(self):
        return self._key

    def __eq__(self, other):
        return (
            isinstance(other, Ball)
            and self.config == other.config
            and self._key == other._key
        )

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return f"ball({self.center!r}, {self.scale})"

    def as_json(self):
        from .lfield import format_element

        return {"center": format_element(self.center), "scale": self.scale}


def ancestor_keys(key, t0: int):
    """Sort keys of the balls at scales t0..scale containing the ball with
    sort key `key` (of that scale), coarsest first."""
    scale, digits = key
    for t in range(t0, scale + 1):
        yield t, digits[:bisect_left(digits, (t,))]


def translated_keys(u: FieldElement, keys):
    """Translate balls inside O by u on their sort keys, for u with digits
    only at negative exponents: per key, (key of ball + u, shell index s,
    key of (ball + u) * p**-s); s and the normalized key are None for a
    ball containing zero.  u's digits all sit below the centre digits, so
    the sum is a concatenation of digit tuples."""
    pre = tuple(sorted(u.digits.items()))
    for scale, digits in keys:
        cell = pre + digits
        if not cell:
            yield (scale, cell), None, None
            continue
        s = cell[0][0]
        yield (scale, cell), s, (scale - s, tuple([(e - s, i) for e, i in cell]))


def outer_balls(balls):
    """(outer, ball) for balls in sort-key order: outer is a ball kept so far
    that contains (or equals) this one, or None, and then this one is kept.
    Every kept scale is <= ball.scale, so containment is one ancestor-key
    lookup per kept scale."""
    kept: dict = {}
    scales: list[int] = []  # the distinct kept scales, ascending
    for b in balls:
        outer = None
        for t in scales:
            outer = kept.get(b.ancestor_key(t))
            if outer is not None:
                break
        else:
            kept[b._key] = b
            if not scales or scales[-1] != b.scale:
                scales.append(b.scale)
        yield outer, b


def _nested(balls):
    """The given balls that lie inside, or equal, another given ball (of
    equal balls, all but the first), in sort-key order."""
    return [b for outer, b in outer_balls(sorted(balls, key=Ball.sort_key))
            if outer is not None]


def _carve(ball: Ball, holes):
    """The sub-balls of `ball` outside the disjoint balls `holes` inside it:
    a hole equal to the ball removes it; otherwise each child is carved
    around the holes under it."""
    if not holes:
        yield ball
    elif holes[0] != ball:
        under: dict = {}
        for h in holes:
            under.setdefault(h.ancestor_key(ball.scale + 1), []).append(h)
        for child in ball.children():
            yield from _carve(child, under.get(child._key))


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
        balls = sorted(raw, key=Ball.sort_key)
        for b in balls:
            if b.config != config:
                raise ConfigMismatch("ball from a different field configuration")
        # drop duplicates and balls nested inside coarser ones
        kept = [b for outer, b in outer_balls(balls) if outer is None]
        # merge complete sibling groups into their parent, to a fixpoint
        q = config.q
        changed = True
        while changed:
            changed = False
            groups: dict = {}
            for b in kept:
                groups.setdefault(b.ancestor_key(b.scale - 1), []).append(b)
            merged = []
            for parent, members in groups.items():
                if len(members) == q:
                    merged.append(Ball._from_key(config, parent))
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
        # each set is disjoint, so a ball inside another lies in both sets
        self._check(other)
        return ClopenSet(self.config, _nested(self.balls + other.balls))

    def subtract(self, other: "ClopenSet") -> "ClopenSet":
        """Each ball of self carved around the balls of self.intersect(other)
        inside it: one nesting pass over both puts each such hole under the
        key of the one ball of self holding it."""
        holes: dict = {}
        pieces = sorted(self.balls + self.intersect(other).balls, key=Ball.sort_key)
        for outer, b in outer_balls(pieces):
            if outer is not None:
                holes.setdefault(outer._key, []).append(b)
        return ClopenSet(self.config, [
            piece for a in self.balls for piece in _carve(a, holes.get(a._key))])

    def contains_set(self, other: "ClopenSet") -> bool:
        return self.intersect(other) == other

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
        return min((b.scale if b.contains_zero() else b.shell_index() for b in self.balls),
                   default=INF)

    def shells(self):
        """Split along shells of constant absolute value.

        Returns (pieces, residual) where pieces is a sorted list of
        (shell index, ClopenSet) and residual is the zero-containing ball,
        if any.
        """
        by_shell: dict[int, list[Ball]] = {}
        residual = None
        for b in self.balls:
            s = b.shell_index()
            if s is None:
                residual = b  # at most one: nesting is forbidden
            else:
                by_shell.setdefault(s, []).append(b)
        pieces = [
            (s, ClopenSet(self.config, bs)) for s, bs in sorted(by_shell.items())
        ]
        return pieces, residual

    def fold(self) -> "FoldResult":
        """Translate every ball back into the ring of integers; see joint_fold."""
        return joint_fold(self.config, [self])

    def inv_norm_integral(self):
        """Integral of 1/|xi| over the set; see inv_norm_integral."""
        return inv_norm_integral((b, 1) for b in self.balls)

    def __repr__(self):
        if not self.balls:
            return "{}"
        return "{" + ", ".join(repr(b) for b in self.balls) + "}"

    def as_json(self):
        return [b.as_json() for b in self.balls]


def inv_norm_integral(cells):
    """Integral of weight/|xi| over disjoint (ball, rational weight) cells:
    exact, or +inf when a ball of nonzero weight contains zero (positive
    mass arbitrarily close to zero).  Zero-weight cells are skipped."""
    total = Fraction(0)
    for ball, weight in cells:
        if weight == 0:
            continue
        s = ball.shell_index()
        if s is None:
            return INF
        total += weight * Fraction(ball.config.q) ** (s - ball.scale)
    return total


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
    two or more of them (in two balls, so in the nested one)."""
    balls = [b for s in sets for b in s.balls]
    return ClopenSet(config, balls), ClopenSet(config, _nested(balls))


def fold_ball(ball: Ball):
    """(fragment, coset index) for the pieces of the ball at scale >= 0 (each
    inside a single coset), shifted by the canonical coset representative
    into the ring of integers."""
    cfg = ball.config
    q = cfg.q
    for piece in ball.split_to(max(ball.scale, 0)):
        # the digits below exponent 0 are the coset index, in base q
        scale, digits = piece._key
        k = bisect_left(digits, (0,))
        n = sum(i * q ** (-e - 1) for e, i in digits[:k])
        yield Ball._from_key(cfg, (scale, digits[k:])), n


def joint_fold(config: FieldConfig, sets) -> FoldResult:
    """Translate every ball of every set back into the ring of integers.

    Each ball is folded by fold_ball.  The overlap set witnesses any
    collision between translates, within one set or across sets.
    """
    fragments = [fr for s in sets for b in s.balls for fr in fold_ball(b)]
    fragments.sort(key=lambda fr: (fr[1], fr[0].sort_key()))
    balls = [frag for frag, _ in fragments]
    return FoldResult(fragments, ClopenSet(config, balls), ClopenSet(config, _nested(balls)))


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
    # q-1 of the q siblings under p**s * O, in sort-key order: canonical
    return ClopenSet(config, [Ball._from_key(config, (s + 1, ((s, i),)))
                              for i in range(1, config.q)], _canonical=True)


def units(config: FieldConfig) -> ClopenSet:
    """The unit group O* = O minus pO."""
    return shell(config, 0)
