"""Canonical algebra of compact-open subsets of the local field.

Every set is a finite disjoint union of balls  center + p**scale * O  in
canonical form: centers reduced below the scale, nesting removed, any q
sibling balls merged into their parent, deterministic ordering.  Equal
point-sets therefore have identical representations, and measures are exact
rationals.  The set algebra decides nesting on sort keys: balls in sort-key
order meet the balls kept so far by one ancestor-key lookup per kept scale
(outer_balls), and intersection, difference and the points where given
balls meet (nested_balls) all come from that pass.  Only the pointwise
oracle `member` subtracts centres here.  intersect, subtract and translate
are canonical by construction (see each), so they only sort.  A fold is its
unsorted list of fragments; no set is built from them here.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction

from .gfq import ConfigMismatch, FieldConfig, check_ints
from .lfield import FieldElement, coset_rep

INF = math.inf


class Ball:
    """center + p**scale * O, with center digits all below the scale.

    A ball is its sort key (scale, ((e, i), ...)): the centre's digits as
    (exponent, GF(q) index) pairs in increasing exponent."""

    __slots__ = ("config", "scale", "_key", "_center")

    def __init__(self, config: FieldConfig, center: FieldElement, scale: int):
        check_ints("scale", scale)
        self.config = config
        self._center = center = center.truncate_below(scale)
        self.scale = scale
        self._key = (scale, tuple(sorted(center.digits.items())))

    @classmethod
    def integers(cls, config: FieldConfig, scale: int = 0) -> "Ball":
        """The fractional ideal p**scale * O."""
        check_ints("scale", scale)
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

    def children(self):
        """The q sub-balls one scale finer, in digit index order 0..q-1."""
        cfg = self.config
        return [Ball._from_key(cfg, k) for k in child_keys(self._key, cfg.q)]

    def split_to(self, scale: int):
        """All sub-balls at the given finer (or equal) scale: the digit at
        this ball's scale is the most significant, each digit runs through
        index order 0..q-1."""
        check_ints("scale", scale)
        cfg = self.config
        keys = [self._key]
        for e in range(self.scale, scale):
            # the children of p**e O give every key its digit at exponent e,
            # as digit tuples shared by all the keys
            tails = child_keys((e, ()), cfg.q)
            keys = [(e + 1, d + t) for _, d in keys for _, t in tails]
        return (Ball._from_key(cfg, k) for k in keys)

    def sub_ball(self, scale: int, n: int) -> "Ball":
        """The n-th ball of split_to(scale), without enumerating: the centre's
        digits followed by those of p**scale * u(n)."""
        check_ints("scale", scale)
        cfg = self.config
        if not 0 <= n < cfg.q ** max(scale - self.scale, 0):
            raise ValueError(f"sub-ball index {n} out of range")
        if scale <= self.scale:
            return self
        tail = sorted(coset_rep(cfg, n).scale_exponents(scale).digits.items())
        return Ball._from_key(cfg, (scale, self._key[1] + tuple(tail)))

    def scale_by(self, j: int) -> "Ball":
        check_ints("j", j)
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


def parent_key(key):
    """Sort key of the ball one scale coarser holding the ball with sort key
    `key`: its digit at exponent scale - 1, if any, is dropped."""
    scale, digits = key
    if digits and digits[-1][0] == scale - 1:
        digits = digits[:-1]
    return scale - 1, digits


def child_keys(key, q: int):
    """Sort keys of the q balls one scale finer inside the ball with sort key
    `key`, in sort-key order: no digit at exponent scale first, then digit
    indices 1..q-1."""
    scale, digits = key
    return [(scale + 1, digits)] + [(scale + 1, digits + ((scale, i),)) for i in range(1, q)]


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


def nested_balls(balls):
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
        # each set is disjoint, so a ball inside another lies in both sets,
        # and a complete sibling group of such balls would lie in one set
        self._check(other)
        return ClopenSet(self.config, nested_balls(self.balls + other.balls), _canonical=True)

    def subtract(self, other: "ClopenSet") -> "ClopenSet":
        """Each ball of self carved around the balls of other inside it: one
        nesting pass over both, self's ball first among equal keys, files the
        holes and drops self's balls inside (or equal to) other's.  No parent
        keeps all q children, so the sorted pieces are canonical."""
        self._check(other)
        own = {b._key for b in self.balls}
        kept, holes = [], {}
        for outer, b in outer_balls(sorted(self.balls + other.balls, key=Ball.sort_key)):
            if outer is None:
                if b._key in own:
                    kept.append(b)
            elif outer._key in own:
                holes.setdefault(outer._key, []).append(b)
        pieces = [piece for a in kept for piece in _carve(a, holes.get(a._key))]
        return ClopenSet(self.config, sorted(pieces, key=Ball.sort_key), _canonical=True)

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
        check_ints("j", j)
        return ClopenSet(
            self.config, [b.scale_by(j) for b in self.balls], _canonical=True
        )

    def translate(self, t: FieldElement) -> "ClopenSet":
        # an isometric image of a canonical set: canonical once sorted
        return ClopenSet(self.config, sorted((b.translate(t) for b in self.balls),
                                             key=Ball.sort_key), _canonical=True)

    # -- structure -------------------------------------------------------------

    def fold(self) -> list:
        """The fragments of joint_fold([self])."""
        return joint_fold([self])

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


def fold_ball(ball: Ball):
    """The pieces of the ball at scale >= 0 (each inside a single coset),
    shifted by the canonical coset representative into the ring of
    integers: each piece without its digits below exponent 0."""
    cfg = ball.config
    for piece in ball.split_to(max(ball.scale, 0)):
        scale, digits = piece._key
        yield Ball._from_key(cfg, (scale, digits[bisect_left(digits, (0,)):]))


def joint_fold(sets) -> list:
    """Translate every ball of every set back into the ring of integers: the
    fragments of fold_ball, in the sets' ball order.  The translates collide
    exactly where two fragments meet, within one set or across sets, and
    the fragments keep the sets' total measure."""
    return [frag for s in sets for b in s.balls for frag in fold_ball(b)]


# ---------------------------------------------------------------------------
# Stock sets
# ---------------------------------------------------------------------------


def integers(config: FieldConfig) -> ClopenSet:
    """The ring of integers O."""
    return ClopenSet.from_ball(Ball.integers(config))


def fractional_ideal(config: FieldConfig, k: int) -> ClopenSet:
    """p**k * O."""
    check_ints("k", k)
    return ClopenSet.from_ball(Ball.integers(config, k))


def shell(config: FieldConfig, s: int) -> ClopenSet:
    """p**s * O* : all elements of absolute value exactly q**-s."""
    check_ints("s", s)
    # q-1 of the q siblings under p**s * O, in sort-key order: canonical
    return ClopenSet(config, [Ball._from_key(config, (s + 1, ((s, i),)))
                              for i in range(1, config.q)], _canonical=True)


def units(config: FieldConfig) -> ClopenSet:
    """The unit group O* = O minus pO."""
    return shell(config, 0)
