"""Piecewise-constant spectra: evaluation, common refinement, refinement-
stable equality, products of two spectra, sums of overlapping cells, and the
periodized weight."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from lfwave.clopen import Ball, ClopenSet, fractional_ideal, integers, shell, units
from lfwave.cyclo import CycloScalar
from lfwave.gfq import ConfigMismatch, FieldConfig
from lfwave.lfield import FieldElement, coset_rep, parse_element
from lfwave.stepfn import (StepFunction, cell_sum, common_refinement, periodize, periodized_weight,
                           products)

CFG2 = FieldConfig(2, 1)
CFG3 = FieldConfig(3, 1)


def rat(cfg, x):
    return CycloScalar.rational(cfg.p, cfg.q, x)


def test_evaluation():
    f = StepFunction.indicator(units(CFG2))
    assert f.evaluate(FieldElement.one(CFG2)) == rat(CFG2, 1)
    assert f.evaluate(FieldElement.monomial(CFG2, 1, 1)).is_zero()
    assert f.evaluate(FieldElement.monomial(CFG2, 1, -4)).is_zero()


def test_common_refinement_examples():
    f = StepFunction.indicator(units(CFG3))
    mesh = [cell for cell, _ in common_refinement(CFG3, [f])]
    assert sorted(mesh, key=Ball.sort_key) == \
        sorted(units(CFG3).balls, key=Ball.sort_key)
    # disjoint supports stay separate cells
    g = StepFunction.indicator(integers(CFG2).translate(coset_rep(CFG2, 1)))
    h = StepFunction.indicator(integers(CFG2))
    assert len(common_refinement(CFG2, [g, h])) == 2
    # nesting splits: O against pO gives cells O* and pO
    k = StepFunction.indicator(fractional_ideal(CFG2, 1))
    mesh = [cell for cell, _ in common_refinement(CFG2, [h, k])]
    got = sorted(mesh, key=Ball.sort_key)
    expect = sorted(units(CFG2).balls + fractional_ideal(CFG2, 1).balls,
                    key=Ball.sort_key)
    assert got == expect


def test_inputs_constant_on_refinement_cells():
    rng = random.Random(31)
    zero_seen = 0
    for _ in range(100):
        fns = []
        for _ in range(3):
            balls = [Ball(CFG3, coset_rep(CFG3, rng.randrange(9)),
                          rng.randrange(-1, 3)) for _ in range(2)]
            cells = [(b, rat(CFG3, rng.randrange(1, 4))) for b in
                     ClopenSet(CFG3, balls).balls]
            fns.append(StepFunction(CFG3, cells))
        extra = ClopenSet(CFG3, [Ball(CFG3, coset_rep(CFG3, rng.randrange(27)),
                                      rng.randrange(-2, 2))])
        fns.append(StepFunction.indicator(extra))
        mesh = common_refinement(CFG3, fns)
        cells = [cell for cell, _ in mesh]
        assert cells == sorted(cells, key=Ball.sort_key)
        assert ClopenSet(CFG3, cells).contains_set(extra)
        for cell, values in mesh:
            assert len(values) == len(fns)
            for f, value in zip(fns, values):
                v = f.evaluate(cell.center)
                assert value == v
                zero_seen += v.is_zero()
                for child in cell.children():
                    assert f.evaluate(child.center) == v
    assert zero_seen


def pairwise_refinement(config, fns):
    """common_refinement on the canonical balls of the union of the supports,
    with each region's balls found by a disjointness test against every
    input ball: the reference for filing them under the maximal balls."""
    pool = [(b, i, v) for i, f in enumerate(fns) for b, v in f.cells]
    universe = ClopenSet(config, [b for b, _, _ in pool])
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

    mesh = []
    for region in universe.balls:
        relevant = [c for c in pool if not region.is_disjoint(c[0])]
        mesh.extend(cells(region, relevant))
    mesh.sort(key=lambda cv: cv[0].sort_key())
    return mesh


def refinement_pool(cfg, rng):
    """1-4 step functions on disjoint balls drawn from one shared list: a
    random ball, sub-balls of it, and a ball at zero with a sub-ball.  In
    half the pools of two or more functions, the q children of one sub-ball
    are first dealt out among the functions, and the balls holding them are
    left out of the list."""
    top = Ball(cfg, random_point(cfg, rng, -3, 0), rng.randrange(-2, 2))
    subs = [below(cfg, rng, top, depth) for depth in (1, 1, 2)]
    at_zero = Ball.integers(cfg, rng.randrange(-1, 2))
    shared = [top, *subs, at_zero, below(cfg, rng, at_zero, 1)]
    n = rng.randint(1, 4)
    dealt = [[] for _ in range(n)]
    if n > 1 and rng.randrange(2):
        parent = rng.choice(subs)
        kids = parent.children()
        rng.shuffle(kids)
        for k, kid in enumerate(kids):
            dealt[k % n].append(kid)
        shared = [b for b in shared if not b.contains_ball(parent)]
    fns = []
    for balls in dealt:
        balls = ClopenSet(cfg, balls + rng.sample(shared, min(len(shared), rng.randrange(4)))).balls
        fns.append(StepFunction(cfg, [(b, random_value(cfg, rng)) for b in balls]))
    return fns


def test_refinement_files_regions_by_key():
    # the maximal input balls as regions, each input ball filed under the
    # one holding it, give the very cells, order and values of the pairwise
    # disjointness scan over the canonical union, at q = 2, 3, 4, 5 and 9,
    # on pools with balls nested across functions, equal balls in two
    # functions, sibling balls of several functions that the union merges
    # into a ball that is no input ball (and so no region here), balls at
    # zero and empty functions
    rng = random.Random(27)
    seen = Counter()
    for cfg in (CFG2, CFG3, FieldConfig(2, 2), FieldConfig(5, 1), FieldConfig(3, 2)):
        assert common_refinement(cfg, []) == pairwise_refinement(cfg, []) == []
        for _ in range(60):
            fns = refinement_pool(cfg, rng)
            got = [(cell.sort_key(), values) for cell, values in common_refinement(cfg, fns)]
            assert got == [(cell.sort_key(), values)
                           for cell, values in pairwise_refinement(cfg, fns)]
            owned = [(b, i) for i, f in enumerate(fns) for b, _ in f.cells]
            pairs = [(a, b) for a, i in owned for b, j in owned if i != j]
            seen["nested"] += any(a != b and a.contains_ball(b) for a, b in pairs)
            seen["equal"] += any(a == b for a, b in pairs)
            seen["merged"] += not set(ClopenSet(cfg, [b for b, _ in owned]).balls) <= {
                b for b, _ in owned}
            seen["at zero"] += any(b.contains_zero() for b, _ in owned)
            seen["empty"] += any(not f.cells for f in fns)
    assert min(seen.values()) >= 40 and len(seen) == 5, seen


def test_refinement_refuses_a_ball_from_another_field():
    other = FieldConfig(2, 2)
    f = StepFunction.indicator(units(CFG2))
    for fns in ([StepFunction.indicator(units(other))],
                [f, StepFunction.indicator(fractional_ideal(other, 1))]):
        with pytest.raises(ConfigMismatch, match="^ball from a different field configuration$"):
            common_refinement(CFG2, fns)


def test_equality_is_refinement_stable():
    # the same function presented on two different meshes
    coarse = StepFunction.indicator(integers(CFG2))
    fine = StepFunction(CFG2, [
        (b, rat(CFG2, 1)) for b in integers(CFG2).balls[0].split_to(2)
    ])
    assert coarse == fine
    half = StepFunction.indicator(integers(CFG2), rat(CFG2, Fraction(1, 2)))
    assert coarse != half
    # the same value at two half-grades: q**(2/2) is the rational q
    for cfg in (CFG2, CFG3):
        O = integers(cfg)
        assert StepFunction.indicator(O, rat(cfg, 1).q_half_shift(2)) == \
            StepFunction.indicator(O, rat(cfg, cfg.q))


def test_step_functions_are_unhashable():
    # equality compares by the cell_sum of the difference, so equal functions
    # may have different cells, and no hash of the cells can agree with it
    with pytest.raises(TypeError):
        hash(StepFunction.indicator(units(CFG2)))


def test_precompose_dilation_and_shift():
    f = StepFunction.indicator(units(CFG2))
    g = f.precompose(-1)  # xi -> f(p * xi)
    assert g.support() == units(CFG2).scale_by(-1)
    t = coset_rep(CFG2, 1)
    h = f.precompose(0, shift=t)  # xi -> f(xi + t)
    assert h.support() == units(CFG2).translate(-t)
    one = FieldElement.one(CFG2)
    assert h.evaluate(one + t + t).is_zero()
    assert h.evaluate(one - t) == rat(CFG2, 1)


def test_dilation_keeps_canonical_cells():
    """precompose(j) without a shift builds its cells unnormalized; they
    equal the normalized image."""
    rng = random.Random(41)
    for cfg in (CFG2, CFG3):
        for _ in range(30):
            balls = [Ball(cfg, coset_rep(cfg, rng.randrange(9)), rng.randrange(-2, 3))
                     for _ in range(4)]
            support = ClopenSet(cfg, balls)
            f = StepFunction(cfg, [(b, rat(cfg, rng.randrange(1, 4))) for b in support.balls])
            for j in (-2, -1, 0, 3):
                g = f.precompose(j)
                assert g.cells == StepFunction(cfg, [(b.scale_by(j), v) for b, v in f.cells]).cells
                assert g.support() == support.scale_by(j)


def test_overlapping_cells_are_rejected():
    rng = random.Random(17)
    one = rat(CFG3, 1)
    for _ in range(60):
        balls = [Ball(CFG3, coset_rep(CFG3, rng.randrange(4)), rng.randrange(-1, 2))
                 for _ in range(3)]
        overlap = any(not a.is_disjoint(b) for i, a in enumerate(balls) for b in balls[i + 1:])
        if not overlap:
            StepFunction(CFG3, [(b, one) for b in balls])
            continue
        with pytest.raises(ValueError, match="overlapping cells") as err:
            StepFunction(CFG3, [(b, one) for b in balls])
        # the message names a containing ball and a ball inside it
        assert str(err.value) in {f"overlapping cells {a!r} and {b!r}" for a in balls
                                  for b in balls if a is not b and a.contains_ball(b)}


def test_scalar_mul_and_conj():
    z = CycloScalar.zeta_pow(3, 3, 1)
    f = StepFunction.indicator(units(CFG3), z)
    # products(1, f) is 1 * conj f on f's cells
    one = StepFunction.indicator(units(CFG3))
    assert products(one, f) == [(b, z.conj()) for b in units(CFG3).balls]
    g = StepFunction(CFG3, [(b, z * v) for b, v in f.cells])
    assert g.evaluate(FieldElement.one(CFG3)) == z * z


def random_point(cfg, rng, lo, hi):
    return FieldElement(cfg, {e: rng.randrange(cfg.q) for e in range(lo, hi)})


def random_cells_step(cfg, rng):
    """A step function on 1-4 random balls of scales -2..2 inside p^-2 O,
    made disjoint by normalization, with nonzero values of half-grade 0 or 1."""
    balls = [Ball(cfg, random_point(cfg, rng, -2, s), s)
             for s in (rng.randrange(-2, 3) for _ in range(rng.randrange(1, 5)))]
    return StepFunction(cfg, [(b, random_value(cfg, rng)) for b in ClopenSet(cfg, balls).balls])


def random_value(cfg, rng, grade=None):
    """A nonzero small cyclotomic value of the given half-grade, or of a
    random one of 0 and 1."""
    coeffs = [0] * (cfg.p - 1)
    while not any(coeffs):
        coeffs = [rng.randrange(-2, 3) for _ in coeffs]
    return CycloScalar(cfg.p, cfg.q, coeffs).q_half_shift(
        rng.randrange(2) if grade is None else grade)


def test_products_match_pointwise_products():
    # on seeded pairs at q = 2..5, each cell of g * conj h carries the
    # pointwise product at its centre and at random points inside it, the
    # cells are disjoint, nonzero and in sort-key order, and every nonzero
    # product at a random point lies in a cell
    rng = random.Random(36)
    hits = 0
    for cfg in (CFG2, CFG3, FieldConfig(2, 2), FieldConfig(5, 1)):
        for _ in range(25):
            g, h = random_cells_step(cfg, rng), random_cells_step(cfg, rng)
            cells = products(g, h)
            assert StepFunction(cfg, cells).cells == tuple(cells)
            keys = [cell.sort_key() for cell, _ in cells]
            assert keys == sorted(keys)
            for cell, value in cells:
                for x in [cell.center] + [cell.center + random_point(cfg, rng, cell.scale,
                                                                     cell.scale + 3)
                                          for _ in range(3)]:
                    assert value == g.evaluate(x) * h.evaluate(x).conj()
            for _ in range(10):
                x = random_point(cfg, rng, -2, 4)
                want = g.evaluate(x) * h.evaluate(x).conj()
                if not want.is_zero():
                    hits += 1
                    assert [v for cell, v in cells if cell.contains_point(x)] == [want]
    assert hits >= 50


def refined_products(g, h):
    """g * conj h on the common refinement, with no shell prune: the
    reference for products."""
    return [(cell, x * y.conj()) for cell, (x, y) in common_refinement(g.config, [g, h])
            if not (x.is_zero() or y.is_zero())]


def shell_step(cfg, rng, balls, zero=None):
    """Random nonzero values on the given disjoint balls, plus the ball
    p^zero O at zero when zero is given."""
    if zero is not None:
        balls = balls + [Ball.integers(cfg, zero)]
    return StepFunction(cfg, [(b, random_value(cfg, rng)) for b in balls])


def shell_balls(cfg, rng, shells):
    """One or two random balls in each of the shells, one or two scales
    finer than the shell."""
    out = []
    for s in shells:
        pool = [b for big in shell(cfg, s).balls for b in big.split_to(s + rng.randrange(1, 3))]
        out += rng.sample(pool, min(len(pool), rng.randrange(1, 3)))
    return out


def meet_by_shells(g, h):
    """Can some cell of g meet some cell of h by its shells?  A ball away
    from zero holds the one shell s, [s, s]; the ball p^t O at zero holds
    the shells [t, inf)."""
    def span(b):
        s = b.shell_index()
        return (b.scale, float("inf")) if s is None else (s, s)
    return any(max(span(a)[0], span(b)[0]) <= min(span(a)[1], span(b)[1])
               for a, _ in g.cells for b, _ in h.cells)


def test_shell_pruned_products_match_the_refinement():
    # pairs no refinement can pair up (no shell in common, shells with
    # gaps) and pairs it must refine (a shared shell with disjoint balls, a
    # ball at zero on one side holding shells of the other, or on both
    # sides): products equals the unpruned refinement on all of them
    rng = random.Random(25)
    kinds = {  # kind: () -> (shells of g, shells of h, zero scale of g, of h)
        "disjoint shells": lambda: (*([s] for s in rng.sample(range(-3, 4), 2)), None, None),
        "shells with gaps": lambda: (*rng.choice([([-2, 0, 2], [-1, 1]), ([-2, 0, 2], [1, 3])]),
                                     None, None),
        "zero on one side": lambda: ([-3], [rng.randrange(-2, 4)], rng.randrange(-2, 4), None),
        "zero on both sides": lambda: ([-3], [-2], rng.randrange(-1, 3), rng.randrange(-1, 3)),
    }
    counts = {True: 0, False: 0}
    for cfg in (CFG2, CFG3, FieldConfig(2, 2), FieldConfig(5, 1)):
        for kind, draw in kinds.items():
            for _ in range(8):
                sg, sh, zg, zh = draw()
                # a ball at zero holds the shells from its scale up
                g, h = (shell_step(cfg, rng, shell_balls(
                    cfg, rng, [s for s in ss if t is None or s < t]), t)
                    for ss, t in ((sg, zg), (sh, zh)))
                assert products(g, h) == refined_products(g, h), kind
                assert products(h, g) == refined_products(h, g), kind
                counts[meet_by_shells(g, h)] += 1
        for _ in range(6):
            # a shared shell with disjoint balls: two disjoint draws from
            # one pool of the shell's balls
            s = rng.randrange(-3, 4)
            pool = list(shell(cfg, s).balls[0].split_to(s + 2))
            rng.shuffle(pool)
            g = shell_step(cfg, rng, pool[:len(pool) // 2])
            h = shell_step(cfg, rng, pool[len(pool) // 2:])
            assert products(g, h) == refined_products(g, h) == []
            counts[meet_by_shells(g, h)] += 1
    assert counts[False] >= 50 and counts[True] >= 50, counts


def test_products_of_two_fields_raise_with_disjoint_shells():
    other = FieldConfig(2, 2)
    g = StepFunction.indicator(shell(CFG2, 0))
    for h in (StepFunction.indicator(shell(other, 1)),
              StepFunction.indicator(fractional_ideal(other, 3))):
        with pytest.raises(ConfigMismatch):
            products(g, h)
        with pytest.raises(ConfigMismatch):
            products(h, g)


def test_products_keep_both_half_grades():
    # a spectrum valued 1 and q^(1/2) on two cells: its products with the
    # indicator of p^-1 O sit side by side at grades 0 and 1, and its
    # product with itself is |v|^2 at grade 0
    a = Ball(CFG3, parse_element(CFG3, "p^-1"), 0)
    b = Ball(CFG3, parse_element(CFG3, "2*p^-1"), 0)
    g = StepFunction(CFG3, [(a, rat(CFG3, 1)), (b, rat(CFG3, 1).q_half_shift(1))])
    cells = products(g, StepFunction.indicator(fractional_ideal(CFG3, -1)))
    assert [(cell, v.grade) for cell, v in cells] == [(a, 0), (b, 1)]
    assert products(g, g) == [(a, rat(CFG3, 1)), (b, rat(CFG3, 3))]


def refined_cell_sum(config, cells):
    """The values added on the common refinement of one-cell pieces: the
    reference for cell_sum."""
    pieces = [StepFunction(config, [cell], _canonical=True) for cell in cells]
    zero = CycloScalar.zero(config.p, config.q)
    out = []
    for cell, values in common_refinement(config, pieces):
        total = sum(values, zero)
        if not total.is_zero():
            out.append((cell, total))
    return StepFunction(config, out, _canonical=True)


def below(cfg, rng, ball, depth):
    """A random sub-ball `depth` scales finer than the ball."""
    return ball.sub_ball(ball.scale + depth, rng.randrange(cfg.q ** depth))


def overlapping_cells(cfg, rng, kind):
    """Random (ball, value) cells inside one ball of scale -2..1, of a kind
    cell_sum must get right."""
    top = Ball(cfg, random_point(cfg, rng, -3, 0), rng.randrange(-2, 2))

    def value(grade=0):
        return random_value(cfg, rng, grade)

    if kind == "duplicate keys":
        balls = [top, below(cfg, rng, top, 1), below(cfg, rng, top, 2)]
        cells = [(rng.choice(balls), value()) for _ in range(rng.randrange(4, 8))]
    elif kind == "nested chain":
        chain = [top]
        for _ in range(rng.randrange(3, 6)):
            chain.append(below(cfg, rng, chain[-1], rng.randrange(1, 3)))
        cells = [(b, value()) for b in chain + [below(cfg, rng, top, 2)]]
    elif kind == "all children":
        # every child of top, and maybe a grandchild, but not top: the
        # refinement's universe merges the children into top
        kids = top.children()
        extra = [below(cfg, rng, rng.choice(kids), 1)][:rng.randrange(2)]
        cells = [(b, value()) for b in kids + extra]
    elif kind == "cancelling":
        inner = below(cfg, rng, top, rng.randrange(1, 3))
        v, w = value(), value()
        cells = [(top, v), (inner, -v), (inner, w), (below(cfg, rng, top, 1), value()),
                 (inner, -w)]
        rng.shuffle(cells)
    elif kind == "zero value":
        # a zero value still cuts its ball out of the mesh
        cells = [(top, value()), (below(cfg, rng, top, 2), CycloScalar.zero(cfg.p, cfg.q))]
    else:  # "half-grade 1": graded trees under two children of top
        a, b = rng.sample(top.children(), 2)
        cells = [(a, value(1)), (below(cfg, rng, a, 1), value(1)),
                 (below(cfg, rng, a, 2), value(1)), (b, value()), (below(cfg, rng, b, 1), value())]
    return cells


def maximal_balls(balls):
    """The distinct balls not inside another of the balls."""
    return {b for b in balls if not any(a != b and a.contains_ball(b) for a in balls)}


def test_cell_sum_matches_the_refinement():
    # cell_sum's key walk gives the very cells and values of the sum on the
    # common refinement of one-cell pieces, at q = 2, 3, 4, 5 and 9
    rng = random.Random(26)
    kinds = ("duplicate keys", "nested chain", "all children", "cancelling", "zero value",
             "half-grade 1")
    seen = {"merged": 0, "cancelled": 0, "grade 1": 0}
    for cfg in (CFG2, CFG3, FieldConfig(2, 2), FieldConfig(5, 1), FieldConfig(3, 2)):
        assert cell_sum(cfg, []).cells == refined_cell_sum(cfg, []).cells == ()
        for kind in kinds:
            for _ in range(12):
                cells = overlapping_cells(cfg, rng, kind)
                got = cell_sum(cfg, cells)
                assert got.cells == refined_cell_sum(cfg, cells).cells, kind
                balls = [b for b, _ in cells]
                seen["merged"] += len(ClopenSet(cfg, balls).balls) < len(maximal_balls(balls))
                seen["cancelled"] += len(got.cells) < len(refined_cell_sum(
                    cfg, [(b, rat(cfg, 1)) for b in balls]).cells)
                seen["grade 1"] += any(v.grade for _, v in got.cells)
    assert min(seen.values()) >= 50, seen


def test_cell_sum_refuses_a_ball_from_another_field():
    other = FieldConfig(2, 2)
    for cells in ([(Ball.integers(other), rat(other, 1))],
                  [(Ball.integers(CFG2), rat(CFG2, 1)), (Ball.integers(other, 1), rat(other, 1))]):
        with pytest.raises(ConfigMismatch):
            cell_sum(CFG2, cells)


def test_periodized_weight_examples():
    # one exact tiling translate: weight identically 1 on O
    w = periodized_weight(StepFunction.indicator(integers(CFG2)))
    assert w == StepFunction.indicator(integers(CFG2))
    # a proper sub-ball gives a 0/1 weight strictly below 1 somewhere
    w = periodized_weight(StepFunction.indicator(fractional_ideal(CFG2, 1)))
    assert w.evaluate(FieldElement.monomial(CFG2, 1, 1)) == rat(CFG2, 1)
    assert w.evaluate(FieldElement.one(CFG2)).is_zero()
    # two overlapping folds add up to 2 everywhere
    W = integers(CFG2).union(integers(CFG2).translate(coset_rep(CFG2, 1)))
    w = periodized_weight(StepFunction.indicator(W))
    assert w == StepFunction.indicator(integers(CFG2), rat(CFG2, 2))


def test_periodized_weight_is_integral_periodic():
    rng = random.Random(32)
    f = StepFunction(CFG3, [
        (Ball(CFG3, coset_rep(CFG3, 4), 1), rat(CFG3, Fraction(1, 2))),
        (Ball(CFG3, coset_rep(CFG3, 1), 0), CycloScalar.zeta_pow(3, 3, 1)),
    ])
    w = periodized_weight(f)
    for _ in range(200):
        digits = {e: rng.randrange(1, 3)
                  for e in range(rng.randrange(4)) if rng.random() < 0.7}
        x = FieldElement(CFG3, digits)
        l = rng.randrange(30)
        # the weight is defined on O; evaluate the periodization directly
        total = CycloScalar.zero(3, 3)
        for k in range(81):
            v = f.evaluate(x + coset_rep(CFG3, k)).abs_sq()
            total = total + v.reduce_grade()
        assert total == w.evaluate(x)


def direct_periodization(cfg, cells, x, cosets):
    """Sum of the values of the cells holding x + u(k), over k < cosets."""
    total = CycloScalar.zero(cfg.p, cfg.q)
    for k in range(cosets):
        for ball, value in cells:
            if ball.contains_point(x + coset_rep(cfg, k)):
                total = total + value
    return total


def test_periodize_overlapping_cells_and_wide_balls():
    # nested cells add up where they overlap
    O, pO = integers(CFG3), fractional_ideal(CFG3, 1)
    w = periodize(CFG3, [(O.balls[0], rat(CFG3, 1)), (pO.balls[0], rat(CFG3, 2))])
    assert w == StepFunction(CFG3, [(b, rat(CFG3, 1)) for b in O.subtract(pO).balls]
                             + [(pO.balls[0], rat(CFG3, 3))])
    # cells that cancel leave no cell
    assert cell_sum(CFG3, [(O.balls[0], rat(CFG3, 1)), (O.balls[0], rat(CFG3, -1))]).cells == ()
    # p^-2 O spans the q^2 cosets u(0)..u(8): every one folds onto O
    wide = Ball.integers(CFG3, -2)
    assert periodize(CFG3, [(wide, rat(CFG3, 1))]) == StepFunction.indicator(O, rat(CFG3, 9))
    # equal balls, a coarse ball over a fine one, and a ball in another coset
    z = CycloScalar.zeta_pow(3, 3, 1)
    u1 = Ball(CFG3, coset_rep(CFG3, 1), 1)
    cells = [(u1, z), (u1, z), (Ball.integers(CFG3, -1), rat(CFG3, 1)),
             (Ball(CFG3, coset_rep(CFG3, 5), 2), rat(CFG3, -1))]
    w = periodize(CFG3, cells)
    assert all(O.balls[0].contains_ball(b) for b, _ in w.cells)
    rng = random.Random(33)
    for _ in range(300):
        x = FieldElement(CFG3, {e: rng.randrange(3) for e in range(4)})
        assert w.evaluate(x) == direct_periodization(CFG3, cells, x, 9)


def test_periodize_matches_direct_sums():
    # seeded overlapping cells on shells -2..2 at q = 2..5: the periodization
    # against the sum over the translates that can reach them, and cell_sum
    # against the sum of the cells that hold the point
    rng = random.Random(34)
    for cfg in (CFG2, CFG3, FieldConfig(2, 2), FieldConfig(5, 1)):
        for _ in range(20):
            cells = []
            for _ in range(rng.randrange(1, 5)):
                scale = rng.randrange(-2, 3)
                center = FieldElement(cfg, {e: rng.randrange(cfg.q)
                                            for e in range(-2, scale)})
                value = CycloScalar(cfg.p, cfg.q, [rng.randrange(-2, 3)
                                                   for _ in range(cfg.p - 1)])
                cells.append((Ball(cfg, center, scale), value))
            w = periodize(cfg, cells)
            assert all(Ball.integers(cfg).contains_ball(b) for b, _ in w.cells)
            for _ in range(10):
                x = FieldElement(cfg, {e: rng.randrange(cfg.q) for e in range(3)})
                assert w.evaluate(x) == direct_periodization(cfg, cells, x, cfg.q ** 2)
            total = cell_sum(cfg, cells)
            assert not any(v.is_zero() for _, v in total.cells)
            points = [b.center for b, _ in cells] + [
                FieldElement(cfg, {e: rng.randrange(cfg.q) for e in range(-2, 3)})
                for _ in range(10)]
            for x in points:
                assert total.evaluate(x) == direct_periodization(cfg, cells, x, 1)


def test_periodized_weight_is_the_periodization_of_squares():
    rng = random.Random(35)
    for cfg in (CFG2, CFG3, FieldConfig(5, 1)):
        for _ in range(30):
            balls = ClopenSet(cfg, [Ball(cfg, FieldElement(cfg, {e: rng.randrange(cfg.q)
                                                                 for e in range(-2, s)}), s)
                                    for s in rng.sample(range(-1, 3), 2)]).balls
            f = StepFunction(cfg, [(b, CycloScalar.zeta_pow(cfg.p, cfg.q, rng.randrange(cfg.p))
                                    .q_half_shift(rng.randrange(2)))
                                   for b in balls])
            assert periodized_weight(f) == periodize(cfg, [(b, v.abs_sq()) for b, v in f.cells])


def test_weight_values_are_rational():
    f = StepFunction.indicator(units(CFG3), CycloScalar.zeta_pow(3, 3, 2))
    w = periodized_weight(f)
    for _, v in w.cells:
        assert v.is_rational()
