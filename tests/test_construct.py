"""Builders, scaling sets in closed form, tower-family audits, and the
double-exact-cover complement solver."""

import hashlib
import random
from fractions import Fraction

import pytest

from lfwave.clopen import Ball, ClopenSet, fractional_ideal, integers, shell, units
from lfwave.construct import (
    _atom_counts,
    _candidates,
    _CapExceeded,
    _exact_cover,
    _solver_preconditions,
    scaled_shannon_family,
    scaling_set,
    shannon_family,
    shell_tuple,
    shell_wavelet,
    solve_complement,
    tower_audit,
    tower_components,
    tower_corrected_target,
    tower_printed_target,
)
from lfwave.framesim import FiniteModel
from lfwave.gfq import ConfigMismatch, FieldConfig
from lfwave.lfield import FieldElement, coset_rep
from lfwave.verify import (
    mra_scaling_check,
    verify_multiwavelet_set,
    verify_superwavelet,
)

from verdict_checks import named_check

CFG2 = FieldConfig(2, 1)
CFG3 = FieldConfig(3, 1)
CFG4 = FieldConfig(2, 2)
CFG5 = FieldConfig(5, 1)


def union(sets):
    out = sets[0]
    for W in sets[1:]:
        out = out.union(W)
    return out


def test_shannon_family():
    fam = shannon_family(CFG2)
    assert fam == [integers(CFG2).translate(coset_rep(CFG2, 1))]
    fam3 = shannon_family(CFG3)
    assert len(fam3) == 2 and all(W.measure() == 1 for W in fam3)
    assert verify_multiwavelet_set(shannon_family(CFG4)).passed


def test_shell_wavelet():
    W = shell_wavelet(CFG2, 1)
    assert W.balls == (Ball(CFG2, FieldElement.monomial(CFG2, 1, 1), 2),)
    assert W.measure() == Fraction(1, 4)
    for m in (1, 2, 3):
        for cfg in (CFG2, CFG3):
            Wm = shell_wavelet(cfg, m)
            assert verify_multiwavelet_set([Wm], mode="parseval").passed
            assert not verify_multiwavelet_set([Wm]).passed
    with pytest.raises(ValueError):
        shell_wavelet(CFG2, 0)


def test_scaled_shannon_family():
    fam = scaled_shannon_family(CFG3, 1)
    assert len(fam) == 2 and all(W.measure() == Fraction(1, 3) for W in fam)
    for m in (1, 2):
        fam = scaled_shannon_family(CFG3, m)
        assert verify_multiwavelet_set(fam, mode="parseval").passed
        assert not verify_multiwavelet_set(fam).passed


def test_scaled_shannon_translate_disjointness_identity():
    # translates by u(q**m * k) shift by u(k) * p**-m, which maps distinct
    # contracted components to disjoint sets
    m, q = 1, 3
    fam = scaled_shannon_family(CFG3, m)
    for k in range(1, 4):
        for kp in range(k + 1, 5):
            t = coset_rep(CFG3, k * q ** m)
            tp = coset_rep(CFG3, kp * q ** m)
            for W in fam:
                assert W.translate(t).intersect(W.translate(tp)).is_empty()


def test_shell_tuple():
    assert shell_tuple(CFG2, 1) == [shell(CFG2, 1)]
    for cfg in (CFG2, CFG3):
        for n in (1, 2, 3):
            tup = shell_tuple(cfg, n)
            assert verify_superwavelet(tup, "parseval").passed
            assert not verify_superwavelet(tup, "orthonormal").passed


def test_scaling_sets_closed_form():
    for cfg in (CFG2, CFG3, CFG4):
        W = union(shannon_family(cfg))
        S = scaling_set(W)
        assert S == integers(cfg)
        assert S.measure() == W.measure() / (cfg.q - 1) == 1
    for m in (1, 2, 3):
        S = scaling_set(shell_wavelet(CFG2, m))
        assert S == fractional_ideal(CFG2, m + 1)
        assert S.measure() == Fraction(2) ** -(m + 1)
    for m in (1, 2):
        S = scaling_set(union(scaled_shannon_family(CFG3, m)))
        assert S.measure() == Fraction(3) ** -m


def test_scaling_set_requires_dilation_tiling():
    with pytest.raises(ValueError):
        scaling_set(integers(CFG2))


def _random_dilation_tiling_set(rng, cfg):
    """The unit-shell atoms of a random scale 1..3, each dilated by a random
    shift: a set whose dilates tile the field."""
    t = rng.randint(1, 3)
    atoms = [b for u in units(cfg).balls for b in u.split_to(t)]
    return ClopenSet(cfg, [b.scale_by(rng.randint(-2, 2)) for b in atoms])


def test_scaling_set_matches_the_dilate_union_shell_by_shell():
    rng = random.Random(20040101)
    for case in range(300):
        cfg = (CFG2, CFG3, CFG4, CFG5)[case % 4]
        W = _random_dilation_tiling_set(rng, cfg)
        S = scaling_set(W)
        shells = [b.shell_index() for b in W.balls]
        smin, smax = min(shells), max(shells)
        assert S.contains_set(fractional_ideal(cfg, smax + 1))
        # the union of p^j W for 1 <= j <= s - smin, restricted to shell s
        dilates = ClopenSet.empty(cfg)
        for s in range(smin - 1, smax + 3):
            if s - smin >= 1:
                dilates = dilates.union(W.scale_by(s - smin))
            assert S.intersect(shell(cfg, s)) == dilates.intersect(shell(cfg, s)), (case, s)
        mra = mra_scaling_check(W, S)
        for name in ("dilation-stable", "wavelet-is-dilation-layer", "measure-law"):
            assert named_check(mra, name).ok, (case, name)


def test_tower_audit_measures():
    for cfg in (CFG2, CFG3):
        q = cfg.q
        for n in (2, 3):
            comps = tower_components(cfg, n)
            printed = tower_audit(comps, tower_printed_target(cfg, n))
            assert printed["joint_fold_measure"] == \
                1 + Fraction(q - 1) * Fraction(q) ** (1 - n)
            assert not printed["tiling_possible"]
            corrected = tower_audit(comps, tower_corrected_target(cfg, n))
            assert corrected["joint_fold_measure"] == 1
            assert corrected["tiling_possible"]


def test_solver_degenerate_instance_is_sat_and_reverified():
    res = solve_complement([], shells=(-1, -1), max_scale=0, config=CFG2)
    assert res.status == "sat"
    expect = integers(CFG2).translate(coset_rep(CFG2, 1))
    assert res.complement == expect
    assert verify_superwavelet([res.complement], "orthonormal").passed


def test_solver_refuses_max_scale_below_target_resolution():
    # pO* leaves O* uncovered, whose canonical ball has scale 2 at q = 2
    with pytest.raises(ValueError, match="max_scale 1 below target resolution 2"):
        solve_complement([shell(CFG2, 1)], shells=(0, 2), max_scale=1)


def test_solver_parity_certificate_for_odd_q():
    # odd q tower targets have an odd canonical ball count, so the double
    # cover is impossible at every resolution, no search needed
    for n in (2, 3):
        comps = tower_components(CFG3, n)
        res = solve_complement(comps, shells=(-3, 3), max_scale=5)
        assert res.status == "unsat"
        assert res.certificate["kind"] == "parity"
        assert "nodes" not in res.stats


def test_solver_exhausts_even_q_tower_at_stated_resolution():
    for n in (2, 3):
        comps = tower_components(CFG2, n)
        res = solve_complement(comps, shells=(-3, 3), max_scale=5)
        assert res.status == "unsat"
        assert res.certificate["kind"] == "exhausted"
        assert res.stats["nodes"] > 0


def test_solver_node_cap_reported_distinctly():
    comps = tower_components(CFG2, 2)
    res = solve_complement(comps, shells=(-3, 3), max_scale=5, node_cap=10)
    assert res.status == "cap"
    assert res.complement is None
    assert res.stats["node_cap"] == 10


def test_solver_preconditions():
    with pytest.raises(ValueError):
        solve_complement([integers(CFG2)], shells=(-2, 2), max_scale=3)
    with pytest.raises(ValueError):
        solve_complement([], shells=(-1, 1), max_scale=2)  # no field given
    with pytest.raises(ValueError):
        solve_complement([units(CFG2)], shells=(1, -1), max_scale=2)
    # full multiwavelet set leaves no complement to solve for
    with pytest.raises(ValueError):
        solve_complement(shannon_family(CFG2), shells=(-1, 1), max_scale=2)


def test_solver_refuses_a_config_other_than_the_familys():
    # a config naming the family's own field is accepted
    assert solve_complement([units(CFG2)], (0, 1), 3, config=CFG2).status == \
        solve_complement([units(CFG2)], (0, 1), 3).status
    for other in (CFG3, CFG4):
        with pytest.raises(ConfigMismatch, match="^config differs from the family's field"):
            solve_complement([units(CFG2)], (0, 1), 3, config=other)


def test_solver_result_serialization():
    res = solve_complement([], shells=(-1, -1), max_scale=0, config=CFG2)
    js = res.as_json()
    assert js["status"] == "sat"
    assert js["complement"] == [{"center": "p^-1", "scale": 0}]


# the probes of non-int parameters, named by the parameter each one feeds
INT_PROBES = [
    # a float exponent gave the float measure 0.19245...
    ("k", lambda: fractional_ideal(CFG3, 1.5)),
    # a float scale built children with digits at exponent 1.5
    ("scale", lambda: Ball(CFG3, FieldElement.one(CFG3), 1.5)),
    ("s", lambda: shell(CFG2, True)),
    # a float max_scale answered sat
    ("max_scale", lambda: solve_complement([], (-1, 1), 2.5, config=CFG2)),
    ("shells", lambda: solve_complement([], (-1.0, 1), 2, config=CFG2)),
    ("node_cap", lambda: solve_complement([], (-1, 1), 2, node_cap=1e6, config=CFG2)),
    # these constructed, and shell() or atoms() then raised a stray TypeError
    ("p", lambda: shell(FieldConfig(2.0, 1), 0)),
    ("c", lambda: shell(FieldConfig(3, 1.0), 0)),
    ("R", lambda: list(FiniteModel(CFG2, 1.5, 1).atoms())),
    ("S", lambda: list(FiniteModel(CFG2, 1, False).atoms())),
    # a float scale gave the float measure 0.19245...
    ("scale", lambda: Ball.integers(CFG3, 1.5)),
    ("scale", lambda: Ball.integers(CFG3, True)),
    # a float index gave an element with a digit index of 1.5, and sub_ball
    # a ball built from it
    ("n", lambda: coset_rep(CFG3, 1.5)),
    ("n", lambda: coset_rep(CFG3, True)),
    ("n", lambda: Ball.integers(CFG3).sub_ball(2, 1.5)),
]


def _probe_ids(names):
    """Each probe's parameter name; a repeat of a name gets the suffix -k
    (k = 1, 2, ...), so the first probe of each name keeps its bare id."""
    seen = {}
    ids = []
    for name in names:
        ids.append(f"{name}-{seen[name]}" if name in seen else name)
        seen[name] = seen.get(name, 0) + 1
    return ids


@pytest.mark.parametrize("name, call", INT_PROBES,
                         ids=_probe_ids(name for name, _ in INT_PROBES))
def test_integer_parameters_are_refused_unless_int(name, call):
    with pytest.raises(ValueError, match=f"^{name} takes only ints, got "):
        call()


def test_solver_rejects_family_whose_joint_translates_collide():
    # the message names the failing checks, and only those, in check order
    for cfg in (CFG2, CFG3):
        with pytest.raises(ValueError,
                           match="^solver preconditions failed: existing-joint-packing$"):
            solve_complement([units(cfg), units(cfg)], (0, 1), 2)


def test_solver_uncoverable_atom_certificate():
    # the target O has the atoms pO and 1 + pO at scale 1; with shells 0..0
    # the only candidate is 1 + pO, since u(1) = p**-1 leaves the shell
    # range, so the atom pO has no candidate cell
    res = solve_complement([], shells=(0, 0), max_scale=1, config=CFG2)
    assert res.status == "unsat"
    assert res.certificate["kind"] == "uncoverable-atom"
    assert res.stats == {"candidates": 1}


def test_solver_search_order_is_pinned():
    # candidate order, column tie-break and row order fix the node count
    cases = [
        (CFG2, (-3, 3), 5, {"candidates": 242, "nodes": 2268, "unit_atoms": 128, "fold_atoms": 16}),
        (CFG2, (-4, 4), 5, {"candidates": 491, "nodes": 7461, "unit_atoms": 256, "fold_atoms": 16}),
        (CFG4, (-2, 2), 3, {"candidates": 333, "nodes": 79, "unit_atoms": 768, "fold_atoms": 16}),
    ]
    for cfg, shells, max_scale, stats in cases:
        res = solve_complement(tower_components(cfg, 2), shells, max_scale)
        assert res.status == "unsat" and res.certificate["kind"] == "exhausted"
        assert res.stats == stats


def _reference_candidates(config, target, shells, r):
    """The Ball-based candidate loop the key-based one replaced, on atoms:
    every cell is built as X.translate(u(l)) and normalized by
    scale_by(-s), and a row covers the fold and unit atoms under it.
    Returns the fold atoms, the unit atoms, the row masks and the cells.
    Kept as the oracle for row masks, row order and cells."""
    lo, hi = shells
    fold_atoms = sorted((a for b in target.balls for a in b.split_to(r)),
                        key=Ball.sort_key)
    unit_atoms = sorted((a for b in units(config).balls for a in b.split_to(r - lo)),
                        key=Ball.sort_key)

    def under(atoms, first):
        table = {}
        for i, a in enumerate(atoms, first):
            for t in range(a.scale + 1):
                key = a.ancestor_key(t)
                table[key] = table.get(key, 0) | 1 << i
        return table

    fold_under = under(fold_atoms, 0)
    unit_under = under(unit_atoms, len(fold_atoms))
    sub_balls = []
    for b in target.balls:
        for t in range(b.scale, r + 1):
            sub_balls.extend(b.split_to(t))
    sub_balls = sorted(set(sub_balls), key=Ball.sort_key)
    rows = []
    row_cells = []
    l = 0
    while True:
        ul = coset_rep(config, l)
        if l > 0 and ul.valuation() < lo:
            break
        for X in sub_balls:
            cell = X.translate(ul)
            s = cell.shell_index()
            if s is None or not lo <= s <= hi:
                continue
            norm = cell.scale_by(-s)
            rows.append(unit_under[norm.sort_key()] | fold_under[X.sort_key()])
            row_cells.append(cell)
        l += 1
    return fold_atoms, unit_atoms, rows, row_cells


def _leaf_projection(config, target, shells, r):
    """The solver's leaf-column tables and the reference atom tables
    projected onto the leaves: each leaf stands for its first atom, the
    atom with the leaf's digits.  Asserts that the leaves of each universe
    partition its atoms, in the order of their first atoms, and that every
    atom under a leaf has the leaf's column mask.  Returns the solver's
    (rows, columns, clash), the projected reference tables, the reference
    atom counts and (solver cell keys, reference cells)."""
    got = _candidates(config, target, shells, r)
    fold_leaves, unit_leaves, rows, keys, columns, clash = got
    fold_atoms, unit_atoms, ref_rows, cells = _reference_candidates(config, target, shells, r)
    ref_columns, ref_clash = _transposed(ref_rows, len(fold_atoms) + len(unit_atoms))
    firsts = []
    for leaves, atoms, first_atom, first_leaf in (
            (fold_leaves, fold_atoms, 0, 0),
            (unit_leaves, unit_atoms, len(fold_atoms), len(fold_leaves))):
        index = {a.sort_key(): i for i, a in enumerate(atoms, first_atom)}
        firsts += [index[atoms[0].scale, digits] for _, digits in leaves]
        where = {key: j for j, key in enumerate(leaves, first_leaf)}
        for i, a in enumerate(atoms, first_atom):
            hits = [where[k] for t in range(a.scale + 1) if (k := a.ancestor_key(t)) in where]
            assert len(hits) == 1, (a, hits)
            assert ref_columns[i] == columns[hits[0]], (config, shells, r, a)
    assert firsts == sorted(firsts), "leaves out of first-atom order"
    projected_columns = [ref_columns[i] for i in firsts]
    # a projected row holds the leaves whose first atom the row covers
    projected_rows = _transposed(projected_columns, len(ref_rows))[0]
    projected = (projected_rows, projected_columns, ref_clash)
    return (rows, columns, clash), projected, (len(fold_atoms), len(unit_atoms)), \
        (keys, cells)


def test_candidate_rows_match_ball_based_reference():
    # shells with lo < 0 (cosets l > 0, some skipped whole when hi < -1),
    # lo = 0 and lo > 0 (the zero coset only)
    rng = random.Random(77)
    shell_ranges = [(-3, -2), (-2, 0), (-2, 2), (-1, 1), (-3, 1), (0, 0), (0, 2), (1, 3)]
    fractional_rows = 0
    for cfg, top in ((CFG2, 4), (CFG3, 3), (CFG4, 2)):
        for family in ([], tower_components(cfg, 2), [shell(cfg, 1)]):
            target = _solver_preconditions(family, cfg)[1]
            t_min = max(b.scale for b in target.balls)
            for shells in rng.sample(shell_ranges, 5):
                r = rng.randint(t_min, max(t_min, top))
                tables, projected, counts, (keys, cells) = \
                    _leaf_projection(cfg, target, shells, r)
                assert tables[0] == projected[0], (cfg, shells, r)
                assert _atom_counts(target, shells[0], r) == counts
                got = [Ball.from_key(cfg, k) for k in keys]
                assert got == cells
                assert [b.sort_key() for b in got] == keys
                fractional_rows += sum(b.shell_index() < 0 for b in cells)
    assert fractional_rows > 100


def _transposed(rows, n_cols):
    """Column masks (the rows covering each column) and clash masks (the
    rows sharing a column with each row) by a bit-by-bit transposition."""
    bits = [[c for c, b in enumerate(reversed(bin(m)[2:])) if b == "1"] for m in rows]
    columns = [0] * n_cols
    for i, cs in enumerate(bits):
        for c in cs:
            columns[c] |= 1 << i
    clash = []
    for cs in bits:
        x = 0
        for c in cs:
            x |= columns[c]
        clash.append(x)
    return columns, clash


def _solver_grid(families):
    """(config, target, shells, r) over the solver grid: each field, each of
    its families (`families(config)`), each shell range (lo < 0, lo = 0,
    lo > 0, and hi < -1) and every r from the target's resolution up to
    the field's top."""
    shell_ranges = [(-3, -2), (-2, 0), (-2, 2), (-1, 1), (0, 0), (0, 2), (1, 3), (2, 3)]
    for cfg, top in ((CFG2, 4), (CFG3, 3), (CFG4, 2)):
        for family in families(cfg):
            target = _solver_preconditions(family, cfg)[1]
            t_min = max(b.scale for b in target.balls)
            for shells in shell_ranges:
                for r in range(t_min, max(t_min, top) + 1):
                    yield cfg, target, shells, r


def test_solver_masks_match_row_transposition():
    # the reference grid's fields and shell ranges, plus r - lo <= 1 (unit
    # atoms at scale 1, or no row at all) and targets with balls at up to
    # three scales (the family [p^2 O*]); "merged" counts the instances
    # with fewer leaves than atoms
    seen = {"r-lo<=1": 0, "no rows": 0, "multi-scale": 0, "merged": 0}
    grid = _solver_grid(lambda cfg: ([], tower_components(cfg, 2), [shell(cfg, 1)],
                                     [shell(cfg, 2)]))
    for cfg, target, shells, r in grid:
        tables, projected, counts, _ = _leaf_projection(cfg, target, shells, r)
        assert tables == projected, (cfg, target, shells, r)
        assert _atom_counts(target, shells[0], r) == counts
        seen["r-lo<=1"] += r - shells[0] <= 1
        seen["no rows"] += not tables[0]
        seen["multi-scale"] += len({b.scale for b in target.balls}) > 2
        seen["merged"] += len(tables[1]) < sum(counts)
    assert min(seen.values()) >= 10, seen


def test_candidate_tables_are_pinned():
    # all six candidate tables over the solver grid with the tower of
    # length 3 added, and two larger instances, digested at the commit
    # before the parent-indexed cell tree: cell keys as repr, masks as hex
    digest, seen = hashlib.sha256(), {"no rows": 0, "partial fold tree": 0, "merged": 0}
    grid = list(_solver_grid(lambda cfg: ([], tower_components(cfg, 2),
                                          tower_components(cfg, 3), [shell(cfg, 1)],
                                          [shell(cfg, 2)])))
    for cfg, shells, r in ((CFG2, (-5, 5), 6), (CFG4, (-2, 2), 4)):
        grid.append((cfg, _solver_preconditions(tower_components(cfg, 2), cfg)[1], shells, r))
    for cfg, target, shells, r in grid:
        fold_leaves, unit_leaves, rows, keys, columns, clash = \
            _candidates(cfg, target, shells, r)
        digest.update(repr((fold_leaves, unit_leaves, keys)).encode())
        for masks in (rows, columns, clash):
            digest.update(" ".join(map(hex, masks)).encode())
        fold_atoms, unit_atoms = _atom_counts(target, shells[0], r)
        seen["no rows"] += not rows
        seen["partial fold tree"] += shells[0] >= 0 and len(fold_leaves) < fold_atoms
        seen["merged"] += len(fold_leaves) + len(unit_leaves) < fold_atoms + unit_atoms
    assert len(grid) == 298 and min(seen.values()) >= 10, seen
    assert digest.hexdigest() == \
        "bbd220f35216740b221bead6374a1f46cb4d9d8069b97f01dd9a2b11992aacdb"


def test_exact_cover_is_not_recursive():
    # a chain of 1,500 singleton rows is 1,500 levels deep
    n = 1500
    masks = [1 << i for i in range(n)]
    solution, nodes = _exact_cover(masks, masks, masks, 10_000)
    assert solution == list(range(n))
    assert nodes == n + 1


def _reference_exact_cover(columns, rows, node_cap):
    """The set-based Algorithm X the bitset search replaced: `columns` maps
    element -> candidate row ids, `rows` maps row id -> frozenset of
    elements.  Kept as the oracle for solutions, node counts and caps."""
    live = {c: set(rs) for c, rs in columns.items()}
    solution = []
    nodes = 0

    def eliminate(rid):
        undo = []
        for e in rows[rid]:
            for r2 in live[e]:
                for e2 in rows[r2]:
                    if e2 != e and r2 in live[e2]:
                        live[e2].discard(r2)
                        undo.append((e2, r2))
            undo.append((e, live.pop(e)))
        return undo

    def restore(undo):
        for e, r in reversed(undo):
            if isinstance(r, set):
                live[e] = r
            else:
                live[e].add(r)

    def search():
        nonlocal nodes
        nodes += 1
        if nodes > node_cap:
            raise _CapExceeded
        if not live:
            return True
        col = min(live, key=lambda c: (len(live[c]), c))
        if not live[col]:
            return False
        for rid in sorted(live[col]):
            undo = eliminate(rid)
            solution.append(rid)
            if search():
                return True
            solution.pop()
            restore(undo)
        return False

    ok = search()
    return (list(solution) if ok else None), nodes


def _random_cover_instance(rng):
    """Fold columns ("f", i) and unit columns ("u", i), as the solver names
    them, and 0-30 rows of 1-4 columns; half the instances hide a cover."""
    ncols = rng.randint(1, 14)
    nf = rng.randint(0, ncols)
    names = [("f", i) for i in range(nf)] + [("u", i) for i in range(ncols - nf)]
    elems = []
    if rng.random() < 0.5:
        shuffled = rng.sample(names, ncols)
        while shuffled:
            k = rng.randint(1, min(4, len(shuffled)))
            elems.append(frozenset(shuffled[:k]))
            shuffled = shuffled[k:]
    while len(elems) < 30 and rng.random() < 0.95:
        elems.append(frozenset(rng.sample(names, rng.randint(1, min(4, ncols)))))
    rng.shuffle(elems)
    rows = dict(enumerate(elems))
    columns = {c: {i for i, e in rows.items() if c in e} for c in names}
    return columns, rows


def _as_masks(columns, rows):
    """(column masks, row masks, clash masks) of a set-based instance."""
    index = {c: i for i, c in enumerate(sorted(columns))}
    col_masks = [sum(1 << r for r in columns[c]) for c in sorted(columns)]
    row_masks = [sum(1 << index[e] for e in rows[r]) for r in range(len(rows))]
    clash = [sum(1 << r2 for r2 in rows if rows[r2] & rows[r]) for r in range(len(rows))]
    return col_masks, row_masks, clash


def _with_extra_columns(rng, columns, rows):
    """The instance plus 1-4 copies of random columns, each named to sort
    just before or just after its original, and 0-2 columns whose rows are
    a superset of a random column's, named to sort next to a random column.
    Returns the new instance and the sides ("before", "after") on which
    copies sort."""
    names = sorted(columns)
    columns = {c: set(rs) for c, rs in columns.items()}
    sides = set()
    for k in range(rng.randint(1, 4)):
        kind, i = c = rng.choice(names)
        offset = rng.choice((-0.5, 0.5))
        sides.add("before" if offset < 0 else "after")
        columns[kind, i + offset, k] = set(columns[c])
    for k in range(rng.randint(0, 2)):
        kind, i = rng.choice(names)
        extra = rng.sample(sorted(rows), rng.randint(0, len(rows)))
        columns[kind, i + rng.choice((-0.5, 0.5)), 4 + k] = \
            columns[rng.choice(names)] | set(extra)
    rows = {r: frozenset(c for c, rs in columns.items() if r in rs) for r in rows}
    return columns, rows, sides


def test_exact_cover_matches_set_based_reference():
    # each instance also runs with copied and superset columns added: the
    # reference branches on every column, the bitset search skips the later
    # copies of a mask, and solutions, node counts and caps must agree
    # whichever side of its original a copy sorts on
    def outcome(search, *args):
        try:
            return search(*args)
        except _CapExceeded:
            return "cap"

    rng, extra_rng = random.Random(2024), random.Random(2025)
    kinds = {"sat": 0, "unsat": 0, "cap": 0, "copy before": 0, "copy after": 0}
    for _ in range(2000):
        columns, rows = _random_cover_instance(rng)
        cap = rng.randint(1, 12) if rng.random() < 0.3 else 10 ** 6
        *extended, sides = _with_extra_columns(extra_rng, columns, rows)
        for columns, rows in ((columns, rows), extended):
            expect = outcome(_reference_exact_cover, columns, rows, cap)
            got = outcome(_exact_cover, *_as_masks(columns, rows), cap)
            assert got == expect, (columns, rows, cap)
            kinds["cap" if expect == "cap" else "unsat" if expect[0] is None else "sat"] += 1
        kinds["copy before"] += "before" in sides
        kinds["copy after"] += "after" in sides
    assert min(kinds.values()) >= 100, kinds


def _byte_crossing_instance(rng):
    """9-40 columns named 0..n-1, each carrying one element; an element on
    several columns makes those columns copies of one mask, scattered over
    the column order.  0-30 rows of 1-4 elements; half the instances hide a
    cover."""
    ncols = rng.randint(9, 40)
    nelems = rng.randint(ncols // 2, ncols)
    carries = list(range(nelems)) + [rng.randrange(nelems) for _ in range(ncols - nelems)]
    rng.shuffle(carries)
    elems = []
    if rng.random() < 0.5:
        shuffled = rng.sample(range(nelems), nelems)
        while shuffled:
            k = rng.randint(1, min(4, len(shuffled)))
            elems.append(set(shuffled[:k]))
            shuffled = shuffled[k:]
    while len(elems) < 30 and rng.random() < 0.95:
        elems.append(set(rng.sample(range(nelems), rng.randint(1, min(4, nelems)))))
    rng.shuffle(elems)
    rows = {r: frozenset(c for c in range(ncols) if carries[c] in e) for r, e in enumerate(elems)}
    columns = {c: {r for r in rows if c in rows[r]} for c in range(ncols)}
    return columns, rows, carries


def _zero_after_one(columns, rows, chosen):
    """Whether, once the rows `chosen` are taken, the first scanned column
    (uncovered, and the first of its mask) with no live row lies in a later
    byte than a scanned column with one."""
    taken = set().union(*(rows[r] for r in chosen))
    live = {r for r in rows if not rows[r] & taken}
    firsts = {}
    for c in sorted(columns):
        firsts.setdefault(frozenset(columns[c]), c)
    counts = {c: len(columns[c] & live) for c in sorted(firsts.values()) if c not in taken}
    zero = next((c for c, n in counts.items() if n == 0), None)
    return zero is not None and any(n == 1 and c // 8 < zero // 8 for c, n in counts.items())


def test_exact_cover_scan_matches_reference_across_bytes():
    # the column scan reads the uncovered columns a byte at a time: column
    # counts off a multiple of 8, copies of a mask in another byte than
    # their original, and a node whose first dead column lies a byte after
    # a one-row column must leave solutions, node counts and caps as the
    # reference search has them
    def outcome(search, *args):
        try:
            return search(*args)
        except _CapExceeded:
            return "cap"

    rng = random.Random(3208)
    kinds = dict.fromkeys(("sat", "unsat", "cap", "ragged", "copy in another byte",
                           "zero a byte after a one"), 0)
    for _ in range(2000):
        columns, rows, carries = _byte_crossing_instance(rng)
        cap = rng.randint(1, 12) if rng.random() < 0.3 else 10 ** 6
        expect = outcome(_reference_exact_cover, columns, rows, cap)
        assert outcome(_exact_cover, *_as_masks(columns, rows), cap) == expect, (columns, rows, cap)
        kinds["cap" if expect == "cap" else "unsat" if expect[0] is None else "sat"] += 1
        kinds["ragged"] += len(columns) % 8 != 0
        kinds["copy in another byte"] += any(
            len({c // 8 for c in columns if carries[c] == e}) > 1 for e in set(carries))
        root = min(columns, key=lambda c: (len(columns[c]), c))
        kinds["zero a byte after a one"] += _zero_after_one(columns, rows, ()) or any(
            _zero_after_one(columns, rows, (r,)) for r in columns[root])
    assert min(kinds.values()) >= 100, kinds
