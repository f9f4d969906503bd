"""Builders for the stock wavelet families, scaling sets in closed form, and
an exact-cover solver that completes a packing family to an orthonormal
super-wavelet at a stated finite resolution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .clopen import (Ball, ClopenSet, child_keys, fractional_ideal, integers, joint_fold,
                     parent_key, shell, translated_keys, units)
from .gfq import ConfigMismatch, FieldConfig, check_ints
from .lfield import coset_rep
from .verify import Verdict, check_dilation_tiling, verify_superwavelet


# ---------------------------------------------------------------------------
# Stock families
# ---------------------------------------------------------------------------


def shannon_family(config: FieldConfig):
    """The q-1 translates O + u(i): an orthonormal multiwavelet set family."""
    O = integers(config)
    return [O.translate(coset_rep(config, i)) for i in range(1, config.q)]


def shell_wavelet(config: FieldConfig, m: int) -> ClopenSet:
    """The shell p**m * O*: a Parseval frame wavelet set (not orthonormal)."""
    check_ints("m", m)
    if m < 1:
        raise ValueError("shell exponent must be >= 1")
    return shell(config, m)


def scaled_shannon_family(config: FieldConfig, m: int):
    """The contracted translates p**m * (O + u(i)): a Parseval frame
    multiwavelet family of order q-1."""
    check_ints("m", m)
    if m < 1:
        raise ValueError("contraction exponent must be >= 1")
    return [W.scale_by(m) for W in shannon_family(config)]


def shell_tuple(config: FieldConfig, n: int):
    """(p*O*, ..., p**n*O*): a Parseval frame super-wavelet tuple."""
    check_ints("n", n)
    if n < 1:
        raise ValueError("tuple length must be >= 1")
    return [shell(config, i) for i in range(1, n + 1)]


def tower_components(config: FieldConfig, n: int):
    """The first n-1 shells O*, pO*, ..., p**(n-2)*O*: the fixed part of the
    length-n tower family whose last slot is a complement set."""
    check_ints("n", n)
    if n < 2:
        raise ValueError("tower needs length >= 2")
    return [shell(config, i) for i in range(0, n - 1)]


def tower_printed_target(config: FieldConfig, n: int) -> ClopenSet:
    """Fold target p**(n-2)*O for the tower's last component, as printed in
    the source construction; see tower_audit for why it cannot close."""
    return fractional_ideal(config, n - 2)


def tower_corrected_target(config: FieldConfig, n: int) -> ClopenSet:
    """Fold target p**(n-1)*O: the unique choice that makes the joint fold
    measure close to exactly 1."""
    return fractional_ideal(config, n - 1)


def tower_audit(components, target) -> dict:
    """Measure accounting for a tower completion: any last component whose
    translates fold bijectively onto `target` adds measure(target) to the
    joint fold, so the joint translates tile the integers only if the total
    is exactly 1."""
    # a fold cuts and shifts balls, so it keeps their total measure
    comp = sum((W.measure() for W in components), Fraction(0))
    total = comp + target.measure()
    return {
        "component_fold_measure": comp,
        "target_measure": target.measure(),
        "joint_fold_measure": total,
        "tiling_possible": total == 1,
    }


# ---------------------------------------------------------------------------
# Scaling sets
# ---------------------------------------------------------------------------


def scaling_set(W: ClopenSet) -> ClopenSet:
    """The scaling set S = union of the contracted dilates p**j * W, j >= 1,
    in closed form.  Raises ValueError when the dilates of W do not
    partition the field.

    The dilates of W partition K minus {0}, and W lies in the shells
    smin..smax, so a point of shell s lies in p**j * W for exactly one j,
    and s - smax <= j <= s - smin.  A point of a shell s > smax thus lies in
    S, and one of a shell s <= smax lies in S exactly when it lies in some
    p**j * W with 1 <= j <= smax - smin.  Hence S with 0 added is
    p**(smax+1) * O together with those smax - smin dilates: nothing is
    truncated, and nothing is left to certify.
    """
    pre = check_dilation_tiling(W)
    if not pre.passed:
        raise ValueError("dilates of W do not partition the field")
    shells = pre.bounds["shells"]
    smin, smax = shells[0], shells[-1]
    dilates = [b.scale_by(j) for j in range(1, smax - smin + 1) for b in W.balls]
    return ClopenSet(W.config, [Ball.integers(W.config, smax + 1), *dilates])


# ---------------------------------------------------------------------------
# Complement solver (double exact cover)
# ---------------------------------------------------------------------------


@dataclass
class SolveResult:
    status: str  # "sat" | "unsat" | "cap"
    complement: ClopenSet | None = None
    certificate: dict = field(default_factory=dict)
    stats: dict = field(default_factory=dict)

    def as_json(self):
        out = {"status": self.status, "certificate": self.certificate,
               "stats": self.stats}
        if self.complement is not None:
            out["complement"] = self.complement.as_json()
        return out


def _solver_preconditions(existing, config) -> tuple[Verdict, ClopenSet]:
    v = Verdict()
    v.add_components(existing, "existing-{}-dilation-tiling", "existing-{}-translation-packing")
    fragments = joint_fold(existing)
    v.add_partition(config, fragments, "existing-joint-packing")
    target = integers(config).subtract(ClopenSet(config, fragments))
    v.add_nonempty("complement-nonempty", target)
    return v, target


# the set bits of each byte value, lowest first
_BYTE_BITS = tuple(tuple(i for i in range(8) if byte >> i & 1) for byte in range(256))


def _exact_cover(columns, rows, clash, node_cap):
    """Deterministic Algorithm X (Knuth, "Dancing Links", arXiv cs/0011047)
    over integer bitsets: `columns[c]` is the mask of the rows covering
    column c, `rows[r]` the mask of the columns row r covers, and `clash[r]`
    the mask of the rows sharing a column with row r (itself included); the
    caller builds all three tables.  Each node branches on the first
    uncovered column with the fewest live rows and tries its rows lowest id
    first; choosing row r drops the rows of clash[r].  Only the first column
    of each distinct mask is ever uncovered: a later copy is covered with it
    by every row, and loses every tie to it, so skipping the copies leaves
    the chosen columns, the solution and the node count unchanged.  The
    scan reads `uncovered` a byte at a time, little-endian, against the
    column masks grouped eight per byte, and expands each nonzero byte
    through `_BYTE_BITS`, so a scanned column costs one `&` and one
    `bit_count`; bytes and then bits in ascending order, the strict `<` and
    the stop at a column with no live row choose the column a bit-by-bit
    scan would, so the node count is unchanged too.  Returns (solution row
    ids, nodes) or (None, nodes); raises _CapExceeded beyond node_cap."""
    live = (1 << len(rows)) - 1
    first = {}
    for c, mask in enumerate(columns):
        first.setdefault(mask, c)
    uncovered = sum(1 << c for c in first.values())
    chunks = [columns[c:c + 8] for c in range(0, len(columns), 8)]
    stack = []  # (live, uncovered, untried) of every open node
    solution = []
    nodes = 0
    while True:
        nodes += 1
        if nodes > node_cap:
            raise _CapExceeded
        if not uncovered:
            return solution, nodes
        fewest = len(rows) + 1
        for byte, chunk in zip(uncovered.to_bytes(len(chunks), "little"), chunks):
            if byte:
                for i in _BYTE_BITS[byte]:
                    n = (chunk[i] & live).bit_count()
                    if n < fewest:
                        fewest, best = n, chunk[i]
                        if not n:
                            break
                if not fewest:
                    break
        stack.append((live, uncovered, best & live))
        while True:
            live, uncovered, untried = stack[-1]
            if untried:
                break
            stack.pop()
            if not stack:
                return None, nodes
            solution.pop()
        low = untried & -untried
        stack[-1] = (live, uncovered, untried ^ low)
        rid = low.bit_length() - 1
        solution.append(rid)
        live &= ~clash[rid]
        uncovered &= ~rows[rid]


class _CapExceeded(Exception):
    pass


def _cell_tree(roots, cells, first):
    """The cell tree of the disjoint `roots`, grown breadth first only below
    `cells`, the sort key of each row's cell (a sub-ball of `roots`): a key
    has children exactly when it holds a cell strictly inside it.  The tree
    is two parallel lists, sort keys and parent indices (parents first);
    each of its keys is looked up once in the set of inner keys and entered
    once in a key -> index dict.  A leaf (a cell with no cell under it, or
    a sub-ball that holds no cell) takes bit first + its rank in digit
    order, the order of the leaves' first atoms: at any finer scale, a
    leaf's first atom in sort-key order has the leaf's digits.  A backward
    pass ORs the leaf bits and the rows of the cells at or below each key
    into its parent, a forward pass the rows of the cells at or above each
    key into its children; two cells meet exactly when one holds the other.
    Returns the leaves, per row the leaves under its cell and the rows whose
    cell meets it, and per leaf the rows covering each atom under it."""
    q = roots[0].config.q
    top = min(b.scale for b in roots)
    inner = set()  # the strict ancestors of the cells
    for key in set(cells):
        key = parent_key(key)
        while key[0] >= top and key not in inner:
            inner.add(key)
            key = parent_key(key)
    keys = [b.sort_key() for b in roots]
    parents, leaves = [-1] * len(keys), []
    for i, key in enumerate(keys):  # the lists grow while they are read
        if key in inner:
            keys += child_keys(key, q)
            parents += [i] * q
        else:
            leaves.append(i)
    leaves.sort(key=lambda i: keys[i][1])
    index = {key: i for i, key in enumerate(keys)}
    at = [index[key] for key in cells]
    under, below = [0] * len(keys), [0] * len(keys)
    for bit, i in enumerate(leaves, first):
        under[i] = 1 << bit
    for row, i in enumerate(at):
        below[i] |= 1 << row
    above = below[:]
    for i in range(len(keys) - 1, len(roots) - 1, -1):
        under[parents[i]] |= under[i]
        below[parents[i]] |= below[i]
    for i in range(len(roots), len(keys)):
        above[i] |= above[parents[i]]
    meets = [a | b for a, b in zip(above, below)]
    return ([keys[i] for i in leaves], [under[i] for i in at], [meets[i] for i in at],
            [meets[i] for i in leaves])


def _candidates(config, target, shells, r):
    """(fold leaves, unit leaves, row masks, cell keys, column masks, clash
    masks) of the cells X + u(l) in `shells`, X a target sub-ball of scale
    <= r, by coset l then X in sort-key order (per scale, coarsest first).
    Each universe (the target, and the unit shell for the normalized cells)
    has its cell tree grown only under its cells, by _cell_tree.  Columns:
    fold leaves, then unit leaves, each in digit order; every atom under a
    leaf is covered by the same rows, so a leaf stands for its atoms.  A row
    covers the fold leaves under X and the unit leaves under the normalized
    cell.  A column's mask holds the rows at or above its leaf, and a row
    clashes with the rows at, above or below its fold cell or its
    normalized cell: these are read off each cell tree, with no walk over
    the bits of a mask."""
    lo, hi = shells
    sub_keys = [b.sort_key() for b in target.balls]  # every target sub-ball of scale <= r
    for key in sub_keys:  # the list grows while it is read
        if key[0] < r:
            sub_keys += child_keys(key, config.q)
    sub_keys.sort()

    folds, norms, row_keys = [], [], []  # X, normalized key and cell key per row
    l = 0
    while True:
        ul = coset_rep(config, l)
        if l and ul.valuation() < lo:
            break
        # for l > 0 every cell X + u(l) lies in the shell of u(l)
        if not l or ul.valuation() <= hi:
            for X, (cell, s, norm) in zip(sub_keys, translated_keys(ul, sub_keys)):
                if not l and (s is None or not lo <= s <= hi):
                    continue
                folds.append(X)
                norms.append(norm)
                row_keys.append(cell)
        l += 1

    fold_leaves, f_under, f_meets, f_columns = _cell_tree(target.balls, folds, 0)
    unit_leaves, u_under, u_meets, u_columns = _cell_tree(units(config).balls, norms,
                                                          len(fold_leaves))
    rows = [a | b for a, b in zip(f_under, u_under)]
    clash = [a | b for a, b in zip(f_meets, u_meets)]
    return fold_leaves, unit_leaves, rows, row_keys, f_columns + u_columns, clash


def _atom_counts(target, lo, r):
    """(fold, unit) atom counts: the target's balls split to scale r, and the
    unit shell's q - 1 balls of scale 1 split to scale max(r - lo, 1), the
    finest scale of a normalized cell."""
    q = target.config.q
    return sum(q ** (r - b.scale) for b in target.balls), (q - 1) * q ** (max(r - lo, 1) - 1)


def solve_complement(existing, shells: tuple[int, int], max_scale: int,
                     node_cap: int = 2_000_000,
                     config: FieldConfig | None = None) -> SolveResult:
    """Search for a clopen set whose dilates partition the field and whose
    translates tile exactly the part of the integers the existing family
    leaves uncovered, so that existing + [result] is an orthonormal
    super-wavelet family.

    Candidate cells are translates X + u(l) of sub-balls X of the uncovered
    region, restricted to absolute-value shells in `shells` and ball scales
    at most `max_scale`.  Feasibility is a double exact cover: normalized
    cells must partition the unit shell, folds must partition the uncovered
    region.  UNSAT is relative to this resolution unless a certificate says
    otherwise.  A `config` other than the family's field raises
    ConfigMismatch.
    """
    lo, hi = shells
    check_ints("shells", lo, hi)
    check_ints("max_scale", max_scale)
    check_ints("node_cap", node_cap)
    if lo > hi:
        raise ValueError("empty shell range")
    if existing:
        if config not in (None, existing[0].config):
            raise ConfigMismatch("config differs from the family's field configuration")
        config = existing[0].config
    elif config is None:
        raise ValueError("empty family needs an explicit field configuration")
    pre, target = _solver_preconditions(existing, config)
    if not pre.passed:
        failed = ", ".join(c.name for c in pre.checks if c.binding and not c.ok)
        raise ValueError(f"solver preconditions failed: {failed}")
    q = config.q

    # Parity certificate: both universes are partitioned by the same cells.
    # At any common discretization each ball covers a power-of-q number of
    # atoms; for odd q every such count is odd, so the number of selected
    # cells has the parity of each universe's atom count.  The unit shell
    # has (q-1)*q**(r-1) atoms (even), the uncovered region has as many
    # atoms as it has canonical balls, mod 2.  Odd ball count => no finite
    # ball family can do both, at any resolution.
    if q % 2 == 1 and len(target.balls) % 2 == 1:
        return SolveResult(
            status="unsat",
            certificate={
                "kind": "parity",
                "detail": "odd q with an odd number of target balls: the "
                          "unit-shell atom count is even while the target "
                          "atom count is odd, so no ball family can "
                          "partition both; UNSAT at every resolution",
                "target_balls": len(target.balls),
            },
        )

    r = max_scale
    t_min = max((b.scale for b in target.balls), default=0)
    if r < t_min:
        raise ValueError(f"max_scale {r} below target resolution {t_min}")

    _, _, rows, row_keys, columns, clash = _candidates(config, target, shells, r)
    if not all(columns):
        return SolveResult(
            status="unsat",
            certificate={"kind": "uncoverable-atom",
                         "detail": "some atom has no candidate cell at this resolution"},
            stats={"candidates": len(rows)},
        )

    try:
        picked, nodes = _exact_cover(columns, rows, clash, node_cap)
    except _CapExceeded:
        return SolveResult(status="cap",
                           stats={"candidates": len(rows), "node_cap": node_cap})
    fold_atoms, unit_atoms = _atom_counts(target, lo, r)
    stats = {"candidates": len(rows), "nodes": nodes,
             "unit_atoms": unit_atoms, "fold_atoms": fold_atoms}
    if picked is None:
        return SolveResult(
            status="unsat",
            certificate={"kind": "exhausted",
                         "detail": "exhaustive backtracking over the stated "
                                   "cell pool found no double exact cover"},
            stats=stats,
        )
    S = ClopenSet(config, [Ball.from_key(config, row_keys[i]) for i in picked])
    # re-verification is part of the contract, not an optimization
    check = verify_superwavelet(list(existing) + [S], mode="orthonormal")
    if not check.passed:
        raise AssertionError(f"solver returned an unsound set: {check.as_json()}")
    return SolveResult(status="sat", complement=S, stats=stats)
