"""Builders for the stock wavelet families, scaling-set computation with a
certified tail, and an exact-cover solver that completes a packing family to
an orthonormal super-wavelet at a stated finite resolution.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .clopen import Ball, ClopenSet, fractional_ideal, integers, joint_fold, shell, units
from .gfq import FieldConfig
from .lfield import FieldElement, coset_rep
from .verify import (
    Verdict,
    check_dilation_tiling,
    check_translation,
    verify_superwavelet,
    witness_set,
)


# ---------------------------------------------------------------------------
# Stock families
# ---------------------------------------------------------------------------


def shannon_family(config: FieldConfig):
    """The q-1 translates O + u(i): an orthonormal multiwavelet set family."""
    O = integers(config)
    return [O.translate(coset_rep(config, i)) for i in range(1, config.q)]


def shell_wavelet(config: FieldConfig, m: int) -> ClopenSet:
    """The shell p**m * O*: a Parseval frame wavelet set (not orthonormal)."""
    if m < 1:
        raise ValueError("shell exponent must be >= 1")
    return shell(config, m)


def scaled_shannon_family(config: FieldConfig, m: int):
    """The contracted translates p**m * (O + u(i)): a Parseval frame
    multiwavelet family of order q-1."""
    if m < 1:
        raise ValueError("contraction exponent must be >= 1")
    return [W.scale_by(m) for W in shannon_family(config)]


def shell_tuple(config: FieldConfig, n: int):
    """(p*O*, ..., p**n*O*): a Parseval frame super-wavelet tuple."""
    if n < 1:
        raise ValueError("tuple length must be >= 1")
    return [shell(config, i) for i in range(1, n + 1)]


def tower_components(config: FieldConfig, n: int):
    """The first n-1 shells O*, pO*, ..., p**(n-2)*O*: the fixed part of the
    length-n tower family whose last slot is a complement set."""
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
    comp = joint_fold(target.config, components).measure()
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


def scaling_set(W: ClopenSet, depth: int):
    """(S, certified): S approximates the union of all contracted dilates
    p**j * W, j >= 1.

    The partial union up to `depth` is exact; the remaining tail has measure
    r = measure(W)/(q-1) - measure(partial).  When r is exactly a ball
    measure q**-k, the tail region p**k * O contains the true tail and is
    disjoint from the partial union, the returned S equals the infinite
    union up to a null set and is certified.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    pre = check_dilation_tiling(W)
    if not pre.passed:
        raise ValueError("dilates of W do not partition the field")
    cfg = W.config
    q = cfg.q
    partial = ClopenSet.empty(cfg)
    for j in range(1, depth + 1):
        partial = partial.union(W.scale_by(j))
    r = W.measure() / (q - 1) - partial.measure()
    if r == 0:
        return partial, True
    num, den = r.numerator, r.denominator
    k = 0
    while den % q == 0:
        den //= q
        k += 1
    if (num, den) != (1, 1):
        return partial, False
    # the true tail lives inside p**(depth+1+smin) * O
    smin = W.min_valuation()
    if k > depth + 1 + smin:
        return partial, False
    tail = fractional_ideal(cfg, k)
    if not partial.intersect(tail).is_empty():
        return partial, False
    return partial.union(tail), True


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
    for i, W in enumerate(existing, 1):
        dil = check_dilation_tiling(W)
        v.add(f"existing-{i}-dilation-tiling", dil.passed,
              next((c.witness for c in dil.checks if not c.ok), None))
        tr = check_translation(W, "packing")
        v.add(f"existing-{i}-translation-packing", tr.passed,
              next((c.witness for c in tr.checks if not c.ok), None))
    fold = joint_fold(config, existing)
    v.add("existing-joint-packing", fold.overlap.is_empty(),
          None if fold.overlap.is_empty() else witness_set(fold.overlap))
    target = integers(config).subtract(fold.coverage)
    v.add("complement-nonempty", not target.is_empty())
    return v, target


def _exact_cover(columns, rows, node_cap):
    """Deterministic Algorithm X: `columns` maps element -> candidate row
    ids, `rows` maps row id -> frozenset of elements.  Maintains live row
    sets per column so the fewest-rows column choice and the empty-column
    cutoff are exact; returns (solution row ids, nodes) or (None, nodes);
    raises _CapExceeded beyond node_cap."""
    live = {c: set(rs) for c, rs in columns.items()}
    solution = []
    nodes = 0

    def eliminate(rid):
        """Remove every row clashing with rid and every column it covers;
        returns an undo list of (column, row) removals."""
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


class _CapExceeded(Exception):
    pass


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
    otherwise.
    """
    lo, hi = shells
    if lo > hi:
        raise ValueError("empty shell range")
    if existing:
        config = existing[0].config
    elif config is None:
        raise ValueError("empty family needs an explicit field configuration")
    pre, target = _solver_preconditions(existing, config)
    if not pre.passed:
        raise ValueError(f"solver preconditions failed: {pre.as_json()}")
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

    # universes
    unit_atoms = []
    for b in units(config).balls:
        unit_atoms.extend(b.split_to(r - lo))
    fold_atoms = []
    for b in target.balls:
        fold_atoms.extend(b.split_to(r))
    unit_ix = {b: ("u", i) for i, b in enumerate(sorted(unit_atoms, key=Ball.sort_key))}
    fold_ix = {b: ("f", i) for i, b in enumerate(sorted(fold_atoms, key=Ball.sort_key))}

    # candidate cells: X + u(l) with X a sub-ball of the target
    sub_balls = []
    for b in target.balls:
        for t in range(b.scale, r + 1):
            sub_balls.extend(b.split_to(t))
    sub_balls = sorted(set(sub_balls), key=Ball.sort_key)

    rows = {}
    row_cells = {}
    rid = 0
    l = 0
    while True:
        ul = coset_rep(config, l)
        if l > 0 and ul.valuation() < lo:
            break
        for X in sub_balls:
            cell = X.translate(ul)
            if cell.contains_zero():
                continue
            s = cell.center.valuation()
            if not lo <= s <= hi:
                continue
            norm = cell.scale_by(-s)
            elems = frozenset(
                [unit_ix[a] for a in norm.split_to(r - lo)]
                + [fold_ix[a] for a in X.split_to(r)]
            )
            rows[rid] = elems
            row_cells[rid] = cell
            rid += 1
        l += 1

    columns = {e: set() for e in list(unit_ix.values()) + list(fold_ix.values())}
    for i, elems in rows.items():
        for e in elems:
            columns[e].add(i)
    if any(not rs for rs in columns.values()):
        return SolveResult(
            status="unsat",
            certificate={"kind": "uncoverable-atom",
                         "detail": "some atom has no candidate cell at this resolution"},
            stats={"candidates": len(rows)},
        )

    try:
        picked, nodes = _exact_cover(columns, rows, node_cap)
    except _CapExceeded:
        return SolveResult(status="cap",
                           stats={"candidates": len(rows), "node_cap": node_cap})
    stats = {"candidates": len(rows), "nodes": nodes,
             "unit_atoms": len(unit_ix), "fold_atoms": len(fold_ix)}
    if picked is None:
        return SolveResult(
            status="unsat",
            certificate={"kind": "exhausted",
                         "detail": "exhaustive backtracking over the stated "
                                   "cell pool found no double exact cover"},
            stats=stats,
        )
    S = ClopenSet(config, [row_cells[i] for i in picked])
    # re-verification is part of the contract, not an optimization
    check = verify_superwavelet(list(existing) + [S], mode="orthonormal")
    if not check.passed:
        raise AssertionError(f"solver returned an unsound set: {check.as_json()}")
    return SolveResult(status="sat", complement=S, stats=stats)
