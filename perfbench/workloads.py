"""The four workloads.

Each workload builds its inputs once in ``setup`` and then hands out rounds:
a round is a list of operations with the same mix of kinds and sizes every
time, and only the seeded contents vary (random functions, mesh chunks,
corpus parameters, order).  The runner runs whole rounds, so every run
measures the same mix whatever the seed.

An operation is ``(kind, call, check)``: ``call()`` makes the library calls
that are timed and returns what they produced; ``check(result)`` is the
exactness gate, run after the clock stops, returning "ok", "fail" or
"known-defect".

Workloads call lfwave through module attributes at call time (``fs.f(...)``,
never a name bound at setup), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import json
import random

from corpus import judge, round_docs

WINDOW = 3       # R = S = 3, the acceptance-7 window
SWEEP_SLICES = 32


def report_json(report) -> str:
    """The CLI's serialization step; the tracer times it as part of cli."""
    return json.dumps(report, sort_keys=True)


def _gate(pred):
    def check(result):
        try:
            return "ok" if pred(result) else "fail"
        except (AttributeError, TypeError, ValueError, KeyError, IndexError):
            return "fail"
    return check


def _rng(*parts) -> random.Random:
    return random.Random("/".join(str(p) for p in parts))


# ---------------------------------------------------------------------------
# oracle-single
# ---------------------------------------------------------------------------


class OracleSingle:
    """Acceptance-7 single-family oracle at window R = S = 3.

    Per family and round: mesh checks, each of which sweeps the mesh deltas
    of 1/32 of the window's atoms and runs the truncation spot check on the
    unit shell, and seeded random window functions through
    parseval_residual.  Slice r holds atoms r, r+32, ..., so every slice
    mixes all regions of the window.  The q = 5 family is included: its full
    sweep is 15,625 atoms.

    The counts per q keep the latency quantiles inside blocks of operations
    of one cost class: the median among the q = 3 operations, the 90th
    percentile among the q = 4 mesh checks, whose cost hardly depends on the
    seed.  On the edge between two classes a quantile jumps from run to run.
    """

    name = "oracle-single"
    MESH_CHECKS = {2: 1, 3: 1, 4: 4, 5: 1}
    RESIDUALS = {2: 3, 3: 3, 4: 2, 5: 1}

    def setup(self, m, seed):
        gfq, cons, fs, sf, cl = m["gfq"], m["construct"], m["framesim"], m["stepfn"], m["clopen"]
        cfgs = {2: gfq.FieldConfig(2, 1), 3: gfq.FieldConfig(3, 1),
                4: gfq.FieldConfig(2, 2), 5: gfq.FieldConfig(5, 1)}
        fams = [(f"shannon-q{q}", cfgs[q], cons.shannon_family(cfgs[q])) for q in (2, 3, 4, 5)]
        fams += [(f"shell-q{q}-m{k}", cfgs[q], [cons.shell_wavelet(cfgs[q], k)])
                 for q in (2, 3) for k in (1, 2, 3)]
        fams += [(f"scaled-shannon-q3-m{k}", cfgs[3], cons.scaled_shannon_family(cfgs[3], k))
                 for k in (1, 2)]

        class AtomSlice(fs.FiniteModel):
            """The window model restricted to a fixed list of mesh atoms."""

            def __init__(self, base, atoms):
                super().__init__(base.config, base.R, base.S)
                self.slice = atoms

            def atoms(self):
                return iter(self.slice)

        families = []
        for name, cfg, fam in fams:
            model = fs.FiniteModel(cfg, WINDOW, WINDOW)
            atoms = list(model.atoms())
            order = list(range(SWEEP_SLICES))
            _rng(seed, name).shuffle(order)
            families.append({
                "name": name, "model": model,
                "psis": [sf.StepFunction.indicator(W) for W in fam],
                "slices": [AtomSlice(model, atoms[i::SWEEP_SLICES]) for i in range(SWEEP_SLICES)],
                "order": order,
                "unit": sf.StepFunction.indicator(cl.units(cfg)),
            })
        return {"m": m, "seed": seed, "families": families}

    def round(self, st, r, families=None):
        fs = st["m"]["framesim"]
        rng = _rng(st["seed"], self.name, r)
        ops = []
        for fam in families or st["families"]:
            model, psis = fam["model"], fam["psis"]
            q = model.config.q
            for i in range(self.MESH_CHECKS[q]):
                chunk = fam["slices"][fam["order"][(r * self.MESH_CHECKS[q] + i) % SWEEP_SLICES]]

                def mesh_check(c=chunk, model=model, psis=psis, u=fam["unit"]):
                    return (fs.mesh_delta_residuals(c, psis),
                            fs.truncation_spot_check(model, psis, u))
                ops.append((f"mesh-check:{fam['name']}", mesh_check,
                            _gate(lambda out, n=len(chunk.slice): len(out[0]) == n
                                  and out[1] is True
                                  and all(res.is_zero() for _, res in out[0]))))
            for _ in range(self.RESIDUALS[q]):
                s = rng.getrandbits(64)

                def residual(model=model, psis=psis, s=s):
                    f = model.random_step(random.Random(s))
                    return fs.parseval_residual(model, psis, f)[0]
                ops.append((f"residual:{fam['name']}", residual, _gate(lambda res: res.is_zero())))
        rng.shuffle(ops)
        return ops

    def warmup(self, st):
        return self.round(st, -1, st["families"][:2])


# ---------------------------------------------------------------------------
# oracle-tuple
# ---------------------------------------------------------------------------


class OracleTuple:
    """Direct-sum oracle on shell tuples (q = 2, 3; n = 1..3) with 3-cell
    random slots through super_parseval_residual, plus Shannon q = 2 gram
    entries against the Kronecker delta (a quarter of them diagonal)."""

    name = "oracle-tuple"
    TUPLES = 3
    GRAMS = 30

    def setup(self, m, seed):
        gfq, cons, fs, sf, cy = m["gfq"], m["construct"], m["framesim"], m["stepfn"], m["cyclo"]
        tuples = []
        for q in (2, 3):
            cfg = gfq.FieldConfig(q, 1)
            model = fs.FiniteModel(cfg, WINDOW, WINDOW)
            for n in (1, 2, 3):
                tuples.append((model, [sf.StepFunction.indicator(W)
                                       for W in cons.shell_tuple(cfg, n)]))
        cfg2 = gfq.FieldConfig(2, 1)
        return {
            "m": m, "seed": seed, "tuples": tuples,
            "gram_etas": [sf.StepFunction.indicator(W) for W in cons.shannon_family(cfg2)],
            "one": cy.CycloScalar.rational(2, 2, 1),
            "indices": [(j, k) for j in range(-2, 3) for k in range(8)],
        }

    def round(self, st, r):
        fs = st["m"]["framesim"]
        rng = _rng(st["seed"], self.name, r)
        ops = []
        for model, etas in st["tuples"]:
            kind = f"tuple-residual:q{model.config.q}-n{len(etas)}"
            for _ in range(self.TUPLES):
                s = rng.getrandbits(64)

                def tuple_residual(model=model, etas=etas, s=s):
                    g = random.Random(s)
                    slots = [model.random_step(g, n_cells=3) for _ in etas]
                    return fs.super_parseval_residual(model, etas, slots)
                ops.append((kind, tuple_residual, _gate(lambda res: res.is_zero())))
        one, idx = st["one"], st["indices"]
        for _ in range(self.GRAMS):
            a = rng.choice(idx)
            b = a if rng.random() < 0.25 else rng.choice(idx)
            if a == b:
                check = _gate(lambda g: g.reduce_grade() == one)
            else:
                check = _gate(lambda g: g.is_zero())
            ops.append(("gram-entry",
                        lambda a=a, b=b: fs.gram_entry(st["gram_etas"], a, b), check))
        rng.shuffle(ops)
        return ops

    def warmup(self, st):
        return self.round(st, -1)[:8]


# ---------------------------------------------------------------------------
# solve-tower
# ---------------------------------------------------------------------------


class SolveTower:
    """solve_complement on tower families.  The exhaustive q = 2 and q = 4
    searches run over a fixed grid of shell ranges and max-scales (from 4
    to 7,461 search nodes); the q = 3 calls end in the parity certificate
    before any search.  The seed orders the round and draws the parity
    calls' resolutions; an exhaustive instance cannot be re-drawn without
    changing its cost class, so those are fixed."""

    name = "solve-tower"
    # (q, n, shells, max_scale): search instances, each once per round
    SEARCH = (
        (2, 2, (-4, 4), 5),
        (2, 2, (-3, 3), 5), (2, 3, (-4, 4), 5), (4, 2, (-2, 2), 3),
        (2, 3, (-3, 3), 5), (2, 2, (-3, 3), 4), (4, 2, (-2, 2), 2),
        (2, 2, (-2, 2), 4), (2, 3, (-2, 2), 4), (2, 2, (-2, 2), 3),
        (4, 2, (-1, 1), 2), (2, 2, (-1, 1), 3),
    )
    # 18 parity calls put the latency median inside the parity block and
    # the 90th percentile among the ~0.2 s searches, away from class edges
    PARITY = 18

    def setup(self, m, seed):
        gfq, cons = m["gfq"], m["construct"]
        cfgs = {2: gfq.FieldConfig(2, 1), 3: gfq.FieldConfig(3, 1), 4: gfq.FieldConfig(2, 2)}
        towers = {(q, n): cons.tower_components(cfgs[q], n)
                  for q, n in [(2, 2), (2, 3), (4, 2), (3, 2), (3, 3)]}
        return {"m": m, "seed": seed, "towers": towers}

    def _op(self, st, q, n, shells, max_scale):
        cons = st["m"]["construct"]
        comps = st["towers"][q, n]
        kind = "parity" if q % 2 else "exhausted"
        return (f"solve-{kind}",
                lambda: cons.solve_complement(comps, shells=shells, max_scale=max_scale),
                _gate(lambda res: res.status == "unsat" and res.certificate.get("kind") == kind))

    def round(self, st, r):
        rng = _rng(st["seed"], self.name, r)
        ops = [self._op(st, *inst) for inst in self.SEARCH]
        for i in range(self.PARITY):
            lo = -rng.randint(1, 4)
            ops.append(self._op(st, 3, 2 + i % 2, (lo, rng.randint(1, 4)), rng.randint(1, 5)))
        rng.shuffle(ops)
        return ops

    def warmup(self, st):
        return [self._op(st, *inst) for inst in self.SEARCH[-4:]] + \
            [self._op(st, 3, 2, (-2, 2), 3)]


# ---------------------------------------------------------------------------
# spec-verdicts
# ---------------------------------------------------------------------------


class SpecVerdicts:
    """Seeded spec corpus through cli.parse_spec -> cli.run -> json.dumps;
    see corpus.py.  Round r runs the corpus drawn from (seed, r)."""

    name = "spec-verdicts"

    def setup(self, m, seed):
        return {"m": m, "seed": seed}

    def _op(self, st, doc):
        cli = st["m"]["cli"]

        def call():
            try:
                report = cli.run(cli.parse_spec(doc["text"]), seed=doc["seed"])
                report_json(report)
            except cli.SpecError as exc:
                return ("spec_error", exc.line_no)
            except Exception as exc:  # a crash is an outcome the gate judges
                return ("crash", type(exc).__name__)
            return ("report", report)

        def check(outcome):
            if judge(doc, outcome):
                return "ok"
            return "known-defect" if doc["defect"] else "fail"
        return (doc["kind"], call, check)

    def round(self, st, r):
        return [self._op(st, d) for d in round_docs(_rng(st["seed"], self.name, r))]

    def warmup(self, st):
        return self.round(st, -1)


WORKLOADS = {w.name: w for w in (OracleSingle(), OracleTuple(), SolveTower(), SpecVerdicts())}
