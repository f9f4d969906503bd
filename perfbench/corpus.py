"""Seeded corpus of spec documents for the spec-verdicts workload.

Every document declares a field and ends in exactly one verdict-bearing
directive (check, bound, simulate or solve), so one document is one
operation.  Each comes with the verdict semantics the theory predicts: the
pass flags, the names of the failing binding checks, and the exact measures
and bound values.  Reports are compared on those semantics, never on their
bytes, so structured bounds or a dropped report field are not failures.

The corpus has the same templates and parameter grid in every round; the
seed draws the free parameters (shell exponents, translation indices, root
of unity exponents, component order and simulation seeds) within them.

Three documents probe known front-end defects.  Their expected outcome is
the verdict, or a SpecError naming the line.  Today they end in a refusal
or a crash; the runner counts those outcomes as known defects.
"""

from __future__ import annotations

from fractions import Fraction


def _field(p, c=1):
    return f"field {{p={p}}}" if c == 1 else f"field {{p={p}, c={c}}}"


def _verdict(passed, failing=(), **bounds):
    return {"verdict": {"passed": passed, "failing": sorted(failing), "bounds": bounds}}


def _doc(kind, lines, expect, doc_passed, run_seed=0, defect=None):
    return {"kind": kind, "text": "\n".join(lines) + "\n", "expect": expect,
            "passed": doc_passed, "seed": run_seed, "defect": defect}


def _translates(order):
    return "[" + ", ".join(f"translate(O, u({i}))" for i in order) + "]"


def _shannon_fns(order):
    return "[" + ", ".join(f"indicator(translate(O, u({i})))" for i in order) + "]"


def round_docs(rng):
    """One round of documents; rng is a seeded random.Random."""
    docs = []

    # set criteria for the translated-coset families, up to q = 13
    for p, c in ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (11, 1), (13, 1)):
        q = p ** c
        if q <= 5:
            order = rng.sample(range(1, q), q - 1)
            fam = f"family W = {_translates(order)}"
        else:
            fam = "family W = shannon"
        docs.append(_doc("check-multiwavelet", [_field(p, c), fam, "check multiwavelet W"],
                         _verdict(True, order=q - 1), True))

    # single shells: Parseval frame sets that are not orthonormal
    for p in (2, 3, 5):
        m = rng.randint(1, 3)
        docs.append(_doc("check-parseval-multiwavelet",
                         [_field(p), f"check parseval-multiwavelet [shell({m})]"],
                         _verdict(True, order=1), True))
        docs.append(_doc("check-multiwavelet",
                         [_field(p), f"check multiwavelet [shell({m})]"],
                         _verdict(False, ["component-1:translates-cover"], order=1), False))

    for p in (2, 3):
        m = rng.randint(1, 2)
        docs.append(_doc("check-parseval-multiwavelet",
                         [_field(p), f"family W = scaled-shannon({m})",
                          "check parseval-multiwavelet W"],
                         _verdict(True, order=p - 1), True))

    # shell tuples (Parseval super-wavelets) and tower families
    for p in (2, 3):
        q = Fraction(p)
        n = rng.randint(1, 3)
        jfm = sum((q ** -i * (1 - 1 / q) for i in range(1, n + 1)), Fraction(0))
        head = [_field(p), f"family T = shell-tuple({n})"]
        docs.append(_doc("check-superwavelet", head + ["check superwavelet T parseval"],
                         _verdict(True, joint_fold_measure=jfm, length=n), True))
        docs.append(_doc("check-superwavelet", head + ["check superwavelet T orthonormal"],
                         _verdict(False, ["(c)-joint-translates-cover"],
                                  joint_fold_measure=jfm, length=n), False))
        n = rng.randint(2, 3)
        docs.append(_doc("check-superwavelet",
                         [_field(p), f"family T = tower({n})",
                          "check superwavelet T orthonormal"],
                         _verdict(False, ["(c)-joint-translates-cover"],
                                  joint_fold_measure=1 - q ** (1 - n), length=n - 1), False))

    # dilation and translation criteria on bare sets
    for p in (2, 3, 5):
        a, b = rng.sample(range(-2, 4), 2)
        docs.append(_doc("check-dilation",
                         [_field(p), f"check dilation union(shell({a}), shell({b}))"],
                         _verdict(False, ["dilates-disjoint"], shells=sorted((a, b))), False))
        docs.append(_doc("check-dilation", [_field(p), f"check dilation shell({a})"],
                         _verdict(True, shells=[a]), True))
    for p in (3, 5):
        k = rng.randrange(p, p * p)
        docs.append(_doc("check-translation",
                         [_field(p), f"check translation translate(O, u({k})) tiling"],
                         _verdict(True, fold_measure=1), True))
        docs.append(_doc("check-translation",
                         [_field(p), "check translation shell(-1) packing"],
                         _verdict(False, ["translates-disjoint"], fold_measure=2), False))

    # pointwise frame conditions on spectra
    for p in (2, 3, 5):
        order = rng.sample(range(1, p), p - 1)
        docs.append(_doc("check-frame", [_field(p), f"check frame {_shannon_fns(order)}"],
                         _verdict(True, j_max=0, s_max=p - 1), True))
    for p in (3, 5):
        m, t = rng.randint(1, 3), rng.randint(1, p - 1)
        docs.append(_doc("check-frame",
                         [_field(p), f"check frame [indicator(shell({m}), zeta^{t})]"],
                         _verdict(True, j_max=-1, s_max=0), True))
        docs.append(_doc("check-frame",
                         [_field(p), f"check frame [indicator(shell({m}), 1/2)]"],
                         _verdict(False, ["dilation-square-sum"], j_max=-1, s_max=0), False))

    docs.append(_doc("check-super-functions",
                     [_field(2), "check super-functions [indicator(translate(O, u(1)))]"],
                     _verdict(True, j_max=0, k_max=1), True))
    m = rng.randint(1, 2)
    docs.append(_doc("check-super-functions",
                     [_field(3), f"check super-functions [indicator(shell({m})), "
                                 f"indicator(shell({m + 1}))]"],
                     _verdict(False, ["(iii)-joint-correlation"], j_max=1, k_max=0), False))

    for p in (3, 5):
        m, t = rng.randint(1, 2), rng.randint(1, p - 1)
        head = [_field(p), f"fn a = indicator(shell({m}))"]
        docs.append(_doc("check-equivalent",
                         head + [f"fn b = indicator(shell({m}), zeta^{t})",
                                 "check equivalent [a], [b]"],
                         _verdict(True, n_max=0, k_max=0), True))
        docs.append(_doc("check-equivalent",
                         head + [f"fn b = indicator(shell({m + 1}))",
                                 "check equivalent [a], [b]"],
                         _verdict(False, ["correlations-agree"], n_max=1, k_max=0), False))

    p = rng.choice((2, 3, 5, 7))
    docs.append(_doc("check-translates", [_field(p), "check translates indicator(O*) parseval"],
                     _verdict(True), True))
    docs.append(_doc("check-translates",
                     [_field(p), "check translates indicator(O*) orthonormal"],
                     _verdict(False, ["weight-identically-one"]), False))
    docs.append(_doc("check-translates", [_field(p), "check translates indicator(O) orthonormal"],
                     _verdict(True), True))

    for p in (2, 3):
        docs.append(_doc("check-scaling",
                         [_field(p), f"check scaling union({_translates(range(1, p))[1:-1]}), O"],
                         _verdict(True, mra_kind="orthonormal"), True))

    # singular-integral bounds
    for p in (2, 3, 5, 7, 11, 13):
        docs.append(_doc("bound", [_field(p), "bound decomposability indicator(O*)"],
                         {"bound": {"value": Fraction(p - 1, p), "max_m": 1}}, True))
        docs.append(_doc("bound", [_field(p), "bound extendability indicator(O*)"],
                         {"bound": {"value": "inf", "max_m": "unbounded"}}, True))

    # small frequency-domain simulations and solver calls
    docs.append(_doc("simulate",
                     [_field(2), "fn a = indicator(translate(O, u(1)))", "family F = [a]",
                      "simulate parseval F window=2,2 trials=2"],
                     {"simulate": {"nonzero_residuals": 0}}, True, rng.randrange(1 << 30)))
    docs.append(_doc("simulate",
                     [_field(3), "fn a = indicator(translate(O, u(1)))",
                      "fn b = indicator(translate(O, u(2)))", "family F = [a, b]",
                      "simulate parseval F window=1,1 trials=3"],
                     {"simulate": {"nonzero_residuals": 0}}, True, rng.randrange(1 << 30)))
    docs.append(_doc("simulate",
                     [_field(2), "fn a = indicator(translate(O, u(1)))", "family F = [a]",
                      "simulate gram F window=1,1 jmax=1 kmax=4"],
                     {"simulate": {"non_delta_entries": 0}}, True))
    docs.append(_doc("solve",
                     [_field(2), "family T = tower(2)",
                      "solve X from T shells=-2..2 max-scale=4"],
                     {"solve": {"status": "unsat", "kind": "exhausted"}}, False))
    n = rng.randint(2, 3)
    docs.append(_doc("solve",
                     [_field(3), f"family T = tower({n})",
                      "solve X from T shells=-3..3 max-scale=5"],
                     {"solve": {"status": "unsat", "kind": "parity"}}, False))

    # known front-end defects
    docs.append(_doc("defect-probe",
                     [_field(3), "fn a = indicator(translate(O, u(1)))",
                      "fn b = indicator(translate(O, u(2)))",
                      "simulate parseval [a, b] window=1,1 trials=1"],
                     {"simulate": {"nonzero_residuals": 0}}, True, rng.randrange(1 << 30),
                     defect="simulate-inline-list-refused"))
    docs.append(_doc("defect-probe",
                     [_field(2), "family T = tower", "check superwavelet T orthonormal"],
                     {"spec_error_line": 2}, None, defect="family-without-parens-crashes"))
    docs.append(_doc("defect-probe",
                     [_field(2), "set A = shell()", "check dilation A"],
                     {"spec_error_line": 2}, None, defect="empty-call-crashes"))
    rng.shuffle(docs)
    return docs


# ---------------------------------------------------------------------------
# semantics of a report
# ---------------------------------------------------------------------------


def _norm(x):
    if isinstance(x, bool) or x is None:
        return x
    if isinstance(x, (list, tuple)):
        return tuple(_norm(v) for v in x)
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except ValueError:
            return x
    return x


def semantics(entry: dict, expect: dict):
    """The part of a directive entry that expect describes, normalized."""
    if "verdict" in expect:
        if "verdict" not in entry:
            return None
        v = entry["verdict"]
        failing = sorted(c["name"] for c in v["checks"]
                         if c["status"] == "fail" and c.get("binding", True))
        bounds = v.get("bounds", {})
        return {"verdict": {
            "passed": v["passed"], "failing": failing,
            "bounds": {k: _norm(bounds.get(k)) for k in expect["verdict"]["bounds"]}}}
    if "bound" in expect:
        if "value" not in entry:
            return None
        return {"bound": {"value": _norm(entry["value"]),
                          "max_m": _norm(entry["max_m_not_excluded"])}}
    if "simulate" in expect:
        return {"simulate": {k: entry.get(k) for k in expect["simulate"]}}
    if "solve" in expect:
        if "result" not in entry:
            return None
        r = entry["result"]
        return {"solve": {"status": r["status"], "kind": r["certificate"].get("kind")}}
    return None


def _normalized(expect):
    if "verdict" in expect:
        v = expect["verdict"]
        return {"verdict": {"passed": v["passed"], "failing": v["failing"],
                            "bounds": {k: _norm(x) for k, x in v["bounds"].items()}}}
    if "bound" in expect:
        return {"bound": {k: _norm(x) for k, x in expect["bound"].items()}}
    return expect


def judge(doc: dict, outcome) -> bool:
    """True when the outcome of running doc has the expected semantics.
    outcome is ("report", report), ("spec_error", line) or ("crash", name)."""
    expect = doc["expect"]
    if outcome[0] == "spec_error":
        return expect.get("spec_error_line") == outcome[1]
    if outcome[0] != "report" or "spec_error_line" in expect:
        return False
    report = outcome[1]
    if report["passed"] != doc["passed"]:
        return False
    return semantics(report["directives"][-1], expect) == _normalized(expect)
