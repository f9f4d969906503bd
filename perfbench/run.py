"""lfwave benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see workloads.py) in this process as a closed loop with
one caller: the next operation starts only when the previous verdict is
back and has passed its exactness gate.  Run it from the repository root;
it imports lfwave from ``src/`` and exits with status 2, printing no result,
when that is missing.

--trace 0 reports the end-to-end metrics:
  ops_per_s    verified operations per second of operation time
  op_p50_ms    median operation latency
  op_p90_ms    90th-percentile latency (the run keeps going until at least
               100 operations, so at least 10 samples lie beyond it)
  setup_s      median of five set-ups; each re-imports lfwave from scratch
               and rebuilds the workload's families, models and atom lists
  peak_rss_mb  the process's ru_maxrss
--trace 1 reports the per-layer metrics instead: fixed-operand micro-costs
(micro.py, untraced), then the same rounds run untraced and traced
(layertrace.py), with every traced figure given per round.

Steadiness: the loop runs whole rounds, each with the same operation mix,
until --seconds of operation time have passed.  Every time is rescaled for
host contention (SpeedProbe).  Before timing, set-up garbage is collected
and frozen out of later collections (gc.freeze), and a warm-up round of
cheap operations runs untimed; garbage collection stays on while timing,
because the program's own collections are part of its cost.  The sample
count is `attempted`; fail_ratio is failed / attempted.

Every result is appended, with machine information, to
perfbench/out/results.jsonl (see compare.py).  The last line of standard
output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

import micro
import workloads
from layertrace import COUNT_ONLY, LAYERS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPS = 5
MIN_SAMPLES = 100


def import_lfwave() -> dict:
    """Import every lfwave module afresh; returns layer name -> module."""
    for name in [n for n in sys.modules if n == "lfwave" or n.startswith("lfwave.")]:
        del sys.modules[name]
    mods = {layer: importlib.import_module(f"lfwave.{layer}") for layer in LAYERS}
    mods["lfwave"] = sys.modules["lfwave"]
    return mods


def machine_info() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform()}


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.known_defects = 0
        self.spans = []     # (start, end) of each timed operation
        self.kinds = []
        self.failures = []

    def gate(self, kind, check, result):
        self.attempted += 1
        verdict = "fail" if isinstance(result, Exception) else check(result)
        if verdict == "known-defect":
            self.known_defects += 1
        elif verdict != "ok":
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(f"{kind}: {result!r}"[:300])


def _reference_kernel():
    acc, table = Fraction(0), {}
    for i in range(400):
        acc += Fraction(i % 7, 1 + i % 5)
        table[i, i % 3] = acc
    return len(table)


class SpeedProbe:
    """Host-contention correction.

    On a shared host the whole process runs slower or faster by up to ~1.6x
    for seconds at a time, in step with other tenants' load; that swamps
    the differences the benchmark exists to see.  The probe times five runs
    of a fixed pure-Python reference kernel (Fraction and dict work, like
    lfwave's) between operations, at least every REF_EVERY seconds.  An
    interval is rescaled by REF_S over the mean kernel time sampled just
    before and just after it, so times are reported at the speed at which
    the kernel takes REF_S: its uncontended time on the reference machine
    (Intel Xeon, Python 3.11.7).  Raw times are kept in the result record.
    """

    REF_S = 0.00075
    REF_EVERY = 0.2

    def __init__(self):
        self.at = []
        self.ref = []

    def sample(self):
        t0 = time.perf_counter()
        for _ in range(5):
            _reference_kernel()
        t1 = time.perf_counter()
        self.at.append(t1)
        self.ref.append((t1 - t0) / 5)

    def maybe_sample(self):
        if not self.at or time.perf_counter() - self.at[-1] >= self.REF_EVERY:
            self.sample()

    def corrected(self, t0, t1) -> float:
        """t1 - t0 at reference speed; needs a sample before t0 and one
        after t1."""
        i = bisect.bisect_right(self.at, t0) - 1
        j = bisect.bisect_left(self.at, t1)
        return (t1 - t0) * 2 * self.REF_S / (self.ref[i] + self.ref[j])


def run_op(call, tracer=None, kind=""):
    t0 = time.perf_counter()
    if tracer is not None:
        tracer.enter("bench", "op:" + kind)
    try:
        result = call()
    except Exception as exc:  # a crashed operation is a failed verdict
        result = exc
    finally:
        if tracer is not None:
            tracer.exit()
    return result, t0, time.perf_counter()


def run_rounds(wl, st, tally, first, probe, seconds=None, rounds=None, tracer=None):
    """Run whole rounds from index `first`: a fixed number, or until
    `seconds` of operation time and MIN_SAMPLES operations.  Returns
    (rounds run, operation time, wall time)."""
    busy, r, n0 = 0.0, first, tally.attempted
    wall0 = time.perf_counter()
    probe.sample()
    while True:
        for kind, call, check in wl.round(st, r):
            result, t0, t1 = run_op(call, tracer, kind)
            probe.maybe_sample()
            busy += t1 - t0
            tally.spans.append((t0, t1))
            tally.kinds.append(kind)
            tally.gate(kind, check, result)
        r += 1
        if rounds is not None:
            if r - first >= rounds:
                break
        elif busy >= seconds and tally.attempted - n0 >= MIN_SAMPLES:
            break
    probe.sample()
    return r - first, busy, time.perf_counter() - wall0


def set_up(wl, seed, probe):
    raw, times = [], []
    for _ in range(SETUP_REPS):
        probe.sample()
        t0 = time.perf_counter()
        mods = import_lfwave()
        st = wl.setup(mods, seed)
        t1 = time.perf_counter()
        probe.sample()
        raw.append(t1 - t0)
        times.append(probe.corrected(t0, t1))
    gc.collect()
    gc.freeze()
    return mods, st, statistics.median(times), statistics.median(raw)


def warm_up(wl, st, tally):
    for kind, call, check in wl.warmup(st):
        result, _, _ = run_op(call)
        tally.gate(kind, check, result)


def end_to_end(wl, st, seconds, setup, tally, probe):
    setup_s, raw_setup_s = setup
    warm_up(wl, st, tally)
    rounds, busy, _ = run_rounds(wl, st, tally, 0, probe, seconds=seconds)
    lat = [probe.corrected(t0, t1) for t0, t1 in tally.spans]
    by_kind = {}
    for kind, dt in zip(tally.kinds, lat):
        by_kind.setdefault(kind, []).append(dt)
    cuts = statistics.quantiles(lat, n=10, method="inclusive")
    raw = statistics.quantiles([t1 - t0 for t0, t1 in tally.spans], n=10, method="inclusive")
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "op_p50_ms": (cuts[4] * 1e3, "ms"),
        "op_p90_ms": (cuts[8] * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }, {"rounds": rounds, "samples": len(lat), "raw_ops_per_s": len(lat) / busy,
        "raw_op_p50_ms": raw[4] * 1e3, "raw_op_p90_ms": raw[8] * 1e3,
        "raw_setup_s": raw_setup_s,
        "kinds": {k: [len(v), statistics.median(v) * 1e3] for k, v in sorted(by_kind.items())},
        "slowdown_median": statistics.median(probe.ref) / probe.REF_S}


def per_layer(wl, mods, st, seconds, tally, probe, spans_path):
    metrics = {k: (v, "us") for k, v in micro.run(mods).items()}
    warm_up(wl, st, tally)
    # the untraced pass fixes the rounds; the traced pass repeats them
    i0 = len(tally.spans)
    rounds, _, _ = run_rounds(wl, st, tally, 0, probe, seconds=seconds / 2)
    i1 = len(tally.spans)
    tracer = Tracer()

    def json_bytes(args, result, dur):
        tracer.times["cli.json_s"] += dur
        tracer.counts["cli.report_bytes"] += len(result)
    tracer.install(mods, extra=[(workloads, "report_json", "cli", "cli.report_json",
                                 json_bytes)])
    try:
        run_rounds(wl, st, tally, 0, probe, rounds=rounds, tracer=tracer)
    finally:
        tracer.uninstall()
    tracer.write_spans(spans_path)

    plain_s = sum(probe.corrected(a, b) for a, b in tally.spans[i0:i1])
    traced_s = sum(probe.corrected(a, b) for a, b in tally.spans[i1:])
    # traced times are rescaled to reference speed like the end-to-end ones
    scale = traced_s / sum(b - a for a, b in tally.spans[i1:])
    c, t = tracer.counts, {k: v * scale for k, v in tracer.times.items()}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = (c[f"{layer}.calls"] / rounds, "count/round")
        if layer not in COUNT_ONLY:
            metrics[f"{layer}.self_s"] = (tracer.self_s[layer] * scale / rounds, "s/round")
    per_round = {
        "framesim.k_sum_calls": ("count", c["framesim.k_sum_calls"]),
        "framesim.k_sum_cells": ("count", c["framesim.k_sum_cells"]),
        "framesim.k_sum_s": ("s", t.get("framesim.k_sum_s", 0.0)),
        "framesim.random_step_s": ("s", t.get("framesim.random_step_s", 0.0)),
        "stepfn.common_refinement_s": ("s", t.get("stepfn.common_refinement_s", 0.0)),
        "stepfn.mesh_cells": ("count", c["stepfn.mesh_cells"]),
        "stepfn.evaluate_calls": ("count", c["stepfn.evaluate_calls"]),
        "construct.exact_cover_s": ("s", t.get("construct.exact_cover_s", 0.0)),
        "construct.nodes": ("count", c["construct.nodes"]),
        "construct.candidates": ("count", c["construct.candidates"]),
        "verify.verdicts": ("count", c["verify.verdicts"]),
        "cli.parse_s": ("s", t.get("cli.parse_s", 0.0)),
        "cli.json_s": ("s", t.get("cli.json_s", 0.0)),
        "cli.report_bytes": ("count", c["cli.report_bytes"]),
        "trace.overhead_s": ("s", traced_s - plain_s),
    }
    for name, (unit, total) in per_round.items():
        metrics[name] = (total / rounds, unit + "/round")
    steps = c["framesim.random_step_calls"]
    metrics["framesim.atoms_per_step"] = (
        c["framesim.atoms_enumerated"] / steps if steps else 0.0, "count")
    cover_s = t.get("construct.exact_cover_s", 0.0)
    metrics["construct.nodes_per_s"] = (c["construct.nodes"] / cover_s if cover_s else 0.0, "1/s")
    return metrics, {"rounds": rounds, "spans": tracer.span_total,
                     "untraced_s": plain_s, "traced_s": traced_s}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--results", default=str(OUT / "results.jsonl"),
                    help="JSON-lines file the result is appended to")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "lfwave" / "__init__.py").is_file():
        print(f"error: no lfwave sources under {ROOT / 'src'}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    os.environ.pop("LFW_THREADS", None)
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)

    wl = workloads.WORKLOADS[args.workload]
    tally, probe = Tally(), SpeedProbe()
    mods, st, *setup = set_up(wl, args.seed, probe)
    if args.trace:
        spans = OUT / f"spans-{args.workload}-{args.seed}.json"
        metrics, info = per_layer(wl, mods, st, args.seconds, tally, probe, spans)
        info["spans_file"] = str(spans.relative_to(ROOT))
    else:
        metrics, info = end_to_end(wl, st, args.seconds, setup, tally, probe)

    machine = machine_info()
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, known_defects=tally.known_defects, info=info,
                  machine=machine, time=time.time())
    with open(args.results, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"cpu={machine['cpu']!r} nproc={machine['nproc']} python={machine['python']}")
    print(f"# {info}")
    print(f"# samples={tally.attempted} failed={tally.failed} "
          f"fail_ratio={tally.failed / tally.attempted:.6f} "
          f"known_defects={tally.known_defects} "
          f"(fail_ratio with known defects "
          f"{(tally.failed + tally.known_defects) / tally.attempted:.6f})")
    for line in tally.failures:
        print(f"# FAILED {line}")
    for name, (value, unit) in metrics.items():
        print(f"#   {name:32s} {value:14.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
