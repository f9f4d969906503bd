"""Compare the end-to-end results of two commits.

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

Each file holds the untraced results of one commit, as run.py appends them
(perfbench/out/results.jsonl; copy it aside after each commit's runs).
Every workload x metric gets a row with each side's median and quartiles
and a verdict against the bound in BENCHMARK.json:

  regression  the change's median is worse than the base median by more
              than the bound
  unresolved  the base's own spread (quartile distance over median) exceeds
              the bound, and not every change run beats every base run
  better      the change's median is better by more than the base spread
  same        otherwise

The machine each side ran on is printed first; results from different
machines are not comparable.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path):
    runs = {}
    machines = set()
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            if rec["trace"]:
                continue
            m = rec["machine"]
            machines.add(f"{m['cpu']}, nproc={m['nproc']}, python {m['python']}")
            for name, metric in rec["metrics"].items():
                runs.setdefault((rec["workload"], name), []).append(metric["value"])
    return runs, machines


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base, change, bound, better):
    sign = 1 if better == "higher" else -1
    b1, bm, b3 = quartiles(base)
    _, cm, _ = quartiles(change)
    gain = sign * (cm - bm) / bm
    spread = (b3 - b1) / bm
    if gain < -bound:
        return "regression"
    if spread > bound:
        beats_all = all(sign * c > sign * b for c in change for b in base)
        return "better (every run)" if beats_all else "unresolved"
    if gain > spread:
        return "better"
    return "same"


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    (base, base_m), (change, change_m) = load(argv[0]), load(argv[1])
    print(f"base:   {'; '.join(sorted(base_m))}")
    print(f"change: {'; '.join(sorted(change_m))}")
    print(f"{'workload':15s} {'metric':12s} {'n':>5s} {'base q1/median/q3':>32s} "
          f"{'change q1/median/q3':>32s} {'bound':>6s}  verdict")
    status = 0
    for wl in spec["workloads"]:
        for metric in spec["end_to_end"]:
            key = (wl["name"], metric["name"])
            if key not in base or key not in change:
                print(f"{key[0]:15s} {key[1]:12s}  missing on one side")
                continue
            v = verdict(base[key], change[key], metric["bound"], metric["better"])
            status |= v == "regression"
            fmt = "{:.4g}/{:.4g}/{:.4g}"
            print(f"{key[0]:15s} {key[1]:12s} {len(base[key]):>2d}/{len(change[key]):<2d} "
                  f"{fmt.format(*quartiles(base[key])):>32s} "
                  f"{fmt.format(*quartiles(change[key])):>32s} {metric['bound']:6.2f}  {v}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
