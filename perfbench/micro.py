"""Micro-costs of the arithmetic and set kernels at fixed operands.

Each figure is the minimum over five repeats of the mean cost of one call
in a tight loop, in microseconds, measured untraced.  The operands match
the ROADMAP baseline: GF(81) for the residue field, ~9-digit Laurent
series, and cyclotomic scalars at p = 2, 5 and 13.
"""

from __future__ import annotations

import time
from fractions import Fraction

REPEATS = 5
TARGET_S = 0.01  # per repeat


def _cost_us(fn) -> float:
    n = 1
    while True:  # size the loop so one repeat takes about TARGET_S
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        dt = time.perf_counter() - t0
        if dt >= TARGET_S / 4 or n >= 1 << 20:
            break
        n *= 4
    n = max(1, int(n * TARGET_S / max(dt, 1e-9)))
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        best = min(best, (time.perf_counter() - t0) / n)
    return best * 1e6


def _cyclo(m, p, seed):
    coeffs = [Fraction((seed * (i + 3)) % 7 - 3, 1 + (seed + i) % 4) for i in range(p - 1)]
    return m["cyclo"].CycloScalar(p, p, coeffs)


def run(m: dict) -> dict:
    """m: layer name -> lfwave module.  Returns metric name -> microseconds."""
    gfq, lfield, clopen = m["gfq"], m["lfield"], m["clopen"]
    gf81 = gfq.FieldConfig(3, 4)
    a, b = gf81.from_index(37), gf81.from_index(58)

    cfg3 = gfq.FieldConfig(3, 1)
    x = lfield.coset_rep(cfg3, 3 ** 9 - 1000)   # 9 digits, exponents -9..-1
    y = lfield.coset_rep(cfg3, 3 ** 8 + 4321).scale_exponents(9)  # 9 digits at 0..8
    u = lfield.coset_rep(gf81, 81 ** 2 + 1234).scale_exponents(3)
    v = lfield.coset_rep(gf81, 81 ** 2 + 999)

    c5a, c5b = _cyclo(m, 5, 1), _cyclo(m, 5, 2)
    s2, s5, s13 = _cyclo(m, 2, 3), _cyclo(m, 5, 3), _cyclo(m, 13, 3)

    cfg2 = gfq.FieldConfig(2, 1)
    balls = []
    for i in range(24):  # overlapping, nested and sibling balls
        center = lfield.coset_rep(cfg2, i * 5 % 16).scale_exponents(i % 3)
        balls.append(clopen.Ball(cfg2, center, (i * 7) % 5 - 1))
    fold_set = clopen.ClopenSet(
        cfg3, [clopen.Ball(cfg3, lfield.coset_rep(cfg3, k), 1 + k % 2) for k in range(1, 13)])

    return {
        "gfq.mul_us": _cost_us(lambda: a * b),
        "gfq.trace_us": _cost_us(a.trace),
        "lfield.add_us": _cost_us(lambda: x + y),
        "lfield.mul_us": _cost_us(lambda: x * y),
        "lfield.character_us": _cost_us(lambda: lfield.character(u, v)),
        "cyclo.mul_us": _cost_us(lambda: c5a * c5b),
        "cyclo.add_us": _cost_us(lambda: c5a + c5b),
        "cyclo.abs_sq_p2_us": _cost_us(s2.abs_sq),
        "cyclo.abs_sq_p5_us": _cost_us(s5.abs_sq),
        "cyclo.abs_sq_p13_us": _cost_us(s13.abs_sq),
        "clopen.normalize_us": _cost_us(lambda: clopen.ClopenSet(cfg2, balls)),
        "clopen.fold_us": _cost_us(fold_set.fold),
    }
