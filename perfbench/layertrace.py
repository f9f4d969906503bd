"""Layer tracer for the benchmark, installed from outside the package.

The tracer wraps the public functions and methods of every lfwave module
(and a few named private kernels) by patching module and class attributes;
nothing under ``src/`` changes.  The layers, bottom-up, are

    gfq -> lfield -> cyclo -> clopen -> stepfn -> verify / framesim / construct -> cli

``gfq``, ``lfield`` and ``cyclo`` are counted only: their calls number in
the millions per round and a span each would swamp the run.  Every other
layer records a span (name, start, end, parent) whenever a call crosses
into it from a different layer; calls inside a layer are counted but not
spanned.  A span's self time is its duration minus the time its child spans
cover, so the time of counted-only layers lands in the span that called
them.  Self time is accumulated as each span closes; the first
``span_cap`` spans are also kept in memory and written out at the end.
"""

from __future__ import annotations

import inspect
import json
import time
from array import array
from collections import defaultdict

LAYERS = ("gfq", "lfield", "cyclo", "clopen", "stepfn", "verify", "framesim",
          "construct", "cli")
COUNT_ONLY = ("gfq", "lfield", "cyclo")
# arithmetic dunders are the public interface of the value types
_DUNDERS = ("__init__", "__add__", "__sub__", "__mul__", "__neg__", "__pow__")


class Tracer:
    def __init__(self, span_cap: int = 100_000):
        self.counts = defaultdict(int)
        self.times = defaultdict(float)   # inclusive time of named kernels
        self.self_s = defaultdict(float)  # layer -> self time
        self.stack = []                   # [layer, start, child_time, span id]
        self.span_cap = span_cap
        self.span_total = 0
        self.names = []
        self._name_ids = {}
        self._name = array("H")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("i")
        self._undo = []
        self._patched = set()

    # -- spans -----------------------------------------------------------------

    def enter(self, layer: str, name: str):
        sid = -1
        if self.span_total < self.span_cap:
            nid = self._name_ids.get(name)
            if nid is None:
                nid = self._name_ids[name] = len(self.names)
                self.names.append(name)
            sid = self.span_total
            self._name.append(nid)
            self._start.append(0.0)
            self._end.append(0.0)
            self._parent.append(self.stack[-1][3] if self.stack else -1)
        self.span_total += 1
        t0 = time.perf_counter()
        if sid >= 0:
            self._start[sid] = t0
        self.stack.append([layer, t0, 0.0, sid])

    def exit(self) -> float:
        t1 = time.perf_counter()
        layer, t0, child, sid = self.stack.pop()
        dur = t1 - t0
        self.self_s[layer] += dur - child
        if self.stack:
            self.stack[-1][2] += dur
        if sid >= 0:
            self._end[sid] = t1
        return dur

    def span(self, layer: str, name: str, fn, *args, **kwargs):
        """Run fn inside a span; returns (result, duration)."""
        self.enter(layer, name)
        try:
            result = fn(*args, **kwargs)
        finally:
            dur = self.exit()
        return result, dur

    # -- wrappers --------------------------------------------------------------

    def _counter(self, fn, layer):
        counts, key = self.counts, layer + ".calls"

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return counted

    def _spanner(self, fn, layer, name):
        counts, key, stack = self.counts, layer + ".calls", self.stack
        enter, exit_ = self.enter, self.exit

        if inspect.isgeneratorfunction(fn):
            def spanned_gen(*args, **kwargs):
                counts[key] += 1
                gen = fn(*args, **kwargs)
                if stack and stack[-1][0] == layer:
                    return gen
                return self._resumed_in_span(gen, layer, name)
            return spanned_gen

        verdicts = layer == "verify"

        def spanned(*args, **kwargs):
            counts[key] += 1
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            enter(layer, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_()
            if verdicts and type(result).__name__ == "Verdict":
                counts["verify.verdicts"] += 1
            return result
        return spanned

    def _resumed_in_span(self, gen, layer, name):
        """Attribute a generator's work to its layer: each resumption runs
        inside a span of its own."""
        while True:
            self.enter(layer, name)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self.exit()
            yield item

    def _kernel(self, fn, layer, name, on_call):
        """Always-spanned wrapper for a named kernel; on_call(args, result,
        duration) records the kernel's own counters."""
        counts, key = self.counts, layer + ".calls"

        def kernel(*args, **kwargs):
            counts[key] += 1
            result, dur = self.span(layer, name, fn, *args, **kwargs)
            on_call(args, result, dur)
            return result
        return kernel

    # -- installation ----------------------------------------------------------

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        self._patched.add((id(owner), attr))
        setattr(owner, attr, value)

    def _patch_everywhere(self, modules, original, wrapper):
        """Rebind every module-level reference to original (the defining
        module and each `from .x import f` copy)."""
        for mod in modules.values():
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._patch(mod, attr, wrapper)

    def _wrap(self, fn, layer, name):
        if layer in COUNT_ONLY:
            return self._counter(fn, layer)
        return self._spanner(fn, layer, name)

    def install(self, modules: dict, extra=()):
        """modules: layer name -> imported lfwave module.  extra: tuples
        (owner, attr, layer, kernel name, on_call) for benchmark-side
        functions that belong to a layer."""
        kernels = self._kernels(modules)
        for layer in LAYERS:
            mod = modules[layer]
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    name = f"{layer}.{attr}"
                    if name in kernels:
                        wrapper = self._kernel(obj, layer, name, kernels[name])
                    elif attr.startswith("_"):
                        continue
                    else:
                        wrapper = self._wrap(obj, layer, name)
                    self._patch_everywhere(modules, obj, wrapper)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(obj, layer, kernels)
        for owner, attr, layer, name, on_call in extra:
            self._patch(owner, attr,
                        self._kernel(getattr(owner, attr), layer, name, on_call))

    def _wrap_class(self, cls, layer, kernels):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _DUNDERS:
                continue
            if (id(cls), attr) in self._patched:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(obj, (classmethod, staticmethod)):
                wrapper = type(obj)(self._wrap(obj.__func__, layer, name))
            elif inspect.isfunction(obj):
                if name in kernels:
                    wrapper = self._kernel(obj, layer, name, kernels[name])
                else:
                    wrapper = self._wrap(obj, layer, name)
            else:
                continue
            self._patch(cls, attr, wrapper)

    def _kernels(self, modules):
        counts, times = self.counts, self.times
        in_step = [0]

        def k_sum(args, result, dur):
            counts["framesim.k_sum_calls"] += 1
            counts["framesim.k_sum_cells"] += len(args[2])
            times["framesim.k_sum_s"] += dur

        def refinement(args, result, dur):
            counts["stepfn.mesh_cells"] += len(result)
            times["stepfn.common_refinement_s"] += dur

        def exact_cover(args, result, dur):
            counts["construct.nodes"] += result[1]
            counts["construct.candidates"] += len(args[1])
            times["construct.exact_cover_s"] += dur

        def evaluate(args, result, dur):
            counts["stepfn.evaluate_calls"] += 1

        def parse(args, result, dur):
            times["cli.parse_s"] += dur

        # FiniteModel.random_step enumerates the window's atoms to sample a
        # few; count the atoms it walks per function drawn
        model_cls = modules["framesim"].FiniteModel
        atoms = model_cls.__dict__["atoms"]

        def counted_atoms(model):
            for a in atoms(model):
                if in_step[0]:
                    counts["framesim.atoms_enumerated"] += 1
                yield a
        self._patch(model_cls, "atoms", counted_atoms)
        step = model_cls.__dict__["random_step"]

        def random_step(*args, **kwargs):
            counts["framesim.calls"] += 1
            counts["framesim.random_step_calls"] += 1
            in_step[0] += 1
            try:
                result, dur = self.span("framesim", "framesim.FiniteModel.random_step",
                                        step, *args, **kwargs)
            finally:
                in_step[0] -= 1
            times["framesim.random_step_s"] += dur
            return result
        self._patch(model_cls, "random_step", random_step)

        return {
            "framesim._k_sum": k_sum,
            "stepfn.common_refinement": refinement,
            "construct._exact_cover": exact_cover,
            "stepfn.StepFunction.evaluate": evaluate,
            "cli.parse_spec": parse,
        }

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()
        self._patched.clear()

    # -- output ----------------------------------------------------------------

    def write_spans(self, path):
        """Kept spans as parallel arrays (span ids index them; parent -1 is
        a root); times are perf_counter seconds."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "names": self.names,
                "name": list(self._name),
                "start": list(self._start),
                "end": list(self._end),
                "parent": list(self._parent),
                "kept": len(self._name),
                "total": self.span_total,
            }, fh)
