"""Call-site tracer for the pairgossip layers, kept in the benchmark's files.

The tracer replaces a library function by a timing wrapper in every module
namespace that binds it, so calls made through `module.name` or through a
`from .module import name` binding both pass through the wrapper.  A target
`mod.func` whose binding in `mod` is defined elsewhere (for example
`centralized.full_gradient`, defined in `losses`) is wrapped in `mod` only:
that counts the calls made from that call site.

Spans are aggregated in memory per (name, parent) pair, so a hot loop of a
million calls costs a few dict entries, and written out when the run ends.
A layer's self time is its duration minus the time of the traced spans
nested inside it.  A target that no longer exists (a later refactor removed
or merged it) is reported as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import tracemalloc

PACKAGE = "pairgossip"

# <module>.<function> per layer; the order is the order of the report.
TARGETS = (
    "harness.prepare", "harness.execute", "harness.summarize",
    "graphs.build_topology", "graphs.spectral_gap", "graphs.sample_edge",
    "centralized.solve_reference",
    "losses.pair_gradients", "losses.loss_grad", "losses.exact_partial_gradient",
    "regularizers.smoothing_many", "regularizers.smoothing_op",
    "regularizers.project_psd",
    "sync_gossip.sync_step",
    "async_gossip.async_step", "async_gossip._async_bias",
    "analysis.make_record", "analysis.objective_per_node",
    "analysis.bias_sample", "analysis.dual_disagreement",
    "analysis.write_trace",
)
# Call-site counters: a binding imported into the named module.
CALL_SITES = ("centralized.full_gradient",)
# Functions whose peak allocation is sampled with tracemalloc, and how often
# (every k-th call): tracemalloc slows every Python allocation while it runs.
ALLOC_SAMPLED = {"analysis.make_record": 1, "async_gossip.async_step": 200}


class Tracer:
    def __init__(self):
        self.stats: dict[tuple[str, str | None], list] = {}
        self.stack: list[list] = []
        self.peak_alloc: dict[str, float] = {}
        self.absent: list[str] = []

    def install(self) -> None:
        importlib.import_module(PACKAGE)
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for target in TARGETS + CALL_SITES:
            mod_name, func_name = target.split(".")
            mod = sys.modules.get(f"{PACKAGE}.{mod_name}")
            fn = getattr(mod, func_name, None) if mod is not None else None
            if not callable(fn):
                self.absent.append(target)
                continue
            defined_here = getattr(fn, "__module__", None) == mod.__name__
            wrapper = self._wrap(target, fn, ALLOC_SAMPLED.get(target))
            for m in (modules if defined_here else [mod]):
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, attr, wrapper)

    def _wrap(self, name: str, fn, alloc_every: int | None):
        stats, stack, clock = self.stats, self.stack, time.perf_counter
        peak_alloc = self.peak_alloc
        count = [0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            count[0] += 1
            sample = (alloc_every is not None and (count[0] - 1) % alloc_every == 0
                      and not tracemalloc.is_tracing())
            if sample:
                tracemalloc.start()
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if sample:
                    peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
                    tracemalloc.stop()
                    peak_alloc[name] = max(peak_alloc.get(name, 0.0), peak)
                key = (name, parent[0] if parent is not None else None)
                entry = stats.get(key)
                if entry is None:
                    entry = stats[key] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += dt
                entry[2] += frame[1]
                if parent is not None:
                    parent[1] += dt

        return traced

    def spans(self) -> list[dict]:
        """One row per (name, parent): calls, total and self seconds."""
        return [{"name": name, "parent": parent, "calls": calls,
                 "total_s": total, "self_s": total - child}
                for (name, parent), (calls, total, child) in sorted(
                    self.stats.items(), key=lambda kv: (kv[0][0], kv[0][1] or ""))]

    def per_function(self) -> dict[str, dict[str, float]]:
        """Spans summed over parents, keyed by target name."""
        out = {t: {"calls": 0, "self_s": 0.0, "total_s": 0.0}
               for t in TARGETS + CALL_SITES}
        for row in self.spans():
            agg = out[row["name"]]
            agg["calls"] += row["calls"]
            agg["self_s"] += row["self_s"]
            agg["total_s"] += row["total_s"]
        return out
