"""Spans around trafficlab's public functions, installed from outside.

No package code is changed. Each traced function is replaced by a
wrapper at every place it is bound: its defining module, the
``trafficlab`` package namespace, every trafficlab module that imported
it by name, and any extra module (such as an experiment script) the
workload loaded. Spans nest on one stack, so a function's self time is
its span duration minus the time covered by its child spans.
"""
from __future__ import annotations

import functools
import importlib
import sys
from dataclasses import dataclass, field
from time import perf_counter


# name -> (module, attribute path, item counter, counts(args, kwargs, result)).
# The item counts a function's input, so less redundant work shows as
# fewer self seconds for the same items.
LAYER_FUNCTIONS = {
    "cli.main": ("trafficlab.cli", "main", None, None),
    "cli.cmd_summarize": ("trafficlab.cli", "cmd_summarize", None, None),
    "cli.cmd_hurst": ("trafficlab.cli", "cmd_hurst", None, None),
    "cli.cmd_tailfit": ("trafficlab.cli", "cmd_tailfit", None, None),
    "cli.cmd_queue": ("trafficlab.cli", "cmd_queue", None, None),
    "cli.cmd_shuffle": ("trafficlab.cli", "cmd_shuffle", None, None),
    "cli.cmd_sweep_blocks": ("trafficlab.cli", "cmd_sweep_blocks", None, None),
    "traces.load_trace": ("trafficlab.traces", "load_trace", "lines",
                          lambda a, k, r: r.packet_count),
    "traces.save_trace": ("trafficlab.traces", "save_trace", "rows",
                          lambda a, k, r: a[0].packet_count),
    "synth.sample_heavy_tail": ("trafficlab.synth", "sample_heavy_tail", "samples",
                                lambda a, k, r: r.size if hasattr(r, "size") else 1),
    "synth.generate_onoff": ("trafficlab.synth", "generate_onoff", "cycles",
                             lambda a, k, r: r.n_cycles),
    "synth.packetize": ("trafficlab.synth", "packetize", "packets",
                        lambda a, k, r: r[0].packet_count),
    "synth.reorder_nonoverlap": ("trafficlab.synth", "reorder_nonoverlap", "cycles",
                                 lambda a, k, r: r.n_cycles),
    "synth.SyntheticSource.trace": ("trafficlab.synth", "SyntheticSource.trace", "packets",
                                    lambda a, k, r: r.packet_count),
    "queue_sim.packet_fifo": ("trafficlab.queue_sim", "packet_fifo", "packets",
                              lambda a, k, r: a[0].packet_count),
    "queue_sim.fluid_queue": ("trafficlab.queue_sim", "fluid_queue", "cycles",
                              lambda a, k, r: a[0].n_cycles),
    # the longest prefix is the input; shorter prefixes are redone work
    "queue_sim.prefix_mean_queue": ("trafficlab.queue_sim", "prefix_mean_queue", "cycles",
                                    lambda a, k, r: max((n for n, _ in r), default=0)),
    "queue_sim.QueuePath.write_csv": ("trafficlab.queue_sim", "QueuePath.write_csv", "rows",
                                      lambda a, k, r: len(a[0].times)),
    "experiments.block_shuffle": ("trafficlab.experiments", "block_shuffle", "packets",
                                  lambda a, k, r: a[0].packet_count),
    "experiments.blocksize_sweep": ("trafficlab.experiments", "blocksize_sweep", "shuffles",
                                    lambda a, k, r: sum(len(p.rep_means) for p in r.points)),
    "estimators.bin_counts": ("trafficlab.estimators", "bin_counts", "packets",
                              lambda a, k, r: a[0].packet_count),
    "estimators.hurst_aggregated_variance": ("trafficlab.estimators", "hurst_aggregated_variance",
                                             "bins", lambda a, k, r: len(a[0])),
    "estimators.empirical_ccdf": ("trafficlab.estimators", "empirical_ccdf", "samples",
                                  lambda a, k, r: len(a[0])),
    "estimators.fit_tail_index": ("trafficlab.estimators", "fit_tail_index", "samples",
                                  lambda a, k, r: len(a[0])),
    "rng.substream": ("trafficlab.rng", "substream", None, None),
}

LAYERS = tuple(dict.fromkeys(name.split(".")[0] for name in LAYER_FUNCTIONS))


@dataclass
class FunctionStats:
    calls: int = 0
    self_s: float = 0.0
    items: int = 0


@dataclass
class Tracer:
    """Collects span statistics while installed; one instance per run."""

    stats: dict = field(default_factory=lambda: {name: FunctionStats() for name in LAYER_FUNCTIONS})
    top_level_s: float = 0.0  # time covered by spans with no parent
    _stack: list = field(default_factory=list)
    _restore: list = field(default_factory=list)

    def _wrap(self, name, fn, count):
        rec = self.stats[name]
        stack = self._stack

        @functools.wraps(fn)
        def span(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                rec.calls += 1
                rec.self_s += dur - child[0]
                if stack:
                    stack[-1][0] += dur
                else:
                    self.top_level_s += dur
            if count is not None:
                rec.items += int(count(args, kwargs, result))
            return result

        return span

    def install(self, extra_modules=()) -> None:
        """Replace every binding of every traced function with its span."""
        for name, (modname, attr, _, count) in LAYER_FUNCTIONS.items():
            owner = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._restore.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original, count))
                continue
            original = getattr(owner, attr)
            span = self._wrap(name, original, count)
            modules = [m for key, m in sys.modules.items()
                       if m is not None and (key == "trafficlab" or key.startswith("trafficlab."))]
            for module in [*modules, *extra_modules]:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, span)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def snapshot(self) -> dict:
        """Calls, self seconds and items of every traced function so far."""
        return {name: (s.calls, s.self_s, s.items) for name, s in self.stats.items()}
