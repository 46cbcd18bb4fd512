"""In-process span recorder for one traced ``mug`` command.

``Tracer.install`` wraps the public functions of every ``mug`` module, and
the private stage functions named in EXTRA, so each call records a span:
(name, parent span index, start, end). A function imported by name into
another module (``from .hetgraph import all_views``) is rebound there too, so
every call site goes through the same wrapper. Spans stay in memory and are
written once, by ``dump``, when the command ends. ``src/`` is not modified.

A few wrappers also count work where it happens: walk steps, window pairs,
SGNS pair updates, and a key per struct-table training so the parent can
tell how many trainings repeat an earlier one.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import resource
import time
from collections import Counter
from typing import Callable, Dict, List

import numpy as np

MODULES = ("autodiff", "bundle", "cli", "config", "dimalign", "evalkit", "fusion",
           "hetgraph", "kernels", "metamae", "structenc")

# Private functions that delimit stages the public API does not expose.
EXTRA = ("fusion._prepare_graph", "fusion._train", "structenc._window_pairs")
# Public helpers too small and too frequent to be worth a span.
SKIP = ("autodiff.as_node",)


def window_pairs(lens: np.ndarray, window: int) -> int:
    """Skip-gram (center, context) pairs over walks of the given node counts."""
    total = 0
    for n, count in zip(*np.unique(np.asarray(lens), return_counts=True)):
        n = int(n)
        per_walk = sum(min(i + window, n - 1) - max(i - window, 0) for i in range(n))
        total += per_walk * int(count)
    return total


def graph_key(g) -> str:
    """Content digest of a HetGraph's structure, for struct-table identity."""
    h = hashlib.sha256()
    for t in g.node_types:
        h.update(f"{t}:{g.counts[t]};".encode())
    for name in sorted(g.edges):
        h.update(name.encode())
        h.update(np.ascontiguousarray(g.edges[name]).tobytes())
    return h.hexdigest()[:16]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    def __init__(self):
        self.spans: List[list] = []     # [name, parent index or -1, start, end]
        self.stack: List[int] = []
        self.counts: Counter = Counter()
        self.tables: List[str] = []

    # -- recording ------------------------------------------------------------

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack = self.spans, self.stack
        after = self._AFTER.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if after is not None:
                after(self, args, out)
            return out

        return traced

    def _walks(self, args, out):
        lens = out[1]
        self.counts["structenc.walk_steps"] += int(np.maximum(lens - 1, 0).sum())

    def _sgns(self, args, out):
        lens, cfg = args[1], args[3]
        pairs = window_pairs(lens, cfg.window)
        self.counts["structenc.pairs"] += pairs
        self.counts["structenc.sgns_pairs"] += pairs * cfg.epochs

    def _table(self, args, out):
        g, cfg, rng = args[:3]
        self.tables.append(f"{graph_key(g)}|{cfg!r}|{rng.seed}:{rng.stream_id}")

    _AFTER = {
        "structenc.sample_all_walks": _walks,
        "structenc.train_sgns": _sgns,
        "structenc.train_struct_table": _table,
    }

    def _with_rss(self, fn: Callable) -> Callable:
        """Record how far peak RSS grows while fn runs (the training epochs)."""

        @functools.wraps(fn)
        def measured(*args, **kwargs):
            before = _peak_rss_mb()
            try:
                return fn(*args, **kwargs)
            finally:
                growth = _peak_rss_mb() - before
                self.counts["fusion.rss_growth_mb"] = max(
                    self.counts["fusion.rss_growth_mb"], growth)

        return measured

    # -- installation -----------------------------------------------------------

    def install(self) -> None:
        mods = {m: importlib.import_module(f"mug.{m}") for m in MODULES}
        wrapped: Dict[int, Callable] = {}
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                name = f"{short}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and name not in SKIP) \
                        or name in EXTRA:
                    wrapped[id(obj)] = self.wrap(name, obj)
        train = mods["fusion"]._train
        wrapped[id(train)] = self._with_rss(wrapped[id(train)])
        # Rebind every module-level name that refers to a wrapped function.
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    setattr(mod, attr, wrapped[id(obj)])
        opt = mods["fusion"].Optimizer
        opt.step = self.wrap("fusion.Optimizer.step", opt.step)

    def dump(self, path: str, **header) -> None:
        record = dict(header, spans=self.spans, counts=dict(self.counts),
                      tables=self.tables)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)
