"""Per-layer metrics from the spans of one traced pass.

A span is (name, parent index, start, end) inside one command; its layer is
the ``mug`` module in its name (``kernels`` belongs to the structenc layer,
and the child runner's own root span to cli). A span's self time is its
duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Dict, Iterable, List, Sequence, Tuple

LAYERS = ("cli", "config", "bundle", "hetgraph", "structenc", "dimalign",
          "metamae", "autodiff", "fusion", "evalkit")

# Forward ops a pre-training epoch calls; any other op is summed as "other".
OPS = ("leaf", "matmul", "transpose", "add", "mul", "smul", "neg", "sigmoid",
       "tanh", "leaky_relu", "power", "row_cosine", "col_mean", "sum_all",
       "mean_all", "softmax", "stack_scalars", "take")

ATTENTION = ("fusion.attention_weights", "fusion.fuse", "fusion.scatter_loss",
             "fusion.total_loss")


def layer_of(name: str) -> str:
    module = name.split(".", 1)[0]
    return "structenc" if module == "kernels" else module


def _covered(intervals: List[Tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, end = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(spans: Sequence[Sequence]) -> List[float]:
    """Self time of every span: duration minus the union of its children."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for _, parent, start, end in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [(end - start) - _covered(children[i])
            for i, (_, _, start, end) in enumerate(spans)]


def _outermost(spans, names: Iterable[str]) -> float:
    """Total duration of spans in names that are not nested in another of them."""
    names = set(names)
    return sum(end - start for name, parent, start, end in spans
               if name in names and (parent < 0 or spans[parent][0] not in names))


def _epoch_times(spans) -> List[float]:
    """Per-epoch wall time: from the start of training (or the end of the
    previous optimizer step) to the end of the epoch's optimizer step."""
    out = []
    for i, (name, _, start, end) in enumerate(spans):
        if name != "fusion._train":
            continue
        mark = start
        for n2, parent, _, e2 in spans:
            if n2 == "fusion.Optimizer.step" and parent == i:
                out.append(e2 - mark)
                mark = e2
    return out


def layer_shares(commands: Sequence[dict]) -> Dict[str, float]:
    """Share of all traced self time spent in each layer."""
    per_layer = dict.fromkeys(LAYERS, 0.0)
    for cmd in commands:
        spans = cmd["spans"]
        for (name, *_), st in zip(spans, self_times(spans)):
            layer = layer_of(name)
            per_layer[layer] = per_layer.get(layer, 0.0) + st
    total = sum(per_layer.values())
    return {k: (v / total if total > 0 else 0.0) for k, v in per_layer.items()}


def per_layer_metrics(commands: Sequence[dict]) -> Dict[str, float]:
    """Every per-layer metric over the commands of one traced pass.

    Each command is the JSON a traced child wrote: spans, counts, tables,
    spawn and main_start times.
    """
    m: Dict[str, float] = defaultdict(float, {"cli.self_s": 0.0, "autodiff.fwd.calls": 0})
    epochs: List[float] = []
    tables: List[str] = []
    for cmd in commands:
        spans = cmd["spans"]
        selfs = self_times(spans)
        dur = defaultdict(float)
        calls = defaultdict(int)
        for (name, _, start, end), st in zip(spans, selfs):
            dur[name] += end - start
            calls[name] += 1
            if layer_of(name) == "cli":
                m["cli.self_s"] += st
            if name.startswith("autodiff.") and name != "autodiff.backward":
                op = name.split(".", 1)[1]
                m[f"autodiff.fwd.{op if op in OPS else 'other'}_s"] += st
                m["autodiff.fwd.calls"] += 1
        m["cli.startup_s"] += cmd["main_start"] - cmd["spawn"]
        m["bundle.load_s"] += dur["bundle.load_bundle"]
        m["hetgraph.views_s"] += dur["hetgraph.all_views"]
        m["structenc.walks_s"] += dur["structenc.sample_all_walks"]
        m["structenc.pairs_s"] += dur["structenc._window_pairs"]
        m["structenc.sgns_s"] += dur["structenc.train_sgns"] - dur["structenc._window_pairs"]
        m["dimalign.s"] += _outermost(spans, (n for n in dur if layer_of(n) == "dimalign"))
        m["metamae.mask_s"] += dur["metamae.mask_edges"]
        m["metamae.operator_s"] += dur["metamae.normalized_operator"]
        m["metamae.autoencode_s"] += dur["metamae.autoencode_view"]
        m["autodiff.backward_s"] += dur["autodiff.backward"]
        m["fusion.prepare_s"] += dur["fusion._prepare_graph"]
        m["fusion.attention_s"] += _outermost(spans, ATTENTION)
        m["fusion.optim_s"] += dur["fusion.Optimizer.step"]
        m["fusion.embed_s"] += dur["fusion.embed"]
        m["fusion.ckpt_save_s"] += dur["fusion.save_checkpoint"]
        m["fusion.ckpt_load_s"] += dur["fusion.load_checkpoint"]
        m["evalkit.probe_s"] += dur["evalkit.linear_probe"]
        m["evalkit.f1_s"] += dur["evalkit.f1_scores"]
        m["evalkit.splits_s"] += dur["evalkit.make_splits"]
        m["evalkit.probes"] += calls["evalkit.linear_probe"]
        counts = cmd["counts"]
        for key in ("structenc.walk_steps", "structenc.pairs", "structenc.sgns_pairs"):
            m[key] += counts.get(key, 0)
        m["fusion.rss_growth_mb"] = max(m["fusion.rss_growth_mb"],
                                        counts.get("fusion.rss_growth_mb", 0.0))
        epochs += _epoch_times(spans)
        tables += cmd["tables"]

    sgns_pairs = m.pop("structenc.sgns_pairs", 0)
    m["structenc.sgns_pairs_per_s"] = (sgns_pairs / m["structenc.sgns_s"]
                                       if m["structenc.sgns_s"] > 0 else 0.0)
    m["structenc.tables"] = len(tables)
    m["structenc.table_repeat_share"] = (
        (len(tables) - len(set(tables))) / len(tables) if tables else 0.0)
    m["fusion.epochs"] = len(epochs)
    m["fusion.epoch_s"] = statistics.median(epochs) if epochs else 0.0
    for op in OPS + ("other",):
        m.setdefault(f"autodiff.fwd.{op}_s", 0.0)
    for layer, share in layer_shares(commands).items():
        m[f"share.{layer}"] = share
    return dict(m)
