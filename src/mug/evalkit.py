"""Frozen-embedding evaluation: stratified splits, linear probe, Macro/Micro-F1.

The probe is L2-regularized multinomial logistic regression trained by
full-batch gradient descent on frozen embeddings, with model selection on
validation Macro-F1. Repeats draw fresh splits from per-repeat random
streams; everything downstream of the embedding is deterministic.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import fusion
from .hetgraph import HetGraph
from .rng import RngStream, STREAM_SPLIT


@dataclass
class SplitSpec:
    mode: str = "standard"          # "standard" or "kshot"
    per_class_train: int = 60       # k when mode == "kshot"
    val_size: int = 1000
    test_size: int = 1000
    repeats: int = 50               # convention: 20 for kshot
    seed: int = 0

    @staticmethod
    def kshot(k: int, repeats: int = 20, seed: int = 0) -> "SplitSpec":
        if k not in (1, 3, 5):
            raise ValueError("k-shot evaluation supports k in {1, 3, 5}")
        return SplitSpec(mode="kshot", per_class_train=k, repeats=repeats, seed=seed)


@dataclass
class Splits:
    train: np.ndarray
    val: np.ndarray
    test: np.ndarray


def make_splits(labels: np.ndarray, spec: SplitSpec, rng: RngStream) -> Splits:
    """Stratified train draw, then disjoint uniform val/test from the rest."""
    labels = np.asarray(labels)
    n_classes = int(labels.max()) + 1
    counts = np.bincount(labels, minlength=n_classes)
    if (counts == 0).any():
        missing = int(np.where(counts == 0)[0][0])
        raise ValueError(f"class {missing} has no labeled nodes")

    k = spec.per_class_train
    if counts.min() < k:
        k = int(counts.min())
        warnings.warn(
            f"per-class train size reduced to {k} (smallest class)", stacklevel=2
        )
    train_parts = []
    for c in range(n_classes):
        idx = np.where(labels == c)[0]
        train_parts.append(rng.choice(len(idx), size=k, replace=False))
        train_parts[-1] = idx[train_parts[-1]]
    train = np.concatenate(train_parts)

    rest = np.setdiff1d(np.arange(len(labels)), train)
    val_n, test_n = spec.val_size, spec.test_size
    if len(rest) < val_n + test_n:
        total = val_n + test_n
        val_n = len(rest) * spec.val_size // total
        test_n = len(rest) - val_n
        warnings.warn(
            f"val/test shrunk to {val_n}/{test_n} ({len(rest)} labeled nodes left)",
            stacklevel=2,
        )
    pick = rng.choice(len(rest), size=val_n + test_n, replace=False)
    val = rest[pick[:val_n]]
    test = rest[pick[val_n:]]

    assert not (set(train) & set(val)) and not (set(train) & set(test))
    assert not (set(val) & set(test))
    return Splits(train=np.sort(train), val=np.sort(val), test=np.sort(test))


def f1_scores(predictions: Sequence[int], truth: Sequence[int],
              num_classes: Optional[int] = None) -> Tuple[float, float]:
    """(macro, micro) F1. Classes absent from truth and prediction score 0."""
    pred = np.asarray(predictions)
    true = np.asarray(truth)
    if len(pred) == 0:
        raise ValueError("empty input")
    if len(pred) != len(true):
        raise ValueError(f"length mismatch: {len(pred)} vs {len(true)}")
    c = num_classes or int(max(pred.max(), true.max())) + 1

    def count(x):   # occurrences of each class 0..c-1; other values are ignored
        return np.bincount(x[(x >= 0) & (x < c)], minlength=c).astype(np.float64)

    tp = count(true[pred == true])
    fp = count(pred) - tp
    fn = count(true) - tp
    denom = 2 * tp + fp + fn
    per_class = np.where(denom > 0, 2 * tp / np.where(denom > 0, denom, 1.0), 0.0)
    macro = float(per_class.mean())
    micro_denom = 2 * tp.sum() + fp.sum() + fn.sum()
    micro = float(2 * tp.sum() / micro_denom) if micro_denom else 0.0
    return macro, micro


PROBE_STEPS = 500       # full-batch gradient steps
PROBE_LR = 0.5          # learning rate, decayed linearly towards PROBE_LR_END
PROBE_LR_END = 0.01
PROBE_L2 = 1e-4         # weight decay on the probe weights


def linear_probe(z: np.ndarray, labels: np.ndarray, splits: Splits) -> np.ndarray:
    """Train the probe on the train rows, pick the best-val step, predict test."""
    y = np.asarray(labels)
    if np.count_nonzero(np.bincount(y[splits.train])) < 2:
        raise ValueError("probe needs at least two classes in the train split")
    n_classes = int(y.max()) + 1
    x_train = z[splits.train]
    y_train = y[splits.train]
    onehot = np.eye(n_classes)[y_train]
    x_val, y_val = z[splits.val], y[splits.val]

    d = z.shape[1]
    w = np.zeros((d, n_classes))
    b = np.zeros((1, n_classes))
    best = (-1.0, w.copy(), b.copy())
    n = len(x_train)
    for t in range(PROBE_STEPS):
        logits = x_train @ w + b
        logits -= logits.max(axis=1, keepdims=True)
        e = np.exp(logits)
        p = e / e.sum(axis=1, keepdims=True)
        gw = x_train.T @ (p - onehot) / n + PROBE_L2 * w
        gb = (p - onehot).mean(axis=0, keepdims=True)
        lr = PROBE_LR + (PROBE_LR_END - PROBE_LR) * (t / PROBE_STEPS)
        w -= lr * gw
        b -= lr * gb
        if len(x_val):
            val_pred = np.argmax(x_val @ w + b, axis=1)
            macro, _ = f1_scores(val_pred, y_val, n_classes)
            if macro > best[0]:
                best = (macro, w.copy(), b.copy())
    if best[0] < 0:  # no validation set: use the final parameters
        best = (0.0, w, b)
    _, w, b = best
    return np.argmax(z[splits.test] @ w + b, axis=1)


@dataclass
class EvalReport:
    variant: str
    train_bundle: str
    eval_bundle: str
    shots: int                      # 0 for the standard protocol
    macro: List[float] = field(default_factory=list)
    micro: List[float] = field(default_factory=list)

    @property
    def macro_mean(self) -> float:
        return float(np.mean(self.macro))

    @property
    def macro_std(self) -> float:
        return float(np.std(self.macro))

    @property
    def micro_mean(self) -> float:
        return float(np.mean(self.micro))

    @property
    def micro_std(self) -> float:
        return float(np.std(self.micro))

    def csv_row(self) -> str:
        return (f"{self.variant},{self.train_bundle},{self.eval_bundle},"
                f"{self.shots},{self.macro_mean:.6f},{self.macro_std:.6f},"
                f"{self.micro_mean:.6f},{self.micro_std:.6f}")


CSV_HEADER = ("variant,train_bundle,eval_bundle,shots,"
              "macro_mean,macro_std,micro_mean,micro_std")


def evaluate_embedding(z: np.ndarray, labels: np.ndarray, spec: SplitSpec,
                       report: EvalReport) -> EvalReport:
    """Repeated split/probe/score rounds appended to the report."""
    for r in range(spec.repeats):
        stream = RngStream(spec.seed, STREAM_SPLIT + r)
        splits = make_splits(labels, spec, stream)
        pred = linear_probe(z, labels, splits)
        macro, micro = f1_scores(pred, labels[splits.test],
                                 int(labels.max()) + 1)
        report.macro.append(macro)
        report.micro.append(micro)
    return report


def cross_domain_eval(model: fusion.MugModel, bundles: Dict[str, HetGraph],
                      spec: SplitSpec, train_bundle: str = "train",
                      variant: str = "full", embed_seed: int = 0) -> List[EvalReport]:
    """Frozen-encoder evaluation of one model on every labeled bundle."""
    reports = []
    shots = spec.per_class_train if spec.mode == "kshot" else 0
    for name, g in bundles.items():
        if g.labels is None:
            warnings.warn(f"bundle '{name}' has no labels; skipped", stacklevel=2)
            continue
        z, _ = fusion.embed(model, g, seed=embed_seed)
        report = EvalReport(variant=variant, train_bundle=train_bundle,
                            eval_bundle=name, shots=shots)
        reports.append(evaluate_embedding(z, g.labels, spec, report))
    return reports

