"""Frozen-embedding evaluation: stratified splits, linear probe, Macro/Micro-F1.

evaluate_embedding maps (embedding, labels, SplitSpec) to per-repeat scores;
it never sees a model or a graph, and its caller names and formats the report.

The probe is L2-regularized multinomial logistic regression trained by
full-batch gradient descent on frozen embeddings, with model selection on
validation Macro-F1. Repeats draw fresh splits from per-repeat random
streams; everything downstream of the embedding is deterministic.

All repeats of an evaluation train as one stack on one thread: make_splits
gives every repeat of a spec the same train, val and test sizes, so each
gradient step is one stacked matmul over (repeats, rows, dims). Per slice,
the stacked matmul runs the same BLAS product as a single probe would, and
the softmax and bias add run on the few class columns one at a time, with the
bits of NumPy's reductions over that axis. So every step's parameters have
the bytes a probe trained alone would give.

The validation rows are scored VAL_BLOCK steps at a time. The block's
weights, one row per (step, class), make one stacked product with the
transposed val rows, so each class's scores land in one contiguous row: the
bias add runs in place and the argmax reads whole rows. The block's steps are
then judged in step order, every repeat's validation Macro-F1 coming from one
bincount of confusion slots, so the first step with the best Macro-F1 wins
across blocks. BLAS rounds this product differently from a lone probe's
x_val @ w, so a val score may differ in its last bits: a prediction can then
change only where two classes' scores tie within rounding.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from .rng import SPLIT, RngStream


@dataclass
class SplitSpec:
    """One evaluation protocol; a k-shot run is per_class_train = k (eval --shots k).

    Each field's metadata holds its bound (see config), which leaves every run
    a probe to train and a test row to score.
    """

    per_class_train: int = field(default=60, metadata={"bound": "[1, inf)"})
    val_size: int = field(default=1000, metadata={"bound": "[0, inf)"})
    test_size: int = field(default=1000, metadata={"bound": "[1, inf)"})
    repeats: int = field(default=50, metadata={"bound": "[1, inf)"})
    seed: int = field(default=0, metadata={"bound": "[0, 2**64)"})


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
        warnings.warn(f"per-class train size reduced to {k} (smallest class)")
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
        warnings.warn(f"val/test shrunk to {val_n}/{test_n} ({len(rest)} labeled nodes left)")
    pick = rng.choice(len(rest), size=val_n + test_n, replace=False)
    val = rest[pick[:val_n]]
    test = rest[pick[val_n:]]

    assert np.bincount(np.concatenate([train, val, test])).max() <= 1, "splits overlap"
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
    macro = float(_per_class_f1(tp, fp, fn).mean())
    micro_denom = 2 * tp.sum() + fp.sum() + fn.sum()
    micro = float(2 * tp.sum() / micro_denom) if micro_denom else 0.0
    return macro, micro


def _per_class_f1(tp: np.ndarray, fp: np.ndarray, fn: np.ndarray) -> np.ndarray:
    """2tp / (2tp + fp + fn) per class, 0 where the class is in neither input."""
    denom = 2 * tp + fp + fn
    return np.where(denom > 0, 2 * tp / np.where(denom > 0, denom, 1.0), 0.0)


PROBE_STEPS = 500       # full-batch gradient steps
PROBE_LR = 0.5          # learning rate, decayed linearly towards PROBE_LR_END
PROBE_LR_END = 0.01
PROBE_L2 = 1e-4         # weight decay on the probe weights
VAL_BLOCK = 10          # steps whose validation rows one product scores


def linear_probe(z: np.ndarray, labels: np.ndarray,
                 splits: Sequence[Splits]) -> np.ndarray:
    """Train one probe per split as one stack; (R, n_test) test predictions.

    Each probe trains on its train rows and keeps the step with the best
    validation Macro-F1 (the first such step), or its final step when there
    is no validation set. Every split must have the same train, val and test
    sizes, which make_splits gives all repeats of a spec.

    Validation scores are kept for one block of VAL_BLOCK steps at a time,
    (R, VAL_BLOCK * C, n_val) floats, and each step is judged after its block
    closes (at every VAL_BLOCK-th step and at the last one).
    """
    y = np.asarray(labels)
    if len({(len(s.train), len(s.val), len(s.test)) for s in splits}) != 1:
        raise ValueError("the probe needs one or more splits of equal "
                         "train, val and test sizes")
    for s in splits:
        if np.count_nonzero(np.bincount(y[s.train])) < 2:
            raise ValueError("probe needs at least two classes in the train split")
    n_classes, repeats = int(y.max()) + 1, len(splits)
    train = np.stack([s.train for s in splits])
    val = np.stack([s.val for s in splits])
    test = np.stack([s.test for s in splits])
    x_train = z[train]                                  # (R, n, d)
    x_train_t = x_train.transpose(0, 2, 1)             # a view, as x.T is: a copy changes bits
    onehot = np.eye(n_classes)[y[train]]
    x_val_t = z[val].transpose(0, 2, 1)      # (R, d, n_val): a view, for a copy would
                                              # hold the val rows twice
    # bincount slots repeat * n_classes + class count every repeat at once, and
    # slots (repeat * n_classes + true class) * n_classes + predicted class give
    # every repeat's confusion matrix
    true_slots = np.arange(repeats)[:, None] * n_classes + y[val]
    true_counts = np.bincount(true_slots.ravel(), minlength=repeats * n_classes)
    true_counts = true_counts.reshape(repeats, n_classes)
    confusion_slots = true_slots * n_classes

    w = np.zeros((repeats, z.shape[1], n_classes))
    b = np.zeros((repeats, 1, n_classes))
    best_macro = np.full(repeats, -1.0)
    best_w, best_b = w.copy(), b.copy()
    n, b_cols = train.shape[1], list(np.moveaxis(b, -1, 0))
    # The loop's large arrays are made once: until a large block has been freed,
    # malloc maps fresh pages for each one, and a step would fault on them all.
    p = np.empty((repeats, n, n_classes))                       # logits, then probabilities
    p_cols = list(np.moveaxis(p, -1, 0))
    # A block's steps, class-major: (repeat, step, class) rows of weights and of scores.
    block, n_val, d = min(VAL_BLOCK, PROBE_STEPS), val.shape[1], z.shape[1]
    w_rows = np.empty((repeats, block, n_classes, d))
    b_rows = np.empty((repeats, block, n_classes, 1))
    scores = np.empty(repeats * block * n_classes * n_val)
    top, slots = np.empty(val.shape), np.empty(val.shape, dtype=np.intp)
    for t in range(PROBE_STEPS):
        np.matmul(x_train, w, out=p)
        for col, bias in zip(p_cols, b_cols):
            col += bias
        peak = functools.reduce(np.maximum, p_cols)
        for col in p_cols:
            col -= peak
        np.exp(p, out=p)
        total = _sum_last(p)
        for col in p_cols:
            col /= total
        p -= onehot                                     # now p - onehot
        gw = x_train_t @ p / n + PROBE_L2 * w
        gb = p.mean(axis=1, keepdims=True)
        lr = PROBE_LR + (PROBE_LR_END - PROBE_LR) * (t / PROBE_STEPS)
        w -= lr * gw
        b -= lr * gb
        if not n_val:
            continue
        k = t % block
        w_rows[:, k], b_rows[:, k] = w.transpose(0, 2, 1), b.transpose(0, 2, 1)
        if k + 1 < block and t + 1 < PROBE_STEPS:
            continue
        # The block is full, or training ends: score its steps with one product, then
        # judge them in step order, so the first step with the best val Macro-F1 wins.
        block_scores = scores[:repeats * (k + 1) * n_classes * n_val].reshape(
            repeats, k + 1, n_classes, n_val)
        np.matmul(w_rows[:, :k + 1].reshape(repeats, -1, d), x_val_t,
                  out=block_scores.reshape(repeats, -1, n_val))
        block_scores += b_rows[:, :k + 1]
        for step in range(k + 1):
            _argmax_cols(block_scores[:, step].transpose(1, 0, 2), slots, top)
            slots += confusion_slots
            confusion = np.bincount(slots.ravel(), minlength=repeats * n_classes ** 2)
            confusion = confusion.reshape(repeats, n_classes, n_classes)
            tp = np.diagonal(confusion, axis1=1, axis2=2)
            macro = _per_class_f1(tp, confusion.sum(axis=1) - tp, true_counts - tp).mean(axis=1)
            better = macro > best_macro
            best_macro[better] = macro[better]
            best_w[better] = w_rows[better, step].transpose(0, 2, 1)
            best_b[better] = b_rows[better, step].transpose(0, 2, 1)
    if not n_val:  # no validation set: use the final parameters
        best_w, best_b = w, b
    del x_val_t, x_train, x_train_t, onehot, scores   # so the test stack reuses their memory
    return np.argmax(z[test] @ best_w + best_b, axis=2)


def _sum_last(a: np.ndarray) -> np.ndarray:
    """a.sum(axis=-1), bit for bit: NumPy adds fewer than 8 terms left to right."""
    if a.shape[-1] >= 8:    # and more pairwise
        return a.sum(axis=-1)
    return functools.reduce(np.add, np.moveaxis(a, -1, 0))


def _argmax_cols(cols: np.ndarray, out: np.ndarray, top: np.ndarray) -> None:
    """Write np.argmax(cols, axis=0) into out, from the contiguous slices of cols.

    NumPy's argmax is slow over a short axis. As in it, the first maximum wins,
    and the first NaN wins over any number. top is scratch shaped as out.
    """
    np.copyto(top, cols[0])
    out.fill(0)
    for c in range(1, len(cols)):
        later = ~(cols[c] <= top)     # larger, or a NaN
        later &= top == top           # and no NaN came before
        np.maximum(out, later * c, out=out)     # c is above every earlier index
        np.maximum(top, cols[c], out=top)


def evaluate_embedding(z: np.ndarray, labels: np.ndarray,
                       spec: SplitSpec) -> Tuple[np.ndarray, np.ndarray]:
    """Per-repeat (Macro-F1, Micro-F1) arrays of spec.repeats split/probe/score rounds."""
    splits = [make_splits(labels, spec, RngStream(spec.seed, SPLIT, r))
              for r in range(spec.repeats)]
    n_classes = int(labels.max()) + 1
    scores = [f1_scores(pred, labels[s.test], n_classes)
              for s, pred in zip(splits, linear_probe(z, labels, splits))]
    macro, micro = np.array(scores).T
    return macro, micro
