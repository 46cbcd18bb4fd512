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

A block scores only the val rows whose prediction may have changed since the
anchor, the last step of the last block scored in full: a margin certificate
proves that every other row still predicts its anchor class.

Why the certificate holds. With x~ = [x, 1] and w~_c = [w_c; b_c], a score
is w~_c . x~, a sum of d + 1 terms. In whatever order BLAS adds them, with or
without FMA, the computed score is within g ||w~_c|| ||x~|| of the exact one,
where g = gamma(d + 1), gamma(n) = n u / (1 - n u) and u = 2**-53 (Higham,
Accuracy and Stability of Numerical Algorithms, sec. 3.1, then Cauchy-Schwarz).
At the anchor step a, a row's computed scores give it the class p, ahead of
the runner-up by m. At a later step t each exact score has moved by at most
drift ||x~||, drift = max_c ||w~_c(t) - w~_c(a)||, and ||w~(t)|| <=
||w~(a)|| + drift, with ||w~|| = max_c ||w~_c||. So each computed score at t
lies within ||x~|| (drift + g (2 ||w~(a)|| + drift)) of the anchor's computed
one, and p still wins by a positive margin when

    crit = m / (2 ||x~||)  >  drift + g (2 ||w~(a)|| + drift).

Then the block product, a lone probe's x_val @ w and any other summation
order all predict p, and the row need not be scored. The test itself runs on
computed values, each with at most d + 5 roundings, so its right side is
widened by the factor 1 + gamma(4 (d + 5)) and by 2**-500 for underflow. A row
with ||x~|| >= 2**500, a repeat with ||w~(a)|| >= 2**499, and a crit or drift
that is NaN or infinite certify nothing; so no certified row's score can
overflow, for ||w~(t)|| ||x~|| < 2**1001.

Every block after an anchor checks the limit at its last step, a lower bound
of the block's, and then at all its steps; K, the most unsure rows of any
repeat, sets its width. When K exceeds PREFIX_SHARE of the val rows, the block
is scored in full and becomes the next anchor. Otherwise the block scores the
first K rows of every repeat, whose rows the first such block after an anchor
sorts by crit, in place (with their crits, scales 1 / (2 ||x~||) and confusion
and anchor slots), so that the unsure rows come first; each step's confusion
counts are the anchor's counts over the other rows plus one bincount over the
scored ones.

Cost, for R repeats, C classes, d dims, n val rows and s steps per block: a
full block takes R s C n d multiply-adds and s argmaxes and bincounts over
R n rows; a prefix block takes the same with n replaced by K <= n / 4. The
certificate adds O(R s C d) per block for the drift, O(R n) to count the
unsure rows, O(R C n) per anchor for the crits, and per sort one argsort of
each repeat's crits and two copies of the val rows, which pass through the
block's score buffer. Beyond the probe's other scratch it holds three (R, n)
arrays: the crits, the scales and the anchor slots.
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
PREFIX_SHARE = 0.25     # the most val rows a block scores as a prefix; above it, all
_TINY, _HUGE = 2.0 ** -500, 2.0 ** 500   # the certificate's underflow and overflow guards


def linear_probe(z: np.ndarray, labels: np.ndarray,
                 splits: Sequence[Splits]) -> np.ndarray:
    """Train one probe per split as one stack; (R, n_test) test predictions.

    Each probe trains on its train rows and keeps the step with the best
    validation Macro-F1 (the first such step), or its final step when there
    is no validation set. Every split must have the same train, val and test
    sizes, which make_splits gives all repeats of a spec.

    Validation scores are kept for one block of VAL_BLOCK steps at a time,
    (R, VAL_BLOCK * C, n_val) floats, and each step is judged after its block
    closes (at every VAL_BLOCK-th step and at the last one). A block scores
    only the val rows that the margin certificate of the module docstring
    cannot prove to keep their anchor prediction, a prefix of each repeat's
    rows sorted by certified margin; when that prefix is over PREFIX_SHARE of
    the rows, the block scores them all and becomes the next anchor.
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
    x_val = z[val]                                      # (R, n_val, d), sorted by crit
    x_val_t = x_val.transpose(0, 2, 1)      # a view, for a copy would hold the val rows twice
    # 1 / (2 ||[x, 1]||) per val row, NaN where a score might overflow
    x_scale = np.sqrt(np.einsum("rnd,rnd->rn", x_val, x_val) + 1.0)
    x_scale[~(x_scale < _HUGE)] = np.nan
    np.divide(0.5, x_scale, out=x_scale)
    # bincount slots repeat * n_classes + class count every repeat at once, and
    # slots (repeat * n_classes + true class) * n_classes + predicted class give
    # every repeat's confusion matrix
    true_slots = np.arange(repeats)[:, None] * n_classes + y[val]
    true_counts = np.bincount(true_slots.ravel(), minlength=repeats * n_classes)
    true_counts = true_counts.reshape(repeats, n_classes)
    confusion_slots = true_slots * n_classes
    del val, true_slots

    w = np.zeros((repeats, z.shape[1], n_classes))
    b = np.zeros((repeats, 1, n_classes))
    best_macro = np.full(repeats, -1.0)
    best_w, best_b = w.copy(), b.copy()
    n, b_cols = train.shape[1], list(np.moveaxis(b, -1, 0))
    # The loop's large arrays are made once: until a large block has been freed,
    # malloc maps fresh pages for each one, and a step would fault on them all.
    p = np.empty((repeats, n, n_classes))                       # logits, then probabilities
    p_cols = list(np.moveaxis(p, -1, 0))
    # A block's steps, class-major: (repeat, step, class) rows [w_c; b_c] and of scores.
    block, n_val, d = min(VAL_BLOCK, PROBE_STEPS), x_val.shape[1], z.shape[1]
    wb_rows = np.empty((repeats, block, n_classes, d + 1))
    # a block's scores; between blocks, scratch that holds one repeat's val rows at least
    scores = np.empty(max(repeats * block * n_classes * n_val, n_val * d))
    top, slots = np.empty(repeats * n_val), np.empty(repeats * n_val, dtype=np.intp)
    n_slots, row_base = repeats * n_classes ** 2, np.arange(repeats)[:, None] * n_val
    crit = None                      # each val row's certified margin at the anchor
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
        wb_rows[:, k, :, :d], wb_rows[:, k, :, d:] = w.transpose(0, 2, 1), b.transpose(0, 2, 1)
        if k + 1 < block and t + 1 < PROBE_STEPS:
            continue
        # The block is full, or training ends: score the first `width` val rows of its
        # steps with one product, then judge the steps in step order, so the first step
        # with the best val Macro-F1 wins.
        block_wb = wb_rows[:, :k + 1]
        width = n_val
        # A row whose crit exceeds its repeat's limit keeps its anchor class at every
        # step of the block. The last step's limit, a lower bound of the block's, rules
        # out most blocks that must be scored in full at a tenth of the cost.
        for first in (k, 0) if crit is not None else ():
            limit = _limit(wb_rows[:, first:k + 1], anchor, slope, floor)
            width = int((~(crit > limit[:, None])).sum(axis=1).max())   # NaN: all unsure
            if width > PREFIX_SHARE * n_val:
                width = n_val
                break
        if width < n_val:       # the other rows keep their anchor predictions
            if not ordered:     # sort each repeat's rows by crit: the unsure ones first
                order = np.argsort(crit, axis=1)
                order += row_base
                crit = crit.ravel()[order]
                x_scale = x_scale.ravel()[order]
                confusion_slots = confusion_slots.ravel()[order]
                anchor_slots = anchor_slots.ravel()[order]
                _sort_rows(x_val, order, scores)
                ordered = True
                del order
            rest = anchor_counts - np.bincount(anchor_slots[:, :width].ravel(),
                                               minlength=n_slots)
        block_scores = scores[:repeats * (k + 1) * n_classes * width].reshape(
            repeats, k + 1, n_classes, width)
        np.matmul(block_wb[..., :d].reshape(repeats, -1, d), x_val_t[:, :, :width],
                  out=block_scores.reshape(repeats, (k + 1) * n_classes, width))
        block_scores += block_wb[..., d:]
        step_slots = slots[:repeats * width].reshape(repeats, width)
        step_top = top[:repeats * width].reshape(repeats, width)
        for step in range(k + 1):
            _argmax_cols(block_scores[:, step].transpose(1, 0, 2), step_slots, step_top)
            step_slots += confusion_slots[:, :width]
            counts = np.bincount(step_slots.ravel(), minlength=n_slots)
            if width < n_val:
                counts += rest
            confusion = counts.reshape(repeats, n_classes, n_classes)
            tp = confusion.diagonal(axis1=1, axis2=2)
            f1 = _per_class_f1(tp, confusion.sum(axis=1) - tp, true_counts - tp)
            macro = np.add.reduce(f1, axis=1) / n_classes       # .mean's bits, sooner
            better = macro > best_macro
            if better.any():    # late in training most steps improve no repeat
                best_macro[better] = macro[better]
                best_w[better] = wb_rows[better, step, :, :d].transpose(0, 2, 1)
                best_b[better] = wb_rows[better, step, :, d:].transpose(0, 2, 1)
        if width == n_val:      # scored in full: the block's last step is the new anchor
            crit = anchor_slots = None      # free the last anchor's first
            crit = _crit(block_scores[:, k], step_slots - confusion_slots, step_top, x_scale)
            anchor_slots, anchor_counts, ordered = step_slots.copy(), counts, False
            anchor = wb_rows[:, k].copy()
            slope, floor = _certificate(anchor)
    if not n_val:  # no validation set: use the final parameters
        best_w, best_b = w, b
    # so the test stack reuses their memory
    del x_val, x_val_t, x_scale, x_train, x_train_t, onehot, scores, crit
    return np.argmax(z[test] @ best_w + best_b, axis=2)


def _gamma(n: int) -> float:
    """gamma(n) = n u / (1 - n u): n roundings, u = 2**-53, compound to at most this."""
    return n * 2.0 ** -53 / (1 - n * 2.0 ** -53)


def _max_norm(wb: np.ndarray) -> np.ndarray:
    """max over classes c of ||[w_c; b_c]||, for the rows wb (..., C, d + 1)."""
    return np.sqrt(np.einsum("...i,...i->...", wb, wb)).max(axis=-1)


def _certificate(anchor: np.ndarray) -> Tuple[float, np.ndarray]:
    """(slope, floor) of an anchor's rows [w_c; b_c], (R, C, d + 1): a row keeps its
    anchor class at a later step if its crit exceeds slope * drift + floor (see the
    module docstring); floor is inf, certifying nothing, where a score might overflow."""
    d = anchor.shape[-1] - 1
    allow, widen = _gamma(d + 1), 1 + _gamma(4 * (d + 5))
    norm = _max_norm(anchor)
    floor = norm * (2 * allow * widen) + _TINY
    floor[~(norm < _HUGE / 2)] = np.inf
    return (1 + allow) * widen, floor


def _limit(block_wb: np.ndarray, anchor: np.ndarray, slope: float,
           floor: np.ndarray) -> np.ndarray:
    """Per repeat, the crit above which a row keeps its anchor class at every step of
    block_wb, (R, steps, C, d + 1): NaN where a drift is."""
    return _max_norm(block_wb - anchor[:, None]).max(axis=1) * slope + floor


def _crit(scores: np.ndarray, pred: np.ndarray, top: np.ndarray,
          x_scale: np.ndarray) -> np.ndarray:
    """m x_scale per row, m its top score less its runner-up's, from the (R, C, n)
    scores, their argmax pred and max top; -inf where that certifies nothing. Each
    row's top score is overwritten with -inf."""
    scores[pred[:, None] == np.arange(scores.shape[1])[:, None]] = -np.inf
    with np.errstate(invalid="ignore"):     # inf - inf: NaN, which certifies nothing
        crit = np.subtract(top, scores.max(axis=1))
    crit *= x_scale
    crit[~(crit < _HUGE)] = -np.inf         # NaN and inf too
    return crit


def _sort_rows(x: np.ndarray, order: np.ndarray, scratch: np.ndarray) -> None:
    """x[r] = x[r][order[r] - r n] for every repeat r, in place, order being flat row
    indices: a chunk of repeats at a time is gathered into scratch, which holds at
    least one repeat's rows, and copied back."""
    repeats, n, d = x.shape
    flat = x.reshape(-1, d)
    chunk = scratch.size // (n * d)
    for r in range(0, repeats, chunk):
        rows = order[r:r + chunk].ravel()
        buf = scratch[:len(rows) * d].reshape(-1, d)
        np.take(flat, rows, axis=0, out=buf, mode="clip")   # not "raise", which buffers
        flat[r * n:r * n + len(rows)] = buf


def _sum_last(a: np.ndarray) -> np.ndarray:
    """a.sum(axis=-1), bit for bit: NumPy adds fewer than 8 terms left to right."""
    if a.shape[-1] >= 8:    # and more pairwise
        return a.sum(axis=-1)
    return functools.reduce(np.add, a.transpose(a.ndim - 1, *range(a.ndim - 1)))


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
