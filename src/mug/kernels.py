"""Hot inner loops: meta-path walks and skip-gram negative-sampling updates.

Both kernels are plain NumPy and reproduce the sequential scalar reference
(tests/oracles.py) bit for bit. All randomness is pre-drawn into arrays by
the caller. Exactness rests on keeping the scalar order of every floating
point operation:

- a sum is the last entry of a cumulative sum (``np.add.accumulate``, which
  ``np.cumsum`` calls), which adds left to right like the scalar loop;
  ``@``, ``np.dot`` and ``.sum()`` reorder the adds through BLAS or pairwise
  summation and change bits;
- sigmoids and log-sigmoids are computed on Python floats with ``math``,
  as NumPy's SIMD ``exp`` may differ from libm in the last place.
"""

from __future__ import annotations

import math

import numpy as np

USING_NUMBA = False   # recorded by the benchmark; there is one NumPy path

_CHUNK = 4096         # SGNS pairs whose targets are gathered at once


def run_walks(steps, type_off, starts, uniforms):
    """Meta-path-guided walks; the step pattern repeats cyclically.

    steps[j] is the (indptr, indices) CSR of pattern step j, from local ids
    of type j to local ids of type j+1. Walk r starts at local target id
    starts[r]; at step k it moves to neighbor int(uniforms[r, k] * deg) of
    its current node under steps[k % period]. A node with no conforming
    neighbor ends the walk early. Returns (walks, lens): walks rows are
    global node ids (local id + type_off of the node's pattern position),
    -1 padded.
    """
    n_walks, walk_len = uniforms.shape
    period = len(steps)
    walks = np.full((n_walks, walk_len + 1), -1, dtype=np.int64)
    lens = np.ones(n_walks, dtype=np.int64)
    rows = np.arange(n_walks)
    cur = np.asarray(starts, dtype=np.int64)
    walks[:, 0] = type_off[0] + cur
    for step in range(walk_len):
        indptr, indices = steps[step % period]
        lo = indptr[cur]
        deg = indptr[cur + 1] - lo
        alive = deg > 0
        if not alive.all():
            rows, lo, deg = rows[alive], lo[alive], deg[alive]
            if rows.size == 0:
                break
        pick = (uniforms[rows, step] * deg).astype(np.int64)
        np.minimum(pick, deg - 1, out=pick)
        cur = indices[lo + pick]
        walks[rows, step + 1] = type_off[(step + 1) % period] + cur
        lens[rows] += 1
    return walks, lens


def _target(score, positive, lr):
    """Loss term and step (label - σ(score)) * lr of one target."""
    if score >= 0.0:
        e = math.exp(-score)
        sig = 1.0 / (1.0 + e)
        logsig = -math.log1p(e)
    else:
        e = math.exp(score)
        sig = e / (1.0 + e)
        logsig = score - math.log1p(e)
    if positive:
        return logsig, (1.0 - sig) * lr
    # -log(1 - σ(score)) = -log σ(-score)
    return logsig - score, (0.0 - sig) * lr


def sgns_epoch(center, context, centers_idx, contexts_idx, negatives,
               lr_start, lr_end, pair_offset, total_pairs):
    """One sequential pass of skip-gram SGD with negative sampling.

    Per pair: positive target then each negative; scores use the current
    tables, the center row update is applied after all targets (word2vec
    update order). The learning rate decays linearly over total_pairs.
    Returns the summed pair loss (computed before the updates).

    Pairs run one after another; the targets of a pair run at once. All
    their scores read the context rows as they were when the pair began,
    which is the sequential order unless a node repeats among the targets;
    such a pair runs target by target, so a later score sees the earlier
    update. The center update is a left-to-right sum of the target terms
    (``+ 0.0`` gives the sign of zero a sum started at 0.0 would have).
    """
    n_pairs = negatives.shape[0]
    loss = 0.0
    for start in range(0, n_pairs, _CHUNK):
        stop = min(start + _CHUNK, n_pairs)
        targets = np.concatenate(
            [contexts_idx[start:stop, None], negatives[start:stop]], axis=1)
        ordered = np.sort(targets, axis=1)
        repeats = (ordered[:, 1:] == ordered[:, :-1]).any(axis=1).tolist()
        for p, v, tg, rep in zip(range(start, stop),
                                 centers_idx[start:stop].tolist(), targets, repeats):
            frac = (pair_offset + p) / total_pairs
            lr = lr_start + (lr_end - lr_start) * frac
            cv = center[v]
            if rep:
                buf = np.zeros_like(cv)
                for t, target in enumerate(tg.tolist()):
                    ctx = context[target]
                    term, g = _target(float(np.add.accumulate(cv * ctx)[-1]), t == 0, lr)
                    loss -= term
                    buf += g * ctx
                    ctx += g * cv
                cv += buf
                continue
            ctx = context.take(tg, axis=0)
            scores = np.add.accumulate(ctx * cv, axis=1)[:, -1].tolist()
            steps = []
            for t, score in enumerate(scores):
                term, g = _target(score, t == 0, lr)
                loss -= term
                steps.append(g)
            g = np.array(steps)[:, None]
            buf = np.add.accumulate(g * ctx, axis=0)[-1] + 0.0
            context[tg] = ctx + g * cv
            cv += buf
    return loss
