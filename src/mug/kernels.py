"""Hot inner loops: meta-path walks and skip-gram negative-sampling updates.

Both kernels are plain NumPy, and the caller pre-draws all their randomness
into arrays. The walk kernel reproduces its scalar reference
(tests/oracles.py) bit for bit. The skip-gram kernel updates the tables in
mini-batches; its scores and steps are ``np.einsum`` products without
``optimize``, so no BLAS call is involved. One ``np.bincount`` per table sums
each row's steps from 0.0 in pair order, so the same inputs give the same
bits on one machine. A call's batches reuse one buffer of gathered context
rows (then context steps); no array grows with the pair count.
"""

from __future__ import annotations

import numpy as np

USING_NUMBA = False   # recorded by the benchmark; there is one NumPy path

SGNS_BATCH = 512      # SGNS pairs whose scores read the same table state


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


def _add_steps(table, rows, steps, bins):
    """table[r] += the steps of r in rows, summed from 0.0 in order, by bins r * dim + lane."""
    dim = table.shape[1]
    bins = bins.reshape(-1)[:steps.size]
    np.add((rows * dim).reshape(-1, 1), np.arange(dim), out=bins.reshape(-1, dim))
    table += np.bincount(bins, steps.reshape(-1), table.size).reshape(table.shape)


def sgns_epoch(center, context, centers_idx, contexts_idx, negatives,
               lr_start, lr_end, pair_offset, total_pairs):
    """One mini-batch pass of skip-gram SGD with negative sampling.

    Pairs run in consecutive batches of SGNS_BATCH. Every score in a batch
    reads the tables as they were when the batch began; each pair's positive
    target has label 1 and its negatives label 0, and a target's step is
    (label - σ(score)) * lr, with lr decaying linearly over total_pairs pair
    by pair. A center row then gains the sum over its pairs and targets of
    step * context row, and a context row the sum of step * center row, each
    sum in pair order before it meets the table. A context table at zero, as
    a run starts, moves no center row in the first batch. Returns the summed
    pair loss (computed before the updates).
    """
    n_pairs, n_neg = negatives.shape
    dim = center.shape[1]
    sign = np.full(n_neg + 1, -1.0)
    sign[0] = 1.0
    # a batch's context rows, overwritten by its context steps, and their bins
    shape = (min(SGNS_BATCH, n_pairs), n_neg + 1, dim)
    ctx_buf, bins = np.empty(shape), np.empty(shape, dtype=np.int64)
    loss = 0.0
    for start in range(0, n_pairs, SGNS_BATCH):
        stop = min(start + SGNS_BATCH, n_pairs)
        rows = centers_idx[start:stop]
        targets = np.concatenate(
            [contexts_idx[start:stop, None], negatives[start:stop]], axis=1)
        lr = lr_start + (lr_end - lr_start) * (
            (pair_offset + np.arange(start, stop)) / total_pairs)
        cv = center[rows]
        # clip skips take's bounds check; a target out of range fails the bincount
        ctx = np.take(context, targets, axis=0, out=ctx_buf[:stop - start], mode="clip")
        z = sign * np.einsum("ptd,pd->pt", ctx, cv)
        loss += float(np.logaddexp(0.0, -z).sum())        # -log σ(z)
        # label - σ(score) = sign * σ(-z)
        g = sign * np.exp(-np.logaddexp(0.0, z)) * lr[:, None]
        _add_steps(center, rows, np.einsum("pt,ptd->pd", g, ctx), bins)
        _add_steps(context, targets, np.einsum("pt,pd->ptd", g, cv, out=ctx), bins)
    return loss
