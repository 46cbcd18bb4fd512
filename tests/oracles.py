"""Independent oracles shared by the unit and acceptance suites."""

import math
from collections import defaultdict

import numpy as np


def enumerate_pairs(g, mp):
    """Exhaustive set-based enumeration of type-conforming walks (no matrices)."""
    rel_by_name = {r.name: r for r in g.relations}
    step_nbrs = []
    for i, rname in enumerate(mp.relations):
        rel = rel_by_name[rname]
        a, b = mp.types[i], mp.types[i + 1]
        nbrs = defaultdict(set)
        for s, d in g.edges[rname]:
            if (rel.src, rel.dst) == (a, b):
                nbrs[s].add(d)
            elif (rel.src, rel.dst) == (b, a):
                nbrs[d].add(s)
        step_nbrs.append(nbrs)
    n = g.counts[g.target_type]
    adj = np.zeros((n, n), dtype=bool)
    for start in range(n):
        frontier = {start}
        for nbrs in step_nbrs:
            frontier = set().union(*(nbrs[u] for u in frontier)) if frontier else set()
        for end in frontier:
            if end != start:
                adj[start, end] = True
    return adj


# -- scalar kernel references ----------------------------------------------------
# The kernels' rules written one element at a time. Walks and window pairs
# match their references bit for bit; the batched SGNS kernel adds in another
# order, so it matches its reference to rounding.


def run_walks(steps, type_off, starts, uniforms):
    """Scalar reference for kernels.run_walks (same arguments and result)."""
    n_walks, walk_len = uniforms.shape
    period = len(steps)
    out_nodes = np.full((n_walks, walk_len + 1), -1, dtype=np.int64)
    out_lens = np.zeros(n_walks, dtype=np.int64)
    for row in range(n_walks):
        cur = starts[row]
        out_nodes[row, 0] = type_off[0] + cur
        length = 1
        for step in range(walk_len):
            indptr, indices = steps[step % period]
            lo = indptr[cur]
            deg = indptr[cur + 1] - lo
            if deg == 0:
                break
            pick = int(uniforms[row, step] * deg)
            if pick >= deg:
                pick = deg - 1
            cur = indices[lo + pick]
            out_nodes[row, length] = type_off[(step + 1) % period] + cur
            length += 1
        out_lens[row] = length
    return out_nodes, out_lens


def window_pairs(walks, lens, window):
    """Scalar reference for structenc._window_pairs: (walk, i, j) order."""
    centers, contexts = [], []
    for w in range(lens.shape[0]):
        n = lens[w]
        for i in range(n):
            lo = max(i - window, 0)
            hi = min(i + window, n - 1)
            for j in range(lo, hi + 1):
                if j == i:
                    continue
                centers.append(walks[w, i])
                contexts.append(walks[w, j])
    return np.array(centers, dtype=np.int64), np.array(contexts, dtype=np.int64)


def sgns_epoch(center, context, centers_idx, contexts_idx, negatives,
               lr_start, lr_end, pair_offset, total_pairs, batch):
    """Scalar reference for kernels.sgns_epoch with SGNS_BATCH = batch.

    Each batch copies the tables, computes every pair's and target's step
    from that copy one element at a time, and adds each step to the tables.
    """
    n_pairs = centers_idx.shape[0]
    n_neg = negatives.shape[1]
    dim = center.shape[1]
    for start in range(0, n_pairs, batch):
        cen, ctx = center.copy(), context.copy()
        for p in range(start, min(start + batch, n_pairs)):
            frac = (pair_offset + p) / total_pairs
            lr = lr_start + (lr_end - lr_start) * frac
            v = centers_idx[p]
            for t in range(n_neg + 1):
                if t == 0:
                    target = contexts_idx[p]
                    label = 1.0
                else:
                    target = negatives[p, t - 1]
                    label = 0.0
                score = 0.0
                for d in range(dim):
                    score += cen[v, d] * ctx[target, d]
                if score >= 0.0:
                    sig = 1.0 / (1.0 + math.exp(-score))
                else:
                    e = math.exp(score)
                    sig = e / (1.0 + e)
                g = (label - sig) * lr
                for d in range(dim):
                    center[v, d] += g * ctx[target, d]
                    context[target, d] += g * cen[v, d]


# -- dense reconstruction-loss reference --------------------------------------------


def recon_loss(adj, z_hat, gamma):
    """Dense reference for metamae.recon_loss: the whole of σ(ẐẐᵀ) at once.

    Mean over rows of adj with edges of (1 - cos(row of adj, row of S))^gamma.
    """
    s = 1.0 / (1.0 + np.exp(-(z_hat @ z_hat.T)))
    valid = adj.sum(axis=1) > 0
    a, s = adj[valid].astype(np.float64), s[valid]
    cos = (a * s).sum(axis=1) / (np.linalg.norm(a, axis=1) * np.linalg.norm(s, axis=1))
    return float(np.mean((1.0 - cos) ** gamma))


# -- two-pass strip reconstruction loss, and the dense operator as it was ------------
# Both passes sweep the upper strips S[lo:hi, lo:] of S = σ(ẐẐᵀ) in
# metamae.RECON_BLOCK rows, reading a dense bool adjacency; the loss sums A∘S
# left to right (a cumulative sum), in the order metamae's entry lists are
# listed. The operator is normalized in place on a dense float64 copy of the
# view. metamae.recon_loss and normalized_operator must equal them byte for byte.


def _sigmoid_strip(z, lo, hi):
    e = np.exp(-(z[lo:hi] @ z[lo:].T))
    return 1.0 / (1.0 + e)


def recon_loss_two_pass(adj, z_hat, gamma):
    """(loss, back): pass 1 gives the loss, back(g) runs pass 2 for g times its gradient."""
    from mug import metamae

    adj = np.asarray(adj, dtype=bool)
    deg = adj.sum(axis=1)
    valid = deg > 0
    n_valid = int(valid.sum())
    n = len(adj)
    block = metamae.RECON_BLOCK
    strips = [(lo, min(lo + block, n)) for lo in range(0, n, block)]
    dot = np.zeros(n)
    sq_sum = np.zeros(n)
    with np.errstate(over="ignore"):
        for lo, hi in strips:
            b = hi - lo
            s = _sigmoid_strip(z_hat, lo, hi)
            dot[lo:hi] += np.where(adj[lo:hi, lo:], s, 0.0).cumsum(axis=1)[:, -1]
            dot[hi:] += np.where(adj[hi:, lo:hi].T, s[:, b:], 0.0).cumsum(axis=0)[-1]
            s *= s
            sq_sum[lo:hi] += s.sum(axis=1)
            sq_sum[hi:] += s[:, b:].sum(axis=0)
    denom = np.sqrt(deg) * np.sqrt(sq_sum)
    defined = denom > 0
    cos = np.where(defined, dot / np.where(defined, denom, 1.0), 0.0)
    base = np.maximum(1.0 - cos, 0.0)
    loss = (np.power(base, gamma) * valid).sum() * (1.0 / n_valid)

    def back(g):
        d_cos = (-g / n_valid) * gamma * np.power(base, gamma - 1.0) * valid
        d_cos = np.where(defined, d_cos, 0.0)
        on_edge = d_cos / np.where(defined, denom, 1.0)
        off_self = -d_cos * cos / np.where(defined, sq_sum, 1.0)
        grad = np.zeros_like(z_hat)
        with np.errstate(over="ignore"):
            for lo, hi in strips:
                b = hi - lo
                s = _sigmoid_strip(z_hat, lo, hi)
                # M = dX[lo:hi, lo:] + dX[lo:, lo:hi]ᵀ
                m = (off_self[lo:hi, None] + off_self[None, lo:]) * s
                np.add(m, on_edge[lo:hi, None], out=m, where=adj[lo:hi, lo:])
                np.add(m, on_edge[None, lo:], out=m, where=adj[lo:, lo:hi].T)
                m *= s
                m *= 1.0 - s
                grad[lo:hi] += m @ z_hat[lo:]
                grad[hi:] += m[:, b:].T @ z_hat[lo:hi]
        return grad

    return float(loss), back


def recon_grad(adj, z_hat, gamma, g):
    """g times the gradient of recon_loss, as dX Ẑ + dXᵀ Ẑ on the whole N x N dX."""
    adj = np.asarray(adj, dtype=bool)
    a = adj.astype(np.float64)
    s = 1.0 / (1.0 + np.exp(-(z_hat @ z_hat.T)))
    deg = a.sum(axis=1)
    valid = deg > 0
    norm = np.linalg.norm(s, axis=1)
    denom = np.sqrt(deg) * norm
    cos = np.where(valid, (a * s).sum(axis=1) / np.where(valid, denom, 1.0), 0.0)
    d_cos = (-g / valid.sum()) * gamma * (1.0 - cos) ** (gamma - 1.0) * valid
    d_s = (d_cos / np.where(valid, denom, 1.0))[:, None] * a \
        - (d_cos * cos / norm**2)[:, None] * s
    dx = d_s * s * (1.0 - s)
    return dx @ z_hat + dx.T @ z_hat


def dense_normalized_operator(adj):
    """D^-1/2 (A + I) D^-1/2 from a dense bool adjacency."""
    op = adj.astype(np.float64)
    op[np.diag_indices_from(op)] += 1.0
    dinv = 1.0 / np.sqrt(op.sum(axis=1))
    op *= dinv[:, None]
    op *= dinv[None, :]
    return op


def edge_operator_product(edges, x, transpose=False):
    """Row-loop reference for metamae.normalized_operator's list form: op @ x, or op.T @ x.

    With dᵢ = 1 + row i's listed entries, row i of the product is x[i]/dᵢ plus
    the sum, from 0.0 and in list order, of dᵢ^-½ dⱼ^-½ x[j] over its entries
    (i, j): the order of np.bincount, so the kernel must match it byte for byte.
    The transpose swaps each entry's row and column, and keeps its value.
    """
    n, k = x.shape
    rows, cols = edges.rows.tolist(), edges.cols.tolist()
    deg = [1.0] * n
    for r in rows:
        deg[r] += 1.0
    dinv = [1.0 / math.sqrt(d) for d in deg]
    vals = [dinv[r] * dinv[c] for r, c in zip(rows, cols)]
    if transpose:
        rows, cols = cols, rows
    out = np.empty((n, k))
    for i in range(n):
        mine = [e for e, r in enumerate(rows) if r == i]
        for j in range(k):
            acc = 0.0
            for e in mine:
                acc += vals[e] * float(x[cols[e], j])
            out[i, j] = float(x[i, j]) * (dinv[i] * dinv[i]) + acc
    return out


def dense_edges(edges):
    """The bool adjacency an EdgeList stands for."""
    out = np.zeros(edges.shape, dtype=bool)
    out[edges.rows, edges.cols] = True
    return out


# -- dense view builder, as it was ---------------------------------------------------
# The join scattered into a dense N x N bool matrix, and the edge list was read
# back out of it, upper triangle only when the matrix equalled its transpose.
# hetgraph.metapath_edges must list the same entries with the same flag.


def metapath_adjacency(g, mp):
    """Binary target x target adjacency: (u,v)=1 iff some path instance joins them.

    The steps are joined as edge lists: every (start, node) pair reached so
    far is extended by the node's neighbours under the next step's CSR, then
    deduplicated by a boolean scatter. Path counts are discarded and the
    diagonal is cleared (self-reachability via a palindromic path is trivial).
    """
    from mug.hetgraph import check_schema, step_csr

    check_schema(g.node_types, g.relations, g.target_type, [mp])
    n = g.counts[g.target_type]
    indptr, dst = step_csr(g, mp, 0)
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    for i in range(1, mp.length):
        indptr, indices = step_csr(g, mp, i)
        lo = indptr[dst]
        deg = indptr[dst + 1] - lo
        src = np.repeat(src, deg)
        dst = indices[np.repeat(lo - (np.cumsum(deg) - deg), deg) + np.arange(len(src))]
        if i + 1 < mp.length:   # dedupe before the next join
            seen = np.zeros((n, g.counts[mp.types[i + 1]]), dtype=bool)
            seen[src, dst] = True
            src, dst = np.nonzero(seen)
    adj = np.zeros((n, n), dtype=bool)
    adj[src, dst] = True
    np.fill_diagonal(adj, False)
    return adj


def edge_list(adj):
    """The edges of a view; a view is fixed, so one list serves every epoch."""
    from mug.hetgraph import EdgeList

    adj = np.asarray(adj, dtype=bool)
    rows, cols = np.divmod(np.flatnonzero(adj), adj.shape[1])
    symmetric = np.array_equal(adj, adj.T)
    if symmetric:
        upper = rows < cols
        rows, cols = rows[upper], cols[upper]
    # int32 halves what pre-training holds for the whole run; a dense view has < 2**31 rows
    return EdgeList(adj.shape, rows.astype(np.int32), cols.astype(np.int32), symmetric)


# -- per-repeat linear probe ----------------------------------------------------------


def probe_steps(z, labels, splits):
    """The per-repeat reference probe's class-major (w, b), (C, d) and (C, 1), after each
    step, updated in place; it computes in the probe's dtype."""
    from mug.evalkit import PROBE_DTYPE, PROBE_L2, PROBE_LR, PROBE_LR_END, PROBE_STEPS

    z = np.asarray(z, dtype=PROBE_DTYPE)
    y = np.asarray(labels)
    n_classes = int(y.max()) + 1
    x_train = z[splits.train]
    onehot = np.eye(n_classes, dtype=PROBE_DTYPE)[:, y[splits.train]]
    w = np.zeros((n_classes, z.shape[1]), dtype=PROBE_DTYPE)
    b = np.zeros((n_classes, 1), dtype=PROBE_DTYPE)
    n = len(x_train)
    for t in range(PROBE_STEPS):
        logits = w @ x_train.T + b
        logits -= logits.max(axis=0)
        e = np.exp(logits)
        p = e / e.sum(axis=0)
        gw = (p - onehot) @ x_train / n + PROBE_L2 * w
        gb = (p - onehot).mean(axis=1, keepdims=True)
        lr = PROBE_LR + (PROBE_LR_END - PROBE_LR) * (t / PROBE_STEPS)
        w -= lr * gw
        b -= lr * gb
        yield w, b


def linear_probe(z, labels, splits):
    """Per-repeat reference for evalkit.linear_probe: one split, one probe."""
    from mug.evalkit import PROBE_DTYPE, f1_scores

    z = np.asarray(z, dtype=PROBE_DTYPE)
    y = np.asarray(labels)
    if np.count_nonzero(np.bincount(y[splits.train])) < 2:
        raise ValueError("probe needs at least two classes in the train split")
    n_classes = int(y.max()) + 1
    x_val, y_val = z[splits.val], y[splits.val]

    d = z.shape[1]
    best = (-1.0, np.zeros((n_classes, d)), np.zeros((n_classes, 1)))
    for w, b in probe_steps(z, labels, splits):
        if len(x_val):
            val_pred = np.argmax(w @ x_val.T + b, axis=0)
            macro, _ = f1_scores(val_pred, y_val, n_classes)
            if macro > best[0]:
                best = (macro, w.copy(), b.copy())
    if best[0] < 0:  # no validation set: use the final parameters
        best = (0.0, w, b)
    _, w, b = best
    return np.argmax(w @ z[splits.test].T + b, axis=0)
