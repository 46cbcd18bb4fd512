"""Walk sampling, skip-gram training, input unification, kernel parity with the
scalar oracles."""

import tracemalloc

import numpy as np
import pytest

import oracles
from helpers import type_of_global
from mug import kernels, structenc, synth
from mug.hetgraph import HetGraph, MetaPath, Relation, step_csr
from mug.rng import SGNS, SGNS_INIT, RngStream
from mug.structenc import WalkConfig, sample_walks, train_sgns, unify_attrs


def star_graph(n_papers=3):
    return HetGraph(
        node_types=["paper", "author"],
        relations=[Relation("pa", "paper", "author")],
        counts={"paper": n_papers, "author": 1},
        node_ids={"paper": [f"p{i}" for i in range(n_papers)], "author": ["a0"]},
        edges={"pa": np.array([(i, 0) for i in range(n_papers)], dtype=np.int64)},
        target_type="paper",
        metapaths=[MetaPath.from_steps("PAP", ["paper", "pa", "author", "pa", "paper"])],
    )


def planted_graph(seed=0, per_class=60):
    d = {
        "classes": 2,
        "target_type": "T",
        "targets_per_class": per_class,
        "attr_dim": 4,
        "centroid_scale": 0.0,
        "noise": 1.0,
        "aux_types": [{"name": "A", "size": 30}],
        "relations": [{"name": "ta", "src": "T", "dst": "A",
                       "intra": 0.9, "inter": 0.1, "degree": 4.0}],
        "metapaths": [{"name": "TAT", "steps": ["T", "ta", "A", "ta", "T"]}],
    }
    return synth.generate(synth.SynthSpec.from_dict(d), RngStream(seed))


# -- walks ---------------------------------------------------------------------


def test_star_walks_alternate_types():
    g = star_graph()
    cfg = WalkConfig(walks_per_node=4, walk_length=6)
    walks, lens = sample_walks(g, g.metapaths[0], cfg, RngStream(1))
    assert np.all(lens == 7)
    for row in walks:
        for pos, node in enumerate(row):
            expected = "paper" if pos % 2 == 0 else "author"
            assert type_of_global(g, node) == expected


def test_isolated_node_walk_is_singleton():
    g = star_graph()
    g.edges["pa"] = np.array([(i, 0) for i in range(2)], dtype=np.int64)  # p2 isolated
    cfg = WalkConfig(walks_per_node=3, walk_length=5)
    walks, lens = sample_walks(g, g.metapaths[0], cfg, RngStream(1))
    p2_rows = walks[2 * 3:(2 + 1) * 3]
    assert np.all(lens[2 * 3:(2 + 1) * 3] == 1)
    assert np.all(p2_rows[:, 0] == 2)
    assert np.all(p2_rows[:, 1:] == -1)


def test_walks_are_type_conforming_on_random_graph():
    g = planted_graph(3)
    cfg = WalkConfig(walks_per_node=2, walk_length=9)
    walks, lens = sample_walks(g, g.metapaths[0], cfg, RngStream(5))
    pattern = ["T", "A"]
    for row, n in zip(walks, lens):
        for pos in range(n):
            assert type_of_global(g, row[pos]) == pattern[pos % 2]


def test_first_step_distribution_matches_uniform_neighbors():
    g = HetGraph(
        node_types=["paper", "author"],
        relations=[Relation("pa", "paper", "author")],
        counts={"paper": 2, "author": 4},
        node_ids={"paper": ["p0", "p1"], "author": [f"a{i}" for i in range(4)]},
        edges={"pa": np.array([(0, 0), (0, 1), (0, 2), (1, 3)], dtype=np.int64)},
        target_type="paper",
        metapaths=[MetaPath.from_steps("PAP", ["paper", "pa", "author", "pa", "paper"])],
    )
    n_walks = 10_000
    cfg = WalkConfig(walks_per_node=n_walks, walk_length=1)
    walks, _ = sample_walks(g, g.metapaths[0], cfg, RngStream(11))
    first = walks[:n_walks, 1] - g.offset("author")
    counts = np.bincount(first, minlength=4)
    # p0 has exactly three conforming neighbors: uniform 1/3 each
    expect = n_walks / 3.0
    sigma = np.sqrt(n_walks * (1 / 3) * (2 / 3))
    for a in range(3):
        assert abs(counts[a] - expect) <= 3 * sigma, counts
    assert counts[3] == 0


def test_walks_deterministic():
    g = planted_graph(1)
    cfg = WalkConfig(walks_per_node=3, walk_length=8)
    w1, l1 = sample_walks(g, g.metapaths[0], cfg, RngStream(9))
    w2, l2 = sample_walks(g, g.metapaths[0], cfg, RngStream(9))
    assert np.array_equal(w1, w2) and np.array_equal(l1, l2)
    w3, _ = sample_walks(g, g.metapaths[0], cfg, RngStream(10))
    assert not np.array_equal(w1, w3)


# -- kernels -------------------------------------------------------------------


def _sgns_both(center, context, centers, contexts, negatives, lr_start=0.025,
               lr_end=0.0001, pair_offset=0, total_pairs=None):
    """Run the kernel and the scalar oracle on copies; assert equal to rounding."""
    total = len(centers) if total_pairs is None else total_pairs
    args = (np.asarray(centers, dtype=np.int64), np.asarray(contexts, dtype=np.int64),
            np.asarray(negatives, dtype=np.int64), lr_start, lr_end, pair_offset, total)
    c1, x1 = center.copy(), context.copy()
    oracles.sgns_epoch(c1, x1, *args, kernels.SGNS_BATCH)
    c2, x2 = center.copy(), context.copy()
    kernels.sgns_epoch(c2, x2, *args)
    assert np.allclose(c2, c1, rtol=1e-12, atol=0)
    assert np.allclose(x2, x1, rtol=1e-12, atol=0)
    return c2, x2


def _tables(seed, n_nodes=12, dim=8):
    rng = np.random.default_rng(seed)
    return (rng.random((n_nodes, dim)) - 0.5) / dim, (rng.random((n_nodes, dim)) - 0.5) * 0.1


def test_sgns_matches_scalar_oracle_on_random_pairs():
    rng = np.random.default_rng(0)
    n_nodes, n_pairs = 12, 300
    center, context = _tables(0, n_nodes)
    # 12 nodes and 5 targets per pair: many pairs repeat a target
    _sgns_both(center, context, rng.integers(0, n_nodes, n_pairs),
               rng.integers(0, n_nodes, n_pairs),
               rng.integers(0, n_nodes, (n_pairs, 4)), lr_start=0.5)


def test_sgns_matches_oracle_with_positive_among_negatives():
    center, context = _tables(1)
    _sgns_both(center, context, [0, 1], [3, 4], [[3, 5, 3], [6, 4, 7]], lr_start=0.5)


def test_sgns_matches_oracle_with_negative_drawn_twice():
    center, context = _tables(2)
    _sgns_both(center, context, [0, 2, 2], [1, 3, 3], [[5, 5, 6], [7, 8, 7], [9, 9, 9]],
               lr_start=0.5)


def test_sgns_matches_oracle_with_center_repeated_in_a_batch():
    center, context = _tables(6)
    c, _ = _sgns_both(center, context, [4, 1, 4, 4], [2, 3, 5, 2],
                      [[6, 7], [8, 9], [10, 11], [6, 0]], lr_start=0.5)
    assert not np.array_equal(c[4], center[4])


def test_sgns_matches_oracle_on_zero_context_table():
    center, _ = _tables(3)
    _sgns_both(center, np.zeros_like(center), [0, 1, 0, 5], [1, 2, 3, 0],
               [[4, 5], [6, 7], [8, 9], [10, 11]])


def test_sgns_matches_oracle_across_lr_decay_with_pair_offset():
    rng = np.random.default_rng(4)
    center, context = _tables(4, n_nodes=40)
    _sgns_both(center, context, rng.integers(0, 40, 50), rng.integers(0, 40, 50),
               rng.integers(0, 40, (50, 5)), lr_start=1.0, lr_end=0.001,
               pair_offset=100, total_pairs=150)


def test_sgns_matches_oracle_across_batches(monkeypatch):
    monkeypatch.setattr(kernels, "SGNS_BATCH", 7)
    rng = np.random.default_rng(5)
    center, context = _tables(5, n_nodes=20)
    _sgns_both(center, context, rng.integers(0, 20, 60), rng.integers(0, 20, 60),
               rng.integers(0, 20, (60, 3)), lr_start=0.5)


def _sgns_in_pair_order(center, context, centers, contexts, negatives, lr_start, lr_end,
                        batch):
    """The kernel's batch steps, with each row's steps summed from 0.0 one pair (and
    target) at a time, in pair order, and then added to its table."""
    n_pairs, n_neg = negatives.shape
    sign = np.array([1.0] + [-1.0] * n_neg)
    for start in range(0, n_pairs, batch):
        stop = min(start + batch, n_pairs)
        rows = centers[start:stop]
        targets = np.concatenate([contexts[start:stop, None], negatives[start:stop]], axis=1)
        lr = lr_start + (lr_end - lr_start) * (np.arange(start, stop) / n_pairs)
        cv, ctx = center[rows], context[targets]
        z = sign * np.einsum("ptd,pd->pt", ctx, cv)
        g = sign * np.exp(-np.logaddexp(0.0, z)) * lr[:, None]
        center_steps = np.einsum("pt,ptd->pd", g, ctx)
        context_steps = (g[:, :, None] * cv[:, None, :]).reshape(targets.size, -1)
        for table, idx, steps in ((center, rows, center_steps),
                                  (context, targets.ravel(), context_steps)):
            sums = np.zeros_like(table)
            for row, step in zip(idx, steps):
                sums[row] += step
            table += sums


def test_sgns_sums_each_rows_steps_from_zero_in_pair_order(monkeypatch):
    """Rows repeated 9+ times in a batch, where a pairwise sum would add in another order."""
    monkeypatch.setattr(kernels, "SGNS_BATCH", 16)
    rng = np.random.default_rng(8)
    n_nodes, n_pairs = 10, 37                      # batches of 16, 16 and 5 pairs
    centers = rng.integers(0, n_nodes, n_pairs)
    contexts = rng.integers(0, n_nodes, n_pairs)
    negatives = rng.integers(0, n_nodes, (n_pairs, 2))
    centers[16:28] = 3                             # 12 times in the second batch
    contexts[2:14] = 5                             # 12 times in the first
    center, context = _tables(8, n_nodes)
    want_c, want_x = center.copy(), context.copy()
    _sgns_in_pair_order(want_c, want_x, centers, contexts, negatives, 0.5, 0.01, 16)
    kernels.sgns_epoch(center, context, centers, contexts, negatives, 0.5, 0.01, 0, n_pairs)
    assert center.tobytes() == want_c.tobytes()
    assert context.tobytes() == want_x.tobytes()


def test_sgns_scratch_does_not_grow_with_the_pair_count():
    """One call's peak over 200 batches is that of 20: no array sized by the pair count."""
    rng = np.random.default_rng(9)
    n_nodes, dim, n_neg = 100, 16, 5
    peaks = []
    for n_batches in (20, 200):
        n_pairs = n_batches * kernels.SGNS_BATCH
        pairs = rng.integers(0, n_nodes, (2, n_pairs))
        negatives = rng.integers(0, n_nodes, (n_pairs, n_neg))
        center, context = _tables(9, n_nodes, dim)
        tracemalloc.start()
        try:
            kernels.sgns_epoch(center, context, pairs[0], pairs[1], negatives,
                               0.025, 0.0001, 0, n_pairs)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0], peaks


def test_train_sgns_holds_one_negatives_array_at_a_time():
    """Each epoch's (pairs x negatives) draw goes to the kernel as drawn, not copied."""
    rng = np.random.default_rng(4)
    n_nodes, n_walks, width = 50, 50, 41
    walks = rng.integers(0, n_nodes, (n_walks, width))
    lens = np.full(n_walks, width)
    cfg = WalkConfig(window=5, negatives=50, dim=2, epochs=1)
    n_pairs = len(structenc._window_pairs(walks, lens, cfg.window)[0])
    negatives_bytes = n_pairs * cfg.negatives * 8      # int64, the dominant array here
    tracemalloc.start()
    try:
        train_sgns(walks, lens, n_nodes, cfg, RngStream(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * negatives_bytes, (peak, negatives_bytes)


def _walk_steps(adjacencies):
    """(indptr, indices) per pattern step from dense 0/1 matrices."""
    out = []
    for m in adjacencies:
        m = np.asarray(m, dtype=bool)
        indptr = np.concatenate([[0], np.cumsum(m.sum(axis=1))]).astype(np.int64)
        out.append((indptr, np.nonzero(m)[1].astype(np.int64)))
    return out


def test_run_walks_matches_oracle_with_dead_ends_and_isolated_start():
    # T0 -> A{0,1}, T1 -> A1, T2 isolated; A0 leads back to T0 only, A1 to nothing
    steps = _walk_steps([[[1, 1], [0, 1], [0, 0]], [[1, 0, 0], [0, 0, 0]]])
    type_off = np.array([0, 3], dtype=np.int64)
    starts = np.repeat(np.arange(3, dtype=np.int64), 4)
    uniforms = np.random.default_rng(6).random((12, 7))
    uniforms[0] = np.nextafter(1.0, 0.0)   # int(u * deg) == deg - 1 at the top edge
    walks, lens = kernels.run_walks(steps, type_off, starts, uniforms)
    ref_walks, ref_lens = oracles.run_walks(steps, type_off, starts, uniforms)
    assert np.array_equal(walks, ref_walks) and np.array_equal(lens, ref_lens)
    assert walks.dtype == lens.dtype == np.int64
    assert np.all(lens[8:] == 1) and np.all(walks[8:, 1:] == -1)   # isolated T2
    assert np.all(lens[:8] < 8)                                     # all dead-end early


def test_run_walks_matches_oracle_on_planted_graph():
    g = planted_graph(4)
    mp = g.metapaths[0]
    steps = [step_csr(g, mp, j) for j in range(mp.length)]
    type_off = np.array([g.offset(t) for t in mp.types[:-1]], dtype=np.int64)
    starts = np.repeat(np.arange(g.counts["T"], dtype=np.int64), 2)
    uniforms = np.random.default_rng(7).random((len(starts), 9))
    out = kernels.run_walks(steps, type_off, starts, uniforms)
    ref = oracles.run_walks(steps, type_off, starts, uniforms)
    assert all(np.array_equal(a, b) for a, b in zip(out, ref))


@pytest.mark.parametrize("window", [1, 2, 5])
def test_window_pairs_match_oracle(window):
    rng = np.random.default_rng(window)
    lens = np.array([1, 2, 3, 7, 1, 4], dtype=np.int64)   # length 1 and < window
    walks = np.full((len(lens), 7), -1, dtype=np.int64)
    for w, n in enumerate(lens):
        walks[w, :n] = rng.integers(0, 30, n)
    centers, contexts = structenc._window_pairs(walks, lens, window)
    ref_centers, ref_contexts = oracles.window_pairs(walks, lens, window)
    assert np.array_equal(centers, ref_centers)
    assert np.array_equal(contexts, ref_contexts)
    assert centers.dtype == contexts.dtype == np.int64


def test_window_pairs_of_single_node_walks_are_empty():
    walks = np.array([[3, -1, -1], [4, -1, -1]], dtype=np.int64)
    centers, contexts = structenc._window_pairs(walks, np.array([1, 1]), 2)
    assert centers.shape == contexts.shape == (0,)


def test_sgns_single_pair_gradient_matches_fd():
    rng = np.random.default_rng(42)
    n_nodes, dim = 5, 3
    center0 = rng.uniform(-0.5, 0.5, (n_nodes, dim))
    context0 = rng.uniform(-0.5, 0.5, (n_nodes, dim))
    v, u, negs = 0, 1, np.array([[2, 3]], dtype=np.int64)

    def objective(cen, ctx):
        def logsig(x):
            return np.minimum(x, 0.0) - np.log1p(np.exp(-np.abs(x)))
        s_pos = cen[v] @ ctx[u]
        s_negs = ctx[negs[0]] @ cen[v]
        return -logsig(s_pos) - logsig(-s_negs).sum()

    lr = 1.0
    cen, ctx = center0.copy(), context0.copy()
    kernels.sgns_epoch(cen, ctx, np.array([v], dtype=np.int64),
                       np.array([u], dtype=np.int64), negs, lr, lr, 0, 1)
    grad_center = (center0 - cen) / lr
    grad_context = (context0 - ctx) / lr

    h = 1e-6
    for table, grad in (("cen", grad_center), ("ctx", grad_context)):
        base = center0 if table == "cen" else context0
        for i in range(n_nodes):
            for d in range(dim):
                plus, minus = base.copy(), base.copy()
                plus[i, d] += h
                minus[i, d] -= h
                if table == "cen":
                    fd = (objective(plus, context0) - objective(minus, context0)) / (2 * h)
                else:
                    fd = (objective(center0, plus) - objective(center0, minus)) / (2 * h)
                denom = max(abs(fd), abs(grad[i, d]), 1e-6)
                assert abs(fd - grad[i, d]) / denom <= 1e-4


# -- training behaviour --------------------------------------------------------


def test_sgns_separates_planted_blocks():
    g = planted_graph(0)
    cfg = WalkConfig(dim=32, epochs=5)
    table = structenc.train_struct_table(g, cfg, RngStream(0))
    emb = table[:g.counts["T"]]
    emb = emb / np.linalg.norm(emb, axis=1, keepdims=True).clip(min=1e-12)
    sims = emb @ emb.T
    labels = g.labels
    same = labels[:, None] == labels[None, :]
    off_diag = ~np.eye(len(labels), dtype=bool)
    intra = sims[same & off_diag].mean()
    inter = sims[~same].mean()
    assert intra - inter >= 0.2, (intra, inter)


def test_train_sgns_rejects_empty_walks():
    with pytest.raises(ValueError):
        train_sgns(np.zeros((0, 5), dtype=np.int64), np.zeros(0, dtype=np.int64),
                   4, WalkConfig(), RngStream(0))


def test_train_sgns_deterministic():
    g = planted_graph(2, per_class=15)
    cfg = WalkConfig(dim=8, epochs=2, walks_per_node=3, walk_length=6)
    t1 = structenc.train_struct_table(g, cfg, RngStream(7))
    t2 = structenc.train_struct_table(g, cfg, RngStream(7))
    assert np.array_equal(t1, t2)


def test_train_sgns_decays_the_rate_over_the_pairs_of_all_epochs(monkeypatch):
    """Epoch e of P pairs continues the decay at pair offset e * P, to lr_min at 3P."""
    monkeypatch.setattr(kernels, "SGNS_BATCH", 16)
    walks = np.array([[0, 3, 1, 4, 2, 5], [1, 5, 0, 4, -1, -1], [2, 3, 2, -1, -1, -1]])
    lens = np.array([6, 4, 3])
    n_nodes, seed = 6, 11
    cfg = WalkConfig(dim=4, epochs=3, window=2, negatives=2, lr=1.0, lr_min=0.001)
    got = train_sgns(walks, lens, n_nodes, cfg, RngStream(seed))

    centers, contexts = oracles.window_pairs(walks, lens, cfg.window)
    n_pairs = len(centers)
    center = (RngStream(seed, SGNS_INIT).uniform((n_nodes, cfg.dim)) - 0.5) / cfg.dim
    context = np.zeros((n_nodes, cfg.dim))
    for epoch in range(cfg.epochs):
        negatives = RngStream(seed, SGNS, epoch).integers(
            0, n_nodes, (n_pairs, cfg.negatives)).astype(np.int64)
        oracles.sgns_epoch(center, context, centers, contexts, negatives, cfg.lr,
                           cfg.lr_min, epoch * n_pairs, cfg.epochs * n_pairs, 16)
    assert n_pairs > 16                 # more than one batch per epoch
    assert np.allclose(got, center, rtol=1e-12, atol=0)


# -- unification ---------------------------------------------------------------


def _graph_with_attrs(attrs):
    g = star_graph()
    g.attrs = {"paper": attrs, "author": None}
    g.validate()
    return g


def test_unify_width():
    g = _graph_with_attrs(np.ones((3, 3)))
    table = np.ones((4, 64))
    out = unify_attrs(g, table)
    assert out.shape == (3, 67)


def test_unify_zero_attr_row_keeps_normalized_struct_block():
    attrs = np.array([[0.0, 0.0], [1.0, 2.0], [3.0, 4.0]])
    g = _graph_with_attrs(attrs)
    table = np.arange(1, 17, dtype=float).reshape(4, 4)
    out = unify_attrs(g, table)
    assert np.all(out[0, :2] == 0.0)
    assert np.linalg.norm(out[0, 2:]) == pytest.approx(1.0)


def test_unify_block_norms_zero_or_one():
    rng = np.random.default_rng(3)
    g = _graph_with_attrs(rng.normal(size=(3, 5)))
    table = rng.normal(size=(4, 7))
    out = unify_attrs(g, table)
    for row in out:
        for block in (row[:5], row[5:]):
            n = np.linalg.norm(block)
            assert min(abs(n - 0.0), abs(n - 1.0)) <= 1e-9


def test_unify_without_attrs_is_struct_block_alone():
    g = star_graph()
    table = np.ones((4, 6))
    out = unify_attrs(g, table)
    assert out.shape == (3, 6)
