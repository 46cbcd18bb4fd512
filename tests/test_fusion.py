"""Attention aggregation, scattering, total objective, pre-training, transfer."""

import copy
import hashlib
import os
import tracemalloc

import numpy as np
import pytest

from helpers import three_view_spec, view_of

from mug import autodiff as ad
from mug import fusion, metamae, synth
from mug.fusion import (
    TrainConfig,
    attention_weights,
    embed,
    fuse,
    load_checkpoint,
    pretrain,
    save_checkpoint,
    scatter_loss,
    softmax,
    total_loss,
)
from mug.metamae import MaskSpec
from mug.rng import RngStream
from mug.structenc import WalkConfig


def small_cfg(**overrides):
    base = dict(
        epochs=40, seed=0, sample_size=16, unified_dim=16,
        walk=WalkConfig(dim=8, epochs=2, walks_per_node=4, walk_length=8),
    )
    base.update(overrides)
    return TrainConfig(**base)


def planted(seed=0, spec=None):
    d = spec or synth.two_view_spec(attr_dim=5, centroid_scale=1.0,
                                    targets_per_class=30)
    return synth.generate(synth.SynthSpec.from_dict(d), RngStream(seed))


def model_digest(model):
    h = hashlib.sha256()
    for name, _ in fusion.param_shapes(model.cfg):
        h.update(model.params[name].tobytes())
    return h.hexdigest()


def rand_attention(rng, k):
    return rng.normal(size=(k, 1)), rng.normal(size=(k, k)), rng.normal(size=(1, k))


# -- softmax --------------------------------------------------------------------


def test_softmax_equal_logits():
    out = softmax(np.array([3.7, 3.7, 3.7]))
    assert np.allclose(out, 1.0 / 3.0)


def test_softmax_simplex_and_shift_invariance():
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.uniform(-5, 5, size=6)
        s = softmax(x)
        assert np.all(s > 0) and np.all(s < 1)
        assert abs(s.sum() - 1.0) <= 1e-12
        shifted = softmax(x + 123.456)
        assert np.max(np.abs(s - shifted)) <= 1e-12


# -- attention ------------------------------------------------------------------


def test_identical_views_get_uniform_weights():
    rng = np.random.default_rng(0)
    z = rng.normal(size=(4, 3))
    q, w, b = rand_attention(rng, 3)
    for n_views in (2, 3, 5):
        beta = attention_weights(q, w, b, [z] * n_views)
        assert np.allclose(beta, 1.0 / n_views)


def test_single_view_weight_is_one():
    rng = np.random.default_rng(1)
    q, w, b = rand_attention(rng, 3)
    beta = attention_weights(q, w, b, [rng.normal(size=(5, 3))])
    assert beta[0] == pytest.approx(1.0)


def test_attention_matches_hand_computation():
    q = np.array([[1.0], [-1.0]])
    w = np.array([[0.5, 0.0], [0.0, 2.0]])
    b = np.array([[0.1, -0.2]])
    z1 = np.array([[1.0, 0.0], [0.0, 1.0]])
    z2 = np.array([[0.5, 0.5], [1.0, -1.0]])
    cs = []
    for z in (z1, z2):
        t = np.tanh(z @ w + b)
        cs.append((t @ q).mean())
    e = np.exp(np.array(cs) - max(cs))
    want = e / e.sum()
    got = attention_weights(q, w, b, [z1, z2])
    assert np.allclose(got, want)
    assert got.sum() == pytest.approx(1.0)


def test_beta_simplex_and_argmax_shift_invariance_for_any_view_count():
    rng = np.random.default_rng(2)
    k = 4
    q, w, b = rand_attention(rng, k)
    for n_views in range(1, 6):
        views = [rng.normal(size=(6, k)) for _ in range(n_views)]
        vals = attention_weights(q, w, b, views)
        assert np.all(vals > 0) and np.all(vals < 1 + 1e-15)
        assert abs(vals.sum() - 1.0) <= 1e-12
        scores = fusion.attention_scores(q, w, b, views)
        shifted = softmax(scores + 55.5)
        assert np.argmax(vals) == np.argmax(shifted)


# -- fuse -----------------------------------------------------------------------


def test_fuse_single_view_passthrough():
    z = np.random.default_rng(3).normal(size=(4, 2))
    beta = softmax(np.array([0.0]))
    out = fuse(beta, [z])
    assert np.allclose(out, z)


def test_fuse_identical_views_independent_of_beta():
    z = np.random.default_rng(4).normal(size=(4, 2))
    beta = np.array([0.3, 0.7])
    out = fuse(beta, [z, z])
    assert np.allclose(out, z)


def test_fuse_hand_weighted_sum():
    z1 = np.array([[1.0, 2.0], [3.0, 4.0]])
    z2 = np.array([[-1.0, 0.0], [1.0, 1.0]])
    beta = np.array([0.25, 0.75])
    out = fuse(beta, [z1, z2])
    assert np.allclose(out, 0.25 * z1 + 0.75 * z2)


# -- scatter ----------------------------------------------------------------------


def test_scatter_identical_rows_zero():
    z = np.tile([1.0, -2.0], (5, 1))
    assert scatter_loss(z)[0] == pytest.approx(0.0, abs=1e-12)


def test_scatter_antipodal_rows():
    a = np.array([1.5, -0.5, 2.0])
    z = np.vstack([a, -a])
    assert scatter_loss(z)[0] == pytest.approx(-(a**2).sum())


def test_scatter_matches_direct_and_fd():
    rng = np.random.default_rng(5)
    arr = rng.uniform(-1, 1, size=(5, 3))
    want = -np.mean(np.sum((arr - arr.mean(0)) ** 2, axis=1))
    assert scatter_loss(arr)[0] == pytest.approx(want)

    def fn(params):
        loss, grad = scatter_loss(params["Z"])
        return loss, {"Z": grad}

    report = ad.grad_check(fn, {"Z": arr})
    assert report["Z"] <= 1e-4


# -- total loss -------------------------------------------------------------------


def test_total_loss_single_view_recon_only():
    cfg = TrainConfig(lambda_align=0.0, lambda_recon=1.0, lambda_scatter=0.0)
    beta = softmax(np.array([0.0]))
    out = total_loss(0.9, beta, np.array([1.7]), -3.0, cfg)
    assert out == pytest.approx(1.7)


def test_total_loss_all_zero_weights():
    cfg = TrainConfig(lambda_align=0.0, lambda_recon=0.0, lambda_scatter=0.0)
    beta = softmax(np.array([0.0, 0.0]))
    out = total_loss(0.9, beta, np.array([1.0, 2.0]), -3.0, cfg)
    assert out == 0.0


def test_total_loss_hand_arithmetic():
    cfg = TrainConfig(lambda_align=1.0, lambda_recon=1.0, lambda_scatter=0.1)
    beta = np.array([0.5, 0.5])
    out = total_loss(0.2, beta, np.array([1.0, 3.0]), -4.0, cfg)
    assert out == pytest.approx(0.2 + 2.0 - 0.4)


def test_full_objective_gradient_matches_fd_on_toy_instance():
    rng = np.random.default_rng(6)
    n, d, k, ns = 6, 4, 3, 4
    adjs = []
    for _ in range(2):
        a = rng.random((n, n)) < 0.4
        a = a | a.T
        np.fill_diagonal(a, False)
        a[0, 1] = a[1, 0] = True  # no empty view
        adjs.append(a)
    masked = []
    for a in adjs:
        keep = rng.random((n, n)) >= 0.5
        keep = np.triu(keep, 1) | np.triu(keep, 1).T
        masked.append(view_of(a & keep))
    state = fusion._GraphState(unified=rng.uniform(-1, 1, size=(n, d)),
                               views=[view_of(a) for a in adjs],
                               sample_idx=np.array([0, 2, 3, 5]))
    cfg = TrainConfig(lambda_align=1.0, lambda_recon=1.0, lambda_scatter=0.1,
                      sample_size=ns, unified_dim=k)

    def fn(params):
        parts, grads = fusion.objective(params, state, masked, cfg)
        return parts.total, grads

    params = {
        "dim.weight": rng.uniform(-1, 1, size=(ns, k)),
        "dim.bias": rng.uniform(-1, 1, size=(1, k)),
        "enc.weight": rng.uniform(-1, 1, size=(k, k)),
        "enc.bias": rng.uniform(-1, 1, size=(1, k)),
        "dec.weight": rng.uniform(-1, 1, size=(k, k)),
        "dec.bias": rng.uniform(-1, 1, size=(1, k)),
        "att.q": rng.uniform(-1, 1, size=(k, 1)),
        "att.weight": rng.uniform(-1, 1, size=(k, k)),
        "att.bias": rng.uniform(-1, 1, size=(1, k)),
    }
    report = ad.grad_check(fn, params)
    assert max(report.values()) <= 1e-4, report


# -- pretrain ---------------------------------------------------------------------


def test_pretrain_zero_epochs_gives_initialized_checkpoint(tmp_path):
    g = planted()
    trace = []
    model = pretrain(g, small_cfg(epochs=0), trace=trace)
    assert trace == []
    path = str(tmp_path / "init.ckpt")
    save_checkpoint(model, path)
    assert load_checkpoint(path).params["dim.weight"].shape == (16, 16)


def test_pretrain_loss_decreases():
    g = planted()
    trace = []
    pretrain(g, small_cfg(epochs=60), trace=trace)
    assert trace[-1]["total"] < trace[0]["total"]


def test_pretrain_deterministic_checkpoints(tmp_path):
    g = planted()
    p1, p2 = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
    save_checkpoint(pretrain(g, small_cfg(epochs=5)), p1)
    save_checkpoint(pretrain(g, small_cfg(epochs=5)), p2)
    with open(p1, "rb") as f1, open(p2, "rb") as f2:
        assert f1.read() == f2.read()


def test_pretrain_ablation_flags_zero_trace_columns():
    g = planted()
    trace = []
    pretrain(g, small_cfg(epochs=3, no_scatter=True), trace=trace)
    assert all(row["l_scatter"] == 0.0 for row in trace)
    trace2 = []
    pretrain(g, small_cfg(epochs=3, no_align=True), trace=trace2)
    assert all(row["l_align"] == 0.0 for row in trace2)


def test_pretrain_no_align_freezes_dim_encoder():
    g = planted()
    m = pretrain(g, small_cfg(epochs=4, no_align=True))
    init = fusion._init_params(small_cfg(epochs=4, no_align=True), 0)
    assert np.array_equal(m.params["dim.weight"], init["dim.weight"])
    assert not np.array_equal(m.params["enc.weight"], init["enc.weight"])


def test_train_stops_on_a_non_finite_gradient_before_any_step(monkeypatch):
    cfg = small_cfg(epochs=3, no_cse=True)
    state = fusion._prepare_graph(planted(), cfg)
    seen = []
    real = fusion.objective

    def poisoned(params, *args):
        seen.append(params)
        parts, grads = real(params, *args)
        grads["enc.weight"][0, 0] = np.nan
        return parts, grads

    monkeypatch.setattr(fusion, "objective", poisoned)
    with pytest.raises(fusion.DivergenceError) as exc:
        fusion._train(state, cfg, None)
    assert exc.value.epoch == 0 and len(seen) == 1
    init = fusion._init_params(cfg, cfg.seed)
    assert all(np.array_equal(seen[0][k], init[k]) for k in init)


def test_scatter_alone_spreads_embeddings():
    g = planted()
    cfg = small_cfg(epochs=50, lambda_align=0.0, lambda_recon=0.0,
                    lambda_scatter=0.1)
    trace = []
    pretrain(g, cfg, trace=trace)
    spread = [-row["l_scatter"] for row in trace]  # mean squared distance
    assert spread[-1] > spread[0]
    assert spread[-1] > spread[len(spread) // 2]


# -- embed / transfer --------------------------------------------------------------


def test_embed_deterministic_and_frozen():
    g = planted()
    model = pretrain(g, small_cfg(epochs=3))
    before = model_digest(model)
    z1, b1 = embed(model, g, seed=5)
    z2, b2 = embed(model, g, seed=5)
    assert np.array_equal(z1, z2) and np.array_equal(b1, b2)
    assert model_digest(model) == before
    assert b1.sum() == pytest.approx(1.0, abs=1e-9)


def test_embed_transfers_to_different_schema():
    g_a = planted()
    model = pretrain(g_a, small_cfg(epochs=3))
    g_b = planted(seed=1, spec=three_view_spec(attr_dim=19, targets_per_class=25))
    before = model_digest(model)
    z, beta = embed(model, g_b, seed=2)
    assert z.shape == (75, 16)
    assert len(beta) == 3
    assert model_digest(model) == before


def test_model_keeps_its_own_copy_of_the_config():
    g = planted()
    cfg = small_cfg(epochs=2)
    model = pretrain(g, cfg)
    z1, b1 = embed(model, g, seed=1)
    want = copy.deepcopy(cfg)
    cfg.sample_size, cfg.unified_dim, cfg.no_cse, cfg.walk.dim = 4, 8, True, 4
    assert model.cfg == want
    z2, b2 = embed(model, g, seed=1)
    assert np.array_equal(z1, z2) and np.array_equal(b1, b2)


def test_checkpoint_round_trip_byte_identical(tmp_path):
    g = planted()
    model = pretrain(g, small_cfg(epochs=2))
    p1 = str(tmp_path / "m1.ckpt")
    p2 = str(tmp_path / "m2.ckpt")
    save_checkpoint(model, p1)
    save_checkpoint(load_checkpoint(p1), p2)
    with open(p1, "rb") as f1, open(p2, "rb") as f2:
        assert f1.read() == f2.read()


def test_embed_matches_after_checkpoint_round_trip(tmp_path):
    g = planted()
    model = pretrain(g, small_cfg(epochs=2))
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(model, path)
    z1, _ = embed(model, g, seed=1)
    z2, _ = embed(load_checkpoint(path), g, seed=1)
    assert np.array_equal(z1, z2)


def test_pretrain_requires_metapaths():
    g = planted()
    g.metapaths = []
    with pytest.raises(ValueError):
        pretrain(g, small_cfg(epochs=1))


# -- mask streams and memory ---------------------------------------------------------


def test_mask_streams_are_distinct_for_70_views_over_3_epochs(monkeypatch):
    rng = np.random.default_rng(3)
    n, n_views, epochs = 6, 70, 3
    adj = np.triu(rng.random((n, n)) < 0.5, 1)
    adj = adj | adj.T
    adj[0, 1] = adj[1, 0] = True
    state = fusion._GraphState(unified=rng.normal(size=(n, 5)), views=[view_of(adj)] * n_views,
                               sample_idx=np.arange(4))
    seen = []
    mask_edges = metamae.mask_edges

    def recording(view, spec, stream):
        seen.append(stream.stream_id)
        return mask_edges(view, spec, stream)

    monkeypatch.setattr(metamae, "mask_edges", recording)
    fusion._train(state, small_cfg(epochs=epochs, sample_size=4, unified_dim=3), None)
    assert len(seen) == len(set(seen)) == n_views * epochs


def test_validate_rejects_mask_stream_overflow():
    small_cfg(epochs=2**31).validate(n_views=1)
    with pytest.raises(ValueError, match="2\\*\\*32"):
        small_cfg(epochs=2**31).validate(n_views=2)


def test_one_epoch_peak_memory_is_at_most_four_n_by_n_arrays():
    spec = synth.two_view_spec(centroid_scale=1.0, targets_per_class=334)
    g = synth.generate(synth.SynthSpec.from_dict(spec), RngStream(0))
    n = g.counts[g.target_type]
    tracemalloc.start()
    try:
        pretrain(g, TrainConfig(epochs=1, no_cse=True, seed=0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * (8 * n * n), f"peak {peak / (8 * n * n):.1f} N x N float64 arrays"


def test_objective_computes_each_row_block_of_scores_once_per_view(monkeypatch):
    rng = np.random.default_rng(8)
    n, n_views = 2 * metamae.RECON_BLOCK + 1, 2
    adjs = []
    for _ in range(n_views):
        a = np.triu(rng.random((n, n)) < 0.1, 1)
        adjs.append(a | a.T)
    state = fusion._GraphState(unified=rng.normal(size=(n, 5)),
                               views=[view_of(a) for a in adjs], sample_idx=np.arange(4))
    masked = [metamae.mask_edges(e, MaskSpec(), RngStream(0, i))
              for i, e in enumerate(state.views)]
    cfg = small_cfg(sample_size=4, unified_dim=3)
    calls = []
    sigmoid_rows = metamae._sigmoid_rows

    def counting(z, lo, hi):
        calls.append((lo, hi))
        return sigmoid_rows(z, lo, hi)

    monkeypatch.setattr(metamae, "_sigmoid_rows", counting)
    fusion.objective(fusion._init_params(cfg, 0), state, masked, cfg)
    blocks = -(-n // metamae.RECON_BLOCK)
    assert len(calls) == n_views * blocks
    assert len(set(calls)) == blocks
