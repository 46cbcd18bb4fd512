"""Attention aggregation, scattering, total objective, pre-training, transfer."""

import copy
import hashlib
import math
import os
import tempfile
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import FINITE_FLOATS, NO_SHRINK, sparse_two_view_spec, three_view_spec, view_of

from mug import autodiff as ad
from mug import dimalign, fusion, gradsuite, metamae, synth
from mug.config import TrainConfig
from mug.fusion import (
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
from mug.rng import MASK, RngStream
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


# -- optimizer ----------------------------------------------------------------------


def test_adam_two_steps_follow_kingma_and_ba():
    """Algorithm 1 of Kingma & Ba (ICLR 2015), one scalar at a time: biased moments with
    beta1 and beta2, their bias corrections, and eps added outside the square root."""
    lr, beta1, beta2, eps = 0.1, 0.9, 0.999, 1e-8
    theta = [1.0, -2.0, 0.5]
    # the tiny gradients make eps matter: sqrt(v_hat) is 1e-9 against eps's 1e-8
    grads = [[0.5, -3.0, 1e-9], [-1.0, 2e-4, 1e-9]]
    params = {"w": np.array([theta])}
    opt = fusion.Optimizer(params, TrainConfig(learning_rate=lr), ["w"])
    m, v = [0.0] * 3, [0.0] * 3
    for t, g in enumerate(grads, start=1):
        opt.step({"w": np.array([g])})
        for i, g_i in enumerate(g):
            m[i] = beta1 * m[i] + (1 - beta1) * g_i
            v[i] = beta2 * v[i] + (1 - beta2) * g_i * g_i
            m_hat = m[i] / (1 - beta1 ** t)
            v_hat = v[i] / (1 - beta2 ** t)
            theta[i] -= lr * m_hat / (math.sqrt(v_hat) + eps)
        assert np.allclose(params["w"][0], theta, rtol=1e-12, atol=0), t
    # step 1 moves each weight by lr * g / (|g| + eps): by lr, or lr/11 for the tiny one
    assert np.allclose(opt.t, 2) and theta[2] == pytest.approx(0.5 - 2 * lr / 11, rel=1e-3)


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


def test_pretrain_trace_holds_the_unweighted_terms_under_an_ablation():
    # epoch 0 starts from the same parameters, so every term is the same in all three
    # runs; an ablation shows only in total, where its term weighs 0
    g = planted()
    first = {}
    for name, cfg in [("full", small_cfg(epochs=1)),
                      ("no_align", small_cfg(epochs=1, no_align=True)),
                      ("zero_scatter", small_cfg(epochs=1, lambda_scatter=0.0))]:
        trace = []
        pretrain(g, cfg, trace=trace)
        first[name] = trace[0]
    terms = ("l_align", "l_recon_weighted", "l_scatter")
    full = first["full"]
    assert full["l_align"] > 0 and full["l_scatter"] < 0
    for row in first.values():
        assert [row[t] for t in terms] == [full[t] for t in terms]
    assert first["no_align"]["total"] == pytest.approx(
        full["l_recon_weighted"] + 0.1 * full["l_scatter"], rel=1e-12)
    assert first["zero_scatter"]["total"] == pytest.approx(
        full["l_align"] + full["l_recon_weighted"], rel=1e-12)


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
    with pytest.raises(FloatingPointError,
                       match=r"^training diverged \(non-finite loss\) at epoch 0$"):
        fusion._train(state, cfg, None)
    assert len(seen) == 1
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


def _views_and_encodings(model, g, seed):
    """The model's parameters in the compute dtype and each view's frozen encoding,
    computed here from them."""
    state = fusion._prepare_graph(g, replace(model.cfg, seed=seed))
    p = {name: value.astype(fusion.COMPUTE) for name, value in model.params.items()}
    basis = dimalign.basis_vectors(p["dim.weight"], p["dim.bias"],
                                   state.unified[state.sample_idx])
    xw = dimalign.project(basis, state.unified) @ p["enc.weight"]
    return p, [metamae.encode(metamae.normalized_operator(view, fusion.COMPUTE), xw,
                              p["enc.bias"]) for view in state.views]


def test_embed_fuses_its_views_by_their_attention_weights():
    g = planted(spec=three_view_spec(attr_dim=5, targets_per_class=25))
    model = pretrain(g, small_cfg(epochs=2, no_cse=True))
    model.params["att.q"] = 3.0 * np.random.default_rng(0).normal(size=(16, 1))
    p, z_views = _views_and_encodings(model, g, seed=4)
    z, beta = embed(model, g, seed=4)
    want = attention_weights(p["att.q"], p["att.weight"], p["att.bias"], z_views)
    assert np.ptp(want) > 0.01          # not uniform, so 1/V would not pass
    assert np.allclose(beta, want, rtol=1e-12, atol=0)
    assert np.allclose(z, sum(b * zv for b, zv in zip(want, z_views)), rtol=1e-12, atol=1e-15)


def test_objective_on_the_unmasked_views_gives_the_attention_weights_embed_gives():
    # one forward pass serves both callers, so no rounding may tell them apart;
    # PAP takes the list path and PSP the strip one
    spec = sparse_two_view_spec(50, 1.0, attr_dim=5)
    spec["aux_types"][1]["size"] = 30
    spec["relations"][1]["degree"] = 2.0
    g = synth.generate(synth.SynthSpec.from_dict(spec), RngStream(0))
    cfg = small_cfg(no_cse=True, seed=4)
    state = fusion._prepare_graph(g, cfg)
    n = len(state.unified)
    assert [len(v.rows) < n * n * metamae.LIST_SHARE for v in state.views] == [True, False]
    model = fusion.MugModel(fusion._init_params(cfg, 0), cfg)
    # in the compute dtype, as pre-training keeps it and embed casts it
    model.params["att.q"] = (3.0 * np.random.default_rng(0).normal(size=(16, 1))).astype(
        fusion.COMPUTE)
    parts, _ = fusion.objective(model.params, state, state.views, cfg)
    _, beta = embed(model, g, seed=4)
    assert np.ptp(beta) > 0.01
    assert parts.beta.tobytes() == beta.tobytes()


def test_embed_is_keyed_by_its_seed_not_the_checkpoints():
    g = planted()
    model = pretrain(g, small_cfg(epochs=2, seed=0))
    other = fusion.MugModel(model.params, replace(model.cfg, seed=9))
    z1, b1 = embed(model, g, seed=1)
    z2, _ = embed(model, g, seed=2)
    assert not np.array_equal(z1, z2)
    z9, b9 = embed(other, g, seed=1)
    assert np.array_equal(z1, z9) and np.array_equal(b1, b9)


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


NONNEGATIVE = st.floats(0, 1e308)
POSITIVE = st.floats(5e-324, 1e308)
COUNTS = st.integers(1, 10**6)

VALID_CONFIGS = st.builds(
    TrainConfig,
    lambda_align=NONNEGATIVE, lambda_recon=NONNEGATIVE, lambda_scatter=NONNEGATIVE,
    epochs=st.integers(0, 10**6), learning_rate=POSITIVE, seed=st.integers(0, 2**64 - 1),
    no_cse=st.booleans(), no_align=st.booleans(),
    sample_size=st.integers(1, 4), unified_dim=st.integers(1, 4), gamma=st.floats(1, 1e308),
    edge_mask_rate=st.floats(0, 1),
    walk=st.builds(WalkConfig, walks_per_node=COUNTS, walk_length=COUNTS, window=COUNTS,
                   negatives=COUNTS, dim=COUNTS, epochs=COUNTS, lr=POSITIVE, lr_min=NONNEGATIVE),
)


@st.composite
def random_models(draw):
    cfg = draw(VALID_CONFIGS)
    params = {name: draw(arrays(np.float64, shape, elements=FINITE_FLOATS))
              for name, shape in fusion.param_shapes(cfg)}
    return fusion.MugModel(params, cfg)


@settings(max_examples=50, deadline=None, phases=NO_SHRINK)
@given(model=random_models())
def test_random_checkpoint_round_trips_byte_identical(model):
    with tempfile.TemporaryDirectory() as tmp:
        p1, p2 = os.path.join(tmp, "m1.ckpt"), os.path.join(tmp, "m2.ckpt")
        save_checkpoint(model, p1)
        loaded = load_checkpoint(p1)
        assert loaded.cfg == model.cfg
        for name, value in model.params.items():   # every bit, -0.0 included
            assert loaded.params[name].tobytes() == value.tobytes(), name
        save_checkpoint(loaded, p2)
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


def _sparse_objective_inputs(targets_per_class, degree):
    """A two-view state whose views all take the list path, its first epoch's masks,
    and initial parameters."""
    g = synth.generate(synth.SynthSpec.from_dict(sparse_two_view_spec(
        targets_per_class, degree, centroid_scale=1.0)), RngStream(0))
    cfg = TrainConfig(no_cse=True, seed=0)
    state = fusion._prepare_graph(g, cfg)
    n = len(state.unified)
    assert all(len(view.rows) < n * n * metamae.LIST_SHARE for view in state.views)
    masked = [metamae.mask_edges(view, cfg.edge_mask_rate, RngStream(0, MASK, 0, i))
              for i, view in enumerate(state.views)]
    return state, masked, fusion._init_params(cfg, 0), cfg


def test_objective_on_list_views_holds_memory_linear_in_n():
    # the live set is O(N·k + N·RECON_BLOCK): at 2,001 nodes about half of the
    # 8·N² bytes one dense operator would take, and twice what 999 nodes hold
    peaks = []
    for targets_per_class in (333, 667):
        state, masked, params, cfg = _sparse_objective_inputs(targets_per_class, 3.0)
        tracemalloc.start()
        try:
            fusion.objective(params, state, masked, cfg)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert all(metamae.normalized_operator(m).starts is None for m in masked)   # lists
    n = len(state.unified)
    assert n == 2001
    assert peaks[1] < 8 * n * n * 0.6, f"peak {peaks[1] / (8 * n * n):.2f} N x N arrays"
    assert peaks[1] < 2.2 * peaks[0], f"{peaks[1] / peaks[0]:.2f} times the peak at 999 nodes"


def test_objective_on_dense_views_holds_less_than_one_n_by_n_array():
    # two views of ~15% density, each multiplied in strips: the live set is their
    # entry lists, a few RECON_BLOCK x N strips and the N x k activations, which
    # at 1,000 nodes still come to 1.35 N x N arrays and at 2,000 to 0.82
    rng = np.random.default_rng(14)
    n = 2000
    adjs = [np.triu(rng.random((n, n)) < 0.15, 1) for _ in range(2)]
    state = fusion._GraphState(unified=rng.normal(size=(n, 16)),
                               views=[view_of(a | a.T) for a in adjs],
                               sample_idx=np.arange(128))
    cfg = TrainConfig(no_cse=True, seed=0)
    masked = [metamae.mask_edges(e, cfg.edge_mask_rate, RngStream(0, MASK, 0, i))
              for i, e in enumerate(state.views)]
    assert all(metamae.normalized_operator(m).starts is not None for m in masked)
    params = fusion._init_params(cfg, 0)
    tracemalloc.start()
    try:
        fusion.objective(params, state, masked, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n * n, f"peak {peak / (8 * n * n):.2f} N x N arrays"


def _assert_close(got, want, name):
    scale = np.abs(want).max()
    assert np.abs(np.asarray(got) - want).max() <= 1e-12 * scale, name


def test_list_views_give_the_dense_path_objective_and_embedding_to_rounding(monkeypatch):
    # in float64, whose rounding the bound is set for: a float64 state and parameters
    # run the objective and the forward pass embed runs, on the unmasked views
    state, masked, params, cfg = _sparse_objective_inputs(100, 2.0)
    state = fusion._GraphState(state.unified.astype(np.float64), state.views,
                               state.sample_idx)
    params = {name: value.astype(np.float64) for name, value in params.items()}

    def objective_and_embedding():
        ops = (metamae.normalized_operator(view, np.float64) for view in state.views)
        *_, zs, beta = fusion._forward(params, state, ops)
        return fusion.objective(params, state, masked, cfg), (fuse(beta, zs), beta)

    got = objective_and_embedding()
    monkeypatch.setattr(metamae, "LIST_SHARE", 0.0)   # every view multiplied in strips
    (want_parts, want_grads), want_embed = objective_and_embedding()
    (parts, grads), embedded = got
    for name in ("l_align", "beta", "view_losses", "l_scatter", "total"):
        _assert_close(getattr(parts, name), np.asarray(getattr(want_parts, name)), name)
    for name, value in want_grads.items():
        _assert_close(grads[name], value, name)
    for got_part, want_part in zip(embedded, want_embed):
        _assert_close(got_part, want_part, "embed")


def test_float32_objective_gradients_are_the_float64_ones_on_the_gradient_suites_instances(
        monkeypatch):
    # the suite checks objective's float64 gradients by central differences; training
    # runs it in float32, whose gradients must stay within 1e-4 of the largest entry of
    # any parameter's: a parameter's own largest entry can be a cancellation residue,
    # as enc.bias's is under the scatter term, which no shift of every row moves
    objective = fusion.objective

    def compare(fn, params):   # in place of ad.grad_check, on the same instances
        calls = []
        monkeypatch.setattr(fusion, "objective", lambda *args: calls.append(args) or
                            objective(*args))
        _, want = fn(params)
        monkeypatch.setattr(fusion, "objective", objective)
        _, state, masked, cfg = calls[0]
        state32 = fusion._GraphState(state.unified.astype(np.float32), state.views,
                                     state.sample_idx)
        _, got = objective({name: value.astype(np.float32) for name, value in params.items()},
                           state32, masked, cfg)
        assert all(value.dtype == np.float32 for value in got.values())
        scale = max(np.abs(value).max() for value in want.values())
        return {name: np.abs(got[name] - value).max() / scale for name, value in want.items()}

    monkeypatch.setattr(gradsuite.ad, "grad_check", compare)
    checks = [check for check in gradsuite.default_checks()
              if check.name != "struct_sgns_pair_loss"]
    assert len(checks) == 7
    for result in gradsuite.run_suite(checks):
        assert result.max_rel_err <= 1e-4, (result.name, result.max_rel_err)


def test_float32_inputs_give_float32_gradients_and_a_float64_embedding_and_beta():
    g = planted(spec=three_view_spec(attr_dim=5, targets_per_class=25))
    cfg = small_cfg(epochs=2, no_cse=True)
    state = fusion._prepare_graph(g, cfg, training=True)
    params = fusion._init_params(cfg, 0)
    assert state.unified.dtype == np.float32
    assert all(value.dtype == np.float32 for value in params.values())
    masked = [metamae.mask_edges(view, cfg.edge_mask_rate, RngStream(0, MASK, 0, i))
              for i, view in enumerate(state.views)]
    parts, grads = fusion.objective(params, state, masked, cfg)
    assert {name: value.dtype for name, value in grads.items()} == \
        {name: np.dtype(np.float32) for name in params}
    assert parts.beta.dtype == np.float64
    z_hat = np.random.default_rng(0).normal(size=(len(state.unified), 16)).astype(np.float32)
    assert metamae.recon_loss(state.views[0], z_hat, 2.0, 0.5)[1].dtype == np.float32
    model = pretrain(g, cfg)
    assert all(value.dtype == np.float32 for value in model.params.values())
    z, beta = embed(model, g, seed=4)
    assert z.dtype == np.float64 and beta.dtype == np.float64
    assert abs(beta.sum() - 1.0) <= 1e-12


def test_objective_builds_each_view_operator_once(monkeypatch):
    # view 0 takes the list path and views 1, 2 the strip one; each operator is
    # built once, in view order, and serves the forward and backward passes
    rng = np.random.default_rng(12)
    n = 64
    adjs = []
    for density in (0.002, 0.2, 0.3):
        a = np.triu(rng.random((n, n)) < density, 1)
        a[0, 1] = True
        adjs.append(a | a.T)
    state = fusion._GraphState(unified=rng.normal(size=(n, 5)),
                               views=[view_of(a) for a in adjs], sample_idx=np.arange(4))
    masked = [metamae.mask_edges(e, 0.5, RngStream(0, MASK, 0, i))
              for i, e in enumerate(state.views)]
    cfg = small_cfg(sample_size=4, unified_dim=3, lambda_scatter=0.1)
    params = fusion._init_params(cfg, 0)
    kinds = [metamae.normalized_operator(m).starts is None for m in masked]
    assert kinds == [True, False, False]
    builds = []
    normalized_operator = metamae.normalized_operator

    def counting(edges, dtype):
        builds.append(len(edges.rows))
        return normalized_operator(edges, dtype)

    monkeypatch.setattr(metamae, "normalized_operator", counting)
    calls = []
    for _ in range(2):   # no state carries over: the second call repeats the first's bits
        builds.clear()
        calls.append(fusion.objective(params, state, masked, cfg))
        assert builds == [len(m.rows) for m in masked]
    (parts, grads), (again, grads_again) = calls
    assert again.total == parts.total
    assert all(grads_again[name].tobytes() == value.tobytes() for name, value in grads.items())
    monkeypatch.setattr(metamae, "LIST_SHARE", 0.0)
    want_parts, want_grads = fusion.objective(params, state, masked, cfg)
    _assert_close(parts.total, want_parts.total, "total")
    for name, value in want_grads.items():
        _assert_close(grads[name], value, name)


def _three_view_objective_inputs(targets_per_class):
    """A three-view state with its first epoch's masks, and initial parameters."""
    g = synth.generate(synth.SynthSpec.from_dict(three_view_spec(
        targets_per_class=targets_per_class)), RngStream(0))
    cfg = TrainConfig(no_cse=True, seed=0)
    state = fusion._prepare_graph(g, cfg)
    masked = [metamae.mask_edges(view, cfg.edge_mask_rate, RngStream(0, MASK, 0, i))
              for i, view in enumerate(state.views)]
    return state, masked, fusion._init_params(cfg, 0), cfg


def test_objective_peak_memory_holds_one_operator_whatever_the_view_count():
    state, masked, params, cfg = _three_view_objective_inputs(200)
    n = len(state.unified)
    one_view = fusion._GraphState(state.unified, state.views[:1], state.sample_idx)
    peaks = []
    for st_, views in ((one_view, masked[:1]), (state, masked)):
        tracemalloc.start()
        try:
            fusion.objective(params, st_, views, cfg)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 8 * n * n, f"{(peaks[1] - peaks[0]) / (8 * n * n):.2f} N x N"


def test_embed_peak_memory_holds_one_operator_whatever_the_view_count(monkeypatch):
    # MAM over 6 actors lists 63% of N²: building an operator is the peak of embed.
    # Three copies of it grow the peak by the two more encodings only; an operator kept
    # alive while the next is built would add its 0.9 MB
    spec = three_view_spec(targets_per_class=100)
    spec["aux_types"][0]["size"] = 6
    g = synth.generate(synth.SynthSpec.from_dict(spec), RngStream(0))
    cfg = TrainConfig(no_cse=True, seed=0)
    state = fusion._prepare_graph(g, cfg)
    view = state.views[0]
    n = len(state.unified)
    assert len(view.rows) > 0.5 * n * n
    op = metamae.normalized_operator(view)
    op_bytes = op.cols.nbytes + op.vals.nbytes
    del op
    model = fusion.MugModel(fusion._init_params(cfg, 0), cfg)
    peaks = []
    for views in ([view], [view] * 3):
        prepared = fusion._GraphState(state.unified, views, state.sample_idx)
        monkeypatch.setattr(fusion, "_prepare_graph", lambda *_: prepared)
        tracemalloc.start()
        try:
            embed(model, g)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    encodings = 2 * n * cfg.unified_dim * 8
    assert peaks[1] - peaks[0] < encodings + op_bytes / 2, \
        f"{(peaks[1] - peaks[0] - encodings) / op_bytes:.2f} operators"


def test_objective_computes_n_squared_plus_the_diagonal_blocks_of_scores_per_view(monkeypatch):
    # each pass of recon_loss computes the upper strips S[lo:hi, lo:] once:
    # (N² + Σ bᵢ²) / 2 entries of σ(ẐẐᵀ), not a full row block's N·bᵢ each
    rng = np.random.default_rng(8)
    n, n_views = 2 * metamae.RECON_BLOCK + 1, 2
    adjs = []
    for _ in range(n_views):
        a = np.triu(rng.random((n, n)) < 0.1, 1)
        adjs.append(a | a.T)
    state = fusion._GraphState(unified=rng.normal(size=(n, 5)),
                               views=[view_of(a) for a in adjs], sample_idx=np.arange(4))
    masked = [metamae.mask_edges(e, 0.5, RngStream(0, MASK, 0, i))
              for i, e in enumerate(state.views)]
    cfg = small_cfg(sample_size=4, unified_dim=3)
    entries = []
    sigmoid_strip = metamae._sigmoid_strip

    def counting(z, lo, hi):
        s = sigmoid_strip(z, lo, hi)
        entries[-1] += s.size
        return s

    monkeypatch.setattr(metamae, "_sigmoid_strip", counting)
    blocks = [min(metamae.RECON_BLOCK, n - lo) for lo in range(0, n, metamae.RECON_BLOCK)]
    assert blocks[-1] == 1   # a ragged last strip
    params = fusion._init_params(cfg, 0)
    for _ in range(2):
        entries.append(0)
        fusion.objective(params, state, masked, cfg)
    assert entries == [n_views * (n * n + sum(b * b for b in blocks))] * 2
