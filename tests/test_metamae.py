"""Edge masking, shared graph-conv encode/decode, fused scaled cosine reconstruction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from helpers import view_of
from oracles import dense_edges
from mug import autodiff as ad
from mug import metamae
from mug.metamae import (
    DegenerateViewError,
    MaskSpec,
    encode,
    graph_conv,
    mask_edges,
    normalized_operator,
    recon_loss,
)
from mug.rng import RngStream


def recon_fn(adj, gamma):
    """recon_loss as a function of Ẑ for grad_check: (loss, {"Z": gradient})."""
    def fn(params):
        loss, grad = recon_loss(view_of(adj), params["Z"], gamma)
        return loss, {"Z": grad}
    return fn


def sym_adj(n, pairs):
    a = np.zeros((n, n), dtype=bool)
    for u, v in pairs:
        a[u, v] = a[v, u] = True
    return a


# -- masking -------------------------------------------------------------------


def test_mask_rate_zero_keeps_everything():
    adj = sym_adj(5, [(0, 1), (1, 2), (3, 4)])
    masked = dense_edges(mask_edges(view_of(adj), MaskSpec(edge_mask_rate=0.0), RngStream(0)))
    assert np.array_equal(masked, adj)


def test_mask_rate_one_removes_everything():
    adj = sym_adj(5, [(0, 1), (1, 2), (3, 4)])
    masked = dense_edges(mask_edges(view_of(adj), MaskSpec(edge_mask_rate=1.0), RngStream(0)))
    assert masked.sum() == 0


def test_mask_half_removes_half_within_binomial_band():
    rng = np.random.default_rng(0)
    n = 200
    adj = np.triu(rng.random((n, n)) < 0.55, k=1)
    adj = adj | adj.T
    n_edges = np.triu(adj, 1).sum()
    assert n_edges >= 10_000
    masked = dense_edges(mask_edges(view_of(adj), MaskSpec(edge_mask_rate=0.5), RngStream(7)))
    removed = 1.0 - np.triu(masked, 1).sum() / n_edges
    assert 0.48 <= removed <= 0.52


def test_mask_symmetric_view_stays_symmetric():
    rng = np.random.default_rng(1)
    adj = sym_adj(30, [(i, j) for i in range(30) for j in range(i + 1, 30)
                       if rng.random() < 0.3])
    masked = dense_edges(mask_edges(view_of(adj), MaskSpec(edge_mask_rate=0.5), RngStream(3)))
    assert np.array_equal(masked, masked.T)
    assert not (masked & ~adj).any()  # never creates edges


def test_mask_asymmetric_view_draws_one_uniform_per_edge_in_row_major_order():
    rng = np.random.default_rng(2)
    adj = rng.random((12, 12)) < 0.4
    adj[0, 1], adj[1, 0] = True, False
    edges = view_of(adj)
    assert not edges.symmetric
    masked = dense_edges(mask_edges(edges, MaskSpec(edge_mask_rate=0.5), RngStream(4)))
    rows, cols = np.nonzero(adj)
    keep = RngStream(4).uniform(len(rows)) >= 0.5
    expected = np.zeros_like(adj)
    expected[rows[keep], cols[keep]] = True
    assert np.array_equal(masked, expected)


# -- graph convolution -----------------------------------------------------------


def test_single_isolated_node_identity_conv():
    adj = np.zeros((1, 1), dtype=bool)
    op = normalized_operator(view_of(adj))
    assert op[0, 0] == 1.0  # self-loop over degree one
    x = np.array([[2.0, -3.0]])
    out = graph_conv(op, x @ np.eye(2), np.zeros((1, 2)))
    assert np.array_equal(out, [[2.0, -3.0]])


def test_two_connected_equal_nodes_give_equal_rows():
    adj = sym_adj(2, [(0, 1)])
    op = normalized_operator(view_of(adj))
    x = np.array([[1.0, 2.0], [1.0, 2.0]])
    w = np.random.default_rng(9).normal(size=(2, 3))
    out = encode(op, x @ w, np.zeros((1, 3)))
    assert np.allclose(out[0], out[1])


def test_three_node_path_matches_hand_computation():
    adj = sym_adj(3, [(0, 1), (1, 2)])
    a1 = adj.astype(float) + np.eye(3)
    d = a1.sum(1)
    hand_op = a1 / np.sqrt(np.outer(d, d))
    x = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    w = np.array([[2.0, -1.0], [0.5, 1.5]])
    want = hand_op @ x @ w
    out = graph_conv(normalized_operator(view_of(adj)), x @ w, np.zeros((1, 2)))
    assert np.allclose(out, want)


# -- reconstruction ---------------------------------------------------------------
# recon_loss(view, Ẑ) scores S = σ(ẐẐᵀ) row-blocked; these pin S itself.


def decoded_scores(z_hat):
    """All rows of S = σ(ẐẐᵀ) as the fused loss computes them."""
    return metamae._sigmoid_rows(z_hat, 0, len(z_hat))


def test_zero_decoded_embeddings_give_half_everywhere():
    adj = np.zeros((3, 3), dtype=bool)
    op = normalized_operator(view_of(adj))
    z = np.random.default_rng(0).normal(size=(3, 2))
    # zero decoder weight forces z_hat = 0
    z_hat = graph_conv(op, z @ np.zeros((2, 2)), np.zeros((1, 2)))
    assert np.allclose(decoded_scores(z_hat), 0.5)


def test_orthonormal_rows_give_half_offdiag_sigma1_diag():
    s = decoded_scores(np.eye(2))
    sig1 = 1.0 / (1.0 + np.exp(-1.0))
    assert s[0, 1] == pytest.approx(0.5)
    assert s[0, 0] == pytest.approx(sig1)


def test_reconstruction_is_sigmoid_outer_product():
    rng = np.random.default_rng(5)
    zv = rng.normal(size=(4, 2))
    want = 1.0 / (1.0 + np.exp(-(zv @ zv.T)))
    assert np.allclose(decoded_scores(zv), want)


def test_sigmoid_extreme_inputs_stay_finite():
    zv = np.array([[np.sqrt(800.0)], [-np.sqrt(800.0)]])   # ẐẐᵀ = ±800
    s = decoded_scores(zv)
    assert np.all(np.isfinite(s))
    assert s[0, 1] == pytest.approx(0.0, abs=1e-300)
    assert s[0, 0] == pytest.approx(1.0)


# -- reconstruction loss -----------------------------------------------------------


def test_recon_loss_zero_for_proportional_rows():
    adj = np.ones((3, 3), dtype=bool)
    z_hat = np.full((3, 2), 10.0)   # σ(200) == 1.0: S equals A
    assert recon_loss(view_of(adj), z_hat, 2.0)[0] == pytest.approx(0.0, abs=1e-12)


def test_recon_loss_orthogonal_row_contributes_one():
    adj = np.array([[0, 1], [1, 0]], dtype=bool)
    z_hat = np.array([[10.0], [-10.0]])   # S ~ identity: orthogonal to each row
    assert recon_loss(view_of(adj), z_hat, 2.0)[0] == pytest.approx(1.0)


def test_recon_loss_hand_case_with_zero_row_and_fd():
    adj = np.array([[0, 1, 1], [1, 0, 0], [0, 0, 0]], dtype=bool)  # row 2 empty
    rng = np.random.default_rng(8)
    z_arr = rng.uniform(-1, 1, size=(3, 2))
    gamma = 2.0
    a_hat = 1.0 / (1.0 + np.exp(-(z_arr @ z_arr.T)))

    def cos(u, v):
        return (u @ v) / (np.linalg.norm(u) * np.linalg.norm(v))

    hand = np.mean([(1 - cos(adj[i].astype(float), a_hat[i])) ** gamma
                    for i in range(2)])
    got = recon_loss(view_of(adj), z_arr, gamma)[0]
    assert got == pytest.approx(hand)

    report = ad.grad_check(recon_fn(adj, gamma), {"Z": z_arr})
    assert report["Z"] <= 1e-4


def test_recon_loss_degenerate_view_errors():
    with pytest.raises(DegenerateViewError):
        recon_loss(view_of(np.zeros((3, 3), dtype=bool)), np.ones((3, 2)), 2.0)


def test_recon_loss_bounds():
    rng = np.random.default_rng(9)
    gamma = 2.0
    for _ in range(20):
        adj = rng.random((4, 4)) < 0.5
        np.fill_diagonal(adj, False)
        if not adj.sum(axis=1).any():
            continue
        z_hat = rng.uniform(-3, 3, size=(4, 2))
        val = recon_loss(view_of(adj), z_hat, gamma)[0]
        assert 0.0 <= val <= 2.0**gamma


def _views(n, rng):
    sym = rng.random((n, n)) < 0.4
    sym = np.triu(sym, 1) | np.triu(sym, 1).T
    sym[2:4] = sym[:, 2:4] = False                 # two zero-degree rows
    sym[0, 1] = sym[1, 0] = True
    asym = rng.random((n, n)) < 0.3
    np.fill_diagonal(asym, False)
    asym[0, 1], asym[1, 0], asym[4] = True, False, False
    return {"zero_rows": sym, "asymmetric": asym}


@pytest.mark.parametrize("block", ["1", "3", "n-1", "n", "n+5"])
def test_fused_recon_loss_matches_dense_oracle(block, monkeypatch):
    n, k = 9, 3
    monkeypatch.setattr(metamae, "RECON_BLOCK", {"1": 1, "3": 3, "n-1": n - 1,
                                                 "n": n, "n+5": n + 5}[block])
    rng = np.random.default_rng(12)
    for name, adj in _views(n, rng).items():
        for gamma in (1.0, 2.0, 2.5):
            z_arr = rng.uniform(-1.5, 1.5, size=(n, k))
            got = recon_loss(view_of(adj), z_arr, gamma)[0]
            assert abs(got - oracles.recon_loss(adj, z_arr, gamma)) <= 1e-12, (name, gamma)
            report = ad.grad_check(recon_fn(adj, gamma), {"Z": z_arr})
            assert report["Z"] <= 1e-4, (name, gamma, report)
    with pytest.raises(DegenerateViewError):
        recon_loss(view_of(np.zeros((n, n), dtype=bool)), np.ones((n, k)), 2.0)


def test_fused_recon_gradient_does_not_depend_on_block(monkeypatch):
    n, k = 11, 4
    rng = np.random.default_rng(13)
    adj = _views(n, rng)["zero_rows"]
    z_arr = rng.normal(size=(n, k))
    grads = []
    for block in (1, 4, n, 64):
        monkeypatch.setattr(metamae, "RECON_BLOCK", block)
        grads.append(recon_loss(view_of(adj), z_arr, 2.0)[1])
    for g in grads[1:]:
        assert np.max(np.abs(g - grads[0])) <= 1e-12 * np.max(np.abs(grads[0]))


# -- byte-level oracles: the two-pass loss and the dense operator ----------------------
# tobytes(), not array_equal: -0.0 == 0.0 would hide a sign flip.


def _oracle_views(n, rng):
    sym = rng.random((n, n)) < 0.3
    sym = np.triu(sym, 1) | np.triu(sym, 1).T
    asym = rng.random((n, n)) < 0.3
    np.fill_diagonal(asym, False)
    asym[0, 1], asym[1, 0] = True, False
    diag = asym.copy()
    diag[np.arange(0, n, 3), np.arange(0, n, 3)] = True
    empty = sym.copy()
    empty[1::4] = empty[:, 1::4] = False
    return {"symmetric": sym, "asymmetric": asym, "asymmetric_diagonal": diag,
            "empty_rows": empty}


def _assert_fused_equals_two_pass(adj, z_arr, gamma, g):
    loss, grad = recon_loss(view_of(adj), z_arr, gamma, g)
    want_loss, back = oracles.recon_loss_two_pass(adj, z_arr, gamma)
    assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
    assert grad.tobytes() == back(g).tobytes()


def _assert_operator_equals_dense(edges):
    want = oracles.dense_normalized_operator(dense_edges(edges))
    assert normalized_operator(edges).tobytes() == want.tobytes()


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_fused_recon_loss_and_scattered_operator_equal_the_oracles_bytewise(offset):
    n = 2 * metamae.RECON_BLOCK + offset
    rng = np.random.default_rng(20 + offset)
    for name, adj in _oracle_views(n, rng).items():
        edges = view_of(adj)
        assert np.array_equal(dense_edges(edges), adj), name
        _assert_operator_equals_dense(edges)
        _assert_operator_equals_dense(mask_edges(edges, MaskSpec(edge_mask_rate=0.5),
                                                 RngStream(offset + 1)))
        z_arr = rng.uniform(-1.5, 1.5, size=(n, 4))
        for gamma in (1.0, 2.0, 2.5):
            for g in (0.0, 1.0, 0.73):
                _assert_fused_equals_two_pass(adj, z_arr, gamma, g)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 24), density=st.floats(0.0, 1.0), symmetric=st.booleans(),
       diagonal=st.booleans(), block=st.integers(1, 8), gamma=st.floats(1.0, 3.0),
       g=st.sampled_from([0.0, 1.0, 0.73, -2.5]), seed=st.integers(0, 2**16))
def test_fused_pass_and_operator_match_the_oracles_on_random_views(
        n, density, symmetric, diagonal, block, gamma, g, seed):
    rng = np.random.default_rng(seed)
    adj = rng.random((n, n)) < density
    if symmetric:
        adj = np.triu(adj, 1) | np.triu(adj, 1).T
    elif not diagonal:
        np.fill_diagonal(adj, False)
    edges = view_of(adj)
    _assert_operator_equals_dense(edges)
    _assert_operator_equals_dense(mask_edges(edges, MaskSpec(edge_mask_rate=0.5),
                                             RngStream(seed)))
    if not adj.any():
        return
    z_arr = rng.normal(scale=2.0, size=(n, 3))
    old = metamae.RECON_BLOCK
    metamae.RECON_BLOCK = block
    try:
        _assert_fused_equals_two_pass(adj, z_arr, gamma, g)
    finally:
        metamae.RECON_BLOCK = old


# -- pipeline gradient and smoke training -------------------------------------------


def test_full_view_pipeline_gradient_matches_fd():
    from mug import fusion

    rng = np.random.default_rng(10)
    n, d, k, ns = 6, 4, 3, 4
    adj = sym_adj(n, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)])
    masked = mask_edges(view_of(adj), MaskSpec(edge_mask_rate=0.5), RngStream(2))
    # the reconstruction term alone, on one view
    cfg = fusion.TrainConfig(lambda_align=0.0, lambda_scatter=0.0, sample_size=ns,
                             unified_dim=k)
    state = fusion._GraphState(unified=rng.uniform(-1, 1, size=(n, d)), views=[view_of(adj)],
                               sample_idx=np.array([0, 1, 3, 4]))

    def fn(params):
        parts, grads = fusion.objective(params, state, [masked], cfg)
        return parts.total, grads

    params = {name: rng.uniform(-1, 1, size=shape)
              for name, shape in fusion.param_shapes(cfg)}
    report = ad.grad_check(fn, params)
    assert max(report.values()) <= 1e-4, report


def test_recon_loss_drops_twenty_percent_in_200_steps():
    from mug import fusion, synth
    from mug.structenc import WalkConfig

    d = {
        "classes": 2, "target_type": "T", "targets_per_class": 40,
        "attr_dim": 6, "centroid_scale": 1.0, "noise": 0.3,
        "aux_types": [{"name": "A", "size": 20}],
        "relations": [{"name": "ta", "src": "T", "dst": "A",
                       "intra": 0.9, "inter": 0.1, "degree": 3.0}],
        "metapaths": [{"name": "TAT", "steps": ["T", "ta", "A", "ta", "T"]}],
    }
    g = synth.generate(synth.SynthSpec.from_dict(d), RngStream(0))
    cfg = fusion.TrainConfig(
        epochs=200, lambda_align=0.0, lambda_scatter=0.0, seed=0,
        sample_size=16, unified_dim=16,
        walk=WalkConfig(dim=8, epochs=2, walks_per_node=4, walk_length=8),
    )
    trace = []
    fusion.pretrain(g, cfg, trace=trace)
    first, last = trace[0]["l_recon_weighted"], trace[-1]["l_recon_weighted"]
    assert last <= 0.8 * first, (first, last)
