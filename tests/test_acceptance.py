"""Acceptance gate: every exit criterion at its stated tolerance.

Each criterion prints one pass/fail line (run with -s or check the captured
output). Expensive artifacts (pre-trained models, transfer embeddings) are
built once per session and shared.

Run: pytest tests/test_acceptance.py -v
"""

import hashlib
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest

from helpers import sparse_two_view_spec, three_view_spec, view_of
from oracles import enumerate_pairs

from mug import fusion, gradsuite, metamae, synth
from mug.bundle import load_bundle, save_bundle
from mug.cli import main as cli_main
from mug.config import TrainConfig
from mug.evalkit import SplitSpec, draw_splits, evaluate_embedding, f1_scores, make_splits
from mug.fusion import attention_scores, attention_weights, softmax
from mug.hetgraph import all_views, class_frequency_baseline, homophily_report
from mug.metamae import mask_edges
from mug.rng import RngStream

warnings.filterwarnings("ignore", message=".*shrunk.*")

TIMINGS = {}


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def timed(key, fn, *args, **kwargs):
    t0 = time.monotonic()
    out = fn(*args, **kwargs)
    TIMINGS[key] = time.monotonic() - t0
    return out


# -- shared artifacts -----------------------------------------------------------


@pytest.fixture(scope="module")
def graph_a():
    # attribute-independent labels: structure is the only class signal
    spec = synth.SynthSpec.from_dict(synth.two_view_spec(attr_dim=7,
                                                         centroid_scale=0.0))
    return synth.generate(spec, RngStream(100))


@pytest.fixture(scope="module")
def graph_b():
    spec = synth.SynthSpec.from_dict(three_view_spec(attr_dim=19, centroid_scale=0.0))
    return synth.generate(spec, RngStream(200))


@pytest.fixture(scope="module")
def model_full(graph_a):
    return timed("pretrain_full", fusion.pretrain, graph_a, TrainConfig(seed=0))


@pytest.fixture(scope="module")
def model_nocse(graph_a):
    return timed("pretrain_nocse", fusion.pretrain, graph_a,
                 TrainConfig(seed=0, no_cse=True))


@pytest.fixture(scope="module")
def state_b_full(model_full, graph_b):
    # B's views and struct table, as fusion.embed(model_full, graph_b, 0) prepares them:
    # trained once, for the transfer and for its untrained control
    return timed("prepare_b_full", fusion._prepare_graph, graph_b,
                 replace(model_full.cfg, seed=0))


@pytest.fixture(scope="module")
def z_b_full(model_full, state_b_full):
    z, _ = timed("embed_b_full", fusion._embed_state, model_full, state_b_full)
    return z


def digest(model):
    h = hashlib.sha256()
    for name, _ in fusion.param_shapes(model.cfg):
        h.update(model.params[name].tobytes())
    return h.hexdigest()


# -- criteria ---------------------------------------------------------------------


def test_criterion_1_gradient_suite():
    t0 = time.monotonic()
    results = gradsuite.run_suite(instances=20, seed=0)
    elapsed = time.monotonic() - t0
    worst = max(r.max_rel_err for r in results)
    names = {r.name for r in results}
    ok = (len(results) >= 5 and all(r.passed for r in results) and elapsed < 60
          and {"struct_sgns_pair_loss", "dim_align_loss", "view_recon_loss",
               "scatter_loss", "total_objective", "asymmetric_views", "list_views",
               "asymmetric_list_views"} <= names)
    report(1, ok, f"4 loss gradients, the total on asymmetric views and on symmetric and "
                  f"asymmetric edge-list views, and 1 SGNS kernel step vs finite differences: "
                  f"worst rel err {worst:.2e} <= 1e-4 over 20 instances each, "
                  f"{elapsed:.1f}s < 60s")


def test_criterion_2_metapath_oracle():
    from test_hetgraph import _random_graph

    t0 = time.monotonic()
    rng = np.random.default_rng(77)
    checked = 0
    for _ in range(100):
        g = _random_graph(rng)
        for mp, got in zip(g.metapaths, all_views(g).values()):
            want = enumerate_pairs(g, mp)
            assert np.array_equal(got, want), mp.name
            checked += 1
    elapsed = time.monotonic() - t0
    ok = elapsed < 30
    report(2, ok, f"adjacency == exhaustive enumeration on 100 random graphs "
                  f"({checked} views, exact), {elapsed:.1f}s < 30s")


def test_criterion_3_homophily_diagnostic(graph_a):
    ratios, avg = homophily_report(graph_a)
    baseline = class_frequency_baseline(graph_a.labels)
    ok = all(r is not None and r >= 0.6 for r in ratios.values())
    ok = ok and (avg - baseline) >= 0.2
    report(3, ok, f"planted 0.9/0.1 bundle: per-view homophily "
                  f"{[f'{r:.3f}' for r in ratios.values()]} all >= 0.6; "
                  f"average {avg:.3f} - baseline {baseline:.3f} >= 0.2")


def test_criterion_4_mask_statistics():
    rng = np.random.default_rng(4)
    adj = np.triu(rng.random((200, 200)) < 0.55, k=1)
    adj = adj | adj.T
    n_edges = int(np.triu(adj, 1).sum())
    assert n_edges >= 10_000
    edges = view_of(adj)
    hits = 0
    for trial in range(100):
        masked = mask_edges(edges, 0.5, RngStream(trial))
        removed = 1.0 - len(masked.pairs()[0]) / n_edges   # kept upper-triangle edges
        hits += 0.48 <= removed <= 0.52
    ok = hits >= 99
    report(4, ok, f"p_e=0.5 over {n_edges} edges: removed fraction in "
                  f"[0.48, 0.52] in {hits}/100 seeded trials (need >= 99)")


def test_criterion_5_attention_contract():
    rng = np.random.default_rng(5)
    k = 64
    q = rng.normal(size=(k, 1))
    w = rng.normal(size=(k, k)) * 0.1
    b = rng.normal(size=(1, k)) * 0.1
    worst_sum_err = 0.0
    argmax_ok = True
    for n_views in range(1, 6):
        views = [rng.normal(size=(10, k)) for _ in range(n_views)]
        beta = attention_weights(q, w, b, views)
        worst_sum_err = max(worst_sum_err, abs(beta.sum() - 1.0))
        assert np.all(beta > 0) and np.all(beta <= 1)
        scores = attention_scores(q, w, b, views)
        for shift in (-1000.0, 13.7, 1000.0):
            shifted = softmax(scores + shift)
            argmax_ok = argmax_ok and np.argmax(shifted) == np.argmax(beta)
    ok = worst_sum_err <= 1e-12 and argmax_ok
    report(5, ok, f"view counts 1-5: sum(beta) error {worst_sum_err:.1e} <= 1e-12; "
                  f"argmax invariant under constant score shifts")


def test_criterion_6_transfer_shape_law(model_full, graph_a, graph_b, z_b_full):
    d_a = graph_a.attrs[graph_a.target_type].shape[1]
    d_b = graph_b.attrs[graph_b.target_type].shape[1]
    before = digest(model_full)
    z, beta = fusion.embed(model_full, graph_b, seed=3)
    after = digest(model_full)
    k = model_full.unified_dim
    n_b = graph_b.counts[graph_b.target_type]
    ok = (d_a, len(graph_a.metapaths)) == (7, 2)
    ok = ok and (d_b, len(graph_b.metapaths)) == (19, 3)
    ok = ok and z.shape == (n_b, k) and before == after
    report(6, ok, f"checkpoint trained on A (d_attr=7, 2 views) embeds B "
                  f"(d_attr=19, 3 views) as {z.shape} = ({n_b}, {k}); "
                  f"parameter hash unchanged")


def test_criterion_7_cross_domain_transfer(model_full, model_nocse, graph_b,
                                           state_b_full, z_b_full):
    t0 = time.monotonic()
    splits = draw_splits(graph_b.labels, SplitSpec(repeats=20, seed=0))
    macro_full = evaluate_embedding(z_b_full, graph_b.labels, splits)[0].mean()
    z_nocse, _ = fusion.embed(model_nocse, graph_b, seed=0)
    macro_nocse = evaluate_embedding(z_nocse, graph_b.labels, splits)[0].mean()
    # the untrained control, reported without a bound: each model's parameters at 0 epochs
    untrained_full = fusion.MugModel(fusion._init_params(model_full.cfg, 0), model_full.cfg)
    z_untrained, _ = fusion._embed_state(untrained_full, state_b_full)
    untrained = fusion.MugModel(fusion._init_params(model_nocse.cfg, 0), model_nocse.cfg)
    z_untrained_nocse, _ = fusion.embed(untrained, graph_b, seed=0)
    control_full, control_nocse = (evaluate_embedding(z, graph_b.labels, splits)[0].mean()
                                   for z in (z_untrained, z_untrained_nocse))
    eval_time = time.monotonic() - t0
    total = (TIMINGS["pretrain_full"] + TIMINGS["pretrain_nocse"] + TIMINGS["prepare_b_full"]
             + TIMINGS["embed_b_full"] + eval_time)
    gap = macro_full - macro_nocse
    ok = macro_full >= 0.60 and gap >= 0.05 and total < 600
    report(7, ok, f"A->B frozen transfer (attribute-independent labels, 3 classes): "
                  f"full Macro-F1 {macro_full:.3f} >= 0.60; "
                  f"full - no-cse = {gap:.3f} >= 0.05; "
                  f"total runtime {total:.0f}s < 600s; "
                  f"untrained encoder (0 epochs, no bound): full {control_full:.3f}, "
                  f"no-cse {control_nocse:.3f}")


def test_criterion_8_few_shot_protocol(graph_b, z_b_full):
    n_classes = int(graph_b.labels.max()) + 1
    sizes_ok = True
    for k in (1, 3, 5):
        splits = make_splits(graph_b.labels, SplitSpec(per_class_train=k), RngStream(1))
        sizes_ok = sizes_ok and len(splits.train) == n_classes * k
    means = {}
    for k in (1, 5):
        spec = SplitSpec(per_class_train=k, repeats=20, seed=0)
        splits = draw_splits(graph_b.labels, spec)
        means[k] = evaluate_embedding(z_b_full, graph_b.labels, splits)[0].mean()
    ok = sizes_ok and means[5] > means[1]
    report(8, ok, f"k-shot splits have exactly C*k train nodes; 5-shot Macro-F1 "
                  f"{means[5]:.3f} > 1-shot {means[1]:.3f} over 20 repeats")


def _two_cli_runs(tmp_path, spec):
    """Bytes of the checkpoint and embedding of each of two pretrain + embed runs."""
    bundle_dir = str(tmp_path / "bundle")
    save_bundle(synth.generate(synth.SynthSpec.from_dict(spec), RngStream(9)),
                bundle_dir)
    cfg_path = str(tmp_path / "run.cfg")
    with open(cfg_path, "w") as fh:
        fh.write("epochs = 12\nstruct_epochs = 2\nwalks_per_node = 4\n"
                 "walk_length = 8\nstruct_dim = 16\nsample_size = 32\n"
                 "unified_dim = 32\n")

    def one_run(tag):
        ckpt = str(tmp_path / f"{tag}.ckpt")
        emb = str(tmp_path / f"{tag}.tsv")
        assert cli_main(["pretrain", "--data", bundle_dir, "--config", cfg_path,
                         "--out", ckpt, "--seed", "11"]) == 0
        assert cli_main(["embed", "--model", ckpt, "--data", bundle_dir,
                         "--out", emb, "--seed", "11"]) == 0
        with open(ckpt, "rb") as f1, open(emb, "rb") as f2:
            return f1.read(), f2.read()

    return bundle_dir, one_run("r1"), one_run("r2")


def test_criterion_9_cli_determinism(tmp_path):
    spec = synth.two_view_spec(attr_dim=5, centroid_scale=1.0, targets_per_class=25)
    _, (ckpt1, emb1), (ckpt2, emb2) = _two_cli_runs(tmp_path, spec)
    ok = ckpt1 == ckpt2 and emb1 == emb2
    report(9, ok, "mug pretrain + mug embed, fixed seed, two runs: "
                  "byte-identical checkpoint and embedding files")


def test_criterion_9_cli_determinism_on_edge_list_views(tmp_path):
    spec = sparse_two_view_spec(25, 1.0, attr_dim=5, centroid_scale=1.0)
    bundle_dir, (ckpt1, emb1), (ckpt2, emb2) = _two_cli_runs(tmp_path, spec)
    views = fusion._prepare_graph(load_bundle(bundle_dir), TrainConfig(no_cse=True)).views
    n = views[0].shape[0]
    lists = all(len(view.rows) < n * n * metamae.LIST_SHARE for view in views)
    ok = lists and ckpt1 == ckpt2 and emb1 == emb2
    report(9, ok, f"the same on {n} targets whose views all take the edge-list path: "
                  "byte-identical checkpoint and embedding files")


def test_criterion_10_f1_correctness():
    macro, micro = f1_scores([0, 1, 1, 1], [0, 0, 1, 1], 2)
    micro_ok = abs(micro - 0.75) <= 1e-9
    macro_ok = abs(macro - (2 / 3 + 4 / 5) / 2) <= 1e-9
    perfect = f1_scores([1, 0, 2], [1, 0, 2], 3) == (1.0, 1.0)
    ok = micro_ok and macro_ok and perfect
    report(10, ok, f"hand confusion-matrix case: micro {micro:.6f} == 0.75, "
                   f"macro {macro:.6f} == 0.733333 (tol 1e-9)")
