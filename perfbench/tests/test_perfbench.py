"""Tests of the benchmark's own code.

    python3 -m pytest perfbench/tests -q
"""

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import gen  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402

# 80 per class leaves val/test rows after the probe's 60 train nodes per class.
TINY = gen._paper_bundle("tiny", 80, 12, 6, 1.0)


# -- generator ------------------------------------------------------------------


def test_generator_is_byte_deterministic_per_seed(tmp_path):
    digests = {}
    for name, seed in (("a", 5), ("b", 5), ("c", 6)):
        _, info = gen.build(gen.GRAPH_B, seed, str(tmp_path / name))
        digests[name] = info["digest"]
    assert digests["a"] == digests["b"]
    assert digests["a"] != digests["c"]


def test_generator_bundle_loads_in_mug_with_the_recorded_densities(tmp_path):
    from mug.bundle import load_bundle
    from mug.hetgraph import all_views

    g, info = gen.build(TINY, 3, str(tmp_path / "tiny"))
    loaded = load_bundle(str(tmp_path / "tiny"))
    n = TINY.n_target
    for name, adj in all_views(loaded).items():
        assert adj.sum() / (n * (n - 1)) == pytest.approx(info["view_density"][name])


# -- self time ------------------------------------------------------------------

# cli.main [0,10] > fusion.pretrain [1,7] > (autodiff.matmul [2,4], autodiff.add [5,6]);
# cli.main > evalkit.f1_scores [8,9]
TREE = [
    ["cli.main", -1, 0.0, 10.0],
    ["fusion.pretrain", 0, 1.0, 7.0],
    ["autodiff.matmul", 1, 2.0, 4.0],
    ["autodiff.add", 1, 5.0, 6.0],
    ["evalkit.f1_scores", 0, 8.0, 9.0],
]


def test_self_time_subtracts_child_spans():
    assert layers.self_times(TREE) == [3.0, 3.0, 2.0, 1.0, 1.0]


def test_self_time_counts_overlapping_children_once():
    spans = [["a.x", -1, 0.0, 10.0], ["b.y", 0, 1.0, 4.0], ["b.z", 0, 3.0, 5.0]]
    assert layers.self_times(spans)[0] == pytest.approx(6.0)


def test_layer_shares_sum_self_time_per_layer():
    shares = layers.layer_shares([{"spans": TREE}])
    assert shares["cli"] == pytest.approx(0.3)
    assert shares["fusion"] == pytest.approx(0.3)
    assert shares["autodiff"] == pytest.approx(0.3)
    assert shares["evalkit"] == pytest.approx(0.1)
    assert shares["structenc"] == 0.0


def test_epoch_times_run_between_optimizer_steps():
    spans = [
        ["fusion._train", -1, 0.0, 10.0],
        ["fusion.Optimizer.step", 0, 2.0, 3.0],
        ["fusion.Optimizer.step", 0, 6.0, 7.0],
        ["fusion.Optimizer.step", 0, 9.0, 9.5],
    ]
    cmd = {"spans": spans, "counts": {}, "tables": ["k1", "k1"],
           "spawn": 0.0, "main_start": 0.0}
    m = layers.per_layer_metrics([cmd])
    assert m["fusion.epochs"] == 3
    assert m["fusion.epoch_s"] == pytest.approx(3.0)     # median of 3, 4, 2.5
    assert m["structenc.table_repeat_share"] == pytest.approx(0.5)


def test_per_layer_metrics_match_the_benchmark_declaration():
    import json

    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    m = layers.per_layer_metrics([{"spans": TREE, "counts": {}, "tables": [],
                                   "spawn": 0.0, "main_start": 0.0}])
    run_level = {f"pretrain_share.{layer}" for layer in layers.LAYERS}
    run_level |= {"hetgraph.view_density", "trace.total_s", "trace.overhead_s"}
    assert set(m) | run_level == set(declared)
    assert all(run.unit_of(k) == unit for k, unit in declared.items())


# -- checks ---------------------------------------------------------------------


def _tiny_workload(floor):
    return run.Workload(bundles=(TINY,),
                        pretrain=("--no-cse", "--epochs", "3"),
                        eval_args=("--repeats", "2"), f1_floor=floor)


def test_a_failed_check_fails_its_command(tmp_path):
    ok = run.execute("tiny", _tiny_workload(0.0), 1, 0.0, False, str(tmp_path / "ok"))
    assert ok["failed"] == 0 and ok["correct"]
    assert ok["metrics"]["success_share"]["value"] == 1.0
    record = ok["record"]["passes"][0]
    assert len(record["checkpoint_sha256"]) == 64 and len(record["embedding_sha256"]) == 64

    bad = run.execute("tiny", _tiny_workload(1.01), 1, 0.0, False, str(tmp_path / "bad"))
    assert bad["failed"] == 1 and not bad["correct"]
    assert bad["attempted"] == ok["attempted"]
    assert bad["metrics"]["success_share"]["value"] == pytest.approx(
        1 - 1 / bad["attempted"])
    assert any("below the floor" in f for f in bad["record"]["failures"])
