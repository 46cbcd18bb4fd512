"""The benchmark's traced run still finds the stages it times.

perfbench/tracer.py wraps functions by name; if one of these is renamed, the
per-layer walk, pair, SGNS, mask, operator, epoch, prepare, alignment, embed,
attention and probe metrics read zero without any other failure.
"""

import json
import os
import subprocess
import sys

from helpers import sparse_two_view_spec
from mug import metamae, synth
from mug.bundle import save_bundle
from mug.cli import main
from mug.hetgraph import metapath_edges
from mug.rng import RngStream

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def small_inputs(tmp_path):
    """A bundle and a config small enough to pre-train in a few seconds."""
    spec = synth.two_view_spec(attr_dim=4, centroid_scale=1.0, targets_per_class=10)
    bundle = str(tmp_path / "bundle")
    save_bundle(synth.generate(synth.SynthSpec.from_dict(spec), RngStream(3)), bundle)
    config = str(tmp_path / "run.cfg")
    with open(config, "w") as fh:
        fh.write("struct_epochs = 1\nwalks_per_node = 1\nwalk_length = 4\n"
                 "struct_dim = 8\nsample_size = 8\nunified_dim = 8\n"
                 "per_class_train = 3\nval_size = 6\ntest_size = 6\n")
    return bundle, config


def traced(tmp_path, *argv):
    """The trace record of one mug command run through perfbench/child.py."""
    trace = str(tmp_path / "trace.json")
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "child.py"), trace, "0", "--",
           *argv]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    with open(trace) as fh:
        return json.load(fh)


def test_traced_pretrain_records_struct_encoder_spans(tmp_path):
    bundle, config = small_inputs(tmp_path)
    record = traced(tmp_path, "pretrain", "--data", bundle, "--config", config,
                    "--epochs", "2", "--out", str(tmp_path / "m.ckpt"))
    spans = record["spans"]
    names = {span[0] for span in spans}
    for stage in ("structenc.sample_all_walks", "structenc._window_pairs",
                  "structenc.train_sgns", "fusion._train", "metamae.mask_edges",
                  "metamae.normalized_operator",
                  # perfbench's fusion.prepare_s, fusion.attention_s and dimalign.s
                  "fusion._prepare_graph", "fusion.attention_weights",
                  "dimalign.basis_vectors"):
        assert stage in names, stage
    assert record["counts"]["structenc.pairs"] > 0
    # fusion.epoch_s times each epoch up to the end of its optimizer step
    steps = [span for span in spans if span[0] == "fusion.Optimizer.step"]
    assert len(steps) == 2
    assert all(spans[parent][0] == "fusion._train" for _, parent, *_ in steps)


def test_traced_pretrain_on_list_views_records_operator_spans(tmp_path):
    # every view of this bundle takes the list path; its builds still go through
    # normalized_operator, whose spans perfbench's metamae.operator_s sums
    spec = sparse_two_view_spec(25, 1.0, attr_dim=4, centroid_scale=1.0)
    g = synth.generate(synth.SynthSpec.from_dict(spec), RngStream(3))
    n = g.counts[g.target_type]
    assert all(len(metapath_edges(g, mp).rows) < n * n * metamae.LIST_SHARE
               for mp in g.metapaths)
    bundle = str(tmp_path / "sparse")
    save_bundle(g, bundle)
    record = traced(tmp_path, "pretrain", "--data", bundle, "--no-cse", "--epochs", "2",
                    "--out", str(tmp_path / "m.ckpt"))
    builds = [span for span in record["spans"] if span[0] == "metamae.normalized_operator"]
    assert len(builds) == 2 * 2   # one per view and epoch


def test_traced_embed_records_the_forward_pass_spans(tmp_path):
    # fusion._forward is private and not wrapped: perfbench's fusion.embed_s,
    # metamae.operator_s and fusion.attention_s read the public calls inside it
    bundle, config = small_inputs(tmp_path)
    model = str(tmp_path / "m.ckpt")
    assert main(["pretrain", "--data", bundle, "--config", config, "--epochs", "1",
                 "--out", model]) == 0
    record = traced(tmp_path, "embed", "--model", model, "--data", bundle,
                    "--out", str(tmp_path / "z.tsv"))
    names = [span[0] for span in record["spans"]]
    for stage in ("fusion.embed", "metamae.encode", "fusion.attention_weights"):
        assert stage in names, stage
    assert names.count("metamae.normalized_operator") == 2   # once per view


def test_traced_eval_records_probe_spans(tmp_path):
    bundle, config = small_inputs(tmp_path)
    model = str(tmp_path / "m.ckpt")
    assert main(["pretrain", "--data", bundle, "--config", config, "--epochs", "1",
                 "--out", model]) == 0
    record = traced(tmp_path, "eval", "--model", model, "--train-data", bundle,
                    "--eval-data", bundle, "--config", config, "--repeats", "3")
    names = {span[0] for span in record["spans"]}
    # perfbench's evalkit.probe_s, splits_s and f1_s read these spans
    for stage in ("evalkit.linear_probe", "evalkit.make_splits", "evalkit.f1_scores"):
        assert stage in names, stage
