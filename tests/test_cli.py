"""Command-line surface: outputs, determinism, exit codes, config precedence."""

import contextlib
import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import mug
from mug import config as cfgmod
from mug import gradsuite, kernels, metamae, synth
from mug.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def file_sha(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def dir_sha(path):
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        h.update(name.encode())
        h.update(file_sha(os.path.join(path, name)).encode())
    return h.hexdigest()


def run_child(args, threads=None):
    """``python -m mug.cli`` in a child process; threads=None leaves every BLAS variable unset."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env.update({var: str(threads) for var in BLAS_VARS} if threads is not None else {})
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(mug.__file__))
    return subprocess.run([sys.executable, "-m", "mug.cli", *args], env=env,
                          capture_output=True, text=True, timeout=600)


def tiny_spec(tmp_path, **overrides):
    spec = synth.two_view_spec(attr_dim=5, centroid_scale=1.0, targets_per_class=20)
    spec.update(overrides)
    path = str(tmp_path / "spec.json")
    with open(path, "w") as fh:
        json.dump(spec, fh)
    return path


def tiny_config(tmp_path):
    path = str(tmp_path / "run.cfg")
    with open(path, "w") as fh:
        fh.write(
            "# small settings for tests\n"
            "epochs = 3\n"
            "struct_dim = 8\n"
            "struct_epochs = 2\n"
            "walks_per_node = 4\n"
            "walk_length = 8\n"
            "sample_size = 16\n"
            "unified_dim = 16\n"
            "per_class_train = 5\n"
            "val_size = 20\n"
            "test_size = 20\n"
        )
    return path


@pytest.fixture
def bundle(tmp_path):
    out = str(tmp_path / "bundle")
    assert main(["synth", "--spec", tiny_spec(tmp_path), "--out", out,
                 "--seed", "1"]) == EXIT_OK
    return out


# -- synth ---------------------------------------------------------------------


def test_synth_default_spec_round_trips(tmp_path):
    out = str(tmp_path / "b")
    assert main(["synth", "--out", out, "--seed", "0"]) == EXIT_OK
    from mug.bundle import load_bundle
    g = load_bundle(out)
    assert g.labels is not None and len(g.metapaths) == 2


def test_synth_same_seed_byte_identical(tmp_path):
    s = tiny_spec(tmp_path)
    o1, o2 = str(tmp_path / "b1"), str(tmp_path / "b2")
    assert main(["synth", "--spec", s, "--out", o1, "--seed", "7"]) == EXIT_OK
    assert main(["synth", "--spec", s, "--out", o2, "--seed", "7"]) == EXIT_OK
    assert dir_sha(o1) == dir_sha(o2)


def test_synth_null_spec_homophily_matches_baseline(tmp_path, capsys):
    spec = tiny_spec(tmp_path)
    with open(spec) as fh:
        d = json.load(fh)
    for rel in d["relations"]:
        rel["intra"] = rel["inter"] = 0.5
    d["targets_per_class"] = 100
    with open(spec, "w") as fh:
        json.dump(d, fh)
    out = str(tmp_path / "null")
    assert main(["synth", "--spec", spec, "--out", out, "--seed", "2"]) == EXIT_OK
    assert main(["homophily", "--data", out]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    avg = float([l for l in lines if l.startswith("average,")][0].split(",")[1])
    assert abs(avg - 1.0 / 3.0) <= 0.05


def test_synth_bad_spec_json_reports_line(tmp_path, capsys):
    path = str(tmp_path / "bad.json")
    with open(path, "w") as fh:
        fh.write('{\n  "classes": 3,\n  oops\n}\n')
    assert main(["synth", "--spec", path, "--out", str(tmp_path / "x")]) == EXIT_DATA
    assert ":3:" in capsys.readouterr().err


def test_synth_bad_spec_json_has_the_error_prefix(tmp_path, capsys):
    path = str(tmp_path / "bad.json")
    with open(path, "w") as fh:
        fh.write("{bad")
    assert main(["synth", "--spec", path, "--out", str(tmp_path / "x")]) == EXIT_DATA
    assert capsys.readouterr().err.startswith(f"error: {path}:1: invalid JSON: ")


@pytest.mark.parametrize("damage, message", [
    (lambda s: dict(s, relations=5), "spec key 'relations' must be a list, got 5"),
    (lambda s: [s], "spec must be a JSON object, got list"),
    (lambda s: dict(s, aux_types=[{"name": "author", "size": -4},
                                  {"name": "subject", "size": 3}]),
     "aux type 'author': size and attr_dim must be >= 0"),
    (lambda s: dict(s, aux_types=[{"name": "author", "size": 4},
                                  {"name": "subject", "size": 3, "attr_dim": -2}]),
     "aux type 'subject': size and attr_dim must be >= 0"),
    (lambda s: dict(s, target_type=["paper"]),
     "spec key 'target_type' must be a name, got [\"paper\"]"),
    (lambda s: dict(s, relations=[dict(s["relations"][0], dst="ghost"), s["relations"][1]]),
     "relation 'pa' references unknown type 'ghost'"),
    (lambda s: dict(s, metapaths=[{"name": "PA", "steps": ["paper", "pa", "author"]}]),
     "meta-path 'PA' must start and end at the target type 'paper'"),
    (lambda s: dict(s, relations=[dict(s["relations"][0], name=["pa"]), s["relations"][1]]),
     "relations[0] key 'name' must be a name, got [\"pa\"]"),
    (lambda s: dict(s, metapaths=[{"name": "PAP", "steps": ["paper", ["pa"], "author", "pa",
                                                            "paper"]}]),
     "metapaths[0] key 'steps' must be a list of names, "
     "got [\"paper\", [\"pa\"], \"author\", \"pa\", \"paper\"]"),
    (lambda s: dict(s, relations=[dict(s["relations"][0], src=["paper"]), s["relations"][1]]),
     "relations[0] key 'src' must be a name, got [\"paper\"]"),
], ids=["relations-not-a-list", "top-level-list", "negative-aux-size",
        "negative-aux-attr-dim", "target-type-list", "undeclared-type", "metapath-off-target",
        "relation-name-list", "metapath-step-list", "relation-src-list"])
def test_synth_malformed_spec_exits_with_data_error(tmp_path, capsys, damage, message):
    path, out = str(tmp_path / "spec.json"), str(tmp_path / "b")
    with open(path, "w") as fh:
        json.dump(damage(synth.two_view_spec(targets_per_class=5)), fh)
    assert main(["synth", "--spec", path, "--out", out]) == EXIT_DATA
    assert capsys.readouterr().err == f"error: {path}: {message}\n"
    assert not os.path.exists(out)


@pytest.mark.parametrize("damage, message", [
    (lambda s: s.update(targets_per_class=2.7),
     "spec key 'targets_per_class' must be an integer, got 2.7"),
    (lambda s: s.update(classes=True), "spec key 'classes' must be an integer, got true"),
    (lambda s: s["aux_types"][0].update(size="60"),
     "aux_types[0] key 'size' must be an integer, got \"60\""),
    (lambda s: s["relations"][1].update(intra="0.9"),
     "relations[1] key 'intra' must be a number, got \"0.9\""),
    (lambda s: s.update(noise=True), "spec key 'noise' must be a number, got true"),
    (lambda s: s.update(centroid_scal=2.0), "spec has unknown key 'centroid_scal'"),
    (lambda s: s["aux_types"][1].update(attr_dims=2), "aux_types[1] has unknown key 'attr_dims'"),
    (lambda s: s["relations"][0].update(degre=2.0), "relations[0] has unknown key 'degre'"),
    (lambda s: s["metapaths"][1].update(length=2), "metapaths[1] has unknown key 'length'"),
    (lambda s: s["relations"][0].pop("inter"), "relations[0] missing key 'inter'"),
    (lambda s: s["aux_types"].append(5), "aux_types[2] must be a JSON object, got int"),
], ids=["float-count", "bool-count", "string-size", "string-intra", "bool-noise",
        "misspelt-key", "aux-key", "relation-key", "metapath-key", "relation-missing-key",
        "aux-not-an-object"])
def test_synth_spec_is_read_strictly(tmp_path, capsys, damage, message):
    spec = synth.two_view_spec(targets_per_class=5)
    damage(spec)
    path, out = str(tmp_path / "spec.json"), str(tmp_path / "b")
    with open(path, "w") as fh:
        json.dump(spec, fh)
    assert main(["synth", "--spec", path, "--out", out]) == EXIT_DATA
    assert capsys.readouterr().err == f"error: {path}: {message}\n"
    assert not os.path.exists(out)


def test_synth_spec_numbers_and_defaults_give_the_same_bundle(tmp_path):
    """A float given as a JSON integer, or a key left to its default, changes no byte."""
    spelled = synth.two_view_spec(attr_dim=5, centroid_scale=1.0, targets_per_class=20)
    spelled.update(aux_centroid_scale=0.0)
    spelled["aux_types"][0]["attr_dim"] = 0
    short = json.loads(json.dumps(spelled))
    del short["noise"], short["aux_centroid_scale"], short["aux_types"][0]["attr_dim"]
    del short["relations"][0]["degree"]             # 3.0, its field's default
    short["centroid_scale"], short["relations"][1]["degree"] = 1, 2
    outs = []
    for i, spec in enumerate((spelled, short)):
        outs.append(str(tmp_path / f"b{i}"))
        assert main(["synth", "--spec", tiny_spec(tmp_path, **spec), "--out", outs[-1]]) == EXIT_OK
    assert dir_sha(outs[0]) == dir_sha(outs[1])


@pytest.mark.parametrize("kind", ["bundle", "file"])
def test_synth_refuses_an_out_that_is_not_an_empty_directory(tmp_path, capsys, kind):
    out = str(tmp_path / "b")
    if kind == "bundle":
        assert main(["synth", "--spec", tiny_spec(tmp_path), "--out", out]) == EXIT_OK
    else:
        with open(out, "w") as fh:
            fh.write("kept\n")
    before = dir_sha(out) if kind == "bundle" else file_sha(out)
    capsys.readouterr()
    assert main(["synth", "--spec", tiny_spec(tmp_path, attr_dim=0), "--out", out]) == EXIT_DATA
    assert capsys.readouterr().err == f"error: {out}: exists and is not an empty directory\n"
    assert (dir_sha(out) if kind == "bundle" else file_sha(out)) == before


def test_synth_writes_into_an_empty_directory(tmp_path):
    out = str(tmp_path / "b")
    os.mkdir(out)
    assert main(["synth", "--spec", tiny_spec(tmp_path), "--out", out]) == EXIT_OK
    assert os.path.isfile(os.path.join(out, "schema.json"))


# -- homophily ------------------------------------------------------------------


def test_homophily_uniform_labels(tmp_path, capsys, bundle):
    # overwrite labels with one class
    lines = open(os.path.join(bundle, "labels.tsv")).read().splitlines()
    with open(os.path.join(bundle, "labels.tsv"), "w") as fh:
        fh.write(lines[0] + "\n")
        for line in lines[1:]:
            fh.write(line.split("\t")[0] + "\t0\n")
    assert main(["homophily", "--data", bundle]) == EXIT_OK
    out = capsys.readouterr().out
    for line in out.splitlines():
        if line.startswith(("PAP,", "PSP,")):
            assert float(line.split(",")[1]) == 1.0


def test_homophily_average_is_mean_of_views(tmp_path, capsys, bundle):
    capsys.readouterr()  # drain fixture output
    assert main(["homophily", "--data", bundle]) == EXIT_OK
    rows = dict(line.split(",") for line in capsys.readouterr().out.splitlines()
                if line.count(",") == 1 and not line.startswith("metapath"))
    avg = float(rows["average"])
    assert avg == pytest.approx((float(rows["PAP"]) + float(rows["PSP"])) / 2, abs=1e-6)


def test_homophily_unlabeled_bundle_errors(tmp_path, bundle, capsys):
    os.remove(os.path.join(bundle, "labels.tsv"))
    capsys.readouterr()
    assert main(["homophily", "--data", bundle]) == EXIT_DATA
    assert capsys.readouterr() == ("", f"error: bundle {bundle} has no labels.tsv\n")


@pytest.mark.parametrize("cls", ["100000000000", "-5", "60"])
def test_homophily_class_id_out_of_range_names_its_line(bundle, capsys, cls):
    path = os.path.join(bundle, "labels.tsv")
    lines = open(path).read().splitlines()
    lines[2] = lines[2].split("\t")[0] + "\t" + cls
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    assert main(["homophily", "--data", bundle]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:3: class id {cls} is outside [0, 60)"), err


# -- pretrain -------------------------------------------------------------------


def test_pretrain_zero_scatter_weight_keeps_the_term_in_the_trace(tmp_path, bundle):
    ckpt = str(tmp_path / "m.ckpt")
    argv = ["pretrain", "--data", bundle, "--config", tiny_config(tmp_path), "--out", ckpt]
    assert main(argv + ["--no-scatter"]) == EXIT_USAGE   # the ablation is lambda_scatter = 0
    with open(str(tmp_path / "run.cfg"), "a") as fh:
        fh.write("lambda_scatter = 0\n")
    assert main(argv) == EXIT_OK
    rows = [[float(v) for v in r.split(",")]
            for r in open(str(tmp_path / "m.trace.csv")).read().splitlines()[1:]]
    assert len(rows) == 3 and all(l_scatter < 0 for _, _, _, l_scatter, _ in rows)
    assert all(total == pytest.approx(l_align + l_recon, rel=1e-12)
               for _, l_align, l_recon, _, total in rows)


def test_pretrain_zero_epochs_writes_initialized_checkpoint(tmp_path, bundle):
    ckpt = str(tmp_path / "init.ckpt")
    assert main(["pretrain", "--data", bundle, "--config", tiny_config(tmp_path),
                 "--out", ckpt, "--epochs", "0"]) == EXIT_OK
    assert os.path.exists(ckpt)
    assert open(str(tmp_path / "init.trace.csv")).read().splitlines()[1:] == []
    from mug.fusion import load_checkpoint
    assert load_checkpoint(ckpt).unified_dim == 16


def test_pretrain_deterministic_across_runs(tmp_path, bundle):
    cfgp = tiny_config(tmp_path)
    c1, c2 = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
    assert main(["pretrain", "--data", bundle, "--config", cfgp, "--out", c1,
                 "--seed", "5"]) == EXIT_OK
    assert main(["pretrain", "--data", bundle, "--config", cfgp, "--out", c2,
                 "--seed", "5"]) == EXIT_OK
    assert file_sha(c1) == file_sha(c2)
    assert file_sha(str(tmp_path / "a.trace.csv")) == file_sha(str(tmp_path / "b.trace.csv"))


def test_pretrain_writes_config_echo(tmp_path, bundle):
    ckpt = str(tmp_path / "m.ckpt")
    assert main(["pretrain", "--data", bundle, "--config", tiny_config(tmp_path),
                 "--out", ckpt, "--seed", "9"]) == EXIT_OK
    echo = open(str(tmp_path / "m.config.txt")).read()
    assert "seed = 9" in echo          # flag wins
    assert "epochs = 3" in echo        # file wins over default
    assert "edge_mask_rate = 0.5" in echo  # default


def test_diverging_pretrain_exits_numeric(tmp_path, bundle, capsys):
    path = str(tmp_path / "diverge.cfg")
    with open(path, "w") as fh:
        fh.write("epochs = 3\nlearning_rate = 1e300\nno_cse = true\n")
    assert main(["pretrain", "--data", bundle, "--config", path,
                 "--out", str(tmp_path / "x.ckpt")]) == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == "error: training diverged (non-finite loss) at epoch 1", err


def test_unknown_config_key_rejected(tmp_path, bundle, capsys):
    path = str(tmp_path / "bad.cfg")
    with open(path, "w") as fh:
        fh.write("epoches = 3\n")
    assert main(["pretrain", "--data", bundle, "--config", path,
                 "--out", str(tmp_path / "x.ckpt")]) == EXIT_DATA
    assert "unknown key" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("epochs = 3\nno_cse = maybe\n", "2: bad value for 'no_cse': 'maybe'"),
    ("epochs = 3\nno_cse = true\nstruct_epochs = x\n", "3: bad value for 'struct_epochs': 'x'"),
    ("seed = 1\nepochs = 3\nseed = 2\n", "3: repeated key 'seed'"),
    ("struct_dim = 8\nstruct_dim = 8\n", "2: repeated key 'struct_dim'"),
], ids=["bad-boolean", "bad-keyed-field", "repeated-key", "repeated-same-value"])
def test_bad_config_line_names_file_line_and_key(tmp_path, monkeypatch, capsys, text, message):
    from mug import bundle
    monkeypatch.setattr(bundle, "load_bundle", _no_work)
    path = str(tmp_path / "bad.cfg")
    with open(path, "w") as fh:
        fh.write(text)
    assert main(["pretrain", "--data", str(tmp_path / "bundle"), "--config", path,
                 "--out", str(tmp_path / "x.ckpt")]) == EXIT_DATA
    assert capsys.readouterr().err == f"error: {path}:{message}\n"


# -- embed ----------------------------------------------------------------------


@pytest.fixture
def checkpoint(tmp_path, bundle):
    ckpt = str(tmp_path / "model.ckpt")
    assert main(["pretrain", "--data", bundle, "--config", tiny_config(tmp_path),
                 "--out", ckpt]) == EXIT_OK
    return ckpt


def test_embed_outputs(tmp_path, bundle, checkpoint):
    out = str(tmp_path / "emb.tsv")
    before = file_sha(checkpoint)
    assert main(["embed", "--model", checkpoint, "--data", bundle,
                 "--out", out, "--seed", "3"]) == EXIT_OK
    assert file_sha(checkpoint) == before
    rows = open(out).read().splitlines()
    assert len(rows) - 1 == 60  # 3 classes x 20 targets
    beta = [float(v) for v in open(str(tmp_path / "emb.beta.csv")).read().split(",")]
    assert abs(sum(beta) - 1.0) <= 1e-9


def test_pretrain_and_embed_run_on_a_non_palindromic_metapath(tmp_path):
    from mug.bundle import load_bundle
    from mug.hetgraph import metapath_edges

    spec = synth.two_view_spec(attr_dim=5, centroid_scale=1.0, targets_per_class=20)
    spec["relations"].append({"name": "as", "src": "author", "dst": "subject",
                              "intra": 0.9, "inter": 0.1, "degree": 1.0})
    spec["metapaths"][1] = {"name": "PASP",
                            "steps": ["paper", "pa", "author", "as", "subject", "ps", "paper"]}
    data, ckpt, out = (str(tmp_path / name) for name in ("bundle", "m.ckpt", "emb.tsv"))
    assert main(["synth", "--spec", tiny_spec(tmp_path, **spec), "--out", data]) == EXIT_OK
    g = load_bundle(data)
    assert not metapath_edges(g, g.metapaths[1]).symmetric
    assert main(["pretrain", "--data", data, "--config", tiny_config(tmp_path),
                 "--out", ckpt]) == EXIT_OK
    trace = np.loadtxt(str(tmp_path / "m.trace.csv"), delimiter=",", skiprows=1)
    assert trace.shape == (3, 5) and np.isfinite(trace).all()
    assert main(["embed", "--model", ckpt, "--data", data, "--out", out]) == EXIT_OK
    z = np.loadtxt(out, delimiter="\t", skiprows=1, usecols=range(1, 17))
    assert z.shape == (60, 16) and np.isfinite(z).all()
    beta = [float(v) for v in open(str(tmp_path / "emb.beta.csv")).read().split(",")]
    assert len(beta) == 2 and abs(sum(beta) - 1.0) <= 1e-9


def test_pretrain_refuses_an_edgeless_view_before_the_work(tmp_path, bundle, checkpoint,
                                                          monkeypatch, capsys):
    from mug import cli, fusion, hetgraph, structenc
    edges = os.path.join(bundle, "edges.tsv")
    with open(edges) as fh:
        rows = [row for row in fh if row.split("\t")[1] != "ps"]
    with open(edges, "w") as fh:
        fh.writelines(rows)
    out = str(tmp_path / "emb.tsv")
    assert main(["embed", "--model", checkpoint, "--data", bundle, "--out", out]) == EXIT_OK
    monkeypatch.setattr(structenc, "train_struct_table", _no_work)
    built = []   # telling this fault from others needs no second build of every view
    monkeypatch.setattr(fusion, "metapath_edges",
                        lambda g, mp: built.append(mp.name) or hetgraph.metapath_edges(g, mp))
    monkeypatch.setattr(cli, "metapath_edges", fusion.metapath_edges, raising=False)
    capsys.readouterr()
    assert main(["pretrain", "--data", bundle, "--out", str(tmp_path / "m.ckpt")]) == EXIT_DATA
    assert capsys.readouterr().err == (f"error: {edges}: meta-path 'PSP' has no instances: "
                                       "pre-training needs an edge in every view\n")
    assert built == ["PAP", "PSP"]


def test_embed_deterministic(tmp_path, bundle, checkpoint):
    o1, o2 = str(tmp_path / "e1.tsv"), str(tmp_path / "e2.tsv")
    for o in (o1, o2):
        assert main(["embed", "--model", checkpoint, "--data", bundle,
                     "--out", o, "--seed", "4"]) == EXIT_OK
    assert file_sha(o1) == file_sha(o2)


# -- eval -----------------------------------------------------------------------


def test_eval_standard_single_bundle(tmp_path, bundle, checkpoint, capsys):
    assert main(["eval", "--model", checkpoint, "--train-data", bundle,
                 "--eval-data", bundle, "--repeats", "2",
                 "--config", tiny_config(tmp_path)]) == EXIT_OK
    csv_rows = [l for l in capsys.readouterr().out.splitlines()
                if l.startswith("full,")]
    assert len(csv_rows) == 1
    assert csv_rows[0].split(",")[3] == "5"     # tiny_config's per_class_train


def test_eval_shots_flag(tmp_path, bundle, checkpoint, capsys):
    assert main(["eval", "--model", checkpoint, "--train-data", bundle,
                 "--eval-data", bundle, "--shots", "1", "--repeats", "2"]) == EXIT_OK
    csv_rows = [l for l in capsys.readouterr().out.splitlines()
                if l.startswith("full,")]
    assert csv_rows[0].split(",")[3] == "1"


def test_eval_multiple_bundles_model_untouched(tmp_path, checkpoint, capsys):
    dirs = []
    for i in range(3):
        d = str(tmp_path / f"eb{i}")
        assert main(["synth", "--spec", tiny_spec(tmp_path), "--out", d,
                     "--seed", str(10 + i)]) == EXIT_OK
        dirs.append(d)
    before = file_sha(checkpoint)
    assert main(["eval", "--model", checkpoint, "--train-data", dirs[0],
                 "--eval-data", *dirs, "--repeats", "2",
                 "--config", tiny_config(tmp_path), "--out",
                 str(tmp_path / "report.csv")]) == EXIT_OK
    assert file_sha(checkpoint) == before
    rows = open(str(tmp_path / "report.csv")).read().splitlines()
    assert len(rows) == 4  # header + 3 bundles


def test_eval_reports_a_bundle_against_itself_and_leaves_the_model_untouched(
        tmp_path, bundle, checkpoint, capsys, monkeypatch):
    from mug import evalkit, fusion
    loaded, scored = [], []
    load, evaluate = fusion.load_checkpoint, evalkit.evaluate_embedding

    def load_and_keep(path):
        model = load(path)
        loaded.append((model, {k: v.copy() for k, v in model.params.items()}))
        return model

    monkeypatch.setattr(fusion, "load_checkpoint", load_and_keep)
    monkeypatch.setattr(evalkit, "evaluate_embedding",
                        lambda *args: scored.append(evaluate(*args)) or scored[-1])
    assert main(["eval", "--model", checkpoint, "--train-data", bundle, "--eval-data", bundle,
                 "--repeats", "3", "--config", tiny_config(tmp_path)]) == EXIT_OK
    rows = [l.split(",") for l in capsys.readouterr().out.splitlines() if l.startswith("full,")]
    assert [row[:4] for row in rows] == [["full", "bundle", "bundle", "5"]]   # tiny_config's shots
    assert [(len(macro), len(micro)) for macro, micro in scored] == [(3, 3)]
    (model, params), = loaded
    assert all(np.array_equal(model.params[name], value) for name, value in params.items())


def test_eval_skips_an_unlabeled_bundle_with_a_warning(tmp_path, bundle, checkpoint, capsys):
    unlabeled = shutil.copytree(bundle, str(tmp_path / "u"))
    os.remove(os.path.join(unlabeled, "labels.tsv"))
    argv = ["eval", "--model", checkpoint, "--train-data", bundle, "--repeats", "2",
            "--config", tiny_config(tmp_path), "--eval-data", unlabeled]
    assert main(argv + [bundle]) == EXIT_OK
    out, err = capsys.readouterr()
    assert [l.split(",")[2] for l in out.splitlines() if l.startswith("full,")] == ["bundle"]
    assert err == "warning: bundle 'u' has no labels; skipped\n"
    assert main(argv) == EXIT_DATA
    assert capsys.readouterr().err == ("warning: bundle 'u' has no labels; skipped\n"
                                       "error: no labeled eval bundles\n")


def test_eval_names_a_train_draw_that_leaves_no_node_to_test(tmp_path, checkpoint, capsys):
    small = str(tmp_path / "small")
    assert main(["synth", "--spec", tiny_spec(tmp_path, targets_per_class=5), "--out", small,
                 "--seed", "2"]) == EXIT_OK
    capsys.readouterr()
    assert main(["eval", "--model", checkpoint, "--train-data", small, "--eval-data", small,
                 "--shots", "5"]) == EXIT_DATA
    assert capsys.readouterr().err == (f"error: {small}/labels.tsv: no labeled node left to "
                                       "test: the train draw of 5 per class takes all 15\n")


def test_eval_draws_its_splits_before_it_embeds(tmp_path, checkpoint, capsys, monkeypatch):
    from mug import fusion
    small = str(tmp_path / "small")
    assert main(["synth", "--spec", tiny_spec(tmp_path, targets_per_class=5), "--out", small,
                 "--seed", "2"]) == EXIT_OK
    capsys.readouterr()

    def no_embed(*args, **kwargs):
        raise AssertionError("embedded a bundle whose labels cannot be split")

    monkeypatch.setattr(fusion, "embed", no_embed)
    assert main(["eval", "--model", checkpoint, "--train-data", small, "--eval-data", small,
                 "--shots", "5"]) == EXIT_DATA
    assert capsys.readouterr().err == (f"error: {small}/labels.tsv: no labeled node left to "
                                       "test: the train draw of 5 per class takes all 15\n")


@pytest.mark.parametrize("relabel, message", [
    ({1: 2}, "class 1 has no labeled nodes"),
    ({1: 0, 2: 0}, "every labeled node is in class 0: the probe needs two classes"),
], ids=["class-id-gap", "one-class"])
def test_eval_names_labels_tsv_for_labels_it_cannot_split(tmp_path, bundle, capsys, monkeypatch,
                                                          relabel, message):
    from mug import fusion

    def no_embed(*args, **kwargs):
        raise AssertionError("embedded a bundle whose labels cannot be split")

    monkeypatch.setattr(fusion, "load_checkpoint", lambda path: None)
    monkeypatch.setattr(fusion, "embed", no_embed)
    labels = os.path.join(bundle, "labels.tsv")
    with open(labels) as fh:
        header, *rows = fh.read().splitlines()
    rows = [f"{node}\t{relabel.get(int(c), int(c))}" for node, c in (r.split("\t") for r in rows)]
    with open(labels, "w") as fh:
        fh.write("\n".join([header] + rows) + "\n")
    capsys.readouterr()
    assert main(["eval", "--model", "unread.ckpt", "--train-data", bundle,
                 "--eval-data", bundle]) == EXIT_DATA
    assert capsys.readouterr() == ("", f"error: {labels}: {message}\n")


def test_eval_csv_row_format(tmp_path, bundle, checkpoint):
    out = str(tmp_path / "report.csv")
    assert main(["eval", "--model", checkpoint, "--train-data", bundle, "--eval-data", bundle,
                 "--repeats", "2", "--config", tiny_config(tmp_path), "--out", out]) == EXIT_OK
    header, row = open(out).read().splitlines()
    assert header == ("variant,train_bundle,eval_bundle,shots,"
                      "macro_mean,macro_std,micro_mean,micro_std")
    cells = row.split(",")
    assert cells[:4] == ["full", "bundle", "bundle", "5"] and len(cells) == 8
    assert all(re.fullmatch(r"\d\.\d{6}", cell) for cell in cells[4:]), row


def test_eval_reports_the_f1_of_the_embedding_its_seed_gives(tmp_path, bundle, checkpoint):
    from mug import bundle as bio, evalkit, fusion
    out, config = str(tmp_path / "report.csv"), tiny_config(tmp_path)
    assert main(["eval", "--model", checkpoint, "--train-data", bundle, "--eval-data", bundle,
                 "--repeats", "3", "--seed", "3", "--config", config, "--out", out]) == EXIT_OK
    cfg = cfgmod.resolve(cfgmod.parse_config_file(config), {"repeats": 3, "seed": 3})
    g = bio.load_bundle(bundle)
    z, _ = fusion.embed(fusion.load_checkpoint(checkpoint), g, seed=3)
    splits = evalkit.draw_splits(g.labels, cfgmod.filled(cfgmod.SplitSpec(), cfg))
    macro, micro = evalkit.evaluate_embedding(z, g.labels, splits)
    assert macro.mean() < 1.0           # so an embedding of another seed shows
    assert open(out).read().splitlines()[1].split(",")[4:] == [
        f"{value:.6f}" for value in (macro.mean(), macro.std(), micro.mean(), micro.std())]


def split_sizes(monkeypatch):
    """(train, val, test) sizes of every split the run draws, in order."""
    from mug import evalkit
    sizes, make = [], evalkit.make_splits

    def spy(*args):
        s = make(*args)
        sizes.append((len(s.train), len(s.val), len(s.test)))
        return s

    monkeypatch.setattr(evalkit, "make_splits", spy)
    return sizes


def test_eval_shots_take_val_and_test_sizes_from_the_config(tmp_path, bundle, checkpoint,
                                                            capsys, monkeypatch):
    sizes = split_sizes(monkeypatch)
    assert main(["eval", "--model", checkpoint, "--train-data", bundle, "--eval-data", bundle,
                 "--shots", "1", "--config", tiny_config(tmp_path)]) == EXIT_OK
    assert sizes == [(3, 20, 20)] * 50      # 3 classes x 1 shot; repeats' default
    assert capsys.readouterr().err == ""


def test_eval_shots_repeats_flag_sets_repeats(tmp_path, bundle, checkpoint, monkeypatch):
    sizes = split_sizes(monkeypatch)
    out = str(tmp_path / "report.csv")
    assert main(["eval", "--model", checkpoint, "--train-data", bundle, "--eval-data", bundle,
                 "--shots", "1", "--repeats", "2", "--config", tiny_config(tmp_path),
                 "--out", out]) == EXIT_OK
    assert sizes == [(3, 20, 20)] * 2
    echo = open(str(tmp_path / "report.config.txt")).read().splitlines()
    assert "repeats = 2" in echo and "per_class_train = 1" in echo   # the echo replays --shots


def test_eval_replayed_through_its_echo_reports_the_same_shots(tmp_path, bundle, checkpoint):
    first, again = str(tmp_path / "r.csv"), str(tmp_path / "again.csv")
    assert main(["eval", "--model", checkpoint, "--train-data", bundle, "--eval-data", bundle,
                 "--shots", "1", "--repeats", "2", "--config", tiny_config(tmp_path),
                 "--out", first]) == EXIT_OK
    assert main(["eval", "--model", checkpoint, "--train-data", bundle, "--eval-data", bundle,
                 "--config", str(tmp_path / "r.config.txt"), "--out", again]) == EXIT_OK
    assert open(first).read().splitlines()[1].split(",")[3] == "1"
    assert open(again).read() == open(first).read()


@pytest.mark.parametrize("config_text, flags, shots", [
    ("", [], "0"), ("per_class_train = 60\n", [], "0"), ("per_class_train = 3\n", [], "3"),
    ("", ["--shots", "5"], "5")], ids=["default", "standard-k", "config-k", "flag-k"])
def test_eval_reports_the_resolved_shots(tmp_path, monkeypatch, capsys, bundle, config_text,
                                         flags, shots):
    from mug import evalkit, fusion
    monkeypatch.setattr(fusion, "load_checkpoint", lambda path: None)
    monkeypatch.setattr(fusion, "embed", lambda *args, **kwargs: (None, None))
    monkeypatch.setattr(evalkit, "draw_splits", lambda *args: [])
    monkeypatch.setattr(evalkit, "evaluate_embedding", lambda *args: (np.ones(2), np.ones(2)))
    config = str(tmp_path / "eval.cfg")
    with open(config, "w") as fh:
        fh.write(config_text)
    assert main(["eval", "--model", "unread.ckpt", "--train-data", bundle, "--eval-data", bundle,
                 "--config", config, *flags]) == EXIT_OK
    rows = [l for l in capsys.readouterr().out.splitlines() if l.startswith("full,")]
    assert [row.split(",")[3] for row in rows] == [shots]


@pytest.mark.parametrize("seed", [-1, 2**64])
@pytest.mark.parametrize("command", ["synth", "pretrain", "embed", "eval", "eval --shots",
                                     "gradcheck"])
def test_seed_outside_64_bits_fails_before_the_work(tmp_path, monkeypatch, capsys, command,
                                                     seed):
    # RngStream keys on the seed mod 2**64: -1 would alias 2**64 - 1, and 2**64 alias 0
    from mug import bundle, fusion
    monkeypatch.setattr(bundle, "load_bundle", _no_work)
    monkeypatch.setattr(fusion, "load_checkpoint", _no_work)
    monkeypatch.setattr(synth, "generate", _no_work)
    monkeypatch.setattr(gradsuite, "run_suite", _no_work)
    data, model = str(tmp_path / "bundle"), str(tmp_path / "model.ckpt")
    argv = {
        "synth": ["synth", "--out", data],
        "pretrain": ["pretrain", "--data", data, "--out", model],
        "embed": ["embed", "--model", model, "--data", data, "--out", str(tmp_path / "z.tsv")],
        "eval": ["eval", "--model", model, "--train-data", data, "--eval-data", data],
        "eval --shots": ["eval", "--model", model, "--train-data", data, "--eval-data", data,
                         "--shots", "1"],
        "gradcheck": ["gradcheck"],
    }[command]
    assert main(argv + ["--seed", str(seed)]) == EXIT_DATA
    assert capsys.readouterr().err == f"error: seed must be in [0, 2**64), got {seed}\n"


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_seeds_at_the_ends_of_the_range_are_accepted(tmp_path, seed):
    assert main(["synth", "--spec", tiny_spec(tmp_path), "--out", str(tmp_path / "b"),
                 "--seed", str(seed)]) == EXIT_OK


@pytest.mark.parametrize("setting, key, value", [
    ("--repeats 0", "repeats", 0),
    ("--repeats -1", "repeats", -1),
    ("test_size = 0", "test_size", 0),
])
def test_bad_split_setting_fails_before_the_work(tmp_path, monkeypatch, capsys,
                                                 setting, key, value):
    from mug import fusion
    monkeypatch.setattr(fusion, "load_checkpoint", _no_work)
    data = str(tmp_path / "bundle")
    argv = ["eval", "--model", str(tmp_path / "model.ckpt"), "--train-data", data,
            "--eval-data", data]
    where = ""                   # a flag's fault names no file; a config line's names it
    if setting.startswith("--"):
        argv += setting.split()
    else:
        config = str(tmp_path / "split.cfg")
        with open(config, "w") as fh:
            fh.write(setting + "\n")
        argv += ["--config", config]
        where = f"{config}:1: "
    assert main(argv) == EXIT_DATA
    assert capsys.readouterr().err == f"error: {where}{key} must be >= 1, got {value}\n"


@pytest.mark.parametrize("setting, message", [
    ("--epochs -3", "epochs must be >= 0, got -3"),
    ("learning_rate = -1", "learning_rate must be > 0, got -1.0"),
    ("learning_rate = 0", "learning_rate must be > 0, got 0.0"),
    ("sample_size = 0", "sample_size must be >= 1, got 0"),
    ("unified_dim = 0", "unified_dim must be >= 1, got 0"),
    ("gamma = 0.5", "gamma must be >= 1, got 0.5"),
    ("struct_dim = 0", "struct_dim must be >= 1, got 0"),
    ("struct_epochs = -2", "struct_epochs must be >= 1, got -2"),
    ("struct_lr = 0", "struct_lr must be > 0, got 0.0"),
    ("lambda_align = nan", "lambda_align must be >= 0, got nan"),
    ("lambda_recon = nan", "lambda_recon must be >= 0, got nan"),
    ("lambda_scatter = inf", "lambda_scatter must be finite, got inf"),
    ("gamma = inf", "gamma must be finite, got inf"),
    ("learning_rate = inf", "learning_rate must be finite, got inf"),
    ("struct_lr = inf", "struct_lr must be finite, got inf"),
    ("struct_lr_min = nan", "struct_lr_min must be >= 0, got nan"),
    ("struct_lr_min = -1", "struct_lr_min must be >= 0, got -1.0"),
])
def test_bad_train_setting_fails_before_the_work(tmp_path, monkeypatch, capsys,
                                                 setting, message):
    from mug import bundle
    monkeypatch.setattr(bundle, "load_bundle", _no_work)
    argv = ["pretrain", "--data", str(tmp_path / "bundle"), "--out", str(tmp_path / "m.ckpt")]
    where = ""                   # a flag's fault names no file; a config line's names it
    if setting.startswith("--"):
        argv += setting.split()
    else:
        config = str(tmp_path / "train.cfg")
        with open(config, "w") as fh:
            fh.write(setting + "\n")
        argv += ["--config", config]
        where = f"{config}:1: "
    assert main(argv) == EXIT_DATA
    assert capsys.readouterr().err == f"error: {where}{message}\n"


@pytest.mark.parametrize("command", ["pretrain", "eval"])
@pytest.mark.parametrize("text, message", [
    ("gamma = nan\nwindow = 0\n", "{config}:1: gamma must be >= 1, got nan"),
    ("window = 0\n", "{config}:1: window must be >= 1, got 0"),
    # neg_distribution was the one text setting; it is removed like kshot_repeats
    ("neg_distribution = uniform\n", "{config}:1: unknown key 'neg_distribution'"),
    ("test_size = 0\n", "{config}:1: test_size must be >= 1, got 0"),
    ("kshot_repeats = 0\n", "{config}:1: unknown key 'kshot_repeats'"),   # a removed key
], ids=["train-keys", "walk-key", "text-key", "split-key", "kshot-key"])
def test_every_command_that_reads_a_config_checks_all_of_it(tmp_path, monkeypatch, capsys,
                                                            command, text, message):
    from mug import bundle, fusion
    monkeypatch.setattr(bundle, "load_bundle", _no_work)
    monkeypatch.setattr(fusion, "load_checkpoint", _no_work)
    config = str(tmp_path / "bad.cfg")
    with open(config, "w") as fh:
        fh.write(text)
    data, model = str(tmp_path / "bundle"), str(tmp_path / "model.ckpt")
    argv = {"pretrain": ["pretrain", "--data", data, "--out", model],
            "eval": ["eval", "--model", model, "--train-data", data, "--eval-data", data,
                     "--out", str(tmp_path / "report.csv")]}[command]
    assert main(argv + ["--config", config]) == EXIT_DATA
    assert capsys.readouterr().err == f"error: {message.format(config=config)}\n"
    assert os.listdir(tmp_path) == ["bad.cfg"]   # no echo written


FLOAT_KEYS = [key for key, value in cfgmod.defaults().items() if type(value) is float]


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_every_float_setting_refuses_nan_and_inf(tmp_path, monkeypatch, capsys, key, value):
    from mug import bundle
    monkeypatch.setattr(bundle, "load_bundle", _no_work)
    config = str(tmp_path / "bad.cfg")
    with open(config, "w") as fh:
        fh.write(f"{key} = {value}\n")
    assert main(["pretrain", "--data", str(tmp_path / "bundle"), "--config", config,
                 "--out", str(tmp_path / "m.ckpt")]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith(f"error: {config}:1: {key} must be "), err
    assert err.endswith(f", got {value}\n"), err


def test_eval_bundles_sharing_a_name_fail_before_the_work(tmp_path, monkeypatch, capsys):
    from mug import fusion
    monkeypatch.setattr(fusion, "load_checkpoint", _no_work)
    first, second = str(tmp_path / "x" / "B"), str(tmp_path / "y" / "B") + os.sep
    argv = ["eval", "--model", str(tmp_path / "model.ckpt"), "--train-data", first,
            "--eval-data", first, second]
    assert main(argv) == EXIT_DATA
    assert capsys.readouterr().err == (f"error: --eval-data {first} and {second} "
                                       f"share the bundle name 'B'\n")


def test_eval_train_data_without_a_schema_fails_before_the_work(tmp_path, monkeypatch,
                                                                  capsys):
    # the train bundle is only named in the report, so it is checked, not loaded
    from mug import bundle, fusion
    monkeypatch.setattr(bundle, "load_bundle", _no_work)
    monkeypatch.setattr(fusion, "load_checkpoint", _no_work)
    missing = str(tmp_path / "no" / "such")
    argv = ["eval", "--model", str(tmp_path / "model.ckpt"), "--train-data", missing,
            "--eval-data", str(tmp_path / "bundle")]
    assert main(argv) == EXIT_DATA
    assert capsys.readouterr().err == (f"error: {os.path.join(missing, 'schema.json')}: "
                                       f"file not found\n")


def test_eval_prints_each_warning_as_one_line(tmp_path, bundle, checkpoint):
    config = str(tmp_path / "shrink.cfg")
    with open(config, "w") as fh:   # 45 nodes left after the train draw: val/test shrink
        fh.write("per_class_train = 5\nval_size = 40\ntest_size = 40\n")
    proc = run_child(["eval", "--model", checkpoint, "--train-data", bundle,
                      "--eval-data", bundle, "--repeats", "2", "--config", config])
    assert proc.returncode == EXIT_OK, proc.stderr
    assert "UserWarning" not in proc.stderr and "splits = [" not in proc.stderr
    assert proc.stderr.splitlines() == ["warning: val/test shrunk to 22/23 "
                                        "(45 labeled nodes left)"]


# -- process start --------------------------------------------------------------------


def test_cli_import_loads_no_heavy_module():
    # every command pays its imports: scipy.sparse alone costs ~0.2 s and ~22 MB RSS
    code = ("import sys, mug.cli; print(sorted(m for m in sys.modules if m.split('.')[0] in "
            "('scipy', 'multiprocessing') or m.startswith('concurrent.futures')))")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(mug.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# a command's fresh process, its exit code and the mug modules it imported
IMPORTS_RUN = ("import json, sys; from mug import cli; code = cli.main(sys.argv[1:]); "
               "print(json.dumps(sorted(m for m in sys.modules if m.startswith('mug.')))); "
               "sys.exit(code)")


@pytest.mark.parametrize("command, unloaded", [
    ("homophily", ("config", "fusion", "metamae", "structenc", "kernels", "dimalign",
                   "evalkit", "gradsuite", "autodiff", "synth")),
    ("pretrain", ("gradsuite", "autodiff", "synth", "evalkit")),
    ("embed", ("gradsuite", "autodiff", "synth", "evalkit")),
    ("synth", ("fusion", "metamae", "structenc", "kernels", "dimalign", "evalkit", "gradsuite",
               "autodiff")),
])
def test_a_command_imports_only_the_modules_it_runs(tmp_path, tiny_run, command, unloaded):
    # each command is a process of its own, which pays for every module it imports
    argv = {"homophily": ["homophily", "--data", tiny_run[0], "--out", str(tmp_path / "h.csv")],
            "pretrain": ["pretrain", "--data", tiny_run[0], "--no-cse", "--epochs", "1",
                         "--out", str(tmp_path / "m.ckpt")],
            "embed": ["embed", "--model", tiny_run[1], "--data", tiny_run[0],
                      "--out", str(tmp_path / "z.tsv")],
            "synth": ["synth", "--out", str(tmp_path / "b")]}[command]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(mug.__file__)))
    proc = subprocess.run([sys.executable, "-c", IMPORTS_RUN, *argv], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == EXIT_OK, proc.stderr
    loaded = set(json.loads(proc.stdout.splitlines()[-1]))
    assert "mug.bundle" in loaded and "mug.hetgraph" in loaded
    assert not loaded & {f"mug.{name}" for name in unloaded}, sorted(loaded)


# -- determinism across BLAS thread counts --------------------------------------------


def test_pretrain_and_embed_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # OpenBLAS's products change bits with its thread count from ~600 rows up
    spec = tiny_spec(tmp_path, targets_per_class=334)
    data = str(tmp_path / "k1")
    assert main(["synth", "--spec", spec, "--out", data, "--seed", "1"]) == EXIT_OK
    digests = set()
    for threads in (None, 1, 2):
        ckpt, emb = str(tmp_path / f"{threads}.ckpt"), str(tmp_path / f"{threads}.tsv")
        for args in (["pretrain", "--data", data, "--out", ckpt, "--no-cse", "--epochs", "2"],
                     ["embed", "--model", ckpt, "--data", data, "--out", emb]):
            proc = run_child(args, threads)
            assert proc.returncode == EXIT_OK, proc.stderr
        digests.add((file_sha(ckpt), file_sha(emb)))
    assert len(digests) == 1


# -- gradcheck ---------------------------------------------------------------------


def test_gradcheck_prints_a_pass_line_for_each_default_check(capsys):
    assert main(["gradcheck", "--instances", "2"]) == EXIT_OK
    *lines, summary = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in lines] == [
        ["pass", check.name] for check in gradsuite.default_checks()]
    assert summary == f"{len(lines)}/{len(lines)} gradient checks passed"


def test_list_view_checks_run_the_edge_list_operator(monkeypatch):
    kinds = []
    normalized_operator = metamae.normalized_operator

    def recording(edges, dtype):
        op = normalized_operator(edges, dtype)
        kinds.append(op.starts is None)
        return op

    monkeypatch.setattr(metamae, "normalized_operator", recording)
    for check in gradsuite.default_checks():
        if check.name.endswith("list_views"):
            rng = np.random.default_rng(0)
            check.function_for(rng)(check.make_params(rng))
    assert kinds == [True] * (2 + 3)   # one list build per view, kept for backward


@pytest.mark.parametrize("instances", ["0", "-3"])
def test_gradcheck_refuses_fewer_than_one_instance(capsys, instances):
    assert main(["gradcheck", "--instances", instances]) == EXIT_DATA
    captured = capsys.readouterr()
    assert captured.err == f"error: --instances must be >= 1, got {instances}\n"
    assert captured.out == ""


def test_gradcheck_detects_injected_wrong_gradient():
    # a loss of 2 * sum(X) whose gradient is deliberately wrong: it is dropped
    def make_params(rng):
        return {"X": rng.uniform(-1, 1, size=(2, 2))}

    def function_for(rng):
        return lambda p: (2.0 * p["X"].sum(), {"X": np.zeros_like(p["X"])})

    results = gradsuite.run_suite(
        [gradsuite.Check("broken", make_params, function_for)], instances=1)
    assert not results[0].passed
    # and the CLI maps failures to the numerical-failure exit code
    from mug import cli

    class FakeArgs:
        instances = 1
        seed = 0

    original = gradsuite.run_suite
    gradsuite.run_suite = lambda instances, seed: results
    try:
        assert cli.cmd_gradcheck(FakeArgs()) == EXIT_NUMERIC
    finally:
        gradsuite.run_suite = original


def test_sgns_check_fails_on_a_wrong_kernel_step(monkeypatch):
    checks = [c for c in gradsuite.default_checks() if c.name == "struct_sgns_pair_loss"]
    assert gradsuite.run_suite(checks, instances=3)[0].passed
    real = kernels.sgns_epoch

    def scaled(center, context, centers, contexts, negatives, lr_start, lr_end, *rest):
        return real(center, context, centers, contexts, negatives,
                    lr_start * 1.01, lr_end * 1.01, *rest)

    monkeypatch.setattr(kernels, "sgns_epoch", scaled)
    assert not gradsuite.run_suite(checks, instances=3)[0].passed


# -- usage ----------------------------------------------------------------------


def test_usage_error_exit_code():
    assert main(["synth"]) == EXIT_USAGE          # missing --out
    assert main(["no-such-command"]) == EXIT_USAGE


def test_missing_bundle_exit_code(tmp_path):
    assert main(["homophily", "--data", str(tmp_path / "nope")]) == EXIT_DATA


def _entry_line(lines, section, name):
    start = lines.index(f"[{section}]")
    return next(j for j in range(start, len(lines)) if lines[j].startswith(name + " "))


def _edit_line(lines, section, name, text):
    i = _entry_line(lines, section, name)
    return lines[:i] + [text] + lines[i + 1:]


def _edit_matrix_row(lines, section, name, edit):
    i = _entry_line(lines, section, name) + 1
    return lines[:i] + [" ".join(edit(lines[i].split(" ")))] + lines[i + 1:]


def _without_matrix(lines, section, name):
    i = _entry_line(lines, section, name)
    return lines[:i] + lines[i + 1 + int(lines[i].split(" ")[1]):]


def _swap_matrices(lines, section, first, second):
    i = _entry_line(lines, section, first)
    j = i + 1 + int(lines[i].split(" ")[1])
    k = j + 1 + int(lines[j].split(" ")[1])
    return lines[:i] + lines[j:k] + lines[i:j] + lines[k:]


def _at_first_row(name, text):
    """The message for a fault in matrix name's first row, at that row's line."""
    return lambda lines: f":{_entry_line(lines, 'params', name) + 2}: {text}"


# [meta] is sorted by key: edge_mask_rate is line 3, and [params] follows window at line 22
@pytest.mark.parametrize("damage, message", [
    (lambda lines: lines[:_entry_line(lines, "params", "att.bias") + 1],
     ": [params] matrix 'att.bias' is cut short"),
    (lambda lines: _without_matrix(lines, "params", "att.q"),
     ": [params] expected matrix header 'att.q 16 1' (shape from [meta]), "
     "found 'att.weight 16 16'"),
    (lambda lines: _edit_matrix_row(lines, "params", "enc.weight",
                                    lambda row: ["abc"] + row[1:]),
     _at_first_row("enc.weight", "non-numeric value")),
    (lambda lines: _edit_matrix_row(lines, "params", "dec.bias", lambda row: row + row),
     _at_first_row("dec.bias", "expected 16 values, got 32")),
    (lambda lines: _edit_matrix_row(lines, "params", "enc.weight",
                                    lambda row: row[:3] + ["nan"] + row[4:]),
     _at_first_row("enc.weight", "non-finite value")),
    (lambda lines: _edit_matrix_row(lines, "params", "att.q", lambda row: ["-1e400"]),
     _at_first_row("att.q", "non-finite value")),
    (lambda lines: _edit_line(lines, "meta", "sample_size", "sample_size = x"),
     ":13: bad value for 'sample_size': 'x'"),
    (lambda lines: _edit_line(lines, "meta", "struct_dim", "struct_dim = x"),
     ":15: bad value for 'struct_dim': 'x'"),
    (lambda lines: _edit_line(lines, "meta", "struct_dim", "walk.dim = 16"),
     ":15: unknown key 'walk.dim'"),
    (lambda lines: _edit_line(lines, "meta", "seed", "struct_epochs = 5"),
     ":16: repeated key 'struct_epochs'"),
    (lambda lines: _edit_line(lines, "meta", "struct_lr_min", "struct_lr_min ="),
     ":18: bad value for 'struct_lr_min': ''"),
    (lambda lines: [line for line in lines if not line.startswith("struct_epochs ")],
     ": [meta] has no 'struct_epochs'"),
    (lambda lines: _edit_line(lines, "meta", "sample_size", "sample_size = 15"),
     ": [params] expected matrix header 'dim.weight 15 16' (shape from [meta]), "
     "found 'dim.weight 16 16'"),
    (lambda lines: _edit_line(lines, "meta", "gamma", "gamma = 0.5"),
     ":5: gamma must be >= 1, got 0.5"),
    (lambda lines: _edit_line(lines, "meta", "seed", "seed 0"),
     ":14: expected key=value"),
    (lambda lines: _edit_line(lines, "params", "enc.bias", "enc.gain 1 16"),
     ": [params] expected matrix header 'enc.bias 1 16'"),
    (lambda lines: _swap_matrices(lines, "params", "enc.weight", "enc.bias"),
     ": [params] expected matrix header 'enc.weight 16 16' (shape from [meta]), "
     "found 'enc.bias 1 16'"),
    (lambda lines: ["MUG-CKPT v1"] + lines[1:], ": not a 'MUG-CKPT v6' checkpoint"),
    (lambda lines: ["MUG-CKPT v2"] + lines[1:], ": not a 'MUG-CKPT v6' checkpoint"),
    (lambda lines: ["MUG-CKPT v3"] + lines[1:], ": not a 'MUG-CKPT v6' checkpoint"),
    (lambda lines: ["MUG-CKPT v4"] + lines[1:], ": not a 'MUG-CKPT v6' checkpoint"),
    (lambda lines: ["MUG-CKPT v5"] + lines[1:], ": not a 'MUG-CKPT v6' checkpoint"),
], ids=["matrix-cut-short", "matrix-missing", "matrix-non-numeric", "matrix-ragged-row",
        "matrix-nan", "matrix-overflow",
        "sample-size-not-int", "meta-walk-dim-not-int", "meta-dotted-key",
        "meta-repeated-key", "meta-keyed-field-empty", "meta-keyed-field-missing",
        "meta-sample-size-disagrees", "meta-out-of-bound", "meta-v4-line",
        "params-unknown-name", "params-out-of-order", "v1-header", "v2-header", "v3-header",
        "v4-header", "v5-header"])
def test_malformed_checkpoint_exit_code(tmp_path, bundle, checkpoint, capsys, damage,
                                        message):
    lines = open(checkpoint).read().split("\n")
    if callable(message):
        message = message(lines)
    bad = str(tmp_path / "bad.ckpt")
    with open(bad, "w") as fh:
        fh.write("\n".join(damage(lines)))
    assert main(["embed", "--model", bad, "--data", bundle,
                 "--out", str(tmp_path / "z.tsv")]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}{message}"), err


# -- malformed input, at random ----------------------------------------------------


TABLES = ("nodes.tsv", "edges.tsv", "features.paper.tsv", "labels.tsv")
TOKENS = st.one_of(st.text(max_size=8), st.integers().map(str),
                   st.sampled_from(["", "nan", "inf", "-0", "paper", "author", "pa",
                                    "p0", "a0", "1e400", "\t", "\n", "\r"]))


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """A 21-node bundle and a 1-epoch --no-cse checkpoint with 4 x 3 weights."""
    root = tmp_path_factory.mktemp("tiny")
    out = str(root / "bundle")
    aux = [{"name": "author", "size": 6}, {"name": "subject", "size": 3}]
    assert main(["synth", "--spec", tiny_spec(root, targets_per_class=4, aux_types=aux),
                 "--out", out]) == EXIT_OK
    cfg = str(root / "run.cfg")
    with open(cfg, "w") as fh:
        fh.write("epochs = 1\nsample_size = 4\nunified_dim = 3\n")
    ckpt = str(root / "model.ckpt")
    assert main(["pretrain", "--data", out, "--config", cfg, "--no-cse",
                 "--out", ckpt]) == EXIT_OK
    return out, ckpt


@settings(max_examples=50, deadline=None)
@given(table=st.sampled_from(TABLES), line=st.integers(0, 10**6),
       cell=st.integers(0, 10**6), token=TOKENS)
def test_homophily_on_a_bundle_with_one_random_cell_never_raises(tiny_run, table, line,
                                                                  cell, token):
    with tempfile.TemporaryDirectory() as tmp:
        data = shutil.copytree(tiny_run[0], os.path.join(tmp, "b"))
        path = os.path.join(data, table)
        with open(path, encoding="utf-8") as fh:
            rows = [r.split("\t") for r in fh.read().splitlines()]
        row = rows[line % len(rows)]
        row[cell % len(row)] = token
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("".join("\t".join(r) + "\n" for r in rows))
        assert main(["homophily", "--data", data]) in (EXIT_OK, EXIT_DATA)


def _not_a_number(token):
    try:
        float(token)
    except ValueError:
        return True
    return False


@settings(max_examples=50, deadline=None)
@given(line=st.integers(0, 10**6),
       token=st.text(st.characters(blacklist_categories=("Zs", "Zl", "Zp", "Cc", "Cs")),
                     min_size=1, max_size=12).filter(_not_a_number))
def test_embed_with_one_corrupt_checkpoint_line_exits_with_data_error(tiny_run, line,
                                                                      token):
    """A non-numeric token without spaces leaves no checkpoint line valid: not a
    header, a section name, the 'key = value' line it replaces or a row of numbers."""
    data, ckpt = tiny_run
    with open(ckpt, encoding="utf-8") as fh:
        lines = fh.read().split("\n")[:-1]
    i = line % len(lines)
    assume(token != lines[i])
    with tempfile.TemporaryDirectory() as tmp:
        bad = os.path.join(tmp, "bad.ckpt")
        with open(bad, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines[:i] + [token] + lines[i + 1:]) + "\n")
        assert main(["embed", "--model", bad, "--data", data,
                     "--out", os.path.join(tmp, "z.tsv")]) == EXIT_DATA


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400", "-1e999"])
def test_non_finite_feature_names_its_file_and_line(tmp_path, bundle, capsys, value):
    path = os.path.join(bundle, "features.paper.tsv")
    with open(path) as fh:
        rows = fh.read().splitlines()
    cells = rows[5].split("\t")
    rows[5] = "\t".join(cells[:2] + [value] + cells[3:])
    with open(path, "w") as fh:
        fh.write("\n".join(rows) + "\n")
    assert main(["pretrain", "--data", bundle, "--out", str(tmp_path / "m.ckpt")]) == EXIT_DATA
    assert capsys.readouterr().err == f"error: {path}:6: non-finite value\n"


def _edit_table(tmp_path, data, table, edit):
    """A copy of bundle data whose table has each line's cells replaced by edit(i, cells)."""
    copy = shutil.copytree(data, str(tmp_path / "edited"))
    path = os.path.join(copy, table)
    with open(path, encoding="utf-8") as fh:
        rows = [edit(i, line.split("\t")) for i, line in enumerate(fh.read().splitlines())]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join("\t".join(cells) + "\n" for cells in rows))
    return copy, path


@pytest.mark.parametrize("edit, message", [
    (lambda cells: cells[:-1], ":2: expected 5 columns, got 6"),
    (lambda cells: cells + ["f5"], ":2: expected 7 columns, got 6"),
], ids=["narrower", "wider"])
def test_feature_header_of_another_width_than_its_rows_names_line_2(tmp_path, tiny_run,
                                                                     capsys, edit, message):
    data, path = _edit_table(tmp_path, tiny_run[0], "features.paper.tsv",
                             lambda i, cells: edit(cells) if i == 0 else cells)
    assert main(["homophily", "--data", data]) == EXIT_DATA
    assert capsys.readouterr().err == f"error: {path}{message}\n"


@pytest.mark.parametrize("table, width", [("nodes.tsv", 2), ("edges.tsv", 3),
                                          ("labels.tsv", 2)])
@pytest.mark.parametrize("extra", [-1, 1], ids=["narrower", "wider"])
def test_table_header_of_the_wrong_width_names_line_1(tmp_path, tiny_run, capsys, table,
                                                      width, extra):
    data, path = _edit_table(tmp_path, tiny_run[0], table, lambda i, cells: (
        (cells + ["x"])[:width + extra] if i == 0 else cells))
    assert main(["homophily", "--data", data]) == EXIT_DATA
    assert capsys.readouterr().err == (f"error: {path}:1: expected {width} columns, "
                                       f"got {width + extra}\n")


@pytest.mark.parametrize("table, header", [
    ("nodes.tsv", "node_id, type"), ("edges.tsv", "src_id, relation, dst_id"),
    ("labels.tsv", "node_id, class_id"), ("features.paper.tsv", "node_id")])
def test_table_without_its_header_line_names_line_1(tmp_path, tiny_run, capsys, table,
                                                    header):
    data, path = _edit_table(tmp_path, tiny_run[0], table, lambda i, cells: cells)
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines(keepends=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines[1:])
    assert main(["homophily", "--data", data]) == EXIT_DATA
    assert capsys.readouterr().err == f"error: {path}:1: expected a header of {header}\n"


@pytest.mark.parametrize("table, cells, header", [
    ("nodes.tsv", ["node_id", "kind"], "node_id, type"),
    ("edges.tsv", ["src_id", "dst_id", "relation"], "src_id, relation, dst_id"),
    ("labels.tsv", ["node_id", "class"], "node_id, class_id")])
def test_a_header_whose_first_name_is_right_and_a_later_one_wrong_names_line_1(
        tmp_path, tiny_run, capsys, table, cells, header):
    # every name of the header is checked, not just the first
    data, path = _edit_table(tmp_path, tiny_run[0], table,
                             lambda i, row: cells if i == 0 else row)
    assert main(["homophily", "--data", data]) == EXIT_DATA
    assert capsys.readouterr().err == f"error: {path}:1: expected a header of {header}\n"


def test_one_column_features_file_is_refused(tmp_path, tiny_run, capsys):
    data, path = _edit_table(tmp_path, tiny_run[0], "features.paper.tsv",
                             lambda i, cells: cells[:1])
    assert main(["homophily", "--data", data]) == EXIT_DATA
    assert capsys.readouterr().err == (f"error: {path}:2: expected node_id plus at least "
                                       f"one value\n")


@pytest.mark.parametrize("flag", ["--model", "--config", "--spec"])
def test_missing_input_file_is_named(tmp_path, tiny_run, capsys, flag):
    nope = str(tmp_path / "nope")
    argv = {"--model": ["embed", "--model", nope, "--data", tiny_run[0],
                        "--out", str(tmp_path / "z.tsv")],
            "--config": ["pretrain", "--data", tiny_run[0], "--config", nope,
                         "--out", str(tmp_path / "m.ckpt")],
            "--spec": ["synth", "--spec", nope, "--out", str(tmp_path / "b")]}[flag]
    assert main(argv) == EXIT_DATA
    assert capsys.readouterr().err == f"error: {nope}: file not found\n"


@pytest.mark.parametrize("command", ["embed", "pretrain", "homophily"])
def test_input_path_that_is_no_readable_file_is_named(tmp_path, tiny_run, capsys, command):
    data, ckpt = tiny_run
    folder = str(tmp_path)
    argv, path, reason = {
        "embed": (["embed", "--model", folder, "--data", data,
                   "--out", str(tmp_path / "z.tsv")], folder, "is a directory"),
        "pretrain": (["pretrain", "--data", data, "--config", folder,
                      "--out", str(tmp_path / "m.ckpt")], folder, "is a directory"),
        "homophily": (["homophily", "--data", ckpt], os.path.join(ckpt, "schema.json"),
                      "not a directory")}[command]
    assert main(argv) == EXIT_DATA
    assert capsys.readouterr().err == f"error: {path}: {reason}\n"


def test_line_after_the_last_checkpoint_matrix_names_its_line(tmp_path, tiny_run, capsys):
    data, ckpt = tiny_run
    with open(ckpt, encoding="utf-8") as fh:
        lines = fh.read().split("\n")[:-1]
    bad = str(tmp_path / "bad.ckpt")
    with open(bad, "w", encoding="utf-8") as fh:   # the blank line is counted, not read
        fh.write("\n".join(lines + ["", "0.5"]) + "\n")
    assert main(["embed", "--model", bad, "--data", data,
                 "--out", str(tmp_path / "z.tsv")]) == EXIT_DATA
    assert capsys.readouterr().err == (f"error: {bad}:{len(lines) + 2}: [params] unexpected "
                                       f"line after the last matrix: '0.5'\n")


@pytest.mark.parametrize("table, message", [
    ("labels.tsv", "second label row for node 'paper0'"),
    ("features.paper.tsv", "second feature row for node 'paper0'"),
])
def test_second_row_for_a_node_names_its_line(bundle, capsys, table, message):
    path = os.path.join(bundle, table)
    with open(path) as fh:
        rows = fh.read().splitlines()
    again = rows[1].split("\t")
    if table == "labels.tsv":    # a different class: the last row must not win
        again[1] = str((int(again[1]) + 1) % 3)
    rows.append("\t".join(again))
    with open(path, "w") as fh:
        fh.write("\n".join(rows) + "\n")
    assert main(["homophily", "--data", bundle]) == EXIT_DATA
    assert capsys.readouterr().err == f"error: {path}:{len(rows)}: {message}\n"


def _damage_schema(bundle, damage):
    """Edit a bundle's schema.json in place; returns its path."""
    path = os.path.join(bundle, "schema.json")
    with open(path) as fh:
        schema = json.load(fh)
    damage(schema)
    with open(path, "w") as fh:
        json.dump(schema, fh)
    return path


@pytest.mark.parametrize("damage", [
    lambda s: s["relations"][0].pop("src"),
    lambda s: s["relations"][0].pop("dst"),
    lambda s: s["metapaths"][0].pop("steps"),
    lambda s: s.update(node_types=7),
    lambda s: s["metapaths"][0].update(steps=5),
    lambda s: s.update(target_type=[s["target_type"]]),
], ids=["relation-no-src", "relation-no-dst", "metapath-no-steps", "node-types-not-list",
        "metapath-steps-not-list", "target-type-list"])
def test_malformed_schema_exit_code(bundle, capsys, damage):
    _damage_schema(bundle, damage)
    assert main(["homophily", "--data", bundle]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error:") and "schema.json" in err


def test_a_schema_that_is_not_an_object_exits_with_data_error(bundle, capsys):
    path = os.path.join(bundle, "schema.json")
    with open(path, "w") as fh:
        json.dump("node_types relations target_type metapaths", fh)   # each key is "in" it
    assert main(["homophily", "--data", bundle]) == EXIT_DATA
    assert capsys.readouterr().err == f"error: {path}: schema must be a JSON object, got str\n"


def _set_step(entry, i, value):
    entry["steps"][i] = value


@pytest.mark.parametrize("where, damage, message", [
    ("spec", lambda s: s.update(relations=5), "spec key 'relations' must be a list, got 5"),
    ("schema", lambda s: s.update(relations=5), "schema key 'relations' must be a list, got 5"),
    ("spec", lambda s: s.update(metapaths={"name": "PAP"}),
     "spec key 'metapaths' must be a list, got {\"name\": \"PAP\"}"),
    ("schema", lambda s: s.update(metapaths=7), "schema key 'metapaths' must be a list, got 7"),
    ("spec", lambda s: s.update(target_type=["paper"]),
     "spec key 'target_type' must be a name, got [\"paper\"]"),
    ("schema", lambda s: s.update(target_type=["paper"]),
     "schema key 'target_type' must be a name, got [\"paper\"]"),
    ("spec", lambda s: s["aux_types"][1].update(name=["subject"]),
     "aux_types[1] key 'name' must be a name, got [\"subject\"]"),
    ("schema", lambda s: s["relations"][1].update(dst=["subject"]),
     "relations[1] key 'dst' must be a name, got [\"subject\"]"),
    ("spec", lambda s: s.update(noise="0.5"), "spec key 'noise' must be a number, got \"0.5\""),
    ("schema", lambda s: s.update(node_types="paper"),
     "schema key 'node_types' must be a list of names, got \"paper\""),
    ("schema", lambda s: s["node_types"].append(5),
     "schema key 'node_types' must be a list of names, got [\"paper\", \"author\", "
     "\"subject\", 5]"),
    ("spec", lambda s: _set_step(s["metapaths"][1], 2, 2),
     "metapaths[1] key 'steps' must be a list of names, "
     "got [\"paper\", \"ps\", 2, \"ps\", \"paper\"]"),
    ("schema", lambda s: _set_step(s["metapaths"][1], 2, None),
     "metapaths[1] key 'steps' must be a list of names, "
     "got [\"paper\", \"ps\", null, \"ps\", \"paper\"]"),
], ids=["spec-relations-number", "schema-relations-number", "spec-metapaths-object",
        "schema-metapaths-number", "spec-target-list", "schema-target-list",
        "spec-aux-name-list", "schema-relation-dst-list", "spec-noise-string",
        "schema-node-types-string", "schema-node-types-number",
        "spec-step-number", "schema-step-null"])
def test_a_value_of_the_wrong_json_type_is_named_by_its_key(tmp_path, capsys, where, damage,
                                                             message):
    """The spec and schema.json are read by one reader, which names a key whose value
    is of the wrong JSON type the same way in both."""
    spec = synth.two_view_spec(targets_per_class=5)
    if where == "spec":
        damage(spec)
    path = tiny_spec(tmp_path, **spec)
    argv = ["synth", "--spec", path, "--out", str(tmp_path / "b")]
    if where == "schema":
        assert main(argv) == EXIT_OK
        path = _damage_schema(str(tmp_path / "b"), damage)
        argv = ["homophily", "--data", str(tmp_path / "b")]
    capsys.readouterr()
    assert main(argv) == EXIT_DATA
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


def _rename(entries, old, new):
    next(e for e in entries if e["name"] == old)["name"] = new


@pytest.mark.parametrize("damage, message", [
    (lambda s: s["node_types"].append("author"), "node type 'author' is declared twice"),
    (lambda s: _rename(s["relations"], "ps", "pa"), "relation 'pa' is declared twice"),
    (lambda s: _rename(s["metapaths"], "PSP", "PAP"), "meta-path 'PAP' is declared twice"),
], ids=["node-type", "relation", "meta-path"])
def test_a_schema_name_declared_twice_exits_with_data_error(bundle, capsys, damage, message):
    path = _damage_schema(bundle, damage)
    assert main(["homophily", "--data", bundle]) == EXIT_DATA
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


@pytest.mark.parametrize("damage, message", [
    (lambda s: s["relations"][0].update(src="autor"),
     "relation 'pa' references unknown type 'autor'"),
    (lambda s: s.update(target_type="ghost"), "target type 'ghost' not declared"),
    (lambda s: s["metapaths"][0]["steps"].pop(),
     "meta-path 'PAP': steps must alternate type,rel,...,type (odd length >= 3), got 4 entries"),
    (lambda s: s["metapaths"][1].update(steps=["paper", "ps", "paper", "ps", "subject"]),
     "meta-path 'PSP' must start and end at the target type 'paper'"),
    (lambda s: s["metapaths"][1].update(steps=["paper", "pa", "subject", "pa", "paper"]),
     "meta-path 'PSP' step 0: relation 'pa' (paper-author) cannot connect paper to subject"),
], ids=["relation-unknown-type", "target-type-undeclared", "steps-even-length",
        "metapath-off-target", "step-orientation"])
def test_a_schema_fault_is_reported_against_schema_json_before_any_row(bundle, capsys,
                                                                       damage, message):
    path = _damage_schema(bundle, damage)
    assert main(["homophily", "--data", bundle]) == EXIT_DATA
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


@pytest.mark.parametrize("damage, message", [
    (lambda s: s.update(target_typ="paper"), "schema has unknown key 'target_typ'"),
    (lambda s: s["relations"][0].update(dts="paper"), "relations[0] has unknown key 'dts'"),
    (lambda s: s["relations"][1].update(dts=s["relations"][1].pop("dst")),
     "relations[1] has unknown key 'dts'"),
    (lambda s: s["metapaths"][1].update(weight=2), "metapaths[1] has unknown key 'weight'"),
], ids=["top-level", "relation", "relation-misspelt", "meta-path"])
def test_a_schema_key_it_does_not_define_exits_with_data_error(bundle, capsys, damage,
                                                               message):
    path = _damage_schema(bundle, damage)
    assert main(["homophily", "--data", bundle]) == EXIT_DATA
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


@pytest.mark.parametrize("damage, message", [
    (lambda s: s.update(noise=float("nan")), "noise must be finite, got nan"),
    (lambda s: s.update(centroid_scale=float("inf")), "centroid_scale must be finite, got inf"),
    (lambda s: s.update(aux_centroid_scale=float("-inf")),
     "aux_centroid_scale must be finite, got -inf"),
    (lambda s: s["relations"][1].update(degree=float("nan")),
     "relation 'ps': degree must be positive and finite"),
    (lambda s: s["relations"][0].update(degree=float("inf")),
     "relation 'pa': degree must be positive and finite"),
    (lambda s: s["relations"][0].update(intra=float("nan")),
     "relation 'pa': bad attach probabilities"),
    (lambda s: s["relations"][0].update(inter=float("inf")),
     "relation 'pa': bad attach probabilities"),
], ids=["noise-nan", "centroid-scale-inf", "aux-centroid-scale-minus-inf", "degree-nan",
        "degree-inf", "intra-nan", "inter-inf"])
def test_synth_spec_with_a_non_finite_float_writes_no_bundle(tmp_path, capsys, damage,
                                                             message):
    spec = synth.two_view_spec()
    damage(spec)
    path = str(tmp_path / "spec.json")
    with open(path, "w") as fh:
        json.dump(spec, fh)   # NaN and Infinity, as JSON readers take them
    out = str(tmp_path / "b")
    assert main(["synth", "--spec", path, "--out", out]) == EXIT_DATA
    assert capsys.readouterr().err == f"error: {path}: {message}\n"
    assert not os.path.exists(out)


IO_DESTS = {"data", "out", "config", "model", "train_data", "eval_data"}


def test_every_setting_flag_is_named_by_its_config_key():
    import argparse
    from mug.cli import build_parser
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    keys = {command: {a.dest for a in sub.choices[command]._actions if a.dest != "help"} - IO_DESTS
            for command in ("pretrain", "eval")}
    assert all(dests <= set(cfgmod.defaults()) for dests in keys.values()), keys
    assert keys == {"pretrain": {"seed", "epochs", "no_cse", "no_align"},
                    "eval": {"per_class_train", "repeats", "seed"}}


def test_threads_config_key_rejected(tmp_path, bundle, capsys):
    path = str(tmp_path / "old.cfg")
    with open(path, "w") as fh:
        fh.write("threads = 1\n")
    assert main(["pretrain", "--data", bundle, "--config", path,
                 "--out", str(tmp_path / "x.ckpt")]) == EXIT_DATA
    assert "unknown key 'threads'" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--model", "--out", "--config"])
def test_directory_path_exit_code(tmp_path, bundle, checkpoint, capsys, flag):
    folder = str(tmp_path / "a_directory")
    os.mkdir(folder)
    argv = {
        "--model": ["embed", "--model", folder, "--data", bundle,
                    "--out", str(tmp_path / "z.tsv")],
        "--out": ["embed", "--model", checkpoint, "--data", bundle, "--out", folder],
        "--config": ["pretrain", "--data", bundle, "--config", folder,
                     "--out", str(tmp_path / "x.ckpt")],
    }[flag]
    assert main(argv) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error: ") and folder in err, err


@pytest.mark.parametrize("which", ["config", "schema.json"])
def test_a_leading_byte_order_mark_is_read_past(tmp_path, bundle, which):
    config = tiny_config(tmp_path)
    path = os.path.join(bundle, "schema.json") if which == "schema.json" else config
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    with open(path, "w", encoding="utf-8-sig") as fh:
        fh.write(text)
    assert main(["pretrain", "--data", bundle, "--config", config,
                 "--out", str(tmp_path / "m.ckpt")]) == EXIT_OK
    assert "epochs = 3" in open(str(tmp_path / "m.config.txt")).read().splitlines()


@pytest.mark.parametrize("which", ["checkpoint", "nodes.tsv", "config", "spec"])
def test_non_utf8_input_names_its_file(tmp_path, bundle, checkpoint, capsys, which):
    bad = str(tmp_path / "binary")
    argv = {
        "checkpoint": ["embed", "--model", bad, "--data", bundle,
                       "--out", str(tmp_path / "z.tsv")],
        "nodes.tsv": ["homophily", "--data", bundle],
        "config": ["pretrain", "--data", bundle, "--config", bad,
                   "--out", str(tmp_path / "x.ckpt")],
        "spec": ["synth", "--spec", bad, "--out", str(tmp_path / "b2")],
    }[which]
    if which == "nodes.tsv":
        bad = os.path.join(bundle, "nodes.tsv")
    with open(bad, "wb") as fh:
        fh.write(b"\xff\xfe\x00bin")
    assert main(argv) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: not UTF-8 text: "), err


# -- outputs are checked before any work -----------------------------------------------


def _no_work(*args, **kwargs):
    raise AssertionError("the command started its work before checking its outputs")


@pytest.mark.parametrize("case", [
    "pretrain --out", "pretrain trace", "pretrain echo", "pretrain no parent",
    "embed --out", "embed beta", "embed echo", "eval --out", "eval echo", "homophily --out",
])
def test_unwritable_output_fails_before_the_work(tmp_path, monkeypatch, capsys, case):
    from mug import bundle, cli, fusion
    for owner, name in ((fusion, "pretrain"), (fusion, "embed"),
                        (fusion, "load_checkpoint"), (bundle, "load_bundle"),
                        (cli, "homophily_report")):
        monkeypatch.setattr(owner, name, _no_work)
    data, model = str(tmp_path / "bundle"), str(tmp_path / "model.ckpt")
    command, what = case.split(" ", 1)
    out = str(tmp_path / ("nope/out.x" if what == "no parent" else "out.x"))
    blocked = {"--out": out, "trace": str(tmp_path / "out.trace.csv"),
               "echo": str(tmp_path / "out.config.txt"), "beta": str(tmp_path / "out.beta.csv"),
               "no parent": out}[what]
    if what != "no parent":
        os.mkdir(blocked)
    argv = {
        "pretrain": ["pretrain", "--data", data, "--out", out],
        "embed": ["embed", "--model", model, "--data", data, "--out", out],
        "eval": ["eval", "--model", model, "--train-data", data, "--eval-data", data,
                 "--out", out],
        "homophily": ["homophily", "--data", data, "--out", out],
    }[command]
    assert main(argv) == EXIT_DATA
    reason = "parent directory does not exist" if what == "no parent" else "is a directory"
    assert capsys.readouterr().err == f"error: {blocked}: {reason}\n"


# -- single-edit fuzz of every input file ------------------------------------------

FUZZ_BUNDLE = ("schema.json", "nodes.tsv", "edges.tsv", "features.paper.tsv", "labels.tsv")
# bounded values only, so that no edit of a setting makes a run long or large
FUZZ_TOKENS = st.one_of(
    st.integers(-3, 64).map(str),
    st.sampled_from(["", "nan", "inf", "-inf", "-0", "0.5", "1e-300", "1e400", "True",
                     "False", "paper", "author", "subject", "pa", "ps", "paper0", "author5",
                     "PAP", "\t", "\r", " ", "=", "\ufeff", "[meta]", "[params]"]),
    st.text(st.characters(blacklist_categories=("Nd", "Cs")), max_size=6))
FUZZ_EDITS = st.one_of(
    st.tuples(st.sampled_from(["delete", "duplicate", "cut"]), st.integers(0, 10**6)),
    st.tuples(st.just("token"), st.integers(0, 10**6), st.integers(0, 10**6), FUZZ_TOKENS),
    st.tuples(st.just("insert"), st.integers(0, 10**6), st.integers(0, 255)))


def _edited(data, edit):
    """data with one edit: a line deleted or duplicated, a token put in a field
    (the text between separators), the file cut short, or a byte inserted."""
    kind, at, *rest = edit
    if kind == "cut":
        return data[:at % len(data)]
    if kind == "insert":
        at %= len(data) + 1
        return data[:at] + bytes([rest[0]]) + data[at:]
    lines = data.decode("utf-8").split("\n")
    i = at % len(lines)
    if kind == "delete":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    else:
        fields = re.split(r"([\t =,:\"\[\]{}])", lines[i])   # separators at odd indices
        fields[2 * (rest[0] % ((len(fields) + 1) // 2))] = rest[1]
        lines[i] = "".join(fields)
    return "\n".join(lines).encode("utf-8")


@pytest.fixture(scope="module")
def fuzz_run(tiny_run, tmp_path_factory):
    """tiny_run's bundle, a config with a small walk (so an edit that turns the struct
    encoder on stays fast), and a checkpoint trained with it."""
    root = tmp_path_factory.mktemp("fuzz")
    cfg = str(root / "run.cfg")
    with open(cfg, "w") as fh:
        fh.write("epochs = 1\nsample_size = 4\nunified_dim = 3\nno_cse = True\n"
                 "struct_dim = 4\nstruct_epochs = 1\nwalks_per_node = 1\nwalk_length = 4\n"
                 "window = 2\n")
    ckpt = str(root / "model.ckpt")
    assert main(["pretrain", "--data", tiny_run[0], "--config", cfg,
                 "--out", ckpt]) == EXIT_OK
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(_fuzz_eval(ckpt, tiny_run[0])) == EXIT_OK   # the unedited bundle splits
    return tiny_run[0], cfg, ckpt


def _fuzz_eval(ckpt, data):
    """eval on tiny_run's 4 targets per class: one train node each, one split."""
    return ["eval", "--model", ckpt, "--train-data", data, "--eval-data", data,
            "--shots", "1", "--repeats", "1"]


@settings(max_examples=200, deadline=None)
@given(target=st.sampled_from(FUZZ_BUNDLE + ("checkpoint", "config", "eval labels")),
       command=st.sampled_from(["homophily", "pretrain", "embed"]), edit=FUZZ_EDITS)
def test_one_edit_of_any_input_file_exits_0_or_2_naming_the_file(fuzz_run, target, command,
                                                                 edit):
    data, cfg, ckpt = fuzz_run
    if target == "eval labels":
        target, command = "labels.tsv", "eval"
    with tempfile.TemporaryDirectory() as tmp:
        if target in FUZZ_BUNDLE:
            data = shutil.copytree(data, os.path.join(tmp, "b"))
            source = path = os.path.join(data, target)
        elif target == "config":
            source, cfg = cfg, os.path.join(tmp, "run.cfg")
            path, command = cfg, "pretrain"
        else:
            source, ckpt = ckpt, os.path.join(tmp, "model.ckpt")
            path, command = ckpt, "embed"
        with open(source, "rb") as fh:
            edited = _edited(fh.read(), edit)
        with open(path, "wb") as fh:
            fh.write(edited)
        args = {"homophily": ["homophily", "--data", data],
                "pretrain": ["pretrain", "--data", data, "--config", cfg, "--epochs", "1",
                             "--no-cse", "--out", os.path.join(tmp, "m.ckpt")],
                "embed": ["embed", "--model", ckpt, "--data", data,
                          "--out", os.path.join(tmp, "z.tsv")],
                "eval": _fuzz_eval(ckpt, data)}[command]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(args)
    assert code in (EXIT_OK, EXIT_DATA), err.getvalue()
    if code == EXIT_DATA:   # a reference from another file to a row the edit removed is
        # reported at the reference, naming the edited file there
        error = next(line for line in err.getvalue().splitlines() if line.startswith("error: "))
        assert (error.startswith(f"error: {path}")
                or f" {os.path.basename(path)}" in error), (error, edited)


@settings(max_examples=100, deadline=None)
@given(edit=FUZZ_EDITS)
def test_one_edit_of_a_synth_spec_exits_0_or_2_naming_it(edit):
    spec = synth.two_view_spec(attr_dim=2, targets_per_class=4)
    spec["aux_types"] = [{"name": "author", "size": 6}, {"name": "subject", "size": 3}]
    edited = _edited(json.dumps(spec, indent=2).encode("utf-8"), edit)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "spec.json")
        with open(path, "wb") as fh:
            fh.write(edited)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["synth", "--spec", path, "--out", os.path.join(tmp, "b")])
    assert code in (EXIT_OK, EXIT_DATA), (err.getvalue(), edited)
    if code == EXIT_DATA:
        assert err.getvalue().startswith(f"error: {path}:"), (err.getvalue(), edited)
