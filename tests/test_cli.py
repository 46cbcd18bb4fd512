"""Command-line surface: outputs, determinism, exit codes, config precedence."""

import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import mug
from mug import gradsuite, kernels, synth
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


def test_homophily_unlabeled_bundle_errors(tmp_path, bundle):
    os.remove(os.path.join(bundle, "labels.tsv"))
    assert main(["homophily", "--data", bundle]) == EXIT_DATA


# -- pretrain -------------------------------------------------------------------


def test_pretrain_no_scatter_zeroes_trace_column(tmp_path, bundle):
    ckpt = str(tmp_path / "m.ckpt")
    assert main(["pretrain", "--data", bundle, "--config", tiny_config(tmp_path),
                 "--out", ckpt, "--no-scatter"]) == EXIT_OK
    rows = open(str(tmp_path / "m.trace.csv")).read().splitlines()[1:]
    assert rows and all(float(r.split(",")[3]) == 0.0 for r in rows)


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
    assert csv_rows[0].split(",")[3] == "0"


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


@pytest.mark.parametrize("setting, key, value", [
    ("--repeats 0", "repeats", 0),
    ("--repeats -1", "repeats", -1),
    ("test_size = 0", "test_size", 0),
    ("kshot_repeats = 0", "kshot_repeats", 0),
])
def test_bad_split_setting_fails_before_the_work(tmp_path, monkeypatch, capsys,
                                                 setting, key, value):
    from mug import fusion
    monkeypatch.setattr(fusion, "load_checkpoint", _no_work)
    data = str(tmp_path / "bundle")
    argv = ["eval", "--model", str(tmp_path / "model.ckpt"), "--train-data", data,
            "--eval-data", data]
    if setting.startswith("--"):
        argv += setting.split()
    else:
        config = str(tmp_path / "split.cfg")
        with open(config, "w") as fh:
            fh.write(setting + "\n")
        argv += ["--config", config] + (["--shots", "1"] if key == "kshot_repeats" else [])
    assert main(argv) == EXIT_DATA
    assert capsys.readouterr().err == f"error: {key} must be >= 1, got {value}\n"


@pytest.mark.parametrize("setting, message", [
    ("--epochs -3", "epochs must be >= 0, got -3"),
    ("learning_rate = -1", "learning_rate must be > 0, got -1.0"),
    ("learning_rate = 0", "learning_rate must be > 0, got 0.0"),
    ("sample_size = 0", "sample_size must be >= 1, got 0"),
    ("unified_dim = 0", "unified_dim must be >= 1, got 0"),
    ("gamma = 0.5", "gamma must be >= 1, got 0.5"),
])
def test_bad_train_setting_fails_before_the_work(tmp_path, monkeypatch, capsys,
                                                 setting, message):
    from mug import bundle
    monkeypatch.setattr(bundle, "load_bundle", _no_work)
    argv = ["pretrain", "--data", str(tmp_path / "bundle"), "--out", str(tmp_path / "m.ckpt")]
    if setting.startswith("--"):
        argv += setting.split()
    else:
        config = str(tmp_path / "train.cfg")
        with open(config, "w") as fh:
            fh.write(setting + "\n")
        argv += ["--config", config]
    assert main(argv) == EXIT_DATA
    assert capsys.readouterr().err == f"error: {message}\n"


def test_eval_bundles_sharing_a_name_fail_before_the_work(tmp_path, monkeypatch, capsys):
    from mug import fusion
    monkeypatch.setattr(fusion, "load_checkpoint", _no_work)
    first, second = str(tmp_path / "x" / "B"), str(tmp_path / "y" / "B") + os.sep
    argv = ["eval", "--model", str(tmp_path / "model.ckpt"), "--train-data", first,
            "--eval-data", first, second]
    assert main(argv) == EXIT_DATA
    assert capsys.readouterr().err == (f"error: --eval-data {first} and {second} "
                                       f"share the bundle name 'B'\n")


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


def test_gradcheck_passes_and_covers_five_expressions(capsys):
    assert main(["gradcheck", "--instances", "2"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.count("pass") >= 5


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


@pytest.mark.parametrize("damage, message", [
    (lambda lines: lines[:_entry_line(lines, "params", "att.bias") + 1],
     "[params] matrix 'att.bias' is cut short"),
    (lambda lines: _without_matrix(lines, "params", "att.q"),
     "[params] expected matrix header 'att.q 16 1' (shape from [meta]), "
     "found 'att.weight 16 16'"),
    (lambda lines: _edit_matrix_row(lines, "params", "enc.weight",
                                    lambda row: ["abc"] + row[1:]),
     "[params] matrix 'enc.weight': could not convert"),
    (lambda lines: _edit_matrix_row(lines, "params", "dec.bias", lambda row: row + row),
     "[params] matrix 'dec.bias': row 1 has 32 values, expected 16"),
    (lambda lines: _edit_line(lines, "meta", "sample_size", "sample_size x"),
     "[meta] bad value for 'sample_size': 'x'"),
    (lambda lines: _edit_line(lines, "meta", "walk.dim", "walk.dim x"),
     "[meta] bad value for 'walk.dim': 'x'"),
    (lambda lines: _edit_line(lines, "meta", "sample_size", "sample_size 15"),
     "[params] expected matrix header 'dim.weight 15 16' (shape from [meta]), "
     "found 'dim.weight 16 16'"),
    (lambda lines: _edit_line(lines, "params", "enc.bias", "enc.gain 1 16"),
     "[params] expected matrix header 'enc.bias 1 16'"),
    (lambda lines: _swap_matrices(lines, "params", "enc.weight", "enc.bias"),
     "[params] expected matrix header 'enc.weight 16 16' (shape from [meta]), "
     "found 'enc.bias 1 16'"),
    (lambda lines: ["MUG-CKPT v1"] + lines[1:], "not a 'MUG-CKPT v3' checkpoint"),
    (lambda lines: ["MUG-CKPT v2"] + lines[1:], "not a 'MUG-CKPT v3' checkpoint"),
], ids=["matrix-cut-short", "matrix-missing", "matrix-non-numeric", "matrix-ragged-row",
        "sample-size-not-int", "meta-walk-dim-not-int", "meta-sample-size-disagrees",
        "params-unknown-name", "params-out-of-order", "v1-header", "v2-header"])
def test_malformed_checkpoint_exit_code(tmp_path, bundle, checkpoint, capsys, damage,
                                        message):
    lines = open(checkpoint).read().split("\n")
    bad = str(tmp_path / "bad.ckpt")
    with open(bad, "w") as fh:
        fh.write("\n".join(damage(lines)))
    assert main(["embed", "--model", bad, "--data", bundle,
                 "--out", str(tmp_path / "z.tsv")]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: {message}"), err


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
    path = os.path.join(bundle, "schema.json")
    with open(path) as fh:
        schema = json.load(fh)
    damage(schema)
    with open(path, "w") as fh:
        json.dump(schema, fh)
    assert main(["homophily", "--data", bundle]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error:") and "schema.json" in err


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
