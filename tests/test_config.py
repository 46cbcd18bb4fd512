"""One config schema: each setting has one flat key, on its dataclass field."""

import math
from dataclasses import asdict

import pytest

from mug import config, synth
from mug.bundle import BundleError
from mug.config import TrainConfig, by_key, config_fields
from mug.evalkit import SplitSpec
from mug.fusion import MugModel, _init_params, load_checkpoint, pretrain, save_checkpoint
from mug.rng import RngStream
from mug.structenc import WalkConfig


# Every user-facing key, pinned so that renaming a field cannot rename one.
# perfbench's walk.cfg writes walks_per_node, walk_length, window and struct_epochs.
FLAT_KEYS = {
    "lambda_align", "lambda_recon", "lambda_scatter", "epochs", "learning_rate", "seed",
    "no_cse", "no_align", "sample_size", "unified_dim", "gamma", "edge_mask_rate",
    "walks_per_node", "walk_length", "window", "negatives", "struct_dim", "struct_epochs",
    "struct_lr", "struct_lr_min",
    "per_class_train", "val_size", "test_size", "repeats",
}


def _leaves(d, prefix=""):
    for key, value in d.items():
        if isinstance(value, dict):
            yield from _leaves(value, f"{prefix}{key}.")
        else:
            yield prefix + key, value


def off_default_config():
    return TrainConfig(
        lambda_align=0.5, lambda_recon=2.0, lambda_scatter=0.3, epochs=7,
        learning_rate=0.01, seed=11, no_cse=True, no_align=True,
        sample_size=32, unified_dim=24, gamma=3.0, edge_mask_rate=0.25,
        walk=WalkConfig(walks_per_node=3, walk_length=9, window=2, negatives=4,
                        dim=16, epochs=2, lr=0.05, lr_min=0.001),
    )


def test_off_default_config_differs_in_every_field():
    got = dict(_leaves(asdict(off_default_config())))
    want = dict(_leaves(asdict(TrainConfig())))
    assert got.keys() == want.keys()
    assert [k for k in got if got[k] == want[k]] == []


def test_checkpoint_echo_round_trips_every_field(tmp_path):
    cfg = off_default_config()
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(MugModel(_init_params(cfg, 0), cfg), path)
    assert load_checkpoint(path).cfg == cfg


def test_flat_keys_are_exactly_the_pinned_ones():
    assert len(FLAT_KEYS) == 24
    assert set(config.defaults()) == FLAT_KEYS


def test_no_two_train_fields_share_a_key():
    keys = [key for key, _, _, _ in config_fields(TrainConfig())]
    assert len(keys) == len(set(keys)) == 20


def test_echo_keys_are_the_flat_config_keys():
    settings = by_key(TrainConfig())
    assert set(settings) <= FLAT_KEYS
    assert settings["struct_dim"] == 64 and settings["struct_epochs"] == 5


def test_checkpoint_meta_is_the_echo_of_the_config(tmp_path):
    cfg = off_default_config()
    path, echo = str(tmp_path / "m.ckpt"), str(tmp_path / "m.config.txt")
    save_checkpoint(MugModel(_init_params(cfg, 0), cfg), path)
    config.write_echo(by_key(cfg), echo)
    lines = open(path).read().split("\n")
    assert lines[:2] == ["MUG-CKPT v6", "[meta]"]
    meta = lines[2:lines.index("[params]")]
    assert meta == open(echo).read().splitlines()
    assert meta == [f"{key} = {value}" for key, value in sorted(by_key(cfg).items())]
    assert meta[0] == "edge_mask_rate = 0.25" and meta[-1] == "window = 2"


def test_defaults_give_default_train_config():
    assert config.filled(TrainConfig(), config.defaults()) == TrainConfig()


def test_defaults_give_default_split_spec():
    assert config.filled(SplitSpec(), config.defaults()) == SplitSpec()


def test_kshot_repeats_default_comes_from_split_spec():
    # eval --shots 3 sets per_class_train and nothing else: a k-shot run takes repeats
    spec = config.filled(SplitSpec(), config.resolve(None, {"per_class_train": 3}))
    assert spec == SplitSpec(per_class_train=3) and spec.repeats == 50


def test_resolve_takes_the_flags_that_are_keys_and_not_none():
    flags = {"data": "bundle", "out": "r.csv", "fn": print, "seed": None, "repeats": 2}
    cfg = config.resolve({"seed": 4, "repeats": 3}, flags)
    assert cfg == {**config.defaults(), "seed": 4, "repeats": 2}


# One valid value per TrainConfig setting, off the base run's value below
OFF_BASE = {
    "lambda_align": 0.5, "lambda_recon": 2.0, "lambda_scatter": 0.3, "epochs": 3,
    "learning_rate": 0.01, "seed": 11, "no_cse": True, "no_align": True, "sample_size": 6,
    "unified_dim": 6, "gamma": 3.0, "edge_mask_rate": 0.25, "walks_per_node": 2,
    "walk_length": 5, "window": 2, "negatives": 4, "struct_dim": 6, "struct_epochs": 2,
    "struct_lr": 0.05, "struct_lr_min": 0.001,
}


def test_every_train_setting_reaches_the_computation():
    spec = synth.SynthSpec.from_dict(synth.two_view_spec(attr_dim=4, targets_per_class=10))
    g = synth.generate(spec, RngStream(0))
    # three struct epochs: a single SGNS batch meets an all-zero context table and
    # moves no center row, so on one epoch of so few pairs the walk settings do nothing
    base = by_key(TrainConfig(epochs=2, sample_size=8, unified_dim=8,
                              walk=WalkConfig(walks_per_node=1, walk_length=3, window=1,
                                              negatives=2, dim=8, epochs=3)))

    def run(values):
        trace = []
        model = pretrain(g, config.filled(TrainConfig(), values), trace)
        return [value.tobytes() for value in model.params.values()], trace

    assert list(OFF_BASE) == list(by_key(TrainConfig()))
    want = run(base)
    assert [key for key, value in OFF_BASE.items() if run({**base, key: value}) == want] == []


def test_flat_keys_reach_their_fields(tmp_path):
    path = str(tmp_path / "run.cfg")
    with open(path, "w") as fh:
        fh.write("struct_dim = 8\nstruct_lr = 0.5\n"
                 "struct_epochs = 3\nstruct_lr_min = 0.25\n")
    cfg = config.filled(TrainConfig(), config.resolve(config.parse_config_file(path)))
    assert cfg.walk.dim == 8
    assert cfg.walk.lr == 0.5 and cfg.walk.epochs == 3 and cfg.walk.lr_min == 0.25


# -- bounds -------------------------------------------------------------------------


def _setting_fields():
    for spec in (TrainConfig(), SplitSpec()):
        yield from config_fields(spec)


def test_every_setting_is_a_bounded_number_or_a_bool():
    unbounded = [key for key, _, f, value in _setting_fields()
                 if not (type(value) is bool
                         or (type(value) in (int, float) and "bound" in f.metadata))]
    assert unbounded == []


def test_every_bound_is_an_interval_holding_its_default():
    for key, _, f, value in _setting_fields():
        if "bound" in f.metadata:
            bound = f.metadata["bound"]
            assert bound[0] in "[(" and bound[-1] in "])" and ", " in bound, key
            config.check({key: value})


def test_fields_sharing_a_key_declare_one_default_and_bound():
    seen = {}
    for key, _, f, value in _setting_fields():
        assert seen.setdefault(key, (value, dict(f.metadata))) == (value, dict(f.metadata)), key
    assert len(seen) == 24


@pytest.mark.parametrize("key, value, message", [
    ("seed", 2**64, "seed must be in [0, 2**64), got 18446744073709551616"),
    ("edge_mask_rate", 1.5, "edge_mask_rate must be in [0, 1], got 1.5"),
    ("edge_mask_rate", math.nan, "edge_mask_rate must be in [0, 1], got nan"),
    ("struct_lr_min", -math.inf, "struct_lr_min must be >= 0, got -inf"),
    ("repeats", 0, "repeats must be >= 1, got 0"),
])
def test_check_names_the_key_and_its_bound(key, value, message):
    with pytest.raises(config.ConfigError) as exc:
        config.check({key: value})
    assert str(exc.value) == message


@pytest.mark.parametrize("key, value", [
    ("seed", 2**64 - 1), ("edge_mask_rate", 0.0), ("edge_mask_rate", 1.0), ("epochs", 0),
    ("val_size", 0), ("struct_lr_min", 0.0),
])
def test_check_accepts_the_ends_of_each_range(key, value):
    config.check({key: value})



def test_pretrain_checks_its_config_before_the_work():
    with pytest.raises(config.ConfigError, match=r"^struct_lr_min must be >= 0, got nan$"):
        pretrain(None, TrainConfig(walk=WalkConfig(lr_min=math.nan)))   # no graph is read


# -- the value grammar and the settings reader ------------------------------------


@pytest.mark.parametrize("line", [
    "epochs = 1_0", "seed = \u0663", "struct_lr = \uff11", "struct_lr = 1_0.5",
], ids=["underscore", "arabic-indic-digit", "fullwidth-digit", "float-underscore"])
def test_values_are_ascii_literals_without_underscores(tmp_path, line):
    path = str(tmp_path / "run.cfg")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(line + "\n")
    key, value = line.split(" = ")
    with pytest.raises(BundleError) as exc:
        config.parse_config_file(path)
    assert str(exc.value) == f"{path}:1: bad value for '{key}': '{value}'"


def test_read_settings_numbers_lines_from_first_line():
    known = config.defaults()
    lines = ["", "# comment", "epochs = 3  # trailing", "seed=7"]
    assert config.read_settings(lines, "x", known, 10) == {"epochs": 3, "seed": 7}
    for bad, message in [("epochs", "x:12: expected key=value"),
                         ("seed = 1", "x:12: repeated key 'seed'"),
                         ("threads = 1", "x:12: unknown key 'threads'"),
                         ("no_cse = maybe", "x:12: bad value for 'no_cse': 'maybe'")]:
        with pytest.raises(BundleError) as exc:
            config.read_settings(["seed = 0", "", bad], "x", known, 10)
        assert str(exc.value) == message
