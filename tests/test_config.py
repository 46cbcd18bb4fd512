"""One config schema: each setting has one flat key, on its dataclass field."""

from dataclasses import asdict

from mug import config
from mug.evalkit import SplitSpec
from mug.fusion import (
    MugModel,
    TrainConfig,
    _init_params,
    config_echo,
    config_fields,
    load_checkpoint,
    save_checkpoint,
)
from mug.metamae import MaskSpec
from mug.structenc import WalkConfig


# Every user-facing key, pinned so that renaming a field cannot rename one.
# perfbench's walk.cfg writes walks_per_node, walk_length, window and struct_epochs.
FLAT_KEYS = {
    "lambda_align", "lambda_recon", "lambda_scatter", "epochs", "learning_rate", "seed",
    "no_cse", "no_align", "no_scatter", "sample_size", "unified_dim", "gamma",
    "walks_per_node", "walk_length", "window", "negatives", "struct_dim", "struct_epochs",
    "struct_lr", "struct_lr_min", "neg_distribution", "edge_mask_rate", "resample_mask",
    "per_class_train", "val_size", "test_size", "repeats", "kshot_repeats",
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
        learning_rate=0.01, seed=11, no_cse=True, no_align=True, no_scatter=True,
        sample_size=32, unified_dim=24, gamma=3.0,
        walk=WalkConfig(walks_per_node=3, walk_length=9, window=2, negatives=4,
                        dim=16, epochs=2, lr=0.05, lr_min=0.001,
                        neg_distribution="freq075"),
        mask=MaskSpec(edge_mask_rate=0.25, resample_per_epoch=False),
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
    assert len(FLAT_KEYS) == 28
    assert set(config.defaults()) == FLAT_KEYS


def test_no_two_train_fields_share_a_key():
    keys = [key for key, _, _, _ in config_fields(TrainConfig())]
    assert len(keys) == len(set(keys)) == 23


def test_echo_keys_are_the_flat_config_keys():
    echo = config_echo(TrainConfig())
    assert set(echo) <= FLAT_KEYS
    assert echo["struct_dim"] == "64" and echo["resample_mask"] == "True"


def test_checkpoint_meta_names_each_field_by_its_key_in_field_order(tmp_path):
    cfg = off_default_config()
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(MugModel(_init_params(cfg, 0), cfg), path)
    lines = open(path).read().split("\n")
    assert lines[:2] == ["MUG-CKPT v4", "[meta]"]
    meta = lines[2:lines.index("[params]")]
    assert meta == [f"{key} {value}" for key, value in config_echo(cfg).items()]
    assert meta[-1] == "resample_mask False"


def test_defaults_give_default_train_config():
    assert config.to_train_config(config.defaults()) == TrainConfig()


def test_defaults_give_default_split_spec():
    assert config.to_split_spec(config.defaults()) == SplitSpec()


def test_kshot_repeats_default_comes_from_split_spec():
    spec = config.to_split_spec(config.defaults(), shots=3)
    assert spec == SplitSpec(per_class_train=3, repeats=20)


def test_flat_keys_reach_their_fields(tmp_path):
    path = str(tmp_path / "run.cfg")
    with open(path, "w") as fh:
        fh.write("struct_dim = 8\nresample_mask = no\nstruct_lr = 0.5\n"
                 "struct_epochs = 3\nstruct_lr_min = 0.25\n")
    cfg = config.to_train_config(config.resolve(config.parse_config_file(path)))
    assert cfg.walk.dim == 8 and cfg.mask.resample_per_epoch is False
    assert cfg.walk.lr == 0.5 and cfg.walk.epochs == 3 and cfg.walk.lr_min == 0.25
