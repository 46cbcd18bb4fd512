"""One config schema: flat keys map onto the dataclass fields and back."""

from dataclasses import asdict

from mug import config
from mug.evalkit import SplitSpec
from mug.fusion import (
    MugModel,
    TrainConfig,
    _init_params,
    config_echo,
    load_checkpoint,
    save_checkpoint,
)
from mug.metamae import MaskSpec
from mug.structenc import WalkConfig


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


def test_echo_keys_name_nested_fields():
    echo = config_echo(TrainConfig())
    assert echo["walk.dim"] == "64" and echo["mask.resample_per_epoch"] == "True"


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
        fh.write("struct_dim = 8\nresample_mask = no\nstruct_lr = 0.5\n")
    cfg = config.to_train_config(config.resolve(config.parse_config_file(path)))
    assert cfg.walk.dim == 8 and cfg.mask.resample_per_epoch is False
    assert cfg.walk.lr == 0.5
