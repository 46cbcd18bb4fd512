"""Flat key=value run configuration with three-layer precedence.

Defaults < config file < command-line flags. The keys, defaults and value
types live on the dataclasses (TrainConfig, WalkConfig, MaskSpec, SplitSpec)
and are read through fusion.config_fields, so a key is the same name in a
config file, an echo and a checkpoint. A config file names each key at most
once and only known keys; every run writes a resolved echo file that can
replay it.
"""

from __future__ import annotations

from typing import Dict, Optional

from .bundle import read_text
from .evalkit import KSHOT_REPEATS, SplitSpec
from .fusion import TrainConfig, config_fields


class ConfigError(ValueError):
    pass


def _bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "1", "yes"):
        return True
    if t in ("false", "0", "no"):
        return False
    raise ValueError(text)


def defaults() -> Dict[str, object]:
    out = {key: value for spec in (TrainConfig(), SplitSpec())   # both have seed
           for key, _, _, value in config_fields(spec)}
    out["kshot_repeats"] = KSHOT_REPEATS
    return out


def parse_config_file(path: str) -> Dict[str, object]:
    known = defaults()
    out: Dict[str, object] = {}
    for lineno, raw in enumerate(read_text(path).split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value")
        key, value = (s.strip() for s in line.split("=", 1))
        if key not in known:
            raise ConfigError(f"{path}:{lineno}: unknown key '{key}'")
        if key in out:
            raise ConfigError(f"{path}:{lineno}: repeated key '{key}'")
        conv = _bool if isinstance(known[key], bool) else type(known[key])
        try:
            out[key] = conv(value)
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: bad value for '{key}': '{value}'")
    return out


def resolve(file_values: Optional[Dict[str, object]] = None,
            flag_values: Optional[Dict[str, object]] = None) -> Dict[str, object]:
    cfg = defaults()
    cfg.update(file_values or {})
    cfg.update({k: v for k, v in (flag_values or {}).items() if v is not None})
    return cfg


def write_echo(cfg: Dict[str, object], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for key in sorted(cfg):
            fh.write(f"{key} = {cfg[key]}\n")


def to_train_config(cfg: Dict[str, object]) -> TrainConfig:
    out = TrainConfig()
    for key, owner, name, _ in config_fields(out):
        setattr(owner, name, cfg[key])
    return out


def to_split_spec(cfg: Dict[str, object], shots: int = 0) -> SplitSpec:
    """The eval split protocol, validated (ValueError naming the bad key).

    A k-shot run (shots = k) trains on k nodes per class and takes its repeats
    from kshot_repeats; every other setting is the standard protocol's.
    """
    repeats_key = "kshot_repeats" if shots else "repeats"
    spec = SplitSpec(per_class_train=shots or cfg["per_class_train"],
                     val_size=cfg["val_size"], test_size=cfg["test_size"],
                     repeats=cfg[repeats_key], seed=cfg["seed"])
    spec.validate(repeats_key)
    return spec
