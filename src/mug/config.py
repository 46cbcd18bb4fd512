"""The run settings: their schema, their value grammar and their checker.

Every setting is a field of a dataclass in this module: TrainConfig (its
nested WalkConfig included) or SplitSpec. The field is its whole schema: its
type, its default, its flat key (metadata["key"], else the field's name) and
its bound. So a key is the same name in a config file, a flag's dest, an echo
and a checkpoint's [meta], and config imports only bundle: a command loads
neither structenc nor evalkit for their settings. format_settings writes
echoes and [meta] as sorted "key = value" lines; read_settings reads config
files and [meta], with parse_value as the one value grammar, and reports a bad
line as a bundle.BundleError at its file:line, like any other input fault.

Every setting is a bool or a number. A number's bound is metadata["bound"],
an interval such as "[1, inf)", "(0, inf)", "[0, 1]" or "[0, 2**64)". check
takes settings by flat key and raises ConfigError naming the first key
outside its bound. A round bracket excludes its end, so a float bounded by
"[0, inf)" must be finite; every comparison is negated, so NaN fails it.
Settings are checked where they enter: each line of a config file or of a
checkpoint's [meta] as it is read, so a fault names its file:line; the
resolved settings in the CLI, which adds the flags; and in fusion.pretrain.

Precedence is defaults < config file < command-line flags; every run writes a
resolved echo file that can replay it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Dict, Iterable, Optional

from .bundle import BundleError, read_text, write_text


class ConfigError(ValueError):
    pass


@dataclass
class WalkConfig:
    """Walk and skip-gram settings of structenc; the skip-gram rate decays linearly
    from lr to lr_min over the pairs of all epochs."""

    walks_per_node: int = field(default=10, metadata={"bound": "[1, inf)"})
    walk_length: int = field(default=20, metadata={"bound": "[1, inf)"})   # edges per walk
    window: int = field(default=5, metadata={"bound": "[1, inf)"})
    negatives: int = field(default=5, metadata={"bound": "[1, inf)"})
    dim: int = field(default=64, metadata={"key": "struct_dim", "bound": "[1, inf)"})
    epochs: int = field(default=5, metadata={"key": "struct_epochs", "bound": "[1, inf)"})
    lr: float = field(default=0.025, metadata={"key": "struct_lr", "bound": "(0, inf)"})
    lr_min: float = field(default=0.0001, metadata={"key": "struct_lr_min", "bound": "[0, inf)"})


@dataclass
class SplitSpec:
    """One evaluation protocol of evalkit; a k-shot run is per_class_train = k (eval
    --shots k). The bounds leave every run a probe to train and a test row to score."""

    per_class_train: int = field(default=60, metadata={"bound": "[1, inf)"})
    val_size: int = field(default=1000, metadata={"bound": "[0, inf)"})
    test_size: int = field(default=1000, metadata={"bound": "[1, inf)"})
    repeats: int = field(default=50, metadata={"bound": "[1, inf)"})
    seed: int = field(default=0, metadata={"bound": "[0, 2**64)"})


@dataclass
class TrainConfig:
    lambda_align: float = field(default=1.0, metadata={"bound": "[0, inf)"})
    lambda_recon: float = field(default=1.0, metadata={"bound": "[0, inf)"})
    lambda_scatter: float = field(default=0.1, metadata={"bound": "[0, inf)"})
    epochs: int = field(default=400, metadata={"bound": "[0, inf)"})
    learning_rate: float = field(default=1e-3, metadata={"bound": "(0, inf)"})
    # RngStream folds a seed into [0, 2**64), so a seed outside it would alias another
    seed: int = field(default=0, metadata={"bound": "[0, 2**64)"})
    no_cse: bool = False
    no_align: bool = False
    sample_size: int = field(default=128, metadata={"bound": "[1, inf)"})
    unified_dim: int = field(default=64, metadata={"bound": "[1, inf)"})
    gamma: float = field(default=2.0, metadata={"bound": "[1, inf)"})
    edge_mask_rate: float = field(default=0.5, metadata={"bound": "[0, 1]"})
    walk: WalkConfig = field(default_factory=WalkConfig)


def config_fields(cfg):
    """(key, owner, field, value) per setting, nested dataclasses included, in field order."""
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if is_dataclass(value):
            yield from config_fields(value)
        else:
            yield f.metadata.get("key", f.name), cfg, f, value


def by_key(cfg) -> Dict[str, object]:
    """Every setting of a dataclass by its flat key, in field order."""
    return {key: value for key, _, _, value in config_fields(cfg)}


def defaults() -> Dict[str, object]:
    return {**by_key(TrainConfig()), **by_key(SplitSpec())}   # both have seed


def parse_value(text: str, default):
    """text read as a value of default's type; ValueError if it is not one.

    Booleans are true, yes or 1 and false, no or 0, in any case. Numbers are
    ASCII int and float literals without '_' (nan and inf are floats).
    """
    if not text.isascii() or "_" in text:
        raise ValueError(text)
    if not isinstance(default, bool):
        return type(default)(text)
    t = text.strip().lower()
    if t in ("true", "1", "yes"):
        return True
    if t in ("false", "0", "no"):
        return False
    raise ValueError(text)


def _end(text: str):
    """One end of a bound: an integer, a power such as 2**64, or inf."""
    base, _, power = text.partition("**")
    return math.inf if base == "inf" else int(base) ** int(power or 1)


def check(values: Dict[str, object]) -> None:
    """Raise ConfigError naming the first setting outside the bound its field declares."""
    schema = {key: f.metadata for spec in (TrainConfig(), SplitSpec())
              for key, _, f, _ in config_fields(spec)}
    for key, value in values.items():
        bound = schema[key].get("bound")
        if bound is None:
            continue
        low, high = bound[1:-1].split(", ")
        above = value > _end(low) if bound[0] == "(" else value >= _end(low)
        below = value <= _end(high) if bound[-1] == "]" else value < _end(high)
        if not above and high == "inf":
            raise ConfigError(f"{key} must be {'>' if bound[0] == '(' else '>='} {low}, "
                              f"got {value}")
        if not (above and below):
            raise ConfigError(f"{key} must be {'finite' if high == 'inf' else 'in ' + bound}, "
                              f"got {value}")


def read_settings(lines: Iterable[str], where: str, known: Dict[str, object],
                  first_line: int = 1) -> Dict[str, object]:
    """Settings from "key = value" lines (lines[0] is line first_line of where).

    known maps each allowed key to its default; "#" starts a comment. An unknown
    or repeated key, a bad value or one outside its bound raises BundleError
    naming where and the line.
    """
    out: Dict[str, object] = {}
    for lineno, raw in enumerate(lines, start=first_line):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise BundleError("expected key=value", where, lineno)
        key, value = (s.strip() for s in line.split("=", 1))
        if key not in known:
            raise BundleError(f"unknown key '{key}'", where, lineno)
        if key in out:
            raise BundleError(f"repeated key '{key}'", where, lineno)
        try:
            out[key] = parse_value(value, known[key])
        except ValueError:
            raise BundleError(f"bad value for '{key}': '{value}'", where, lineno) from None
        try:
            check({key: out[key]})
        except ConfigError as exc:
            raise BundleError(str(exc), where, lineno) from None
    return out


def parse_config_file(path: str) -> Dict[str, object]:
    return read_settings(read_text(path).split("\n"), path, defaults())


def resolve(file_values: Optional[Dict[str, object]] = None,
            flag_values: Optional[Dict[str, object]] = None) -> Dict[str, object]:
    """Defaults < file values < flag values; a flag that is None or not a key is skipped."""
    cfg = defaults()
    cfg.update(file_values or {})
    cfg.update({k: v for k, v in (flag_values or {}).items() if k in cfg and v is not None})
    return cfg


def format_settings(cfg: Dict[str, object]) -> str:
    """One "key = value" line per setting, sorted by key: the echo and [meta] form."""
    return "".join(f"{key} = {cfg[key]}\n" for key in sorted(cfg))


def write_echo(cfg: Dict[str, object], path: str) -> None:
    write_text(path, format_settings(cfg))


def filled(spec, cfg: Dict[str, object]):
    """spec (a TrainConfig or SplitSpec) with each setting set from cfg by its flat key."""
    for key, owner, f, _ in config_fields(spec):
        setattr(owner, f.name, cfg[key])
    return spec
