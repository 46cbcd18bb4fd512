"""Output checks for every ``mug`` command the benchmark runs.

Each check returns a list of failure messages (empty when the output is
right); the caller counts a command as failed when any of its checks fails,
records why, and carries on with the run.
"""

from __future__ import annotations

import hashlib
import math
import os
from typing import List, Optional, Tuple


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _rows(path: str) -> List[List[str]]:
    with open(path, encoding="utf-8") as fh:
        return [line.rstrip("\n").split(",") for line in fh if line.strip()]


def _finite(cells) -> bool:
    try:
        return all(math.isfinite(float(c)) for c in cells)
    except ValueError:
        return False


def missing(*paths: str) -> List[str]:
    return [f"missing output {os.path.basename(p)}" for p in paths if not os.path.isfile(p)]


def homophily_csv(path: str, n_views: int) -> List[str]:
    """One ratio in [0, 1] per view plus the average."""
    if missing(path):
        return missing(path)
    rows = _rows(path)[1:]
    if len(rows) != n_views + 1:
        return [f"homophily CSV has {len(rows)} rows, expected {n_views + 1}"]
    values = [r[1] for r in rows]
    if not _finite(values) or not all(0.0 <= float(v) <= 1.0 for v in values):
        return ["homophily ratio not in [0, 1]"]
    return []


def checkpoint(path: str) -> Tuple[Optional[object], List[str]]:
    """The checkpoint reloads with mug's own reader."""
    if missing(path):
        return None, missing(path)
    from mug import fusion
    try:
        return fusion.load_checkpoint(path), []
    except (fusion.CheckpointError, ValueError, IndexError) as exc:
        return None, [f"checkpoint does not reload: {exc}"]


def trace_csv(path: str, epochs: int) -> Tuple[float, List[str]]:
    """One finite loss row per epoch; returns the final total loss."""
    if missing(path):
        return math.nan, missing(path)
    rows = _rows(path)[1:]
    if len(rows) != epochs:
        return math.nan, [f"trace CSV has {len(rows)} rows, expected {epochs}"]
    if not all(_finite(r) for r in rows):
        return math.nan, ["trace CSV has a non-finite value"]
    return float(rows[-1][-1]), []


def embedding_tsv(path: str, n_rows: int, dim: int) -> List[str]:
    """n_rows node rows, each an id and dim finite values."""
    if missing(path):
        return missing(path)
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()[1:]
    if len(lines) != n_rows:
        return [f"embedding has {len(lines)} rows, expected {n_rows}"]
    for line in lines:
        cells = line.split("\t")[1:]
        if len(cells) != dim or not _finite(cells):
            return [f"embedding row is not {dim} finite values"]
    return []


def beta_csv(path: str, n_views: int) -> List[str]:
    """One attention weight per view, summing to one within 1e-9."""
    if missing(path):
        return missing(path)
    rows = _rows(path)
    if len(rows) != 1 or len(rows[0]) != n_views or not _finite(rows[0]):
        return [f"beta CSV is not one row of {n_views} finite weights"]
    total = sum(float(b) for b in rows[0])
    if abs(total - 1.0) > 1e-9:
        return [f"beta sums to {total!r}, not 1"]
    return []


def eval_csv(path: str, floor: float) -> Tuple[float, List[str]]:
    """Mean Macro-F1 over the report rows, required to reach the floor."""
    if missing(path):
        return math.nan, missing(path)
    rows = _rows(path)
    if len(rows) < 2:
        return math.nan, ["eval CSV has no report rows"]
    col = rows[0].index("macro_mean")
    cells = [r[col] for r in rows[1:]]
    if not _finite(cells):
        return math.nan, ["eval Macro-F1 is not finite"]
    macro = sum(float(c) for c in cells) / len(cells)
    if macro < floor:
        return macro, [f"Macro-F1 {macro:.4f} below the floor {floor}"]
    return macro, []
