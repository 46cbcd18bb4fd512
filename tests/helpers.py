"""Graph helpers the test suites share: lookups by name and global index, a
meta-path property, views from dense matrices, and the three-view acceptance
graph spec."""

from typing import Dict

import numpy as np

from mug.hetgraph import EdgeList, HetGraph, MetaPath


def type_of_global(g: HetGraph, g_idx: int) -> str:
    """Node type of a global index (type offset + local index)."""
    off = 0
    for t in g.node_types:
        if g_idx < off + g.counts[t]:
            return t
        off += g.counts[t]
    raise IndexError(f"global index {g_idx} out of range")


def is_palindromic(mp: MetaPath) -> bool:
    return mp.types == mp.types[::-1] and mp.relations == mp.relations[::-1]


def metapath(g: HetGraph, name: str) -> MetaPath:
    return next(mp for mp in g.metapaths if mp.name == name)


def view_of(adj: np.ndarray) -> EdgeList:
    """The EdgeList of a square bool matrix's entries."""
    return EdgeList.from_pairs(len(adj), *np.nonzero(adj))


def three_view_spec(attr_dim: int = 19, centroid_scale: float = 0.0,
                    targets_per_class: int = 100, intra: float = 0.9,
                    inter: float = 0.1) -> Dict:
    """Four node types, three relations (one reverse-oriented), three views."""
    return {
        "classes": 3,
        "target_type": "movie",
        "targets_per_class": targets_per_class,
        "attr_dim": attr_dim,
        "centroid_scale": centroid_scale,
        "noise": 0.5,
        "aux_types": [
            {"name": "actor", "size": 75},
            {"name": "director", "size": 24},
            {"name": "writer", "size": 45},
        ],
        "relations": [
            {"name": "ma", "src": "movie", "dst": "actor",
             "intra": intra, "inter": inter, "degree": 3.0},
            # reverse-declared on purpose: steps traverse it dst -> src
            {"name": "dm", "src": "director", "dst": "movie",
             "intra": intra, "inter": inter, "degree": 20.0},
            {"name": "mw", "src": "movie", "dst": "writer",
             "intra": intra, "inter": inter, "degree": 2.0},
        ],
        "metapaths": [
            {"name": "MAM", "steps": ["movie", "ma", "actor", "ma", "movie"]},
            {"name": "MDM", "steps": ["movie", "dm", "director", "dm", "movie"]},
            {"name": "MWM", "steps": ["movie", "mw", "writer", "mw", "movie"]},
        ],
    }
