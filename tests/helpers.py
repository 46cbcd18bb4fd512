"""Graph helpers the test suites share: lookups by name and global index, a
meta-path property, views from dense matrices, the three-view acceptance
graph spec, and a strategy for the finite floats that files must round-trip."""

from typing import Dict

import numpy as np
from hypothesis import Phase
from hypothesis import strategies as st

from mug.hetgraph import EdgeList, HetGraph, MetaPath
from mug.synth import two_view_spec

# finite floats, with -0.0, subnormals and the extremes drawn often
FINITE_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, -2.5e-320, 1e308, -1e308, 1.7976931348623157e308])

# Every phase but shrinking: shrinking a failed file round trip runs for minutes,
# and the unshrunk example already names the field or cell that differs.
NO_SHRINK = tuple(p for p in Phase if p is not Phase.shrink)


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


def sparse_two_view_spec(targets_per_class: int, degree: float, **kw) -> Dict:
    """two_view_spec with three authors and three subjects per target, each target
    linked to `degree` of each on average: few enough shared neighbours that every
    view lists well under N² · metamae.LIST_SHARE entries (about N²/200 at degree
    1 with 75 targets, 2 with 300, 3 with 2,001)."""
    spec = two_view_spec(targets_per_class=targets_per_class, **kw)
    n = spec["classes"] * targets_per_class
    spec["aux_types"] = [{"name": "author", "size": 3 * n}, {"name": "subject", "size": 3 * n}]
    for rel in spec["relations"]:
        rel["degree"] = degree
    return spec
