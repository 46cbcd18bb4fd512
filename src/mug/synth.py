"""Synthetic heterogeneous graphs with planted class structure.

Every node (target or auxiliary) carries a latent class. Relation edges are
drawn per (src, dst) pair with probability proportional to the declared
intra/inter-class attach weights, scaled so each source node's expected
degree matches the relation's degree setting. With intra == inter the wiring
is label-blind and every composed view's homophily sits at the class
frequency baseline; pushing intra above inter plants homophilous views.
A relation's edges are drawn a chunk of whole source rows, about DRAW_CELLS
cells, at a time, so memory does not grow with |src| x |dst|. Rows drawn in
chunks from one generator equal one whole draw (a test pins this), so the
chunk size moves no bit of a bundle.

Attributes are class centroid + Gaussian noise; centroid_scale = 0 makes
labels attribute-independent (structure-only signal).

SynthSpec.from_dict reads a spec strictly, with bundle.read_object, the
reader of schema.json too: each key of the spec and of its aux_types,
relations and metapaths entries must be a field (a metapath entry has name and
steps), and its value must be of the field's JSON type: an integer, a number,
a name or a list of names. A key not given takes its field's default. Every
fault raises ValueError; mug synth reports it against the spec file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from .bundle import read_object
from .hetgraph import HetGraph, MetaPath, Relation, check_schema
from .rng import RngStream

DRAW_CELLS = 1 << 16   # measured: ACM-shaped spec as fast as one draw, 2.9 MB of arrays, not 418


@dataclass
class AuxType:
    name: str
    size: int
    attr_dim: int = 0


@dataclass
class RelationSpec:
    name: str
    src: str
    dst: str
    intra: float
    inter: float
    degree: float = 3.0


@dataclass
class SynthSpec:
    classes: int
    target_type: str
    targets_per_class: int
    attr_dim: int
    relations: List[RelationSpec]
    metapaths: List[MetaPath]
    aux_types: List[AuxType] = field(default_factory=list)
    centroid_scale: float = 1.0
    noise: float = 0.5
    aux_centroid_scale: float = 0.0

    @staticmethod
    def from_dict(d: Dict) -> "SynthSpec":
        """The spec in a JSON object; each key not given takes its field's default."""
        spec = read_object(SynthSpec, d, "spec", aux_types=AuxType, relations=RelationSpec,
                           metapaths=MetaPath.from_steps)
        spec.validate()
        return spec

    def validate(self) -> None:
        """Every float must be finite; each comparison is negated, so NaN fails it."""
        for name in ("centroid_scale", "noise", "aux_centroid_scale"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.classes < 2:
            raise ValueError("need at least 2 classes")
        if self.targets_per_class < 1:
            raise ValueError("need at least 1 target node per class")
        if self.attr_dim < 0:
            raise ValueError("attr_dim must be >= 0")
        names = [self.target_type] + [a.name for a in self.aux_types]
        for a in self.aux_types:
            if min(a.size, a.attr_dim) < 0:
                raise ValueError(f"aux type '{a.name}': size and attr_dim must be >= 0")
        check_schema(names, self.relations, self.target_type, self.metapaths)
        for r in self.relations:
            if not (0 <= r.intra < math.inf and 0 <= r.inter < math.inf
                    and r.intra + r.inter > 0):
                raise ValueError(f"relation '{r.name}': bad attach probabilities")
            if not 0 < r.degree < math.inf:
                raise ValueError(f"relation '{r.name}': degree must be positive and finite")


def _centroids(n_classes: int, dim: int, scale: float) -> np.ndarray:
    c = np.zeros((n_classes, dim))
    if dim:
        for k in range(n_classes):
            c[k, k % dim] = scale
    return c


def generate(spec: SynthSpec, rng: RngStream) -> HetGraph:
    """Draw a graph from the spec. Same (spec, seed) gives identical output."""
    gen = rng.generator
    n_target = spec.classes * spec.targets_per_class
    labels = np.repeat(np.arange(spec.classes), spec.targets_per_class)

    sizes = {spec.target_type: n_target}
    node_class = {spec.target_type: labels}
    for aux in spec.aux_types:
        sizes[aux.name] = aux.size
        node_class[aux.name] = np.arange(aux.size) % spec.classes

    node_types = [spec.target_type] + [a.name for a in spec.aux_types]
    node_ids = {t: [f"{t}{i}" for i in range(sizes[t])] for t in node_types}

    edges: Dict[str, np.ndarray] = {}
    for rel in spec.relations:
        cs, cd = node_class[rel.src], node_class[rel.dst]
        rows = max(1, DRAW_CELLS // max(len(cd), 1))
        hits = []
        for start in range(0, max(len(cs), 1), rows):   # one (empty) chunk if no src
            weight = np.where(cs[start:start + rows, None] == cd[None, :], rel.intra, rel.inter)
            row_total = weight.sum(axis=1, keepdims=True)
            prob = np.minimum(rel.degree * weight / np.where(row_total > 0, row_total, 1.0),
                              1.0)
            hit = np.argwhere(gen.random(prob.shape) < prob)
            hit[:, 0] += start
            hits.append(hit)
        edges[rel.name] = np.concatenate(hits).astype(np.int64)

    attrs: Dict[str, Optional[np.ndarray]] = {t: None for t in node_types}
    if spec.attr_dim > 0:
        base = _centroids(spec.classes, spec.attr_dim, spec.centroid_scale)
        attrs[spec.target_type] = base[labels] + spec.noise * gen.standard_normal(
            (n_target, spec.attr_dim)
        )
    for aux in spec.aux_types:
        if aux.attr_dim > 0:
            base = _centroids(spec.classes, aux.attr_dim, spec.aux_centroid_scale)
            attrs[aux.name] = base[node_class[aux.name]] + spec.noise * gen.standard_normal(
                (aux.size, aux.attr_dim)
            )

    return HetGraph(
        node_types=node_types,
        relations=[Relation(r.name, r.src, r.dst) for r in spec.relations],
        counts=sizes,
        node_ids=node_ids,
        edges=edges,
        target_type=spec.target_type,
        attrs=attrs,
        labels=labels,
        metapaths=list(spec.metapaths),
    )


def two_view_spec(attr_dim: int = 7, centroid_scale: float = 0.0,
                  targets_per_class: int = 100, intra: float = 0.9,
                  inter: float = 0.1) -> Dict:
    """Three node types, two relations, two 2-step views (paper/author/subject style)."""
    return {
        "classes": 3,
        "target_type": "paper",
        "targets_per_class": targets_per_class,
        "attr_dim": attr_dim,
        "centroid_scale": centroid_scale,
        "noise": 0.5,
        "aux_types": [
            {"name": "author", "size": 60},
            {"name": "subject", "size": 30},
        ],
        "relations": [
            {"name": "pa", "src": "paper", "dst": "author",
             "intra": intra, "inter": inter, "degree": 3.0},
            {"name": "ps", "src": "paper", "dst": "subject",
             "intra": intra, "inter": inter, "degree": 2.0},
        ],
        "metapaths": [
            {"name": "PAP", "steps": ["paper", "pa", "author", "pa", "paper"]},
            {"name": "PSP", "steps": ["paper", "ps", "subject", "ps", "paper"]},
        ],
    }
