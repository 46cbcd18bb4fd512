"""Synthetic heterogeneous graphs with planted class structure.

Every node (target or auxiliary) carries a latent class. Relation edges are
drawn per (src, dst) pair with probability proportional to the declared
intra/inter-class attach weights, scaled so each source node's expected
degree matches the relation's degree setting. With intra == inter the wiring
is label-blind and every composed view's homophily sits at the class
frequency baseline; pushing intra above inter plants homophilous views.

Attributes are class centroid + Gaussian noise; centroid_scale = 0 makes
labels attribute-independent (structure-only signal).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from .hetgraph import HetGraph, MetaPath, Relation, SchemaError, check_schema
from .rng import RngStream


class SynthSpecError(ValueError):
    pass


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
    aux_types: List[AuxType]
    relations: List[RelationSpec]
    metapaths: List[MetaPath]
    centroid_scale: float = 1.0
    noise: float = 0.5
    aux_centroid_scale: float = 0.0

    @staticmethod
    def from_dict(d: Dict) -> "SynthSpec":
        if not isinstance(d, dict):
            raise SynthSpecError(f"spec must be a JSON object, got {type(d).__name__}")
        try:
            aux = [AuxType(a["name"], int(a["size"]), int(a.get("attr_dim", 0)))
                   for a in d.get("aux_types", [])]
            rels = [RelationSpec(r["name"], r["src"], r["dst"],
                                 float(r["intra"]), float(r["inter"]),
                                 float(r.get("degree", 3.0)))
                    for r in d["relations"]]
            mps = [MetaPath.from_steps(m["name"], m["steps"]) for m in d["metapaths"]]
            spec = SynthSpec(
                classes=int(d["classes"]),
                target_type=d["target_type"],
                targets_per_class=int(d["targets_per_class"]),
                attr_dim=int(d["attr_dim"]),
                aux_types=aux,
                relations=rels,
                metapaths=mps,
                centroid_scale=float(d.get("centroid_scale", 1.0)),
                noise=float(d.get("noise", 0.5)),
                aux_centroid_scale=float(d.get("aux_centroid_scale", 0.0)),
            )
        except KeyError as exc:
            raise SynthSpecError(f"spec missing key {exc}") from None
        except (TypeError, AttributeError, ValueError) as exc:
            raise SynthSpecError(f"malformed spec: {exc}") from None
        spec.validate()
        return spec

    def validate(self) -> None:
        """Every float must be finite; each comparison is negated, so NaN fails it."""
        for name in ("centroid_scale", "noise", "aux_centroid_scale"):
            if not math.isfinite(getattr(self, name)):
                raise SynthSpecError(f"{name} must be finite, got {getattr(self, name)}")
        if self.classes < 2:
            raise SynthSpecError("need at least 2 classes")
        if self.targets_per_class < 1:
            raise SynthSpecError("need at least 1 target node per class")
        if self.attr_dim < 0:
            raise SynthSpecError("attr_dim must be >= 0")
        names = [self.target_type] + [a.name for a in self.aux_types]
        if not all(isinstance(n, str) for n in names):
            raise SynthSpecError("type names must be strings")
        named = [n for r in self.relations for n in (r.name, r.src, r.dst)]
        named += [n for m in self.metapaths for n in (m.name, *m.steps)]
        if not all(isinstance(n, str) for n in named):
            raise SynthSpecError("type, relation and meta-path names must be strings")
        for a in self.aux_types:
            if min(a.size, a.attr_dim) < 0:
                raise SynthSpecError(f"aux type '{a.name}': size and attr_dim must be >= 0")
        try:
            check_schema(names, self.relations, self.target_type, self.metapaths)
        except SchemaError as exc:
            raise SynthSpecError(str(exc)) from None
        for r in self.relations:
            if not (0 <= r.intra < math.inf and 0 <= r.inter < math.inf
                    and r.intra + r.inter > 0):
                raise SynthSpecError(f"relation '{r.name}': bad attach probabilities")
            if not 0 < r.degree < math.inf:
                raise SynthSpecError(f"relation '{r.name}': degree must be positive and finite")


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
        weight = np.where(cs[:, None] == cd[None, :], rel.intra, rel.inter)
        row_total = weight.sum(axis=1, keepdims=True)
        prob = np.minimum(rel.degree * weight / np.where(row_total > 0, row_total, 1.0), 1.0)
        hit = gen.random(prob.shape) < prob
        edges[rel.name] = np.argwhere(hit).astype(np.int64)

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
