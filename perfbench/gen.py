"""Seeded planted-class bundle generator for the benchmark.

Each bundle is a heterogeneous graph with three latent classes. Every node,
target or auxiliary, carries a class; a relation links a (src, dst) pair with
probability proportional to its intra- or inter-class weight, scaled so a
source node's expected degree matches the relation's degree. Target
attributes are a class centroid plus Gaussian noise; a centroid scale of 0
makes the labels attribute-independent.

The generator draws from NumPy's PCG64 keyed by (seed, bundle name) and writes
the bundle files itself, so nothing in ``mug`` (its synthesizer, its random
streams or its writer) can change the benchmark's inputs. The same seed gives
byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
import os
import zlib
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

CLASSES = 3


@dataclass(frozen=True)
class Rel:
    name: str
    src: str
    dst: str
    degree: float
    intra: float = 0.9
    inter: float = 0.1


@dataclass(frozen=True)
class BundleSpec:
    name: str
    target: str
    per_class: int
    attr_dim: int
    centroid_scale: float
    aux: Tuple[Tuple[str, int], ...]
    rels: Tuple[Rel, ...]
    # one 2-step palindromic meta-path per relation: T -r- X -r- T
    views: Tuple[Tuple[str, str], ...]    # (meta-path name, relation name)
    noise: float = 0.5

    @property
    def n_target(self) -> int:
        return CLASSES * self.per_class


def _paper_bundle(name: str, per_class: int, authors: int, subjects: int,
                  centroid_scale: float) -> BundleSpec:
    return BundleSpec(
        name=name, target="paper", per_class=per_class, attr_dim=7,
        centroid_scale=centroid_scale,
        aux=(("author", authors), ("subject", subjects)),
        rels=(Rel("pa", "paper", "author", 3.0), Rel("ps", "paper", "subject", 2.0)),
        views=(("PAP", "pa"), ("PSP", "ps")),
    )


# Acceptance graph A: 300 targets, 2 views, 7 attribute-independent attributes.
GRAPH_A = _paper_bundle("A", 100, 60, 30, 0.0)

# Acceptance graph B: 300 targets, 3 views, 19 attributes; "dm" is declared
# director -> movie, so its walks traverse it backwards.
GRAPH_B = BundleSpec(
    name="B", target="movie", per_class=100, attr_dim=19, centroid_scale=0.0,
    aux=(("actor", 75), ("director", 24), ("writer", 45)),
    rels=(Rel("ma", "movie", "actor", 3.0), Rel("dm", "director", "movie", 20.0),
          Rel("mw", "movie", "writer", 2.0)),
    views=(("MAM", "ma"), ("MDM", "dm"), ("MWM", "mw")),
)

# 2,100 targets over a few shared authors/subjects: each view holds ~13% of pairs.
DENSE = _paper_bundle("dense", 700, 60, 30, 1.0)

# Same targets, auxiliary types scaled up: each view holds ~0.5% of pairs.
SPARSE = _paper_bundle("sparse", 700, 2100, 700, 1.0)


def _rng(seed: int, name: str) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64([seed, zlib.crc32(name.encode())]))


@dataclass
class Graph:
    spec: BundleSpec
    sizes: Dict[str, int]
    edges: Dict[str, np.ndarray]      # relation -> (E, 2) local (src, dst)
    attrs: np.ndarray                 # n_target x attr_dim
    labels: np.ndarray


def generate(spec: BundleSpec, seed: int) -> Graph:
    gen = _rng(seed, spec.name)
    labels = np.repeat(np.arange(CLASSES), spec.per_class)
    sizes = {spec.target: spec.n_target}
    classes = {spec.target: labels}
    for aux, size in spec.aux:
        sizes[aux] = size
        classes[aux] = np.arange(size) % CLASSES

    edges = {}
    for rel in spec.rels:
        same = classes[rel.src][:, None] == classes[rel.dst][None, :]
        weight = np.where(same, rel.intra, rel.inter)
        prob = np.minimum(rel.degree * weight / weight.sum(axis=1, keepdims=True), 1.0)
        edges[rel.name] = np.argwhere(gen.random(prob.shape) < prob).astype(np.int64)

    centroids = np.zeros((CLASSES, spec.attr_dim))
    for k in range(CLASSES):
        centroids[k, k % spec.attr_dim] = spec.centroid_scale
    attrs = centroids[labels] + spec.noise * gen.standard_normal(
        (spec.n_target, spec.attr_dim))
    return Graph(spec, sizes, edges, attrs, labels)


def _target_aux_pairs(g: Graph, rel: Rel) -> np.ndarray:
    """(target, aux) local index pairs of one relation, whatever its orientation."""
    e = g.edges[rel.name]
    return e if rel.src == g.spec.target else e[:, ::-1]


def view_edges(g: Graph, rel_name: str) -> int:
    """Ordered off-diagonal target pairs joined by the view T -rel- X -rel- T."""
    rel = next(r for r in g.spec.rels if r.name == rel_name)
    ta = _target_aux_pairs(g, rel)
    n = g.spec.n_target
    order = np.argsort(ta[:, 1], kind="stable")
    t, a = ta[order, 0], ta[order, 1]
    bounds = np.flatnonzero(np.diff(a)) + 1
    codes = [(grp[:, None] * n + grp[None, :]).ravel()
             for grp in np.split(t, bounds) if len(grp) > 1]
    if not codes:
        return 0
    codes = np.unique(np.concatenate(codes))
    return int((codes // n != codes % n).sum())


def walk_pairs(g: Graph, walks_per_node: int, walk_length: int, window: int) -> int:
    """Window pairs one struct table trains on.

    A walk along T -r- X -r- T ... stops at its start only when that target
    has no r-neighbor; every other walk runs its full length, because each
    node it reaches has the neighbor it came from. So the count is exact.
    """
    n = walk_length + 1
    per_walk = sum(min(i + window, n - 1) - max(i - window, 0) for i in range(n))
    total = 0
    for _, rel_name in g.spec.views:
        rel = next(r for r in g.spec.rels if r.name == rel_name)
        linked = np.unique(_target_aux_pairs(g, rel)[:, 0]).size
        total += linked * walks_per_node * per_walk
    return total


def write_bundle(g: Graph, path: str) -> None:
    """Write the bundle layout ``mug`` loads: schema.json plus TSV files."""
    spec = g.spec
    os.makedirs(path, exist_ok=True)
    node_types = [spec.target] + [a for a, _ in spec.aux]
    ids = {t: [f"{t}{i}" for i in range(g.sizes[t])] for t in node_types}
    schema = {
        "node_types": node_types,
        "relations": [{"name": r.name, "src": r.src, "dst": r.dst} for r in spec.rels],
        "target_type": spec.target,
        "metapaths": [],
    }
    for mp, rel_name in spec.views:
        rel = next(r for r in spec.rels if r.name == rel_name)
        aux = rel.dst if rel.src == spec.target else rel.src
        schema["metapaths"].append(
            {"name": mp, "steps": [spec.target, rel_name, aux, rel_name, spec.target]})
    with open(os.path.join(path, "schema.json"), "w", encoding="utf-8") as fh:
        json.dump(schema, fh, indent=2)
        fh.write("\n")
    with open(os.path.join(path, "nodes.tsv"), "w", encoding="utf-8") as fh:
        fh.write("node_id\ttype\n")
        fh.writelines(f"{nid}\t{t}\n" for t in node_types for nid in ids[t])
    with open(os.path.join(path, "edges.tsv"), "w", encoding="utf-8") as fh:
        fh.write("src_id\trelation\tdst_id\n")
        for rel in spec.rels:
            fh.writelines(f"{ids[rel.src][s]}\t{rel.name}\t{ids[rel.dst][d]}\n"
                          for s, d in g.edges[rel.name])
    with open(os.path.join(path, f"features.{spec.target}.tsv"), "w",
              encoding="utf-8") as fh:
        fh.write("\t".join(["node_id"] + [f"f{i}" for i in range(spec.attr_dim)]) + "\n")
        for nid, row in zip(ids[spec.target], g.attrs):
            fh.write(nid + "\t" + "\t".join(repr(float(v)) for v in row) + "\n")
    with open(os.path.join(path, "labels.tsv"), "w", encoding="utf-8") as fh:
        fh.write("node_id\tclass_id\n")
        fh.writelines(f"{nid}\t{int(c)}\n" for nid, c in zip(ids[spec.target], g.labels))


def dir_digest(path: str) -> str:
    """sha256 over the sorted file names and contents of a bundle directory."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(path, name), "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def describe(g: Graph) -> Dict[str, object]:
    """Input properties recorded with every run."""
    n = g.spec.n_target
    density = {mp: view_edges(g, rel) / (n * (n - 1)) for mp, rel in g.spec.views}
    return {"targets": n, "views": len(g.spec.views), "view_density": density}


def build(spec: BundleSpec, seed: int, path: str) -> Tuple[Graph, Dict[str, object]]:
    g = generate(spec, seed)
    write_bundle(g, path)
    info = describe(g)
    info["digest"] = dir_digest(path)
    return g, info
