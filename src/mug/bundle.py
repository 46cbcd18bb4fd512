"""On-disk graph bundles: schema.json + TSV files, loaded with full validation.

schema.json is checked in full (hetgraph.check_schema) before any row is
read, so a schema fault is reported against schema.json, never as a row error.

All files are UTF-8, tab-separated, LF line endings, one header line; a
leading byte-order mark is allowed. Floats are written by format_floats, with
repr() (shortest round-tripping decimal), so a load/save cycle is bit-exact.
"""

from __future__ import annotations

import json
import math
import os
from typing import Dict, List, Optional

import numpy as np

from .hetgraph import HetGraph, MetaPath, Relation, SchemaError, check_schema


class BundleError(Exception):
    """Base for problems reading a bundle or another text input; carries file and line."""

    def __init__(self, message: str, file: str, line: int = 0):
        super().__init__(f"{file}:{line}: {message}" if line else f"{file}: {message}")
        self.file = file
        self.line = line


class MissingFileError(BundleError):
    pass


class MalformedRowError(BundleError):
    pass


class UnknownNameError(BundleError):
    """A row references an undeclared node type or relation."""


class UnknownNodeError(BundleError):
    """A row references a node id that does not exist (or has the wrong type)."""


def read_text(path: str) -> str:
    """The whole of a UTF-8 text file, less a leading byte-order mark.

    Bytes that are not UTF-8 raise an error naming the file.
    """
    with open(path, encoding="utf-8-sig") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise BundleError(f"not UTF-8 text: {exc}", path) from None


def format_floats(values, sep: str) -> str:
    """One row of floats, each as repr(float(v)): the form every float writer uses."""
    return sep.join(map(repr, np.asarray(values, dtype=np.float64).tolist()))


def _read_rows(path: str):
    if not os.path.exists(path):
        raise MissingFileError("file not found", path)
    lines = read_text(path).split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise MalformedRowError("empty file (missing header)", path, 1)
    for lineno, line in enumerate(lines[1:], start=2):
        yield lineno, line.split("\t")


def _is_names(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def _entries(schema: dict, key: str, fields: tuple, path: str) -> List[tuple]:
    """The required fields of every object in the schema list schema[key].

    Every field is a name, except 'steps', which is a list of names.
    """
    try:
        rows = [tuple(entry[f] for f in fields) for entry in schema[key]]
    except (KeyError, TypeError):
        rows = None
    if rows is None or not all(_is_names(v) if f == "steps" else isinstance(v, str)
                               for row in rows for f, v in zip(fields, row)):
        raise MalformedRowError(
            f"'{key}' must be a list of objects with {', '.join(fields)}", path)
    return rows


def load_bundle(path: str) -> HetGraph:
    """Load and fully validate a bundle directory."""
    schema_path = os.path.join(path, "schema.json")
    if not os.path.exists(schema_path):
        raise MissingFileError("file not found", schema_path)
    try:
        schema = json.loads(read_text(schema_path))
    except json.JSONDecodeError as exc:
        raise MalformedRowError(f"invalid JSON: {exc.msg}", schema_path, exc.lineno)

    if not isinstance(schema, dict):
        raise MalformedRowError("schema must be a JSON object", schema_path)
    for key in ("node_types", "relations", "target_type", "metapaths"):
        if key not in schema:
            raise MalformedRowError(f"schema missing key '{key}'", schema_path)
    if not _is_names(schema["node_types"]):
        raise MalformedRowError("'node_types' must be a list of names", schema_path)
    if not isinstance(schema["target_type"], str):
        raise MalformedRowError("'target_type' must be a name", schema_path)
    node_types: List[str] = list(schema["node_types"])
    relations = [Relation(*r) for r in
                 _entries(schema, "relations", ("name", "src", "dst"), schema_path)]
    entries = _entries(schema, "metapaths", ("name", "steps"), schema_path)
    try:
        metapaths = [MetaPath.from_steps(*m) for m in entries]
        check_schema(node_types, relations, schema["target_type"], metapaths)
    except SchemaError as exc:
        raise MalformedRowError(str(exc), schema_path) from None

    # nodes.tsv: id -> (type, local index)
    nodes_path = os.path.join(path, "nodes.tsv")
    node_ids: Dict[str, List[str]] = {t: [] for t in node_types}
    lookup: Dict[str, tuple] = {}
    for lineno, row in _read_rows(nodes_path):
        if len(row) != 2:
            raise MalformedRowError(f"expected 2 columns, got {len(row)}", nodes_path, lineno)
        nid, ntype = row
        if ntype not in node_ids:
            raise UnknownNameError(f"unknown node type '{ntype}'", nodes_path, lineno)
        if nid in lookup:
            raise MalformedRowError(f"duplicate node id '{nid}'", nodes_path, lineno)
        lookup[nid] = (ntype, len(node_ids[ntype]))
        node_ids[ntype].append(nid)
    counts = {t: len(ids) for t, ids in node_ids.items()}

    # edges.tsv
    edges_path = os.path.join(path, "edges.tsv")
    rel_by_name = {r.name: r for r in relations}   # one per name: check_schema ran
    edge_lists: Dict[str, List[tuple]] = {r.name: [] for r in relations}
    for lineno, row in _read_rows(edges_path):
        if len(row) != 3:
            raise MalformedRowError(f"expected 3 columns, got {len(row)}", edges_path, lineno)
        src_id, rname, dst_id = row
        if rname not in rel_by_name:
            raise UnknownNameError(f"unknown relation '{rname}'", edges_path, lineno)
        rel = rel_by_name[rname]
        for nid, want in ((src_id, rel.src), (dst_id, rel.dst)):
            got = lookup.get(nid)
            if got is None:
                raise UnknownNodeError(f"node id '{nid}' not in nodes.tsv", edges_path, lineno)
            if got[0] != want:
                raise UnknownNodeError(
                    f"node '{nid}' has type '{got[0]}', relation '{rname}' needs '{want}'",
                    edges_path, lineno,
                )
        edge_lists[rname].append((lookup[src_id][1], lookup[dst_id][1]))
    edges = {
        name: np.array(pairs, dtype=np.int64).reshape(-1, 2)
        for name, pairs in edge_lists.items()
    }

    # features.<type>.tsv (optional per type)
    attrs: Dict[str, Optional[np.ndarray]] = {t: None for t in node_types}
    for t in node_types:
        fpath = os.path.join(path, f"features.{t}.tsv")
        if not os.path.exists(fpath):
            continue
        rows: Dict[int, List[float]] = {}
        width = None
        for lineno, row in _read_rows(fpath):
            if len(row) < 2:
                raise MalformedRowError("expected node_id plus at least one value", fpath, lineno)
            nid, vals = row[0], row[1:]
            got = lookup.get(nid)
            if got is None or got[0] != t:
                raise UnknownNodeError(f"node id '{nid}' is not a '{t}' node", fpath, lineno)
            if got[1] in rows:
                raise MalformedRowError(f"second feature row for node '{nid}'", fpath, lineno)
            if width is None:
                width = len(vals)
            elif len(vals) != width:
                raise MalformedRowError(
                    f"expected {width} values, got {len(vals)}", fpath, lineno
                )
            try:
                rows[got[1]] = [float(v) for v in vals]
            except ValueError:
                raise MalformedRowError("non-numeric feature value", fpath, lineno)
            if not all(map(math.isfinite, rows[got[1]])):
                raise MalformedRowError("non-finite feature value", fpath, lineno)
        if len(rows) != counts[t]:
            raise MalformedRowError(
                f"features cover {len(rows)} of {counts[t]} '{t}' nodes", fpath
            )
        mat = np.zeros((counts[t], width or 0), dtype=np.float64)
        for local, vals in rows.items():
            mat[local] = vals
        attrs[t] = mat

    # labels.tsv (optional, target type only, must cover all target nodes)
    labels = None
    lpath = os.path.join(path, "labels.tsv")
    if os.path.exists(lpath):
        target = schema["target_type"]
        lab = np.full(counts[target], -1, dtype=np.int64)
        for lineno, row in _read_rows(lpath):
            if len(row) != 2:
                raise MalformedRowError(f"expected 2 columns, got {len(row)}", lpath, lineno)
            nid, cls = row
            got = lookup.get(nid)
            if got is None or got[0] != target:
                raise UnknownNodeError(f"node id '{nid}' is not a target node", lpath, lineno)
            if lab[got[1]] >= 0:
                raise MalformedRowError(f"second label row for node '{nid}'", lpath, lineno)
            try:
                c = int(cls)
            except ValueError:
                raise MalformedRowError(f"non-integer class id '{cls}'", lpath, lineno)
            if not 0 <= c < len(lab):
                raise MalformedRowError(f"class id {c} is outside [0, {len(lab)})",
                                        lpath, lineno)
            lab[got[1]] = c
        if (lab < 0).any():
            raise MalformedRowError(
                f"labels cover {(lab >= 0).sum()} of {len(lab)} target nodes", lpath
            )
        labels = lab

    return HetGraph(
        node_types=node_types,
        relations=relations,
        counts=counts,
        node_ids=node_ids,
        edges=edges,
        target_type=schema["target_type"],
        attrs=attrs,
        labels=labels,
        metapaths=metapaths,
    )


def save_bundle(g: HetGraph, path: str) -> None:
    """Write a graph as a bundle directory (deterministic byte layout)."""
    os.makedirs(path, exist_ok=True)
    schema = {
        "node_types": g.node_types,
        "relations": [{"name": r.name, "src": r.src, "dst": r.dst} for r in g.relations],
        "target_type": g.target_type,
        "metapaths": [{"name": m.name, "steps": list(m.steps)} for m in g.metapaths],
    }
    with open(os.path.join(path, "schema.json"), "w", encoding="utf-8") as fh:
        json.dump(schema, fh, indent=2)
        fh.write("\n")

    with open(os.path.join(path, "nodes.tsv"), "w", encoding="utf-8") as fh:
        fh.write("node_id\ttype\n")
        for t in g.node_types:
            for nid in g.node_ids[t]:
                fh.write(f"{nid}\t{t}\n")

    with open(os.path.join(path, "edges.tsv"), "w", encoding="utf-8") as fh:
        fh.write("src_id\trelation\tdst_id\n")
        for rel in g.relations:
            ids_src = g.node_ids[rel.src]
            ids_dst = g.node_ids[rel.dst]
            for s, d in g.edges.get(rel.name, ()):
                fh.write(f"{ids_src[s]}\t{rel.name}\t{ids_dst[d]}\n")

    for t in g.node_types:
        mat = g.attrs.get(t)
        if mat is None:
            continue
        with open(os.path.join(path, f"features.{t}.tsv"), "w", encoding="utf-8") as fh:
            header = "\t".join(["node_id"] + [f"f{i}" for i in range(mat.shape[1])])
            fh.write(header + "\n")
            for nid, row in zip(g.node_ids[t], mat):
                fh.write(nid + "\t" + format_floats(row, "\t") + "\n")

    if g.labels is not None:
        with open(os.path.join(path, "labels.tsv"), "w", encoding="utf-8") as fh:
            fh.write("node_id\tclass_id\n")
            for nid, cls in zip(g.node_ids[g.target_type], g.labels):
                fh.write(f"{nid}\t{int(cls)}\n")
