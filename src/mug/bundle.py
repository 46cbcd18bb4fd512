"""On-disk graph bundles: schema.json + TSV files, loaded with full validation.

Every text input of mug is read here, by four readers: read_text opens a
file, read_json parses JSON, _read_rows splits a table whose header and rows
are one width, and read_floats makes a float matrix of numbered rows. Every
fault they find, like every fault load_bundle and config.read_settings find,
raises BundleError, which names the file and the line where the fault has one;
the CLI reports it as a ValueError, exit 2. write_text writes every output file.

schema.json is checked in full (hetgraph.check_schema) before any row is
read, so a schema fault is reported against schema.json, never as a row error.
A key it does not define, at its top level or in a relations or metapaths
entry, is a fault, named as mug synth names one in a spec.

All files are UTF-8, tab-separated, LF line endings, one header line; a
leading byte-order mark is allowed. Floats are written by format_floats, with
repr() (shortest round-tripping decimal), so a load/save cycle is bit-exact.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .hetgraph import HetGraph, MetaPath, Relation, SchemaError, check_schema


class BundleError(ValueError):
    """Any fault in an input file: missing, unreadable, bad JSON, a bad row, an
    undeclared name or node, a bad setting line. Carries the file and the line
    (0 when the fault has none) and reads "file:line: message" or "file: message"."""

    def __init__(self, message: str, file: str, line: int = 0):
        super().__init__(f"{file}:{line}: {message}" if line else f"{file}: {message}")
        self.file = file
        self.line = line


def read_text(path: str) -> str:
    """The whole of a UTF-8 text file, less a leading byte-order mark.

    A missing file, a directory or bytes that are not UTF-8 raise an error naming it.
    """
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return fh.read()
    except FileNotFoundError:
        raise BundleError("file not found", path) from None
    except UnicodeDecodeError as exc:
        raise BundleError(f"not UTF-8 text: {exc}", path) from None
    except OSError as exc:
        raise BundleError((exc.strerror or str(exc)).lower(), path) from None


def write_text(path: str, text: str) -> None:
    """Replace the file at path with text, as UTF-8."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def read_json(path: str):
    """The JSON value in a text file; a syntax fault names its path:line."""
    try:
        return json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise BundleError(f"invalid JSON: {exc.msg}", path, exc.lineno) from None


def read_floats(rows: Sequence[Tuple[int, List[str]]], path: str,
                width: Optional[int] = None) -> np.ndarray:
    """A float64 matrix of (line number, cells) rows, each width cells wide (the
    first row's width when None). A row of another width, a cell that is not a
    number or a non-finite value raises BundleError at that row's path:line;
    finiteness is checked once per matrix."""
    if width is None:
        width = len(rows[0][1]) if rows else 0
    values = []
    for lineno, cells in rows:
        if len(cells) != width:
            raise BundleError(f"expected {width} values, got {len(cells)}", path, lineno)
        try:
            values.append([float(v) for v in cells])
        except ValueError:
            raise BundleError("non-numeric value", path, lineno) from None
    mat = np.array(values, dtype=np.float64).reshape(len(values), width)
    bad = np.flatnonzero(~np.isfinite(mat).all(axis=1))
    if len(bad):
        raise BundleError("non-finite value", path, rows[bad[0]][0])
    return mat


def format_floats(values, sep: str) -> str:
    """One row of floats, each as repr(float(v)): the form every float writer uses."""
    return sep.join(map(repr, np.asarray(values, dtype=np.float64).tolist()))


def _read_rows(path: str, width: int = 0):
    """(line number, cells) of every row after the header; the header and each
    row must be width cells wide, or as wide as the header when width is 0."""
    lines = read_text(path).split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise BundleError("empty file (missing header)", path, 1)
    width = width or lines[0].count("\t") + 1
    for lineno, line in enumerate(lines, start=1):
        cells = line.split("\t")
        if len(cells) != width:
            raise BundleError(f"expected {width} columns, got {len(cells)}", path, lineno)
        if lineno > 1:
            yield lineno, cells


def _is_names(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def _entries(schema: dict, key: str, fields: tuple, path: str) -> List[tuple]:
    """The fields of every object in the schema list schema[key], which has no others.

    Every field is a name, except 'steps', which is a list of names.
    """
    for i, entry in enumerate(schema[key] if isinstance(schema[key], list) else ()):
        unknown = [k for k in entry if k not in fields] if isinstance(entry, dict) else ()
        if unknown:
            raise BundleError(f"{key}[{i}] has unknown key '{unknown[0]}'", path)
    try:
        rows = [tuple(entry[f] for f in fields) for entry in schema[key]]
    except (KeyError, TypeError):
        rows = None
    if rows is None or not all(_is_names(v) if f == "steps" else isinstance(v, str)
                               for row in rows for f, v in zip(fields, row)):
        raise BundleError(
            f"'{key}' must be a list of objects with {', '.join(fields)}", path)
    return rows


def load_bundle(path: str) -> HetGraph:
    """Load and fully validate a bundle directory."""
    schema_path = os.path.join(path, "schema.json")
    schema = read_json(schema_path)
    if not isinstance(schema, dict):
        raise BundleError("schema must be a JSON object", schema_path)
    keys = ("node_types", "relations", "target_type", "metapaths")
    unknown = [key for key in schema if key not in keys]
    if unknown:
        raise BundleError(f"schema has unknown key '{unknown[0]}'", schema_path)
    for key in keys:
        if key not in schema:
            raise BundleError(f"schema missing key '{key}'", schema_path)
    if not _is_names(schema["node_types"]):
        raise BundleError("'node_types' must be a list of names", schema_path)
    if not isinstance(schema["target_type"], str):
        raise BundleError("'target_type' must be a name", schema_path)
    node_types: List[str] = list(schema["node_types"])
    relations = [Relation(*r) for r in
                 _entries(schema, "relations", ("name", "src", "dst"), schema_path)]
    entries = _entries(schema, "metapaths", ("name", "steps"), schema_path)
    try:
        metapaths = [MetaPath.from_steps(*m) for m in entries]
        check_schema(node_types, relations, schema["target_type"], metapaths)
    except SchemaError as exc:
        raise BundleError(str(exc), schema_path) from None

    # nodes.tsv: id -> (type, local index)
    nodes_path = os.path.join(path, "nodes.tsv")
    node_ids: Dict[str, List[str]] = {t: [] for t in node_types}
    lookup: Dict[str, tuple] = {}
    for lineno, row in _read_rows(nodes_path, 2):
        nid, ntype = row
        if ntype not in node_ids:
            raise BundleError(f"unknown node type '{ntype}'", nodes_path, lineno)
        if nid in lookup:
            raise BundleError(f"duplicate node id '{nid}'", nodes_path, lineno)
        lookup[nid] = (ntype, len(node_ids[ntype]))
        node_ids[ntype].append(nid)
    counts = {t: len(ids) for t, ids in node_ids.items()}

    # edges.tsv
    edges_path = os.path.join(path, "edges.tsv")
    rel_by_name = {r.name: r for r in relations}   # one per name: check_schema ran
    edge_lists: Dict[str, List[tuple]] = {r.name: [] for r in relations}
    for lineno, row in _read_rows(edges_path, 3):
        src_id, rname, dst_id = row
        if rname not in rel_by_name:
            raise BundleError(f"unknown relation '{rname}'", edges_path, lineno)
        rel = rel_by_name[rname]
        for nid, want in ((src_id, rel.src), (dst_id, rel.dst)):
            got = lookup.get(nid)
            if got is None:
                raise BundleError(f"node id '{nid}' not in nodes.tsv", edges_path, lineno)
            if got[0] != want:
                raise BundleError(
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
        rows: Dict[int, tuple] = {}   # local index -> (line, values), in file order
        for lineno, row in _read_rows(fpath):
            if len(row) < 2:
                raise BundleError("expected node_id plus at least one value", fpath, lineno)
            nid = row[0]
            got = lookup.get(nid)
            if got is None or got[0] != t:
                raise BundleError(f"node id '{nid}' is not a '{t}' node", fpath, lineno)
            if got[1] in rows:
                raise BundleError(f"second feature row for node '{nid}'", fpath, lineno)
            rows[got[1]] = (lineno, row[1:])
        values = read_floats(list(rows.values()), fpath)
        if len(rows) != counts[t]:
            raise BundleError(f"features cover {len(rows)} of {counts[t]} '{t}' nodes", fpath)
        attrs[t] = np.empty_like(values)
        attrs[t][list(rows)] = values

    # labels.tsv (optional, target type only, must cover all target nodes)
    labels = None
    lpath = os.path.join(path, "labels.tsv")
    if os.path.exists(lpath):
        target = schema["target_type"]
        lab = np.full(counts[target], -1, dtype=np.int64)
        for lineno, row in _read_rows(lpath, 2):
            nid, cls = row
            got = lookup.get(nid)
            if got is None or got[0] != target:
                raise BundleError(f"node id '{nid}' is not a target node", lpath, lineno)
            if lab[got[1]] >= 0:
                raise BundleError(f"second label row for node '{nid}'", lpath, lineno)
            try:
                c = int(cls)
            except ValueError:
                raise BundleError(f"non-integer class id '{cls}'", lpath, lineno)
            if not 0 <= c < len(lab):
                raise BundleError(f"class id {c} is outside [0, {len(lab)})", lpath, lineno)
            lab[got[1]] = c
        if (lab < 0).any():
            raise BundleError(f"labels cover {(lab >= 0).sum()} of {len(lab)} target nodes",
                              lpath)
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
    write_text(os.path.join(path, "schema.json"), json.dumps(schema, indent=2) + "\n")
    write_text(os.path.join(path, "nodes.tsv"), "node_id\ttype\n" + "".join(
        f"{nid}\t{t}\n" for t in g.node_types for nid in g.node_ids[t]))
    write_text(os.path.join(path, "edges.tsv"), "src_id\trelation\tdst_id\n" + "".join(
        f"{g.node_ids[r.src][s]}\t{r.name}\t{g.node_ids[r.dst][d]}\n"
        for r in g.relations for s, d in g.edges.get(r.name, ())))
    for t, mat in g.attrs.items():
        if mat is not None:
            header = "\t".join(["node_id"] + [f"f{i}" for i in range(mat.shape[1])]) + "\n"
            rows = (nid + "\t" + format_floats(row, "\t") + "\n"
                    for nid, row in zip(g.node_ids[t], mat))
            write_text(os.path.join(path, f"features.{t}.tsv"), header + "".join(rows))
    if g.labels is not None:
        write_text(os.path.join(path, "labels.tsv"), "node_id\tclass_id\n" + "".join(
            f"{nid}\t{int(cls)}\n" for nid, cls in zip(g.node_ids[g.target_type], g.labels)))
