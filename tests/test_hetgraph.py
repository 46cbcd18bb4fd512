"""Graph model, meta-path composition vs enumeration oracle, homophily, bundles."""

import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from mug import bundle as bio
from mug import synth
from mug.hetgraph import (
    HetGraph,
    MetaPath,
    Relation,
    SchemaError,
    all_views,
    class_frequency_baseline,
    homophily_ratio,
    homophily_report,
    metapath_edges,
    step_csr,
)
from mug.rng import RngStream


def make_graph(counts, relations, edges, metapaths=(), target="T", labels=None, attrs=None):
    node_types = list(counts)
    return HetGraph(
        node_types=node_types,
        relations=[Relation(*r) for r in relations],
        counts=dict(counts),
        node_ids={t: [f"{t}{i}" for i in range(counts[t])] for t in node_types},
        edges={k: np.array(v, dtype=np.int64).reshape(-1, 2) for k, v in edges.items()},
        target_type=target,
        attrs=attrs or {},
        labels=None if labels is None else np.asarray(labels),
        metapaths=[MetaPath.from_steps(n, s) for n, s in metapaths],
    )


from oracles import enumerate_pairs  # noqa: E402  (shared with acceptance suite)
from helpers import (  # noqa: E402
    FINITE_FLOATS, NO_SHRINK, is_palindromic, metapath, three_view_spec, view_of)


# -- meta-path views -----------------------------------------------------------


def dense_view(g, mp):
    return oracles.dense_edges(metapath_edges(g, mp))


def test_two_papers_one_author():
    g = make_graph(
        {"T": 2, "A": 1},
        [("pa", "T", "A")],
        {"pa": [(0, 0), (1, 0)]},
        metapaths=[("PAP", ["T", "pa", "A", "pa", "T"])],
    )
    adj = dense_view(g, g.metapaths[0])
    assert adj.tolist() == [[False, True], [True, False]]


def test_disjoint_relations_give_zero_matrix():
    g = make_graph(
        {"T": 3, "A": 2},
        [("pa", "T", "A")],
        {"pa": [(0, 0), (1, 1)]},  # no shared intermediate with node 2
        metapaths=[("PAP", ["T", "pa", "A", "pa", "T"])],
    )
    adj = dense_view(g, g.metapaths[0])
    assert adj[2].sum() == 0 and adj[:, 2].sum() == 0
    assert not adj[0, 1]  # different authors


def _random_graph(rng):
    n_t = int(rng.integers(2, 31))
    n_a = int(rng.integers(1, 15))
    n_b = int(rng.integers(1, 15))
    def rand_edges(n, m, p):
        mask = rng.random((n, m)) < p
        return np.argwhere(mask)
    return make_graph(
        {"T": n_t, "A": n_a, "B": n_b},
        [("r1", "T", "A"), ("r2", "A", "B"), ("r3", "B", "T"), ("r4", "T", "B")],
        {
            "r1": rand_edges(n_t, n_a, rng.uniform(0.05, 0.3)),
            "r2": rand_edges(n_a, n_b, rng.uniform(0.05, 0.3)),
            "r3": rand_edges(n_b, n_t, rng.uniform(0.05, 0.3)),
            "r4": rand_edges(n_t, n_b, rng.uniform(0.05, 0.3)),
        },
        metapaths=[
            ("two", ["T", "r1", "A", "r1", "T"]),
            ("rev", ["T", "r3", "B", "r3", "T"]),
            ("three", ["T", "r1", "A", "r2", "B", "r3", "T"]),
            ("mix", ["T", "r4", "B", "r2", "A", "r1", "T"]),
        ],
    )


def test_adjacency_matches_enumeration_oracle_100_graphs():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        g = _random_graph(rng)
        for mp in g.metapaths:
            got = dense_view(g, mp)
            want = enumerate_pairs(g, mp)
            assert np.array_equal(got, want), mp.name


def test_step_csr_rows_are_sorted_and_deduplicated():
    rng = np.random.default_rng(31)
    for _ in range(30):
        g = _random_graph(rng)
        for name in g.edges:   # shuffled, with every edge stored twice
            e = np.concatenate([g.edges[name], g.edges[name]])
            g.edges[name] = e[rng.permutation(len(e))]
        rel_by_name = {r.name: r for r in g.relations}
        for mp in g.metapaths:
            for step in range(mp.length):
                indptr, indices = step_csr(g, mp, step)
                src, dst = mp.types[step], mp.types[step + 1]
                rel = rel_by_name[mp.relations[step]]
                edges = g.edges[rel.name]
                pairs = edges if (rel.src, rel.dst) == (src, dst) else edges[:, ::-1]
                rows = [sorted({int(v) for u, v in pairs if u == node})
                        for node in range(g.counts[src])]
                assert indptr.dtype == indices.dtype == np.int64
                assert indptr.tolist() == [0] + np.cumsum([len(r) for r in rows]).tolist()
                assert indices.tolist() == [v for r in rows for v in r]


def test_palindromic_views_are_symmetric():
    rng = np.random.default_rng(7)
    for _ in range(25):
        g = _random_graph(rng)
        for mp in g.metapaths:
            if is_palindromic(mp):
                adj = dense_view(g, mp)
                assert metapath_edges(g, mp).symmetric
                assert np.array_equal(adj, adj.T)
                assert not adj.diagonal().any()


def assert_equals_dense_builder(g, mp):
    """metapath_edges lists what the dense builder's matrix holds, field for field.

    The full list is the matrix's np.nonzero; its pairs() are the dense
    builder's edge list (upper triangle when symmetric), in the same order.
    """
    adj = oracles.metapath_adjacency(g, mp)
    want = oracles.edge_list(adj)
    got = metapath_edges(g, mp)
    assert got.shape == want.shape
    assert got.symmetric == want.symmetric, mp.name
    rows, cols = got.pairs()
    assert rows.dtype == cols.dtype == want.rows.dtype == want.cols.dtype == np.int32
    assert rows.tobytes() == want.rows.tobytes(), mp.name
    assert cols.tobytes() == want.cols.tobytes(), mp.name
    full_rows, full_cols = np.nonzero(adj)
    assert np.array_equal(got.rows, full_rows) and np.array_equal(got.cols, full_cols)
    return got


def test_views_equal_the_dense_builder_on_acceptance_graphs_a_and_b():
    graph_a = synth.generate(synth.SynthSpec.from_dict(
        synth.two_view_spec(attr_dim=7, centroid_scale=0.0)), RngStream(100))
    graph_b = synth.generate(synth.SynthSpec.from_dict(
        three_view_spec(attr_dim=19, centroid_scale=0.0)), RngStream(200))
    for g in (graph_a, graph_b):
        for mp in g.metapaths:
            assert assert_equals_dense_builder(g, mp).symmetric
    mdm = metapath(graph_b, "MDM")   # its relation is declared director -> movie
    assert assert_equals_dense_builder(graph_b, mdm).rows.size > 0


def test_views_equal_the_dense_builder_on_non_palindromic_paths():
    rng = np.random.default_rng(5)
    seen = set()
    for _ in range(30):
        g = _random_graph(rng)
        for mp in g.metapaths:   # "three" and "mix" have three steps
            seen.add((mp.length, assert_equals_dense_builder(g, mp).symmetric))
    assert (3, False) in seen
    pairs = [(0, 0), (1, 0), (2, 1), (3, 1), (3, 0)]

    def two_relation_graph(tb_pairs):
        return make_graph({"T": 5, "A": 2}, [("ta", "T", "A"), ("tb", "T", "A")],
                          {"ta": pairs, "tb": tb_pairs},
                          metapaths=[("TAT", ["T", "ta", "A", "tb", "T"])])

    same = two_relation_graph(pairs)   # every instance reversed is an instance
    assert not is_palindromic(same.metapaths[0])
    assert assert_equals_dense_builder(same, same.metapaths[0]).symmetric
    fewer = two_relation_graph(pairs[:-1])   # 3 reaches 0, 0 does not reach 3
    assert not assert_equals_dense_builder(fewer, fewer.metapaths[0]).symmetric


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_views_equal_the_dense_builder_on_random_graphs(seed):
    g = _random_graph(np.random.default_rng(seed))
    for mp in g.metapaths:
        assert_equals_dense_builder(g, mp)


def test_all_views_densify_the_lists():
    g = _random_graph(np.random.default_rng(8))
    views = all_views(g)
    assert list(views) == [mp.name for mp in g.metapaths]
    for mp in g.metapaths:
        assert views[mp.name].dtype == bool
        assert np.array_equal(views[mp.name], oracles.metapath_adjacency(g, mp))


def test_metapath_must_be_target_to_target():
    with pytest.raises(SchemaError):
        make_graph(
            {"T": 2, "A": 1},
            [("pa", "T", "A")],
            {"pa": [(0, 0)]},
            metapaths=[("bad", ["A", "pa", "T", "pa", "A"])],
        )


def test_unsatisfiable_step_orientation():
    with pytest.raises(SchemaError):
        make_graph(
            {"T": 2, "A": 1, "B": 1},
            [("ab", "A", "B")],
            {"ab": [(0, 0)]},
            metapaths=[("bad", ["T", "ab", "A", "ab", "T"])],
        )


@pytest.mark.parametrize("repeat, message", [
    (lambda g: g.node_types.append("author"), "node type 'author' is declared twice"),
    (lambda g: g.relations.append(Relation("pa", "paper", "subject")),
     "relation 'pa' is declared twice"),
    (lambda g: g.metapaths.append(MetaPath.from_steps("PAP", g.metapaths[1].steps)),
     "meta-path 'PAP' is declared twice"),
], ids=["node-type", "relation", "meta-path"])
def test_a_name_declared_twice_is_refused(repeat, message):
    g = synth.generate(synth.SynthSpec.from_dict(synth.two_view_spec()), RngStream(0))
    repeat(g)
    with pytest.raises(SchemaError, match=f"^{message}$"):
        g.validate()


# -- homophily ----------------------------------------------------------------


def _sym(n, pairs):
    a = np.zeros((n, n), dtype=bool)
    for u, v in pairs:
        a[u, v] = a[v, u] = True
    return a


def test_homophily_uniform_labels():
    adj = _sym(4, [(0, 1), (1, 2), (2, 3)])
    assert homophily_ratio(view_of(adj), np.zeros(4, dtype=int)) == 1.0


def test_homophily_hand_case_two_thirds():
    adj = _sym(4, [(0, 1), (2, 3), (0, 2)])
    labels = np.array([0, 0, 1, 1])
    assert homophily_ratio(view_of(adj), labels) == pytest.approx(2.0 / 3.0)


def test_homophily_edgeless_view():
    assert homophily_ratio(view_of(np.zeros((3, 3), dtype=bool)), np.array([0, 1, 2])) is None


def test_homophily_report_excludes_undefined_view():
    g = make_graph(
        {"T": 4, "A": 2, "B": 1},
        [("ta", "T", "A"), ("tb", "T", "B")],
        {"ta": [(0, 0), (1, 0), (2, 1), (3, 1)], "tb": []},
        metapaths=[
            ("TAT", ["T", "ta", "A", "ta", "T"]),
            ("TBT", ["T", "tb", "B", "tb", "T"]),
        ],
        labels=[0, 0, 1, 1],
    )
    ratios, avg = homophily_report(g)
    assert ratios["TBT"] is None
    assert ratios["TAT"] == 1.0
    assert avg == 1.0


# -- bundles ------------------------------------------------------------------


def write_acm_style(path):
    os.makedirs(path, exist_ok=True)
    schema = {
        "node_types": ["paper", "author", "subject"],
        "relations": [
            {"name": "pa", "src": "paper", "dst": "author"},
            {"name": "ps", "src": "paper", "dst": "subject"},
        ],
        "target_type": "paper",
        "metapaths": [
            {"name": "PAP", "steps": ["paper", "pa", "author", "pa", "paper"]},
            {"name": "PSP", "steps": ["paper", "ps", "subject", "ps", "paper"]},
        ],
    }
    with open(os.path.join(path, "schema.json"), "w") as fh:
        json.dump(schema, fh)
    with open(os.path.join(path, "nodes.tsv"), "w") as fh:
        fh.write("node_id\ttype\n")
        for nid, t in [("p0", "paper"), ("p1", "paper"), ("a0", "author"), ("s0", "subject")]:
            fh.write(f"{nid}\t{t}\n")
    with open(os.path.join(path, "edges.tsv"), "w") as fh:
        fh.write("src_id\trelation\tdst_id\n")
        fh.write("p0\tpa\ta0\np1\tpa\ta0\np0\tps\ts0\n")
    with open(os.path.join(path, "features.paper.tsv"), "w") as fh:
        fh.write("node_id\tf0\tf1\n")
        fh.write("p0\t0.25\t-1.5\np1\t0.1\t2.0\n")
    with open(os.path.join(path, "labels.tsv"), "w") as fh:
        fh.write("node_id\tclass_id\n")
        fh.write("p0\t0\np1\t1\n")


def test_load_acm_style_bundle(tmp_path):
    d = str(tmp_path / "acm")
    write_acm_style(d)
    g = bio.load_bundle(d)
    assert len(g.metapaths) == 2
    assert g.counts == {"paper": 2, "author": 1, "subject": 1}
    assert g.attrs["paper"].shape == (2, 2)
    assert g.labels.tolist() == [0, 1]


def test_load_dblp_style_bundle(tmp_path):
    d = str(tmp_path / "dblp")
    os.makedirs(d)
    schema = {
        "node_types": ["author", "paper", "conf", "term"],
        "relations": [
            {"name": "ap", "src": "author", "dst": "paper"},
            {"name": "pc", "src": "paper", "dst": "conf"},
            {"name": "pt", "src": "paper", "dst": "term"},
        ],
        "target_type": "author",
        "metapaths": [
            {"name": "APA", "steps": ["author", "ap", "paper", "ap", "author"]},
            {"name": "APCPA",
             "steps": ["author", "ap", "paper", "pc", "conf",
                       "pc", "paper", "ap", "author"]},
            {"name": "APTPA",
             "steps": ["author", "ap", "paper", "pt", "term",
                       "pt", "paper", "ap", "author"]},
        ],
    }
    with open(os.path.join(d, "schema.json"), "w") as fh:
        json.dump(schema, fh)
    with open(os.path.join(d, "nodes.tsv"), "w") as fh:
        fh.write("node_id\ttype\n")
        rows = [("a0", "author"), ("a1", "author"), ("p0", "paper"),
                ("c0", "conf"), ("t0", "term")]
        fh.writelines(f"{n}\t{t}\n" for n, t in rows)
    with open(os.path.join(d, "edges.tsv"), "w") as fh:
        fh.write("src_id\trelation\tdst_id\n")
        fh.write("a0\tap\tp0\na1\tap\tp0\np0\tpc\tc0\np0\tpt\tt0\n")
    g = bio.load_bundle(d)
    assert len(g.metapaths) == 3
    adj = dense_view(g, metapath(g, "APCPA"))
    assert adj[0, 1] and adj[1, 0]


def test_edge_referencing_missing_node_reports_line(tmp_path):
    d = str(tmp_path / "bad")
    write_acm_style(d)
    with open(os.path.join(d, "edges.tsv"), "a") as fh:
        fh.write("p9\tpa\ta0\n")
    with pytest.raises(bio.BundleError) as exc:
        bio.load_bundle(d)
    assert exc.value.line == 5
    assert exc.value.file.endswith("edges.tsv")


def test_missing_file_error(tmp_path):
    d = str(tmp_path / "partial")
    write_acm_style(d)
    os.remove(os.path.join(d, "nodes.tsv"))
    with pytest.raises(bio.BundleError, match=r"nodes\.tsv: file not found$"):
        bio.load_bundle(d)


def test_unknown_type_error(tmp_path):
    d = str(tmp_path / "badtype")
    write_acm_style(d)
    with open(os.path.join(d, "nodes.tsv"), "a") as fh:
        fh.write("x0\tvenue\n")
    with pytest.raises(bio.BundleError) as exc:
        bio.load_bundle(d)
    assert "venue" in str(exc.value)


def test_bundle_round_trip_bit_exact(tmp_path):
    spec = synth.SynthSpec.from_dict(synth.two_view_spec(centroid_scale=1.0))
    g = synth.generate(spec, RngStream(5))
    d1, d2 = str(tmp_path / "b1"), str(tmp_path / "b2")
    bio.save_bundle(g, d1)
    g2 = bio.load_bundle(d1)
    assert np.array_equal(g.attrs["paper"], g2.attrs["paper"])  # exact, no tolerance
    assert np.array_equal(g.labels, g2.labels)
    for rel in g.relations:
        assert np.array_equal(g.edges[rel.name], g2.edges[rel.name])
    bio.save_bundle(g2, d2)
    for name in sorted(os.listdir(d1)):
        with open(os.path.join(d1, name), "rb") as fh1, open(os.path.join(d2, name), "rb") as fh2:
            assert fh1.read() == fh2.read(), name


NAMES = st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,5}", fullmatch=True)


@st.composite
def small_graphs(draw):
    """A random HetGraph of 2-3 types with 1-5 nodes each; every type may carry features."""
    types = draw(st.lists(NAMES, min_size=2, max_size=3, unique=True))
    counts = {t: draw(st.integers(1, 5)) for t in types}
    n = sum(counts.values())
    ids = iter(draw(st.lists(NAMES, min_size=n, max_size=n, unique=True)))
    node_ids = {t: [next(ids) for _ in range(counts[t])] for t in types}
    relations = [Relation(name, draw(st.sampled_from(types)), draw(st.sampled_from(types)))
                 for name in draw(st.lists(NAMES, min_size=1, max_size=3, unique=True))]
    edges = {r.name: np.array(draw(st.lists(st.tuples(st.integers(0, counts[r.src] - 1),
                                                       st.integers(0, counts[r.dst] - 1)),
                                             max_size=8)), dtype=np.int64).reshape(-1, 2)
             for r in relations}
    attrs = {}
    for t in types:
        width = draw(st.integers(0, 3))     # 0: no features file for this type
        row = st.lists(FINITE_FLOATS, min_size=width, max_size=width)
        rows = draw(st.lists(row, min_size=counts[t], max_size=counts[t]))
        attrs[t] = np.array(rows) if width else None
    target = types[0]
    labels = draw(st.none() | st.lists(st.integers(0, counts[target] - 1),
                                       min_size=counts[target], max_size=counts[target]))
    metapaths = [MetaPath.from_steps(f"M{r.name}", [target, r.name, r.dst, r.name, target])
                 for r in relations if r.src == target]
    return HetGraph(node_types=types, relations=relations, counts=counts, node_ids=node_ids,
                    edges=edges, target_type=target, attrs=attrs,
                    labels=None if labels is None else np.array(labels, dtype=np.int64),
                    metapaths=metapaths)


@settings(max_examples=50, deadline=None, phases=NO_SHRINK)
@given(g=small_graphs())
def test_random_bundle_round_trips_bit_exact(g):
    with tempfile.TemporaryDirectory() as tmp:
        d1, d2 = os.path.join(tmp, "b1"), os.path.join(tmp, "b2")
        bio.save_bundle(g, d1)
        g2 = bio.load_bundle(d1)
        assert g2.node_ids == g.node_ids and g2.metapaths == g.metapaths
        for t in g.node_types:   # every bit, -0.0 included
            a, b = g.attrs[t], g2.attrs[t]
            assert (a is None and b is None) or a.tobytes() == b.tobytes(), t
        for rel in g.relations:
            assert np.array_equal(g.edges[rel.name], g2.edges[rel.name])
        assert (g.labels is None and g2.labels is None) or np.array_equal(g.labels, g2.labels)
        bio.save_bundle(g2, d2)
        assert sorted(os.listdir(d1)) == sorted(os.listdir(d2))
        for name in os.listdir(d1):
            with open(os.path.join(d1, name), "rb") as f1:
                with open(os.path.join(d2, name), "rb") as f2:
                    assert f1.read() == f2.read(), name


# -- synthetic generator ------------------------------------------------------


def test_planted_views_are_homophilous():
    spec = synth.SynthSpec.from_dict(synth.two_view_spec())
    g = synth.generate(spec, RngStream(42))
    ratios, avg = homophily_report(g)
    baseline = class_frequency_baseline(g.labels)
    for name, r in ratios.items():
        assert r is not None and r >= 0.6, (name, r)
    assert avg - baseline >= 0.2


def test_null_wiring_matches_class_frequency_baseline():
    spec_dict = synth.two_view_spec(intra=0.5, inter=0.5)
    spec = synth.SynthSpec.from_dict(spec_dict)
    g = synth.generate(spec, RngStream(43))
    ratios, _ = homophily_report(g)
    baseline = class_frequency_baseline(g.labels)
    for name, r in ratios.items():
        assert abs(r - baseline) <= 0.05, (name, r, baseline)


def test_zero_noise_attributes_sit_on_centroids():
    d = synth.two_view_spec(centroid_scale=2.0)
    d["noise"] = 0.0
    g = synth.generate(synth.SynthSpec.from_dict(d), RngStream(1))
    x = g.attrs["paper"]
    for c in range(3):
        rows = x[g.labels == c]
        assert np.all(rows == rows[0])
        assert np.linalg.norm(rows[0]) == 2.0


def test_spec_error_on_undeclared_type():
    d = synth.two_view_spec()
    d["relations"][0]["dst"] = "ghost"
    with pytest.raises(ValueError, match="^relation 'pa' references unknown type 'ghost'$"):
        synth.SynthSpec.from_dict(d)


def test_generator_deterministic():
    spec = synth.SynthSpec.from_dict(synth.two_view_spec())
    g1 = synth.generate(spec, RngStream(9))
    g2 = synth.generate(spec, RngStream(9))
    for rel in g1.relations:
        assert np.array_equal(g1.edges[rel.name], g2.edges[rel.name])
    assert np.array_equal(g1.attrs["paper"], g2.attrs["paper"])


def test_three_view_spec_loads_and_composes():
    spec = synth.SynthSpec.from_dict(three_view_spec())
    g = synth.generate(spec, RngStream(3))
    assert len(g.metapaths) == 3
    ratios, avg = homophily_report(g)
    for name, r in ratios.items():
        assert r is not None and r >= 0.55, (name, r)


def test_homogeneous_graph_warns_but_loads():
    with pytest.warns(UserWarning):
        make_graph(
            {"T": 2},
            [("tt", "T", "T")],
            {"tt": [(0, 1)]},
        )
