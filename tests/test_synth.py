"""Synthetic bundles: a relation's edges drawn a chunk of source rows at a time."""

import numpy as np
import pytest

from mug import synth
from mug.rng import SYNTH, RngStream


def _spec(authors, authors_first):
    """The two-view spec with that many authors; pa runs author -> paper if authors_first."""
    spec = synth.two_view_spec(attr_dim=3, centroid_scale=1.0, targets_per_class=30)
    spec["aux_types"][0]["size"] = authors
    if authors_first:
        spec["relations"][0].update(src="author", dst="paper")
    return synth.SynthSpec.from_dict(spec)


@pytest.mark.parametrize("cells", [1, 420, 1000, 5000])
@pytest.mark.parametrize("authors, authors_first", [(60, False), (60, True), (0, False),
                                                    (0, True)])
def test_edges_drawn_in_row_chunks_equal_one_whole_draw(monkeypatch, cells, authors,
                                                        authors_first):
    # Generator.random drawn one chunk of rows at a time equals one draw of all rows
    # (NumPy 2.4.6); a NumPy that changes this fails here instead of moving every bundle.
    # 1 cell makes one-row chunks; 420, 1000 and 5000 make chunks of 4 to 166 rows, the
    # last one shorter; 2**30 makes one chunk per relation, which is one whole draw.
    # 0 authors leave pa without destinations, or without sources when it runs
    # author -> paper.
    spec = _spec(authors, authors_first)
    monkeypatch.setattr(synth, "DRAW_CELLS", 2 ** 30)
    whole = synth.generate(spec, RngStream(5, SYNTH))
    monkeypatch.setattr(synth, "DRAW_CELLS", cells)
    chunked = synth.generate(spec, RngStream(5, SYNTH))
    assert whole.edges.keys() == chunked.edges.keys()
    for name, edges in whole.edges.items():
        assert edges.dtype == chunked.edges[name].dtype == np.int64
        assert edges.tobytes() == chunked.edges[name].tobytes(), name
    # the attributes are drawn after the edges, from the same generator
    for t, attrs in whole.attrs.items():
        assert (attrs is None and chunked.attrs[t] is None) or \
            attrs.tobytes() == chunked.attrs[t].tobytes(), t
