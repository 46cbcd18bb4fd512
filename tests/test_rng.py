"""Stream keys: the Philox key and counter layout, and no key drawn twice in a run."""

import itertools

import numpy as np
import pytest

from mug import evalkit, fusion, synth
from mug.config import TrainConfig
from mug.evalkit import SplitSpec
from mug.rng import (INIT, MASK, SAMPLE, SGNS, SGNS_INIT, SPLIT, STRUCT, SYNTH, WALKS,
                     RngStream)
from mug.structenc import WalkConfig


def state(stream):
    return stream.generator.bit_generator.state["state"]


# -- key layout ------------------------------------------------------------------


def test_key_is_seed_and_purpose_and_counter_is_zero_then_path():
    s = state(RngStream(5, MASK, 3, 7))
    assert s["key"].tolist() == [5, MASK]
    assert s["counter"].tolist() == [0, 3, 7, 0]
    assert RngStream(5, MASK, 3, 7).stream_id == (MASK, 3, 7)
    top = 2**64 - 1
    assert state(RngStream(0, SPLIT, top))["counter"].tolist() == [0, top, 0, 0]


@pytest.mark.parametrize("seed", [0, 1, 42, 2**32 + 5, 2**63 - 1])
def test_synth_stream_is_bit_equal_to_the_plain_philox_key(seed):
    plain = np.random.Generator(np.random.Philox(key=[seed, 0]))
    assert np.array_equal(RngStream(seed).uniform(1000), plain.random(1000))
    assert RngStream(seed).stream_id == (SYNTH,)


def test_negative_seeds_do_not_alias_seed_zero():
    first = {s: RngStream(s).uniform(4).tobytes() for s in (0, -1, -7, -2000, -2001)}
    assert len(set(first.values())) == len(first)
    assert first[-1] == RngStream(2**64 - 1).uniform(4).tobytes()


def test_distinct_keys_give_distinct_streams():
    keys = [(seed, SYNTH) for seed in range(3)]
    keys += [(seed, p) for seed in range(3) for p in (STRUCT, SGNS_INIT, SAMPLE)]
    keys += [(seed, p, i) for seed in range(3) for p in (WALKS, SGNS, INIT, SPLIT)
             for i in range(4)]
    keys += [(seed, MASK, e, v) for seed in range(3) for e in range(4) for v in range(3)]
    blocks = [RngStream(*k).integers(0, 2**63, 8).tobytes() for k in keys]
    assert len(set(blocks)) == len(keys)


@pytest.mark.parametrize("purpose, path", [
    (SPLIT, (1, 2)), (MASK, (1, 2, 3, 4)), (SYNTH, (0,)),
    (MASK, (1,)), (WALKS, ()),
    (SPLIT, (-1,)), (SPLIT, (2**64,)), (MASK, (0, -3)),
    (9, ()), (-1, ()),
], ids=["too-long", "longer-than-the-counter", "synth-takes-none", "too-short", "empty",
        "negative", "past-2**64", "negative-second", "unknown-purpose", "negative-purpose"])
def test_bad_key_raises(purpose, path):
    with pytest.raises(ValueError):
        RngStream(0, purpose, *path)


# -- registry ----------------------------------------------------------------------


@pytest.fixture
def registry(monkeypatch):
    """Every (seed, stream_id) built while the test runs, in order."""
    keys = []
    init = RngStream.__init__

    def recording(self, seed, purpose=SYNTH, *path):
        init(self, seed, purpose, *path)
        keys.append((self.seed, self.stream_id))

    monkeypatch.setattr(RngStream, "__init__", recording)
    return keys


N_EPOCHS, N_SGNS_EPOCHS = 3, 2


def graph():
    spec = synth.two_view_spec(attr_dim=5, centroid_scale=1.0, targets_per_class=12)
    return synth.generate(synth.SynthSpec.from_dict(spec), RngStream(4))


def cse_cfg(seed):
    return TrainConfig(epochs=N_EPOCHS, seed=seed, sample_size=8, unified_dim=4,
                       walk=WalkConfig(dim=4, epochs=N_SGNS_EPOCHS, walks_per_node=2,
                                       walk_length=4))


def preparation_keys(seed, n_views):
    return ([(seed, (STRUCT,))] + [(seed, (WALKS, v)) for v in range(n_views)]
            + [(seed, (SGNS_INIT,))] + [(seed, (SGNS, e)) for e in range(N_SGNS_EPOCHS)]
            + [(seed, (SAMPLE,))])


def test_no_key_is_drawn_twice_in_a_cse_pretrain(registry):
    g = graph()
    registry.clear()
    cfg = cse_cfg(seed=6)
    fusion.pretrain(g, cfg)
    n_views = len(g.metapaths)
    assert n_views >= 2
    weights = [i for i, (name, _) in enumerate(fusion.param_shapes(cfg))
               if not name.endswith(".bias")]
    expected = (preparation_keys(6, n_views) + [(6, (INIT, i)) for i in weights]
                + [(6, (MASK, e, v)) for e, v in itertools.product(range(N_EPOCHS),
                                                                  range(n_views))])
    assert len(set(registry)) == len(registry)
    assert sorted(registry) == sorted(expected)


def test_no_key_is_drawn_twice_in_an_embed_and_its_eval(registry):
    """embed and evaluate_embedding draw disjoint keys, each key once.

    Across pretrain and embed, keys do repeat on purpose: embed with the
    pre-training seed redraws pretrain's preparation keys (struct table, walks,
    SGNS, node sample), so the same graph gets the same table and sample.
    """
    g = graph()
    model = fusion.pretrain(g, cse_cfg(seed=6))
    registry.clear()
    z, _ = fusion.embed(model, g, seed=6)
    spec = SplitSpec(per_class_train=3, val_size=6, test_size=12, repeats=4, seed=6)
    evalkit.evaluate_embedding(z, g.labels, evalkit.draw_splits(g.labels, spec))
    expected = preparation_keys(6, len(g.metapaths)) + [(6, (SPLIT, r)) for r in range(4)]
    assert len(set(registry)) == len(registry)
    assert sorted(registry) == sorted(expected)
