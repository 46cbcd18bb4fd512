"""Split protocols, probe behaviour, F1 arithmetic, per-repeat scores of an embedding."""

import functools
import tracemalloc
import warnings

import numpy as np
import pytest

import oracles
from mug import evalkit
from mug.evalkit import (
    SplitSpec,
    Splits,
    draw_splits,
    evaluate_embedding,
    f1_scores,
    linear_probe,
    make_splits,
)
from mug.rng import SPLIT, RngStream


def balanced_labels(per_class, n_classes=3):
    return np.repeat(np.arange(n_classes), per_class)


# -- splits ---------------------------------------------------------------------


def test_one_shot_split_size():
    labels = balanced_labels(50)
    s = make_splits(labels, SplitSpec(per_class_train=1, repeats=1), RngStream(0))
    assert len(s.train) == 3
    assert len(np.unique(labels[s.train])) == 3


def test_standard_split_sizes_with_enough_nodes():
    labels = balanced_labels(800)  # 2400 labeled nodes
    s = make_splits(labels, SplitSpec(), RngStream(0))
    assert len(s.train) == 180
    assert len(s.val) == 1000 and len(s.test) == 1000


def test_splits_deterministic():
    labels = balanced_labels(100)
    s1 = make_splits(labels, SplitSpec(per_class_train=10), RngStream(4))
    s2 = make_splits(labels, SplitSpec(per_class_train=10), RngStream(4))
    for a, b in zip((s1.train, s1.val, s1.test), (s2.train, s2.val, s2.test)):
        assert np.array_equal(a, b)


def test_splits_disjoint_and_shrunk_with_warning():
    labels = balanced_labels(100)  # 300 nodes - 180 train = 120 rest
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        s = make_splits(labels, SplitSpec(), RngStream(1))
    assert any("shrunk" in str(w.message) for w in caught)
    assert len(s.val) + len(s.test) == 120
    assert not set(s.train) & set(s.val)
    assert not set(s.train) & set(s.test)
    assert not set(s.val) & set(s.test)


def test_split_error_when_the_train_draw_takes_every_labeled_node():
    with pytest.raises(ValueError) as caught:
        make_splits(balanced_labels(5), SplitSpec(per_class_train=5), RngStream(0))
    assert str(caught.value) == ("no labeled node left to test: "
                                 "the train draw of 5 per class takes all 15")
    with warnings.catch_warnings():   # one node left: the shrink gives it to test
        warnings.simplefilter("ignore")
        s = make_splits(np.array([0, 0, 1]), SplitSpec(per_class_train=1), RngStream(0))
    assert (len(s.train), len(s.val), len(s.test)) == (2, 0, 1)


def test_split_error_on_empty_class():
    labels = np.array([0, 0, 2, 2])  # class 1 missing
    with pytest.raises(ValueError):
        make_splits(labels, SplitSpec(per_class_train=1), RngStream(0))


# -- F1 -------------------------------------------------------------------------


def test_f1_perfect_predictions():
    macro, micro = f1_scores([0, 1, 2, 1], [0, 1, 2, 1], 3)
    assert macro == 1.0 and micro == 1.0


def test_f1_hand_confusion_case():
    truth = [0, 0, 1, 1]
    pred = [0, 1, 1, 1]
    macro, micro = f1_scores(pred, truth, 2)
    assert micro == pytest.approx(0.75, abs=1e-9)
    assert macro == pytest.approx((2 / 3 + 4 / 5) / 2, abs=1e-9)


def test_f1_single_class_predictions():
    truth = [0, 0, 1, 1]
    pred = [0, 0, 0, 0]
    macro, micro = f1_scores(pred, truth, 2)
    assert micro == pytest.approx(0.5)
    assert macro == pytest.approx((2 / 3 + 0) / 2)


def test_micro_equals_accuracy():
    rng = np.random.default_rng(0)
    for _ in range(20):
        truth = rng.integers(0, 4, 50)
        pred = rng.integers(0, 4, 50)
        _, micro = f1_scores(pred, truth, 4)
        assert micro == pytest.approx(np.mean(pred == truth))


def test_macro_invariant_under_class_relabeling():
    rng = np.random.default_rng(1)
    truth = rng.integers(0, 3, 60)
    pred = rng.integers(0, 3, 60)
    macro, _ = f1_scores(pred, truth, 3)
    perm = np.array([2, 0, 1])
    macro_p, _ = f1_scores(perm[pred], perm[truth], 3)
    assert macro == pytest.approx(macro_p)


def test_f1_empty_input_errors():
    with pytest.raises(ValueError):
        f1_scores([], [], 2)


def test_f1_absent_class_counts_zero():
    macro, _ = f1_scores([0, 0], [0, 0], num_classes=3)
    assert macro == pytest.approx(1.0 / 3.0)


# -- probe ----------------------------------------------------------------------


def separable_embedding(per_class=40, d=4, seed=0):
    # dimension 0 is a clean +-1 class indicator; the rest is noise
    rng = np.random.default_rng(seed)
    labels = balanced_labels(per_class, 2)
    z = rng.normal(size=(len(labels), d))
    z[:, 0] = np.where(labels == 1, 1.0, -1.0)
    return z, labels


def test_probe_perfect_on_separable_data():
    z, labels = separable_embedding()
    spec = SplitSpec(per_class_train=10, val_size=20, test_size=20, repeats=1)
    splits = make_splits(labels, spec, RngStream(2))
    pred = linear_probe(z, labels, [splits])[0]
    macro, micro = f1_scores(pred, labels[splits.test], 2)
    assert macro == 1.0 and micro == 1.0


def test_probe_on_zero_embedding_predicts_majority():
    rng = np.random.default_rng(3)
    labels = np.array([0] * 70 + [1] * 30)
    z = np.zeros((100, 5))
    spec = SplitSpec(per_class_train=20, val_size=20, test_size=30, repeats=1)
    splits = make_splits(labels, spec, RngStream(5))
    pred = linear_probe(z, labels, [splits])[0]
    # bias-only model: constant prediction; micro tracks that class's prior
    assert len(np.unique(pred)) == 1
    _, micro = f1_scores(pred, labels[splits.test], 2)
    prior = np.mean(labels[splits.test] == pred[0])
    assert micro == pytest.approx(prior)


def test_probe_invariant_to_training_row_order():
    z, labels = separable_embedding()
    spec = SplitSpec(per_class_train=10, val_size=20, test_size=20, repeats=1)
    splits = make_splits(labels, spec, RngStream(6))
    pred1 = linear_probe(z, labels, [splits])[0]
    shuffled = Splits(train=splits.train[::-1].copy(), val=splits.val,
                      test=splits.test)
    pred2 = linear_probe(z, labels, [shuffled])[0]
    assert np.array_equal(pred1, pred2)


def test_probe_single_class_train_errors():
    z = np.zeros((10, 3))
    labels = np.array([0] * 5 + [1] * 5)
    splits = Splits(train=np.arange(3), val=np.arange(5, 7), test=np.arange(7, 10))
    with pytest.raises(ValueError):
        linear_probe(z, labels, [splits])[0]


def test_probe_never_mutates_embedding():
    z, labels = separable_embedding()
    snapshot = z.copy()
    spec = SplitSpec(per_class_train=10, val_size=20, test_size=20, repeats=1)
    splits = make_splits(labels, spec, RngStream(7))
    linear_probe(z, labels, [splits])[0]
    assert np.array_equal(z, snapshot)


# -- the stacked probe against the per-repeat oracle ----------------------------------


def noisy_embedding(counts, d=8, seed=0, shift=1.5):
    # class means on the first dimensions, under noise that makes some rows hard
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(len(counts)), counts)
    z = rng.normal(size=(len(labels), d))
    z[np.arange(len(labels)), labels] += shift
    return z, labels


def oracle_case(name):
    """(z, labels, splits) for one probe case; every case stacks several repeats."""
    z, labels = noisy_embedding([50, 50, 50])
    spec = SplitSpec(per_class_train=10, val_size=30, test_size=30, repeats=5)
    if name == "one_shot":     # 3 train rows and 20 val rows: val-F1 ties are common
        spec = SplitSpec(per_class_train=1, val_size=20, test_size=40, repeats=6)
    elif name == "no_val":
        spec = SplitSpec(per_class_train=10, val_size=0, test_size=40, repeats=4)
    elif name == "unbalanced_4_classes":
        z, labels = noisy_embedding([60, 30, 15, 8], seed=1)
        spec = SplitSpec(per_class_train=5, val_size=30, test_size=30, repeats=5)
    elif name == "zero_embedding":
        z, labels = np.zeros((100, 5)), np.array([0] * 70 + [1] * 30)
        spec = SplitSpec(per_class_train=20, val_size=20, test_size=30, repeats=4)
    elif name == "mirror_classes":
        return mirror_case()
    splits = [make_splits(labels, spec, RngStream(11, SPLIT, r)) for r in range(spec.repeats)]
    return z, labels, splits


def mirror_case(d=8, pairs=60):
    """Class 1 is class 0 with coordinate pairs swapped; the mirror plane is split evenly.

    Trained on mirror pairs, a probe ties the two classes exactly on the plane,
    so only rounding picks the class there: every product must keep its bits.
    """
    rng = np.random.default_rng(0)
    swap = np.arange(d).reshape(-1, 2)[:, ::-1].ravel()
    base = rng.normal(size=(pairs, d))
    base[:, 0] += 1.0
    plane = rng.normal(size=(pairs, d // 2)).repeat(2, axis=1)
    z = np.concatenate([base, base[:, swap], plane])
    labels = np.concatenate([np.zeros(pairs, int), np.ones(pairs, int),
                             np.arange(pairs) % 2])
    splits = []
    for _ in range(4):
        pick, on_plane = rng.permutation(pairs), 2 * pairs + rng.permutation(pairs)
        train, val = pick[:8], pick[8:30]
        splits.append(Splits(train=np.sort(np.concatenate([train, train + pairs])),
                             val=np.sort(np.concatenate([val, val + pairs, on_plane[:30]])),
                             test=np.sort(on_plane[30:])))
    return z, labels, splits


ORACLE_CASES = ["standard", "one_shot", "no_val", "unbalanced_4_classes", "zero_embedding",
                "mirror_classes"]


@functools.lru_cache(maxsize=None)
def oracle_predictions(name):
    z, labels, splits = oracle_case(name)
    return [oracles.linear_probe(z, labels, s) for s in splits]


def assert_probe_matches_oracle(name):
    z, labels, splits = oracle_case(name)
    got = linear_probe(z, labels, splits)
    assert got.shape == (len(splits), len(splits[0].test))
    for r, want in enumerate(oracle_predictions(name)):
        assert np.array_equal(got[r], want), r


@pytest.mark.parametrize("name", ORACLE_CASES)
def test_stacked_probe_matches_per_repeat_oracle(name):
    assert_probe_matches_oracle(name)


@pytest.mark.parametrize("block", [1, 7, evalkit.PROBE_STEPS])   # 7 leaves a ragged last block
@pytest.mark.parametrize("name", ORACLE_CASES)
def test_every_validation_block_size_matches_per_repeat_oracle(name, block, monkeypatch):
    monkeypatch.setattr(evalkit, "VAL_BLOCK", block)
    assert_probe_matches_oracle(name)


def probe_with_val_macro(monkeypatch, macro_at_step):
    """Stacked probe on the standard case, every repeat's val Macro-F1 at step t set to
    macro_at_step(t); the probe judges each step once, in step order."""
    z, labels, splits = oracle_case("standard")
    steps = iter(range(evalkit.PROBE_STEPS))
    monkeypatch.setattr(evalkit, "_per_class_f1",
                        lambda tp, fp, fn: np.full(tp.shape, macro_at_step(next(steps))))
    pred = linear_probe(z, labels, splits)
    assert next(steps, None) is None
    return pred


@pytest.mark.parametrize("block", [1, 7, 10])    # 7 leaves a ragged last block
def test_a_best_val_macro_tied_in_the_next_block_keeps_the_first_step(monkeypatch, block):
    monkeypatch.setattr(evalkit, "VAL_BLOCK", block)
    first, second = block - 1, 2 * block - 1        # the last steps of the first two blocks

    def best_at(*best_steps):
        return probe_with_val_macro(monkeypatch, lambda t: 0.9 if t in best_steps else 0.5)

    first_only, second_only = best_at(first), best_at(second)
    assert not np.array_equal(first_only, second_only)    # the two steps predict differently
    assert np.array_equal(best_at(first, second), first_only)


def test_probe_scratch_is_the_gathered_rows_and_one_block_of_scores():
    # 50 repeats x 960 val rows, as a standard eval on a 2,100-target bundle
    z, labels = noisy_embedding([700, 700, 700], d=64, seed=4)
    spec = SplitSpec(val_size=960, test_size=960)
    splits = [make_splits(labels, spec, RngStream(0, SPLIT, r)) for r in range(spec.repeats)]
    repeats, d = spec.repeats, z.shape[1]
    n_train, n_val = len(splits[0].train), len(splits[0].val)
    tracemalloc.start()
    try:
        linear_probe(z, labels, splits)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = np.dtype(evalkit.PROBE_DTYPE).itemsize
    rows = size * repeats * (n_train + n_val) * d
    scores = size * repeats * evalkit.VAL_BLOCK * 3 * n_val
    slack = 16 * 8 * repeats * n_val     # split indices, crits, scales, slots, argmax scratch
    assert peak <= rows + scores + slack, (
        f"{(peak - rows - scores) / (8 * repeats * n_val):.1f} (repeats, val rows) arrays "
        "beyond the gathered rows and one block of scores")


# -- the margin certificate ---------------------------------------------------------


def test_the_certificate_spares_most_val_scores_of_a_standard_eval(monkeypatch):
    # 50 repeats x 960 val rows, d = 64, as in the scratch test above, but with each class
    # shifted by 3 on its axis: val Macro-F1 is then ~0.96, as on a dense-views embedding,
    # where 21.5% of the scores are computed. (At the shift of 1.5, Macro-F1 ~0.70, 58%.)
    z, labels = noisy_embedding([700, 700, 700], d=64, seed=4, shift=3.0)
    spec = SplitSpec(val_size=960, test_size=960)
    splits = [make_splits(labels, spec, RngStream(0, SPLIT, r)) for r in range(spec.repeats)]
    scored, argmax_cols = [], evalkit._argmax_cols

    def counting(cols, out, top):
        scored.append(cols[0].size)         # the (repeat, row) pairs scored at a step
        argmax_cols(cols, out, top)

    monkeypatch.setattr(evalkit, "_argmax_cols", counting)
    linear_probe(z, labels, splits)
    assert len(scored) == evalkit.PROBE_STEPS
    assert sum(scored) <= 0.30 * spec.repeats * len(splits[0].val) * evalkit.PROBE_STEPS


def oracle_val_counts(z, labels, splits):
    """(steps, 3, R, C): every step's val tp, fp and fn of the per-repeat oracle."""
    y, x = np.asarray(labels), np.asarray(z, dtype=evalkit.PROBE_DTYPE)
    c = int(y.max()) + 1
    per_repeat = []
    for s in splits:
        truth, steps = y[s.val], []
        for w, b in oracles.probe_steps(z, labels, s):
            pred = np.argmax(w @ x[s.val].T + b, axis=0)
            tp = np.bincount(truth[pred == truth], minlength=c)
            steps.append([tp, np.bincount(pred, minlength=c) - tp,
                          np.bincount(truth, minlength=c) - tp])
        per_repeat.append(steps)
    return np.array(per_repeat).transpose(1, 2, 0, 3)


def assert_every_step_matches_oracle(monkeypatch, z, labels, splits):
    """The stacked probe's val confusion counts at every step and its test predictions
    equal the oracle's; returns the widths of the val blocks it scored."""
    want = oracle_val_counts(z, labels, splits)
    want_pred = [oracles.linear_probe(z, labels, s) for s in splits]
    seen, widths = [], []
    per_class_f1, argmax_cols = evalkit._per_class_f1, evalkit._argmax_cols

    def recording(tp, fp, fn):
        seen.append(np.stack([tp, fp, fn]))
        return per_class_f1(tp, fp, fn)

    def width(cols, out, top):
        widths.append(cols.shape[-1])
        argmax_cols(cols, out, top)

    monkeypatch.setattr(evalkit, "_per_class_f1", recording)
    monkeypatch.setattr(evalkit, "_argmax_cols", width)
    got = linear_probe(z, labels, splits)
    for t, (a, b) in enumerate(zip(seen, want)):
        assert np.array_equal(a, b), t
    assert len(seen) == len(want)
    for r, pred in enumerate(want_pred):
        assert np.array_equal(got[r], pred), r
    return widths


def with_val_rows(z, labels, splits, rows, row_labels):
    """z and labels with rows appended; repeat r's val gains rows[r] (one list per repeat)."""
    base = len(z)
    z = np.concatenate([z, np.concatenate(rows)])
    labels = np.concatenate([labels, np.concatenate(row_labels)])
    starts = np.cumsum([base] + [len(r) for r in rows])
    splits = [Splits(train=s.train, val=np.concatenate([s.val, np.arange(a, b)]), test=s.test)
              for s, a, b in zip(splits, starts[:-1], starts[1:])]
    return z, labels, splits


def boundary_rows(z, labels, split, n, rng, spread):
    """n rows on the boundary of classes 0 and 1 at the oracle probe's last step, spread
    around the midpoint of their means; that step's class-major (w, b) and the boundary's
    normal."""
    for w, b in oracles.probe_steps(z, labels, split):
        pass
    w, b = w.astype(np.float64), b.astype(np.float64)
    v, c = w[0] - w[1], b[0, 0] - b[1, 0]
    mid = (z[labels == 0].mean(axis=0) + z[labels == 1].mean(axis=0)) / 2
    x = mid + rng.normal(scale=spread, size=(n, len(mid)))
    return x - np.outer(x @ v + c, v) / (v @ v), w, b, v / (v @ v)


@pytest.mark.parametrize("name", [n for n in ORACLE_CASES if n != "no_val"])
def test_every_steps_val_counts_match_per_repeat_oracle(name, monkeypatch):
    assert_every_step_matches_oracle(monkeypatch, *oracle_case(name))


def test_rows_within_a_few_rounding_allowances_of_a_tie_match_the_oracle(monkeypatch):
    # Weight decay 1 settles the probe to a fixed point by step ~350, so its drift falls
    # below the rounding allowance. Each repeat's val rows gain 12 rows on the settled
    # boundary of classes 0 and 1, whose crit is 1/4 to 4 times the allowance.
    monkeypatch.setattr(evalkit, "PROBE_L2", 1.0)
    z, labels = noisy_embedding([50, 50, 50])
    spec = SplitSpec(per_class_train=10, val_size=24, test_size=30, repeats=3)
    splits = [make_splits(labels, spec, RngStream(11, SPLIT, r)) for r in range(spec.repeats)]
    d, rng = z.shape[1], np.random.default_rng(8)
    ratios = np.array([0.25, 0.5, 1.0, 1.25, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 1.1, 2.2])
    side = np.where(np.arange(len(ratios)) % 2, 1, -1)     # class 0 ahead, or class 1
    rows = []
    for s in splits:
        x, w, b, normal = boundary_rows(z, labels, s, len(ratios), rng, 0.3)
        allowance = 2 * evalkit._gamma(d + 1, evalkit.PROBE_DTYPE) * evalkit._max_norm(
            np.hstack([w, b]))
        x += np.outer(side * ratios * allowance * 2 * np.sqrt((x * x).sum(axis=1) + 1), normal)
        scores = x @ w.T + b.T
        assert (scores[:, 2] < scores[:, :2].min(axis=1) - 1e-3).all()
        rows.append(x)
    z, labels, splits = with_val_rows(z, labels, splits, rows,
                                      [np.arange(len(ratios)) % 2] * len(splits))
    widths = assert_every_step_matches_oracle(monkeypatch, z, labels, splits)
    assert min(widths) < len(splits[0].val)       # some blocks scored only a prefix


def test_a_block_whose_weights_swing_back_is_judged_by_its_largest_drift(monkeypatch):
    # Weight decay 1 and a rate of 1.9 make gradient descent overshoot: the weights swing
    # to and fro, so a block's last step lies near the anchor while its other steps do
    # not. Rows near the settled boundary flip at every swing.
    monkeypatch.setattr(evalkit, "PROBE_L2", 1.0)
    monkeypatch.setattr(evalkit, "PROBE_LR", 1.9)
    monkeypatch.setattr(evalkit, "PROBE_LR_END", 1.9)
    z, labels = noisy_embedding([40, 40], d=2, seed=5)
    z *= 0.3
    spec = SplitSpec(per_class_train=10, val_size=20, test_size=20, repeats=3)
    splits = [make_splits(labels, spec, RngStream(3, SPLIT, r)) for r in range(spec.repeats)]
    rng, rows = np.random.default_rng(0), []
    for s in splits:
        x, _, _, normal = boundary_rows(z, labels, s, 60, rng, 0.6)
        rows.append(x + np.outer(rng.normal(scale=1e-3, size=len(x)), normal))
    z, labels, splits = with_val_rows(z, labels, splits, rows,
                                      [rng.integers(0, 2, 60) for _ in splits])
    assert_every_step_matches_oracle(monkeypatch, z, labels, splits)


def test_the_certificate_is_sound_and_within_a_factor_two_of_tight():
    # One feature, two classes moving in opposite directions: at the anchor, class 0 leads
    # on rows x > 100 by 2 (x - 100); the block's class-0 weight falls by up to 1e-3
    # (0.4, 1 and 0.3 of it), which cuts that lead by up to 2e-3 x, the most a drift
    # of 1e-3 can do to a row of norm ~x. The middle step flips the rows below
    # 100 / (1 - 1e-3); a crit half as strict as the certificate's would keep them.
    x = 100 + np.linspace(0.005, 0.3, 60)
    # the anchor's rows [w_c; b_c], (R, C, 2), and the block's, (R, steps, C, 2)
    anchor = np.array([[[1.0, -100.0], [-1.0, 100.0]]])
    steps = anchor[:, None] + np.array([0.4, 1.0, 0.3])[:, None, None] * [[-1e-3, 0], [1e-3, 0]]

    def scores(wb):    # (R, C, n), as the probe's block product and bias add give them
        return wb[..., :1] @ x[None, None] + wb[..., 1:]

    pred, top = np.empty((1, len(x)), dtype=np.intp), np.empty((1, len(x)))
    evalkit._argmax_cols(scores(anchor).transpose(1, 0, 2), pred, top)
    crit = evalkit._crit(scores(anchor), pred, top, 0.5 / np.sqrt(x * x + 1))[0]
    slope, floor = evalkit._certificate(anchor)
    limit = evalkit._limit(steps, anchor, slope, floor)[0]
    flips = (np.argmax(scores(steps), axis=2) != pred[:, None]).any(axis=1)[0]
    assert not (flips & (crit > limit)).any()
    assert (flips & (crit > limit / 2)).any()


@pytest.mark.parametrize("d", [1, 7, 64, 513])
def test_the_certificate_floor_holds_the_whole_rounding_allowance(d):
    # With no drift at all, a computed score may still lie 2 g ||w~(a)|| ||x~|| from the
    # anchor's computed one, g = gamma(d + 1) (module docstring), so a crit m / (2 ||x~||)
    # must exceed 2 g ||w~(a)||. No probe in these tests rounds that far, so only this
    # check catches a floor that drops or cuts the allowance. Norms span 1e-6 to 1e9.
    u = float(np.finfo(evalkit.PROBE_DTYPE).eps) / 2     # scores round to the probe's dtype
    g = (d + 1) * u / (1 - (d + 1) * u)
    scale = 10.0 ** np.array([-6, -1, 0, 3, 9])[:, None, None]
    anchor = np.random.default_rng(d).normal(size=(len(scale), 4, d + 1)) * scale
    _, floor = evalkit._certificate(anchor)
    norm = np.linalg.norm(anchor, axis=2).max(axis=1)     # ||w~(a)|| = max_c ||w~_c||
    assert floor.shape == norm.shape
    assert (floor >= 2 * g * norm).all(), floor / (2 * g * norm)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_nan_and_inf_val_rows_match_the_oracle_at_every_step(monkeypatch):
    z, labels = noisy_embedding([60, 60, 60], shift=3.0, seed=3)
    spec = SplitSpec(per_class_train=10, val_size=40, test_size=30, repeats=4)
    splits = [make_splits(labels, spec, RngStream(12, SPLIT, r)) for r in range(spec.repeats)]
    bad = np.zeros((2, z.shape[1]))
    bad[0], bad[1, 3] = np.nan, np.inf
    z, labels, splits = with_val_rows(z, labels, splits, [bad] * len(splits),
                                      [np.array([0, 1])] * len(splits))
    widths = assert_every_step_matches_oracle(monkeypatch, z, labels, splits)
    assert min(widths) < len(splits[0].val)


def test_huge_and_subnormal_val_rows_match_the_oracle_at_every_step(monkeypatch):
    # Each repeat's val rows gain rows 2**k e_a of norm 2**k, k = 58 to 64, across the
    # certificate's overflow guard ||x~|| >= 2**60, and rows of norm ~2**-140, whose
    # score products are subnormal in float32. A row 2**k e_a has one nonzero term, so
    # its scores are exact in any summation order and name it among a step's scored
    # columns: the rows at or above the guard must be scored at every step.
    z, labels = noisy_embedding([60, 60, 60], shift=3.0, seed=3)
    spec = SplitSpec(per_class_train=10, val_size=40, test_size=30, repeats=4)
    splits = [make_splits(labels, spec, RngStream(12, SPLIT, r)) for r in range(spec.repeats)]
    powers = np.array([58, 59, 60, 61, 64])
    huge = np.zeros((len(powers), z.shape[1]))
    huge[np.arange(len(powers)), np.arange(len(powers)) % 3] = 2.0 ** powers
    tiny = np.random.default_rng(9).normal(size=(4, z.shape[1])) * 2.0 ** -140
    rows = np.concatenate([huge, tiny])
    z, labels, splits = with_val_rows(z, labels, splits, [rows] * len(splits),
                                      [np.arange(len(rows)) % 3] * len(splits))
    guarded = huge[powers >= 60].astype(evalkit.PROBE_DTYPE).T
    want = [[w @ guarded + b for w, b in oracles.probe_steps(z, labels, s)] for s in splits]
    scored, argmax_cols = [], evalkit._argmax_cols

    def recording(cols, out, top):
        scored.append(cols.copy())          # (C, R, width)
        argmax_cols(cols, out, top)

    monkeypatch.setattr(evalkit, "_argmax_cols", recording)
    widths = assert_every_step_matches_oracle(monkeypatch, z, labels, splits)
    assert min(widths) < len(splits[0].val)
    assert len(scored) == evalkit.PROBE_STEPS
    for t, cols in enumerate(scored):
        for r, steps in enumerate(want):
            same = (cols[:, r, :, None] == steps[t][:, None]).all(axis=0)   # (width, rows)
            assert same.any(axis=0).all(), (t, r)


def test_probe_with_eight_or_more_classes_matches_per_repeat_oracle():
    # from 8 classes NumPy sums a row of probabilities pairwise, not left to right
    z, labels = noisy_embedding([20] * 9, d=10, seed=2)
    spec = SplitSpec(per_class_train=3, val_size=40, test_size=40, repeats=3)
    splits = [make_splits(labels, spec, RngStream(5, SPLIT, r)) for r in range(spec.repeats)]
    got = linear_probe(z, labels, splits)
    for r, s in enumerate(splits):
        assert np.array_equal(got[r], oracles.linear_probe(z, labels, s)), r


@pytest.mark.parametrize("width", range(1, 13))
def test_column_sum_has_the_bits_of_numpys_sum(width):
    # The probe sums its (R, C, n) probabilities over the C = width classes, with NumPy's
    # reduction of a middle axis: it must give the bits of a lone probe's (C, n) sum over
    # axis 0, and both must add the classes left to right, for every class count.
    a = np.exp(np.random.default_rng(width).normal(scale=4.0, size=(3, width, 50)))
    a = a.astype(evalkit.PROBE_DTYPE)
    total = np.empty((3, 1, 50), dtype=evalkit.PROBE_DTYPE)
    np.sum(a, axis=1, out=total, keepdims=True)
    assert total[:, 0].tobytes() == np.stack([r.sum(axis=0) for r in a]).tobytes()
    assert total[:, 0].tobytes() == functools.reduce(np.add, a.transpose(1, 0, 2)).tobytes()


@pytest.mark.parametrize("width", [2, 3, 4, 9])
def test_argmax_cols_matches_numpys_argmax(width):
    rng = np.random.default_rng(width)
    scores = np.round(rng.normal(size=(width, 4, 60)), 1)
    scores[1, 0] = scores[0, 0]           # exact ties: the first column wins
    for _ in range(20):                   # the first NaN wins, and inf is a number
        scores[rng.integers(width), rng.integers(1, 4), rng.integers(60)] = rng.choice(
            [np.nan, np.inf, -np.inf])
    out = np.empty(scores.shape[1:], dtype=np.intp)
    evalkit._argmax_cols(scores, out, np.empty(scores.shape[1:]))
    assert np.array_equal(out, np.argmax(np.moveaxis(scores, 0, -1), axis=-1))


@pytest.mark.parametrize("name", ["standard", "one_shot", "unbalanced_4_classes"])
def test_a_float64_embedding_predicts_as_its_float32_cast(name):
    # the probe computes in float32 whatever it is given, as its certificate assumes
    z, labels, splits = oracle_case(name)
    assert evalkit.PROBE_DTYPE == np.float32
    assert np.array_equal(linear_probe(z, labels, splits),
                          linear_probe(z.astype(np.float32), labels, splits))


def test_reversed_splits_reverse_the_predictions():
    z, labels, splits = oracle_case("one_shot")
    assert np.array_equal(linear_probe(z, labels, splits[::-1]),
                          linear_probe(z, labels, splits)[::-1])


def test_probe_rejects_splits_it_cannot_stack():
    z, labels = separable_embedding()
    a = Splits(train=np.array([0, 40]), val=np.array([1, 41]), test=np.array([2, 42]))
    b = Splits(train=np.array([3, 43]), val=np.array([4]), test=np.array([5, 45]))
    with pytest.raises(ValueError, match="equal"):
        linear_probe(z, labels, [a, b])
    with pytest.raises(ValueError, match="equal"):
        linear_probe(z, labels, [])


# -- per-repeat scores ----------------------------------------------------------------


def test_evaluate_embedding_scores_each_repeat_of_the_spec():
    z, labels = noisy_embedding([40, 40, 40])
    spec = SplitSpec(per_class_train=5, val_size=20, test_size=30, repeats=4, seed=3)
    snapshot = z.copy()
    macro, micro = evaluate_embedding(z, labels, draw_splits(labels, spec))
    splits = [make_splits(labels, spec, RngStream(3, SPLIT, r)) for r in range(4)]
    want = [f1_scores(pred, labels[s.test], 3)
            for s, pred in zip(splits, linear_probe(z, labels, splits))]
    assert macro.tolist() == [m for m, _ in want] and micro.tolist() == [u for _, u in want]
    assert np.array_equal(z, snapshot)
