"""Tests for classification, accuracy metrics, entropy, and the
similarity-rank failure histogram."""

import json
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icis import evaluation
from icis.data import ClassifierHead, DescriptorSet, FeatureSet, load_classifier_head
from icis.errors import ClassIdError, IcisError
from icis.evaluation import (
    EvalReport,
    classify,
    evaluate,
    failure_histogram,
    harmonic_mean,
    mean_prediction_entropy,
    micro_accuracy,
    per_class_mean_accuracy,
    similarity_ranks,
    softmax_rows,
)
from icis.tensor import row_blocks

# ---------------------------------------------------------------------------
# classification


def test_classify_identity_head_picks_the_largest_coordinate():
    head = ClassifierHead(["a", "b", "c"], np.eye(3))
    out = classify(head, np.array([[0.1, 0.9, 0.2], [1.0, 0.0, 0.0]]))
    assert out == ["b", "a"]


def test_classify_breaks_ties_by_lowest_class_id():
    head = ClassifierHead(["zeta", "alpha", "mid"], np.ones((3, 2)))
    out = classify(head, np.array([[1.0, 1.0]]))
    assert out == ["alpha"]


def test_classify_is_invariant_to_head_row_order():
    rng = np.random.default_rng(0)
    w = rng.standard_normal((5, 4))
    x = rng.standard_normal((20, 4))
    head1 = ClassifierHead(["a", "b", "c", "d", "e"], w)
    perm = [3, 0, 4, 1, 2]
    head2 = ClassifierHead([head1.class_ids[i] for i in perm], w[perm])
    assert classify(head1, x) == classify(head2, x)


def test_classify_matches_brute_force_oracle():
    rng = np.random.default_rng(1)
    ids = [f"k{i}" for i in range(6)]
    w = rng.standard_normal((6, 3))
    b = rng.standard_normal(6)
    head = ClassifierHead(ids, w, biases=b)
    x = rng.standard_normal((15, 3))
    got = classify(head, x)
    for row, pred in zip(x, got):
        scores = {c: float(row @ w[i] + b[i]) for i, c in enumerate(ids)}
        best = max(scores.values())
        winners = sorted(c for c, s in scores.items() if s == best)
        assert pred == winners[0]


def test_classify_never_picks_a_dominated_class():
    # class "dead" scores strictly below "live" on every sample
    head = ClassifierHead(["live", "dead"], np.array([[1.0, 0.0], [0.5, 0.0]]))
    x = np.abs(np.random.default_rng(2).standard_normal((30, 2))) + 0.1
    assert set(classify(head, x)) == {"live"}


# ---------------------------------------------------------------------------
# accuracy


def test_per_class_mean_weighs_classes_equally():
    # class a: 1/1 correct, class b: 0/3 correct; per-class mean is 50
    labels = ["a", "b", "b", "b"]
    preds = ["a", "a", "a", "a"]
    mean, per_class = per_class_mean_accuracy(labels, preds, ["a", "b"])
    assert mean == pytest.approx(50.0)
    assert per_class == {"a": 100.0, "b": 0.0}
    # micro average counts samples instead
    assert micro_accuracy(labels, preds) == pytest.approx(25.0)


def test_per_class_mean_is_invariant_to_sample_duplication():
    labels = ["a", "b"]
    preds = ["a", "a"]
    base, _ = per_class_mean_accuracy(labels, preds, ["a", "b"])
    dup, _ = per_class_mean_accuracy(labels + ["b"] * 9, preds + ["a"] * 9, ["a", "b"])
    assert base == pytest.approx(dup)


def test_per_class_mean_matches_grouping_oracle():
    rng = np.random.default_rng(3)
    ids = ["u", "v", "w"]
    labels = [ids[i] for i in rng.integers(0, 3, size=60)]
    preds = [ids[i] for i in rng.integers(0, 3, size=60)]
    mean, _ = per_class_mean_accuracy(labels, preds, ids)
    accs = []
    for c in ids:
        rows = [(l, p) for l, p in zip(labels, preds) if l == c]
        accs.append(100.0 * sum(l == p for l, p in rows) / len(rows))
    assert mean == pytest.approx(np.mean(accs), abs=1e-12)


def test_per_class_mean_warns_on_empty_classes_and_excludes_them():
    with pytest.warns(UserWarning):
        mean, per_class = per_class_mean_accuracy(["a"], ["a"], ["a", "ghost"])
    assert mean == pytest.approx(100.0)
    assert "ghost" not in per_class


def test_per_class_mean_rejects_stray_labels():
    with pytest.raises(ClassIdError):
        per_class_mean_accuracy(["x"], ["x"], ["a", "b"])


def test_accuracy_length_mismatch_and_empty():
    with pytest.raises(IcisError):
        per_class_mean_accuracy(["a"], [], ["a"])
    with pytest.raises(IcisError):
        micro_accuracy([], [])


# ---------------------------------------------------------------------------
# harmonic mean and entropy


def test_harmonic_mean_reference_value():
    assert harmonic_mean(45.8, 73.7) == pytest.approx(56.5, abs=0.05)


def test_harmonic_mean_identities():
    assert harmonic_mean(37.2, 37.2) == pytest.approx(37.2, abs=1e-12)
    assert harmonic_mean(0.0, 80.0) == 0.0
    assert harmonic_mean(0.0, 0.0) == 0.0
    # bounded above by the smaller argument... times at most 2x/(x+y) <= 1
    assert harmonic_mean(20.0, 80.0) <= 2 * 20.0
    with pytest.raises(IcisError):
        harmonic_mean(-1.0, 50.0)


def test_softmax_rows_sums_to_one_and_handles_large_logits():
    p = softmax_rows(np.array([[1000.0, 1000.0, 999.0], [0.0, 0.0, 0.0]]))
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(np.isfinite(p))


def test_entropy_uniform_rows_score_ln_k():
    for k in (2, 5, 17):
        logits = np.zeros((3, k))
        assert mean_prediction_entropy(logits) == pytest.approx(np.log(k), abs=1e-10)


def test_entropy_dominant_logit_approaches_zero():
    logits = np.array([[100.0, 0.0, 0.0]])
    assert mean_prediction_entropy(logits) == pytest.approx(0.0, abs=1e-10)


def test_entropy_matches_direct_sum_oracle():
    rng = np.random.default_rng(4)
    logits = rng.standard_normal((10, 6))
    p = softmax_rows(logits)
    expected = np.mean([-sum(q * np.log(q) for q in row if q > 0) for row in p])
    assert mean_prediction_entropy(logits) == pytest.approx(expected, abs=1e-10)


def test_entropy_strictly_drops_when_the_top_logit_grows():
    rng = np.random.default_rng(5)
    logits = rng.standard_normal((8, 5))
    # raising each row's argmax logit sharpens the distribution
    sharper = logits.copy()
    rows = np.arange(8)
    sharper[rows, logits.argmax(axis=1)] += 2.0
    assert mean_prediction_entropy(sharper) < mean_prediction_entropy(logits)


# ---------------------------------------------------------------------------
# similarity ranks and failure histogram


def _line_descriptors():
    # cosine similarity to "t" decreases along the list
    vecs = np.array([
        [1.0, 0.0],
        [0.9, 0.1],
        [0.5, 0.5],
        [0.0, 1.0],
        [-1.0, 0.5],
    ])
    return DescriptorSet(["t", "near", "mid", "far", "anti"], vecs)


def test_similarity_ranks_order_and_anchor():
    ranks = similarity_ranks(_line_descriptors(), "t")
    assert ranks["t"] == 0
    assert ranks["near"] == 1
    assert ranks["mid"] == 2
    assert ranks["far"] == 3
    assert ranks["anti"] == 4


def test_similarity_ranks_match_sort_oracle():
    rng = np.random.default_rng(6)
    ids = [f"c{i}" for i in range(9)]
    ds = DescriptorSet(ids, rng.standard_normal((9, 4)))
    anchor = "c3"
    ranks = similarity_ranks(ds, anchor)
    a = ds.vector(anchor)
    sims = {
        c: float(ds.vector(c) @ a / (np.linalg.norm(ds.vector(c)) * np.linalg.norm(a)))
        for c in ids
    }
    expected_order = [anchor] + sorted(
        (c for c in ids if c != anchor), key=lambda c: (-sims[c], c)
    )
    assert [c for c, _ in sorted(ranks.items(), key=lambda kv: kv[1])] == expected_order


def _histogram_of(predicted, bin_size, head_ids=("t", "near", "mid", "far", "anti")):
    """``failure_histogram`` of "t" on the line descriptors, with one sample
    of "t" per entry of ``predicted``: a one-hot head predicts that entry."""
    head = ClassifierHead(list(head_ids), np.eye(len(head_ids)))
    columns = [head_ids.index(p) for p in predicted]
    features = FeatureSet(np.eye(len(head_ids))[columns], ["t"] * len(columns))
    return failure_histogram(head, features, _line_descriptors(), "t", bin_size=bin_size)


def test_bin_predictions_all_correct_mass_in_bin_zero():
    probs = _histogram_of(["t", "t", "t"], bin_size=2).bin_probabilities
    assert probs[0] == pytest.approx(1.0)
    assert sum(probs) == pytest.approx(1.0, abs=1e-12)


def test_bin_predictions_spread_counts():
    # ranks: t=0 near=1 mid=2 far=3 anti=4; bin_size 2 -> bins {0,1} {2,3} {4}
    probs = _histogram_of(["t", "near", "mid", "anti"], bin_size=2).bin_probabilities
    assert probs == pytest.approx([0.5, 0.25, 0.25])
    assert sum(probs) == pytest.approx(1.0, abs=1e-12)


def test_bin_predictions_unknown_class_is_an_error():
    with pytest.raises(ClassIdError, match="mystery"):
        _histogram_of(["mystery"], bin_size=2, head_ids=("t", "mystery"))


def test_failure_histogram_checks_bin_size_before_classifying(monkeypatch):
    def refused(*args):
        raise AssertionError("classify ran before bin_size was checked")

    monkeypatch.setattr(evaluation, "classify", refused)
    with pytest.raises(IcisError, match="bin_size"):
        _histogram_of(["t"], bin_size=0)


def test_failure_histogram_reports_counts_with_seen_tags():
    ds = _line_descriptors()
    # head where "near" dominates everything, so all of t's samples go there
    w = np.array([[0.1, 0.0], [5.0, 5.0], [0.1, 0.1]])
    head = ClassifierHead(["t", "near", "far"], w, seen=[False, True, True])
    features = FeatureSet(np.ones((4, 2)), ["t", "t", "t", "far"])
    hist = failure_histogram(head, features, ds, "t", bin_size=2)
    assert hist.n_samples == 3
    assert hist.predicted_classes == [("near", 1, 3, True)]
    assert hist.bin_probabilities[0] == pytest.approx(1.0)
    assert hist.mean_entropy is not None
    text = hist.to_text()
    assert "rank 1 near (seen): 3" in text
    payload = json.loads(hist.to_json())
    assert payload["predicted_classes"][0]["class_id"] == "near"
    assert payload["predicted_classes"][0]["seen"] is True


def test_failure_histogram_ranks_the_classes_once(monkeypatch):
    rng = np.random.default_rng(8)
    ids = [f"c{i}" for i in range(12)]
    ds = DescriptorSet(ids, rng.standard_normal((12, 4)))
    head = ClassifierHead(ids, rng.standard_normal((12, 5)), seen=[i % 2 == 0 for i in range(12)])
    features = FeatureSet(rng.standard_normal((30, 5)), ["c3"] * 20 + ["c4"] * 10)
    # the histogram as the public pieces build it
    predictions = classify(head, features.restrict_to(["c3"]).features)
    ranks = similarity_ranks(ds, "c3")
    counts = {p: predictions.count(p) for p in set(predictions)}
    expected_rows = sorted(((c, ranks[c], n, int(c[1:]) % 2 == 0) for c, n in counts.items()), key=lambda r: r[1])
    expected_probs = [sum(ranks[p] // 3 == b for p in predictions) / len(predictions) for b in range(4)]

    calls = []

    def counted(descriptors, anchor_id):
        calls.append(anchor_id)
        return similarity_ranks(descriptors, anchor_id)

    monkeypatch.setattr(evaluation, "similarity_ranks", counted)
    hist = failure_histogram(head, features, ds, "c3", bin_size=3)
    assert calls == ["c3"]
    assert hist.bin_probabilities == expected_probs
    assert hist.predicted_classes == expected_rows
    assert hist.n_samples == 20 and len(expected_rows) > 1


def test_failure_histogram_no_samples_is_an_error():
    ds = _line_descriptors()
    head = ClassifierHead(["t", "near"], np.eye(2) + 0.1)
    features = FeatureSet(np.ones((1, 2)), ["near"])
    with pytest.raises(IcisError):
        failure_histogram(head, features, ds, "t")


# ---------------------------------------------------------------------------
# evaluate


def _task():
    # two seen classes (a, b) and two unseen (u, v) with orthogonal weights
    head = ClassifierHead(
        ["a", "b", "u", "v"], np.eye(4), seen=[True, True, False, False]
    )
    unseen = FeatureSet(
        np.array([
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [0.0, 0.9, 0.0, 0.4],  # v sample that the full head sends to b
        ]),
        ["u", "v", "v"],
    )
    seen = FeatureSet(np.eye(4)[:2], ["a", "b"])
    return head, unseen, seen


def test_evaluate_full_and_restricted_settings():
    head, unseen, seen = _task()
    report = evaluate(head, unseen, seen)
    # restricted to {u, v} the stray v sample still lands on v
    assert report.zsl_accuracy == pytest.approx(100.0)
    # with the full head, b outbids v on that sample: per-class v = 50
    assert report.gzsl_unseen == pytest.approx(75.0)
    assert report.gzsl_seen == pytest.approx(100.0)
    assert report.harmonic == pytest.approx(harmonic_mean(75.0, 100.0))
    assert report.n_unseen_samples == 3 and report.n_seen_samples == 2
    assert report.entropy_unseen is not None and report.entropy_seen is not None


def test_evaluate_unseen_ids_override_head_flags():
    head = ClassifierHead(["a", "b", "u", "v"], np.eye(4))  # all flagged seen
    unseen = FeatureSet(np.eye(4)[2:], ["u", "v"])
    report = evaluate(head, unseen, unseen_ids=["u", "v"])
    assert report.zsl_accuracy == pytest.approx(100.0)
    assert report.gzsl_seen is None and report.harmonic is None


def test_evaluate_without_unseen_classes_is_an_error():
    head = ClassifierHead(["a", "b"], np.eye(2))
    features = FeatureSet(np.eye(2), ["a", "b"])
    with pytest.raises(IcisError):
        evaluate(head, features)


def test_evaluate_report_serialisation():
    head, unseen, seen = _task()
    report = evaluate(head, unseen, seen)
    text = report.to_text()
    assert "zsl_accuracy = 100.0000" in text
    assert "harmonic =" in text
    payload = json.loads(report.to_json())
    assert payload["gzsl_seen"] == pytest.approx(100.0)
    assert "zsl" in payload["per_class"]


def _count_norm_bounds(monkeypatch, head):
    """A one-item list counting the :func:`_norm_bounds` calls on ``head``'s weights."""
    count, bound = [0], evaluation._norm_bounds

    def spied(m):
        count[0] += m is head.weights
        return bound(m)

    monkeypatch.setattr(evaluation, "_norm_bounds", spied)
    return count


def test_evaluate_reports_what_classify_and_the_entropy_give_each_part(monkeypatch):
    rng = np.random.default_rng(44)
    n_classes, dim, rows = 40, 16, 120
    ids = [f"e{i:02d}" for i in rng.permutation(n_classes)]
    weights = rng.standard_normal((n_classes, dim)).astype(np.float32)
    biases = rng.standard_normal(n_classes).astype(np.float32)
    weights[5], biases[5] = weights[2], biases[2]  # an exact tie, decided by per-pair dot products
    head = ClassifierHead(ids, weights, biases, seen=np.arange(n_classes) >= 12)
    labels = [ids[j] for j in rng.permutation(rows) % n_classes]  # three samples a class
    features = weights[[ids.index(l) for l in labels]] + 0.8 * rng.standard_normal((rows, dim)).astype(np.float32)
    features[:4] = weights[2]
    everything = FeatureSet(features, labels)
    unseen_ids = ids[:12]
    unseen, seen = everything.restrict_to(unseen_ids), everything.restrict_to(ids[12:])
    # float32 class blocks of 20 rows and float64 ones of 10: the head is wider than one of either
    monkeypatch.setattr(evaluation, "EVAL_BLOCK", 8 * 10 * dim)
    bounds, walks = _count_norm_bounds(monkeypatch, head), _spy_walks(monkeypatch)
    report = evaluate(head, unseen, seen)
    assert bounds == [1]  # the head's norms are bounded once and shared by the three argmax passes
    assert "near" in [kind for kind, _ in walks]  # the tied rows, and others, went to the dot products

    expected = EvalReport(n_unseen_samples=unseen.n_samples, n_seen_samples=seen.n_samples)
    zsl = classify(head, unseen.rows, among=unseen_ids)
    expected.zsl_accuracy, expected.per_class["zsl"] = per_class_mean_accuracy(unseen.labels, zsl, unseen_ids)
    expected.zsl_micro = micro_accuracy(unseen.labels, zsl)
    expected.gzsl_unseen, expected.per_class["gzsl_unseen"] = per_class_mean_accuracy(
        unseen.labels, classify(head, unseen.rows), unseen_ids)
    expected.gzsl_seen, expected.per_class["gzsl_seen"] = per_class_mean_accuracy(
        seen.labels, classify(head, seen.rows), ids[12:])
    expected.harmonic = harmonic_mean(expected.gzsl_unseen, expected.gzsl_seen)
    expected.entropy_unseen = evaluation._head_entropy(head, unseen.rows)
    expected.entropy_seen = evaluation._head_entropy(head, seen.rows)
    assert report.to_json() == expected.to_json()
    assert bounds == [4]  # each classify bounds them itself


def test_eval_report_text_skips_missing_metrics():
    report = EvalReport(zsl_accuracy=42.0)
    text = report.to_text()
    assert "zsl_accuracy = 42.0000" in text
    assert "harmonic" not in text


# ---------------------------------------------------------------------------
# blocked scoring


def _wide_task(rows, n_classes=2000, dim=256, seed=7):
    """A head whose ids run against the row order, and feature rows in which
    rows 7 and 8 (either side of an 8-row block boundary) tie exactly on the
    two duplicated classes in columns 0 and 1, whose lower id is column 1."""
    rng = np.random.default_rng(seed)
    ids = [f"k{i:05d}" for i in range(n_classes)][::-1]
    weights = rng.standard_normal((n_classes, dim))
    weights[:2] = 0.0
    weights[:2, :4] = 4.0
    features = rng.standard_normal((rows, dim))
    for r in (7, 8):
        features[r] = 0.0
        features[r, :4] = 8.0
    return ClassifierHead(ids, weights), features


def test_row_blocks_cover_the_rows_without_one_row_blocks():
    assert list(row_blocks(0, 5, 10)) == [(0, 0)]
    assert list(row_blocks(1, 5, 10)) == [(0, 1)]
    for rows in range(2, 40):
        for step in (2, 3, 8):
            blocks = list(row_blocks(rows, 10, 10 * step))
            assert [lo for lo, _ in blocks[1:]] == [hi for _, hi in blocks[:-1]]
            assert blocks[0][0] == 0 and blocks[-1][1] == rows
            assert all(2 <= hi - lo <= step + 1 for lo, hi in blocks)


@pytest.mark.parametrize("rows, sizes", [(37, [8, 8, 8, 8, 5]), (33, [8, 8, 8, 9])])
def test_blocked_scoring_is_bit_identical_to_the_whole_array(monkeypatch, rows, sizes):
    # 37 rows end in a short block of 5; 33 rows would leave one row over,
    # which joins the block before it
    head, features = _wide_task(rows)
    monkeypatch.setattr(evaluation, "EVAL_BLOCK", 8 * 8 * head.n_classes)  # bytes: 8 rows of float64 logits
    blocks = [head.logits(features[lo:hi]) for lo, hi in row_blocks(rows, head.n_classes, evaluation.EVAL_BLOCK // 8)]
    assert [b.shape[0] for b in blocks] == sizes
    whole = head.logits(features)
    assert whole[7, 0] == whole[7, 1] == whole[7].max() and whole[8, 0] == whole[8].max()
    assert np.array_equal(np.concatenate(blocks), whole)
    predictions = classify(head, features)
    assert predictions == [head.class_ids[j] for j in _lowest_rank_argmax_oracle(whole, _ranks(head.class_ids))]
    assert predictions[7] == predictions[8] == head.class_ids[1] == "k01998"
    rows_entropy = np.concatenate([evaluation._entropies(b) for b in blocks])
    assert np.array_equal(rows_entropy, evaluation._entropies(whole))
    assert evaluation._head_entropy(head, features) == pytest.approx(mean_prediction_entropy(whole), rel=1e-12)


def test_blocked_evaluate_equals_one_block(monkeypatch):
    head, features = _wide_task(41)
    head.seen[::2] = False
    unseen_ids = [c for c, s in zip(head.class_ids, head.seen) if not s]
    seen_ids = [c for c, s in zip(head.class_ids, head.seen) if s]
    unseen = FeatureSet(features[:21], unseen_ids[:21])
    seen = FeatureSet(features[21:], seen_ids[:20])
    reports = []
    for budget in (1 << 30, 8 * 4 * head.n_classes):
        monkeypatch.setattr(evaluation, "EVAL_BLOCK", budget)
        with pytest.warns(UserWarning, match="without samples"):
            reports.append(json.loads(evaluate(head, unseen, seen).to_json()))
    # the entropy's online softmax sums in the order of its class blocks
    for key in ("entropy_unseen", "entropy_seen"):
        assert reports[1].pop(key) == pytest.approx(reports[0].pop(key), rel=1e-12)
    assert reports[0] == reports[1]


def test_evaluate_holds_no_samples_by_classes_array(monkeypatch):
    monkeypatch.setattr(evaluation, "EVAL_BLOCK", 8 << 14)
    rng = np.random.default_rng(3)
    n_classes, rows = 4000, 1000
    ids = [f"c{i:04d}" for i in range(n_classes)]
    head = ClassifierHead(ids, rng.standard_normal((n_classes, 16)), seen=np.arange(n_classes) % 2 == 0)
    labels = [ids[1 + 2 * (i % 50)] for i in range(rows)]
    unseen = FeatureSet(rng.standard_normal((rows, 16)), labels)
    seen = FeatureSet(rng.standard_normal((rows, 16)), [ids[2 * (i % 50)] for i in range(rows)])
    full_logits_bytes = rows * n_classes * 8
    tracemalloc.start()
    try:
        with pytest.warns(UserWarning, match="without samples"):
            evaluate(head, unseen, seen)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # about 0.8 MB in blocks; scoring every row at once traced 132 MB
    assert peak < full_logits_bytes / 8


# ---------------------------------------------------------------------------
# class blocks, tie-break and the whole-array entropy


def _lowest_rank_argmax_oracle(scores, ranks):
    """The whole-array tie-break: every column's rank where it holds the
    row's top score, a sentinel elsewhere, then the lowest."""
    top = scores.max(axis=1, keepdims=True)
    return np.where(scores == top, ranks, np.iinfo(np.int64).max).argmin(axis=1)


def _ranks(ids):
    return np.argsort(np.argsort(ids, kind="stable"), kind="stable")


def _entropy_oracle(logits):
    """``softmax_rows`` and ``where(p > 0, p * log(p), 0)`` on whole arrays."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0.0, p * np.log(p), 0.0)
    return p, -terms.sum(axis=1)


def test_classify_breaks_ties_by_id_whatever_the_row_order(monkeypatch):
    nan = np.nan
    scores = np.array([
        [0.0, 3.0, 1.0, 2.0, -1.0],  # one top score
        [2.0, 1.0, 2.0, 0.0, 2.0],  # a three-way tie
        [1.0, 1.0, 1.0, 1.0, 1.0],  # every column ties
        [0.0, nan, 5.0, 5.0, 1.0],  # no maximum: the first id
        [nan, 2.0, -1.0, 0.0, 2.0],
    ])
    ties = np.random.default_rng(8).integers(0, 3, (60, 5)).astype(float)
    # an identity head scores each feature row as itself; a budget of 40 bytes
    # (10 float32 or 5 float64 elements) at d_w 5 walks the five classes in
    # blocks of 2 and 3
    for budget in (1 << 20, 40):
        monkeypatch.setattr(evaluation, "EVAL_BLOCK", budget)
        for ranks in (np.arange(5), np.array([4, 0, 3, 1, 2]), np.array([2, 4, 1, 0, 3])):
            ids = [f"r{k}" for k in ranks]  # head row j has the id of rank ranks[j]
            head = ClassifierHead(ids, np.eye(5))
            among = ids[::-1]
            for s in (scores, ties):
                assert classify(head, s) == [ids[j] for j in _lowest_rank_argmax_oracle(s, ranks)]
                assert classify(head, s, among=among) == [
                    among[j] for j in _lowest_rank_argmax_oracle(s[:, ::-1], ranks[::-1])
                ]
            # every score -inf: all tie, so the lowest id
            assert classify(ClassifierHead(ids, np.ones((5, 2))), [[-np.inf, 0.0]]) == ["r0"]


def test_class_blocks_give_the_predictions_of_the_whole_restricted_head(monkeypatch):
    rng = np.random.default_rng(9)
    n_classes, dim, rows = 300, 16, 50
    ids = [f"q{i:04d}" for i in rng.permutation(n_classes)]
    weights = rng.standard_normal((n_classes, dim))
    targets = [ids[r] for r in rng.permutation(n_classes)[:200]]
    # an exact tie across the first block boundary; the lower id is in the later block
    low, high = sorted([targets[10], targets[100]])
    targets[10], targets[100] = high, low
    weights[ids.index(low)] = weights[ids.index(high)] = 0.0
    weights[ids.index(low), 0] = weights[ids.index(high), 0] = 10.0
    # the same with the lower id in the earlier block (blocks 2 and 3)
    low2, high2 = sorted([targets[150], targets[195]])
    targets[150], targets[195] = low2, high2
    weights[ids.index(low2)] *= 5.0
    weights[ids.index(high2)] = weights[ids.index(low2)]
    # an infinite feature makes row 3's logits +-inf, and NaN in one class of the last block
    weights[ids.index(targets[199]), 0] = 0.0
    head = ClassifierHead(ids, weights)
    features = rng.standard_normal((rows, dim))
    features[0] = 0.0
    features[0, 0] = 5.0
    features[1] = weights[ids.index(low2)]
    features[3, 0] = np.inf

    monkeypatch.setattr(evaluation, "EVAL_BLOCK", 4 * 64 * dim)  # bytes: 64 float32 rows
    assert [hi - lo for lo, hi in row_blocks(len(targets), dim, evaluation.EVAL_BLOCK // 4)] == [64, 64, 64, 8]
    with np.errstate(invalid="ignore"):
        got = classify(head, features, among=targets)
        assert got == classify(head.subset(targets), features)
        whole = head.subset(targets).logits(features)
    assert got == [targets[j] for j in _lowest_rank_argmax_oracle(whole, _ranks(targets))]
    assert got[0] == low and got[1] == low2 and got[3] == targets[0]
    with pytest.raises(ClassIdError, match="duplicate classifier id"):
        classify(head, features, among=targets + [targets[0]])
    with pytest.raises(ClassIdError, match="unknown class id 'nope'"):
        classify(head, features, among=targets + ["nope", targets[0]])


def test_the_full_head_is_walked_in_class_blocks_with_ties_either_way(monkeypatch):
    rng = np.random.default_rng(12)
    n_classes, dim, rows = 200, 16, 40
    ids = [f"f{i:04d}" for i in rng.permutation(n_classes)]
    weights = rng.standard_normal((n_classes, dim))
    # head rows 10 and 100 tie exactly, and the lower id sits in the later block
    ids[10], ids[100] = sorted([ids[10], ids[100]], reverse=True)
    weights[[10, 100]] = 0.0
    weights[[10, 100], 0] = 10.0
    # head rows 150 and 195 tie exactly, and the lower id sits in the earlier block
    ids[150], ids[195] = sorted([ids[150], ids[195]])
    weights[150] *= 5.0
    weights[195] = weights[150]
    weights[199, 0] = 0.0  # a NaN logit for row 3 in the last block
    biases = 0.1 * rng.standard_normal(n_classes)
    biases[100], biases[195] = biases[10], biases[150]
    head = ClassifierHead(ids, weights, biases)
    features = rng.standard_normal((rows, dim))
    features[0] = 0.0
    features[0, 0] = 5.0
    features[1] = weights[150]
    features[3, 0] = np.inf

    monkeypatch.setattr(evaluation, "EVAL_BLOCK", 4 * 64 * dim)  # bytes: 64 float32 rows
    assert [hi - lo for lo, hi in row_blocks(n_classes, dim, evaluation.EVAL_BLOCK // 4)] == [64, 64, 64, 8]
    with np.errstate(invalid="ignore"):
        got = classify(head, features)
        whole = head.logits(features)
    assert got == [ids[j] for j in _lowest_rank_argmax_oracle(whole, _ranks(ids))]
    assert got[0] == ids[100] and got[1] == ids[150] and got[3] == ids[0]


def test_classify_with_no_classes_is_an_error():
    head = ClassifierHead(["a", "b"], np.eye(2))
    with pytest.raises(IcisError, match="no classes to classify among"):
        classify(head, np.eye(2), among=[])


def test_full_head_classify_holds_one_class_block_not_the_head(monkeypatch):
    budget = 8 << 16
    monkeypatch.setattr(evaluation, "EVAL_BLOCK", budget)
    rng = np.random.default_rng(13)
    n_classes, dim, rows = 4000, 256, 1000
    head = ClassifierHead([f"c{i:04d}" for i in range(n_classes)], rng.standard_normal((n_classes, dim)))
    features = rng.standard_normal((rows, dim))
    head_bytes = n_classes * dim * 8
    tracemalloc.start()
    try:
        classify(head, features)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # about 1.2 MiB: one class block, one logits block and the id bookkeeping;
    # gathering the whole head at once would hold 8.2 MB
    assert peak < head_bytes / 4
    assert peak < 3 * budget


def test_evaluate_holds_no_restricted_head_copy(monkeypatch):
    budget = 4 << 16  # bytes: float32 class blocks of 256 rows, float64 ones of 128
    monkeypatch.setattr(evaluation, "EVAL_BLOCK", budget)
    rng = np.random.default_rng(10)
    n_classes, dim, rows = 4000, 256, 1000
    ids = [f"c{i:04d}" for i in range(n_classes)]
    head = ClassifierHead(ids, rng.standard_normal((n_classes, dim)), seen=np.arange(n_classes) % 2 == 0)
    unseen = FeatureSet(rng.standard_normal((rows, dim)), [ids[1 + 2 * (i % 50)] for i in range(rows)])
    seen = FeatureSet(rng.standard_normal((rows, dim)), [ids[2 * (i % 50)] for i in range(rows)])
    restricted_head_bytes = (n_classes // 2) * dim * 8
    tracemalloc.start()
    try:
        with pytest.warns(UserWarning, match="without samples"):
            evaluate(head, unseen, seen)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # about 1.25 MiB: a gathered float64 block and its float32 copy, and one logits block,
    # or a logits block and the entropy's terms; gathering the whole restricted head traced 5.1 MiB
    assert peak < restricted_head_bytes / 2
    assert peak < 6 * budget


def test_entropy_in_place_is_bit_identical_and_the_public_ones_copy():
    rng = np.random.default_rng(11)
    logits = rng.standard_normal((6, 9)) * 30.0
    logits[2] = [0.0, -1000.0, 1.0, -800.0, 0.5, 0.0, 2.0, -3.0, 1.0]  # two p = 0 by underflow
    p_oracle, entropies = _entropy_oracle(logits)
    assert np.count_nonzero(p_oracle[2] == 0.0) == 2
    before = logits.copy()
    assert np.array_equal(evaluation._entropies(logits), entropies)
    assert np.array_equal(softmax_rows(logits), p_oracle)
    assert mean_prediction_entropy(logits) == entropies.mean()
    assert np.array_equal(logits, before)


# ---------------------------------------------------------------------------
# class blocks as views, and the whole-array entropy's edge rows


class _SpiedRows(np.ndarray):
    """Head weights that record, in ``kinds``, whether each read of their
    rows takes a slice (a view) or an index array (gathered)."""

    def __getitem__(self, key):
        self.kinds.append("view" if isinstance(key, slice) else "gathered")
        return np.asarray(self)[key]


def _spy_blocks(*heads):
    """Record whether each class block that ``logit_blocks`` takes from
    ``heads`` is a view (a slice) or gathered (an index array)."""
    kinds = []
    for head in heads:
        head.weights = head.weights.view(_SpiedRows)
        head.weights.kinds = kinds
    return kinds


def test_full_head_classify_of_an_id_ordered_head_holds_no_class_block(monkeypatch):
    budget = 8 << 16
    monkeypatch.setattr(evaluation, "EVAL_BLOCK", budget)
    rng = np.random.default_rng(14)
    n_classes, dim, rows = 4000, 256, 20
    head = ClassifierHead([f"c{i:04d}" for i in range(n_classes)], rng.standard_normal((n_classes, dim)))
    features = rng.standard_normal((rows, dim))
    blocks = list(row_blocks(n_classes, dim, budget // 4))  # float32 class blocks of 512 rows
    block_bytes = (blocks[0][1] - blocks[0][0]) * dim * 8
    kinds = _spy_blocks(head)
    walks = _spy_walks(monkeypatch)
    calls = _spy_logits(monkeypatch)
    tracemalloc.start()
    try:
        classify(head, features)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # every row is decided in float32, which reads each float64 class block as a view
    assert walks == [(np.float32, rows)]
    assert kinds == ["view"] * len(blocks)
    # and downcasts it into one float32 buffer of the budget, half the float64 rows it holds
    w_buffer = calls[0][0].base
    assert all(w.base is w_buffer for w, _ in calls) and w_buffer.dtype == np.float32
    assert w_buffer.nbytes == budget == block_bytes // 2
    # that buffer, a logits block of 20 rows and the id bookkeeping; a float64 copy of its rows alone is 1 MiB
    assert peak < block_bytes


@pytest.mark.parametrize("n_blocks", [1, 2, 3])
def test_an_id_ordered_head_predicts_as_its_row_permutation(monkeypatch, n_blocks):
    rng = np.random.default_rng(15)
    n_classes, dim, rows = 30, 8, 60
    ids = [f"p{i:02d}" for i in range(n_classes)]
    weights = rng.standard_normal((n_classes, dim))
    # exact ties: classes 3 and 25 (in different blocks at 2 and 3 blocks), and 11 and 12
    weights[25], weights[12] = weights[3], weights[11]
    biases = 0.1 * rng.standard_normal(n_classes)
    biases[25], biases[12] = biases[3], biases[11]
    seen = np.arange(n_classes) % 3 != 0
    ordered = ClassifierHead(ids, weights, biases, seen)
    perm = rng.permutation(n_classes)
    permuted = ClassifierHead([ids[r] for r in perm], weights[perm], biases[perm], seen[perm])
    features = rng.standard_normal((rows, dim))
    features[:4] = weights[[3, 11, 3, 11]]
    unseen_ids = [c for c, s in zip(ids, seen) if not s]
    seen_ids = [c for c, s in zip(ids, seen) if s]
    unseen = FeatureSet(features[:30], [unseen_ids[i % 7] for i in range(30)])
    seen_set = FeatureSet(features[30:], [seen_ids[i % 15] for i in range(30)])

    monkeypatch.setattr(evaluation, "EVAL_BLOCK", 4 * -(-n_classes // n_blocks) * dim)  # bytes of float32 rows
    assert len(list(row_blocks(n_classes, dim, evaluation.EVAL_BLOCK // 4))) == n_blocks
    # a budget of 8 weights per class of a block scores the 60 feature rows in blocks
    # of 8 rows (the last of 4), each against every class block
    width = max(-(-n_classes // n_blocks), dim)
    feature_blocks = len(list(row_blocks(rows, width, evaluation.EVAL_BLOCK // 4)))
    assert feature_blocks == 8
    kinds, permuted_kinds = _spy_blocks(ordered), _spy_blocks(permuted)
    walks = _spy_walks(monkeypatch)
    assert classify(ordered, features) == classify(permuted, features)
    # the exact ties (rows 0 to 3, and every row whose top class has a twin) are never certified
    # in float32: the same rows of either head are gathered and walked again in float32 for
    # their near-tied classes, and no row is walked in float64
    (_, n), (_, near) = walks[:2]
    assert n == rows and 4 <= near < rows and walks == [(np.float32, rows), ("near", near)] * 2
    reads = n_blocks * (feature_blocks + len(list(row_blocks(near, width, evaluation.EVAL_BLOCK // 4))))
    # the ordered head's class blocks are views, the permuted head's gathered; besides them,
    # each head's candidate rows are gathered for their dot products
    assert kinds[:n_blocks * feature_blocks] == ["view"] * (n_blocks * feature_blocks)
    assert kinds.count("view") == reads and "gathered" in kinds
    assert set(permuted_kinds) == {"gathered"} and len(permuted_kinds) > reads
    # scattered head rows are gathered; one ascending run of them, from row 10, is viewed
    for among, kind in ((unseen_ids[::-1], "gathered"), (ids[26:9:-1], "view")):
        kinds.clear()
        assert classify(ordered, features, among=among) == classify(permuted, features, among=among)
        assert kinds[0] == kind  # the ordered head's first block
    predictions = classify(ordered, features)
    assert predictions[0] == predictions[2] == "p03" and predictions[1] == predictions[3] == "p11"

    with pytest.warns(UserWarning, match="without samples"):
        reports = [evaluate(h, unseen, seen_set, unseen_ids=unseen_ids) for h in (ordered, permuted)]
    # the entropy sums in head row order, so only the argmax-derived fields are compared
    for name in ("zsl_accuracy", "zsl_micro", "gzsl_unseen", "gzsl_seen", "harmonic", "per_class"):
        assert getattr(reports[0], name) == getattr(reports[1], name), name


def _random_logits(rows, width, seed):
    return np.random.default_rng(seed).standard_normal((rows, width)) * 30.0


@pytest.mark.parametrize("logits", [
    _random_logits(70, 1000, 16),
    # rows wider than one of the online entropy's strips
    _random_logits(3, evaluation.ENTROPY_STRIP + 7, 17),
], ids=["tall", "wide"])
def test_whole_array_entropy_is_bit_identical_to_its_oracle(logits):
    logits = logits.copy()
    logits[1, ::3] = -2000.0  # underflows to p = 0
    logits[-1] = -np.inf  # no finite maximum: every p is NaN, and the row adds no term
    with np.errstate(invalid="ignore"):
        p_oracle, entropies = _entropy_oracle(logits)
        got = evaluation._entropies(logits)
    assert np.count_nonzero(p_oracle[1] == 0.0) > 0 and np.isnan(p_oracle[-1]).all()
    assert np.array_equal(got, entropies, equal_nan=True)


# ---------------------------------------------------------------------------
# float32 heads, upcast block by block, and the online entropy


@pytest.mark.parametrize("n_blocks", [1, 2, 3])
def test_a_loaded_float32_head_decides_as_its_float64_rows(tmp_path, monkeypatch, n_blocks):
    rng = np.random.default_rng(18)
    n_classes, dim, rows = 30, 8, 60
    ids = [f"p{i:02d}" for i in range(n_classes)]
    weights = rng.standard_normal((n_classes, dim)).astype(np.float32)
    weights[[3, 11]] *= 4.0
    # exact ties: classes 3 and 25 (in different blocks at 2 and 3 blocks), and 11 and 12
    weights[25], weights[12] = weights[3], weights[11]
    biases = (0.1 * rng.standard_normal(n_classes)).astype(np.float32)
    biases[25], biases[12] = biases[3], biases[11]
    ClassifierHead(ids, weights, biases).save(tmp_path / "h.wsmat")
    loaded = load_classifier_head(tmp_path / "h.wsmat")
    in_memory = ClassifierHead(ids, weights.astype(np.float64), biases.astype(np.float64))
    assert loaded.weights.dtype == np.float32 and in_memory.weights.dtype == np.float64
    features = rng.standard_normal((rows, dim))
    features[:4] = weights[[3, 11, 3, 11]]

    monkeypatch.setattr(evaluation, "EVAL_BLOCK", 4 * -(-n_classes // n_blocks) * dim)  # bytes of float32 rows
    assert len(list(row_blocks(n_classes, dim, evaluation.EVAL_BLOCK // 4))) == n_blocks
    kinds = _spy_blocks(loaded, in_memory)
    # the full head, scattered rows (gathered) and one ascending run of rows (viewed)
    for among, kind in ((None, "view"), (ids[1::2], "gathered"), (ids[26:9:-1], "view")):
        kinds.clear()
        assert classify(loaded, features, among=among) == classify(in_memory, features, among=among)
        assert kinds[0] == kind
    predictions = classify(loaded, features)
    assert predictions[0] == predictions[2] == "p03" and predictions[1] == predictions[3] == "p11"
    assert evaluation._head_entropy(loaded, features) == evaluation._head_entropy(in_memory, features)


def _hard_logits():
    """Rows that take every path of the online entropy, with their columns
    split unevenly: a later block raises the maximum, one term underflows
    to p = 0, -inf logits sit in a row with a finite maximum (and fill its
    first block), and three rows have no finite maximum (all -inf, a NaN,
    a +inf)."""
    logits = np.random.default_rng(19).standard_normal((9, 11)) * 3.0
    logits[0] = np.arange(11.0)  # the maximum grows in every block
    logits[1] = [0.0, -1000.0, 1.0, -800.0, 0.5, 0.0, 2.0, -3.0, 1.0, 0.0, 0.0]
    logits[2, :4] = -np.inf
    logits[3] = -np.inf
    logits[4, 6] = np.nan
    logits[5, 9] = np.inf
    return logits


@pytest.mark.parametrize("widths", [[11], [4, 7], [1, 3, 2, 5], [3, 3, 3, 2]])
def test_online_entropy_equals_the_whole_array_per_row(monkeypatch, widths):
    monkeypatch.setattr(evaluation, "ENTROPY_STRIP", 22)  # row strips of 2 to 22 rows, some cut short
    logits = _hard_logits()
    with np.errstate(invalid="ignore"):
        whole = evaluation._entropies(logits)
        expected_mean = mean_prediction_entropy(logits)
    online = evaluation._OnlineEntropy(logits.shape[0])
    for columns in np.split(logits, np.cumsum(widths)[:-1], axis=1):
        for lo, hi in ((0, 4), (4, 9)):  # feature-row blocks inside each class block
            online.add(lo, columns[lo:hi])
    got = online.entropies()
    assert got[1] > 0.0 and got[2] > 0.0
    assert got[3] == got[4] == got[5] == 0.0 and whole[3] == whole[4] == whole[5] == 0.0
    np.testing.assert_allclose(got, whole, rtol=1e-12, atol=0.0)
    assert got.mean() == pytest.approx(expected_mean, rel=1e-12)


def test_evaluate_of_a_float32_head_holds_one_upcast_block_and_one_logits_block(monkeypatch):
    rng = np.random.default_rng(21)
    n_classes, dim, rows = 2000, 1024, 1000
    budget = 4 << 18  # bytes: the float32 walk's blocks of 1 << 18 elements
    monkeypatch.setattr(evaluation, "EVAL_BLOCK", budget)
    monkeypatch.setattr(evaluation, "ENTROPY_STRIP", 1 << 10)
    ids = [f"c{i:04d}" for i in range(n_classes)]
    head = ClassifierHead(ids, rng.standard_normal((n_classes, dim)).astype(np.float32),
                          seen=np.arange(n_classes) % 2 == 0)
    assert head.weights.dtype == np.float32
    unseen = FeatureSet(rng.standard_normal((rows, dim)), [ids[1 + 2 * (i % 50)] for i in range(rows)])
    seen = FeatureSet(rng.standard_normal((rows, dim)), [ids[2 * (i % 50)] for i in range(rows)])
    # the float32 walk takes the head's rows in blocks of 256 (gathered for the restricted pass) and
    # stages the float64 feature rows in float32 blocks of 256 rows; the entropy upcasts the head's
    # rows in float64 blocks of 128 rows
    class_rows, feature_rows = (next(row_blocks(n, dim, budget // 4))[1] for n in (n_classes, rows))
    assert class_rows == feature_rows == 256 and next(row_blocks(n_classes, dim, budget // 8))[1] == 128
    logits_block_bytes = feature_rows * class_rows * 4
    tracemalloc.start()
    try:
        with pytest.warns(UserWarning, match="without samples"):
            evaluate(head, unseen, seen)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a class block and a feature-row block of 1 MiB each and a 256 KiB logits block, or one upcast
    # class block and a smaller logits block; upcasting the whole head would hold 16 MiB
    assert peak < 2 * budget + logits_block_bytes + (1 << 18)


def test_online_entropy_of_nearly_one_hot_rows_agrees_to_the_rounding_of_log_z():
    # logits of std 30 leave many rows with an entropy under 1e-6; there both
    # forms carry the 1e-16 absolute rounding of log Z (here) or of log p
    # (there), which is more than 1e-12 of such an entropy
    logits = _random_logits(70, 80, 22)
    online = evaluation._OnlineEntropy(70)
    online.add(0, logits[:, :40])
    online.add(0, logits[:, 40:])
    whole = evaluation._entropies(logits)
    assert np.count_nonzero(whole < 1e-6) > 10
    np.testing.assert_allclose(online.entropies(), whole, rtol=1e-12, atol=1e-15)


def _spy_logits(monkeypatch):
    """Record the ``(weights, features)`` of every :meth:`ClassifierHead.logits`
    call, which keeps each block alive for the test."""
    calls = []
    logits = ClassifierHead.logits

    def spied(self, features):
        calls.append((self.weights, features))
        return logits(self, features)

    monkeypatch.setattr(ClassifierHead, "logits", spied)
    return calls


def _spy_walks(monkeypatch):
    """Record the ``(dtype, feature rows)`` of every argmax walk of :func:`classify`,
    and ``("near", feature rows)`` of every walk for the near-tied classes of rows."""
    walks = []
    walk, near = evaluation._argmax_walk, evaluation._near_tie_winners

    def spied(head, features, rows, order, dtype):
        walks.append((dtype, features.shape[0]))
        return walk(head, features, rows, order, dtype)

    def spied_near(head, features, rows, margin):
        walks.append(("near", features.shape[0]))
        return near(head, features, rows, margin)

    monkeypatch.setattr(evaluation, "_argmax_walk", spied)
    monkeypatch.setattr(evaluation, "_near_tie_winners", spied_near)
    return walks


def _certify_no_row(monkeypatch):
    """Make :func:`classify` decide every row by its float64 walk."""
    monkeypatch.setattr(evaluation, "_float32_error", lambda head, features, w_norms: np.full(len(features), np.inf))


@pytest.mark.parametrize("order", ["ranged", "gathered"])
def test_one_walk_stages_every_float32_block_in_one_buffer_per_side(monkeypatch, order):
    rng = np.random.default_rng(29)
    n_classes, dim, rows = 30, 8, 60
    ids = [f"p{i:02d}" for i in range(n_classes)]
    weights = rng.standard_normal((n_classes, dim)).astype(np.float32)
    biases = 0.1 * rng.standard_normal(n_classes)
    head_ids = ids if order == "ranged" else ids[::-1]  # reversed rows: classify gathers every block
    head = ClassifierHead(head_ids, weights, biases)
    x32 = rng.standard_normal((rows, dim)).astype(np.float32)
    expected = classify(ClassifierHead(head_ids, weights.astype(np.float64), biases), x32.astype(np.float64))

    # in float64, 3 class blocks of 10 and the 60 feature rows in 8 blocks (the last of 4); in float32,
    # the same bytes hold class blocks of 20 and 10, and the same feature-row blocks
    monkeypatch.setattr(evaluation, "EVAL_BLOCK", 8 * 10 * dim)
    assert len(list(row_blocks(n_classes, dim, evaluation.EVAL_BLOCK // 8))) == 3
    assert len(list(row_blocks(rows, 10, evaluation.EVAL_BLOCK // 8))) == 8
    assert len(list(row_blocks(n_classes, dim, evaluation.EVAL_BLOCK // 4))) == 2
    assert len(list(row_blocks(rows, 20, evaluation.EVAL_BLOCK // 4))) == 8
    _certify_no_row(monkeypatch)  # every row is walked again in float64
    calls = _spy_logits(monkeypatch)
    assert classify(head, x32) == expected
    assert len(calls) == 2 * 8 + 3 * 8
    narrow, wide = calls[:16], calls[16:]
    # the float32 walk scores the float32 rows as they are: views of x32, and class blocks
    # that are views of the head or gathered from it, with no buffer
    assert all(w.dtype == x.dtype == np.float32 and x.base is x32 for w, x in narrow)
    assert all((w.base is head.weights) == (order == "ranged") for w, _ in narrow)
    # the float64 walk stages the gathered rows and every class block in one buffer per side
    w_buffer, x_buffer = wide[0][0].base, wide[0][1].base
    assert w_buffer is not None and x_buffer is not None and w_buffer is not x_buffer
    assert all(w.base is w_buffer and x.base is x_buffer and w.dtype == x.dtype == np.float64 for w, x in wide)
    assert w_buffer.shape == (10, dim) and x_buffer.shape == (8, dim)
    # a float64 head and float64 rows: the float32 walk stages them in one float32 buffer per
    # side, and the float64 walk scores them as views
    wide_head, x64 = ClassifierHead(head_ids, weights.astype(np.float64), biases), x32.astype(np.float64)
    calls.clear()
    assert classify(wide_head, x64) == expected
    narrow, wide = calls[:16], calls[16:]
    w32, x32_buffer = narrow[0][0].base, narrow[0][1].base
    assert w32.shape == (20, dim) and x32_buffer.shape == (8, dim)
    assert all(w.base is w32 and x.base is x32_buffer and w.dtype == x.dtype == np.float32 for w, x in narrow)
    assert all(w.dtype == x.dtype == np.float64 and w.base is not w32 for w, x in wide)
    # the next walk has buffers of its own
    calls.clear()
    evaluation._head_entropy(head, x32)
    assert len(calls) == 3 * 8 and calls[0][0].base is not w_buffer and calls[0][1].base is not x_buffer


def test_a_wide_head_walk_at_the_default_budget_holds_at_most_18_mib_of_blocks(monkeypatch):
    # the eval_wide shape: a float32 head of 20,000 classes of width 2048, 1000 feature rows per part
    n_classes, dim, rows = 20000, 2048, 1000
    head = ClassifierHead._of_checked_rows(None, np.broadcast_to(np.float32(0.25), (n_classes, dim)), None, None)
    x32 = np.full((rows, dim), 0.5, dtype=np.float32)
    calls = _spy_logits(monkeypatch)
    walk = head.logit_blocks(x32, range(n_classes), evaluation.EVAL_BLOCK)
    lo, clo, logits = next(walk)
    walk.close()
    (w, x), = calls
    assert (lo, clo) == (0, 0) and logits.shape == (512, 512)  # feature-row blocks of 512 and 488 rows
    held = sum(a.nbytes if a.base is None else a.base.nbytes for a in (w, x, logits))
    # 8 MiB of class rows, 8 MiB of feature rows and 2 MiB of logits; 16 MiB float64 blocks held
    # 39.4 MiB, and 2048-row class blocks 63 MiB
    assert held <= 18 * 2**20
    assert np.all(logits == 0.25 * 0.5 * dim)


# ---------------------------------------------------------------------------
# float32 feature rows, upcast block by block


@pytest.mark.parametrize("head_dtype", [np.float64, np.float32])
def test_float32_feature_rows_score_as_their_float64_upcast(monkeypatch, head_dtype):
    rng = np.random.default_rng(27)
    n_classes, dim, rows = 30, 8, 60
    ids = [f"p{i:02d}" for i in range(n_classes)]
    weights = rng.standard_normal((n_classes, dim)).astype(head_dtype)
    weights[25], weights[12] = weights[3], weights[11]  # exact ties across and within class blocks
    biases = 0.1 * rng.standard_normal(n_classes)
    biases[25], biases[12] = biases[3], biases[11]
    seen = np.arange(n_classes) % 3 != 0
    head = ClassifierHead(ids, weights, biases, seen)
    x32 = rng.standard_normal((rows, dim)).astype(np.float32)
    x32[:4] = weights[[3, 11, 3, 11]]
    unseen_ids = [c for c, s in zip(ids, seen) if not s]
    seen_ids = [c for c, s in zip(ids, seen) if s]
    labels = [unseen_ids[i // 2 % 10] if i % 2 else seen_ids[i // 2 % 20] for i in range(rows)]
    narrow, wide = FeatureSet(x32, labels), FeatureSet(x32.astype(np.float64), labels)
    assert narrow.features.dtype == np.float32 and wide.features.dtype == np.float64

    # in float64, 3 class blocks of 10, and the 60 feature rows in blocks of 8 (30 unseen rows: 4 blocks)
    monkeypatch.setattr(evaluation, "EVAL_BLOCK", 8 * 10 * dim)
    assert len(list(row_blocks(n_classes, dim, evaluation.EVAL_BLOCK // 8))) == 3
    assert len(list(row_blocks(rows // 2, 10, evaluation.EVAL_BLOCK // 8))) == 4
    reports = [evaluate(head, f.restrict_to(unseen_ids), f.restrict_to(seen_ids), unseen_ids=unseen_ids)
               for f in (narrow, wide)]
    assert reports[0].to_json() == reports[1].to_json()
    assert classify(head, narrow.features) == classify(head, wide.features)
    # scattered head rows, gathered into class blocks
    among = unseen_ids[::-1] + seen_ids[::3]
    assert classify(head, narrow.features, among=among) == classify(head, wide.features, among=among)
    descriptors = DescriptorSet(ids, rng.standard_normal((n_classes, 5)))
    histograms = [failure_histogram(head, f, descriptors, "p03", bin_size=4) for f in (narrow, wide)]
    assert histograms[0].to_json() == histograms[1].to_json() and histograms[0].n_samples == 3


# ---------------------------------------------------------------------------
# the float32 walk and the rows it leaves to the float64 walk


def _float64_only(head, features, among=None):
    """:func:`classify` with no row certified: every row is decided by the
    float64 walk, as before the float32 walk was added."""
    with pytest.MonkeyPatch.context() as mp:
        _certify_no_row(mp)
        return classify(head, features, among=among)


# 2**-30: scores that a float32 bias add rounds away; scales beyond float32's range and
# below its smallest subnormal only fit float64
_SCALES = {np.float32: [1.0, 2.0**-30, 2.0**-140, 1e30], np.float64: [1.0, 2.0**-30, 2.0**-140, 1e-50, 1e39, 1e300]}


def _ulps_apart(row, ulps):
    """``row`` as float32, each entry moved ``ulps[k]`` float32 ulps."""
    out = row.astype(np.float32)
    for k, n in enumerate(ulps):
        for _ in range(abs(n)):
            out[k] = np.nextafter(out[k], np.float32(np.inf if n > 0 else -np.inf))
    return out


@st.composite
def _scoring_cases(draw):
    """A head of rows of 13-bit fixed-point values, some 4096 times longer
    than others, and feature rows of such values, scaled, with exact ties
    (copied head rows and biases, features equal to head rows) and near-ties
    (copied head rows a few float32 ulps apart in every entry), in 1 to 3
    class blocks."""
    n_classes, dim, rows = draw(st.integers(2, 9)), draw(st.integers(1, 5)), draw(st.integers(1, 10))
    head_type, feature_type = (draw(st.sampled_from([np.float32, np.float64])) for _ in range(2))

    def fixed(shape):  # float32 rounds their products, float64 does not
        return np.array(draw(st.lists(st.integers(-2**12, 2**12), min_size=shape[0] * shape[1],
                                      max_size=shape[0] * shape[1])), dtype=float).reshape(shape) / 2**10

    weights = fixed((n_classes, dim))
    weights[~weights.any(axis=1), 0] = 1.0
    weights *= 2.0 ** np.array(draw(st.lists(st.sampled_from([0, 12]), min_size=n_classes, max_size=n_classes)))[:, None]
    biases = fixed((1, n_classes))[0] if draw(st.booleans()) else None
    row = st.integers(0, n_classes - 1)
    for a, b, ulps in draw(st.lists(st.tuples(row, row, st.lists(st.integers(-3, 3), min_size=dim, max_size=dim)),
                                    max_size=3)):
        weights[b] = _ulps_apart(weights[a], ulps)  # every ulps 0: an exact tie
        if biases is not None:
            biases[b] = biases[a]
    features = fixed((rows, dim))
    for r, j in enumerate(draw(st.lists(st.integers(-1, n_classes - 1), min_size=rows, max_size=rows))):
        if j >= 0:
            features[r] = weights[j]
    weights = (weights * draw(st.sampled_from(_SCALES[head_type]))).astype(head_type)
    features = (features * draw(st.sampled_from(_SCALES[feature_type]))).astype(feature_type)
    weights[~weights.any(axis=1), 0] = 1.0  # rows that underflowed to zero
    ids = [f"k{i:02d}" for i in draw(st.permutations(range(n_classes)))]
    among = draw(st.permutations(ids))[: draw(st.integers(1, n_classes))]
    return ClassifierHead(ids, weights, biases), features, among, draw(st.integers(1, 3))


@settings(max_examples=500)
@given(_scoring_cases())
def test_classify_decides_every_row_as_the_float64_walk(case):
    head, features, among, n_blocks = case
    for ids in (head.class_ids, among):
        with pytest.MonkeyPatch.context() as mp, np.errstate(over="ignore", invalid="ignore"):
            mp.setattr(evaluation, "EVAL_BLOCK", -(-len(ids) // n_blocks) * head.weight_dim)
            assert classify(head, features, among=ids) == _float64_only(head, features, among=ids)
            # where the bound is finite, it holds for every score of the row against those classes
            rows = [head.class_ids.index(c) for c in ids]
            bound = evaluation._float32_error(head, features, evaluation._norm_bounds(head.weights)[rows])
            narrow, wide = (next(head.logit_blocks(features, rows, 1 << 30, t))[2] for t in (np.float32, np.float64))
        fits = np.isfinite(bound)
        assert np.all(np.abs(narrow[fits] - wide[fits]) <= bound[fits, None])


@pytest.mark.parametrize("n_blocks", [1, 2, 3])
@pytest.mark.parametrize("with_biases", [False, True])
@pytest.mark.parametrize("head_type, feature_type", [(np.float32, np.float32), (np.float32, np.float64),
                                                     (np.float64, np.float32), (np.float64, np.float64)])
def test_well_separated_rows_are_all_decided_in_float32(monkeypatch, head_type, feature_type, with_biases,
                                                         n_blocks):
    rng = np.random.default_rng(30)
    n_classes, dim, rows = 12, 16, 40
    ids = [f"s{i:02d}" for i in rng.permutation(n_classes)]
    weights = np.eye(n_classes, dim) + 0.01 * rng.standard_normal((n_classes, dim))
    biases = 0.01 * rng.standard_normal(n_classes) if with_biases else None
    head = ClassifierHead(ids, weights.astype(head_type), biases)
    labels = rng.integers(0, n_classes, rows)
    features = (4.0 * weights[labels] + 0.1 * rng.standard_normal((rows, dim))).astype(feature_type)
    monkeypatch.setattr(evaluation, "EVAL_BLOCK", 4 * -(-n_classes // n_blocks) * dim)  # bytes of float32 rows
    assert _float64_only(head, features) == [ids[j] for j in labels]
    walks = _spy_walks(monkeypatch)
    for among in (None, ids[::2]):
        expected = _float64_only(head, features, among=among)
        walks.clear()
        assert classify(head, features, among=among) == expected
        assert walks == [(np.float32, rows)]


# ---------------------------------------------------------------------------
# rows left uncertified, decided by one float64 dot product per candidate class


@pytest.mark.parametrize("head_type", [np.float32, np.float64])
@pytest.mark.parametrize("n_classes", [61, 517, 1021])
def test_an_exact_tie_at_d_w_2048_goes_to_the_lower_id_wherever_the_twin_sits(n_classes, head_type):
    # a float64 GEMM scores a class differently in the last, partial group of 8 columns of its
    # block, and a GEMV (one row at a time) differently again: the twin of class 3 sits at the
    # head's last row, in that group whenever the class count is not a multiple of 8
    rng = np.random.default_rng(n_classes)
    dim = 2048
    ids = [f"t{i:04d}" for i in range(n_classes)]
    weights = rng.standard_normal((n_classes, dim)) / np.sqrt(dim)
    weights[-1] = weights[3]
    head = ClassifierHead(ids, weights.astype(head_type))
    features = weights[3] + 0.5 * rng.standard_normal((200, dim)) / np.sqrt(dim)
    # gathered class blocks of every third class, 3 and the twin among them, in a block of a
    # class count that is not a multiple of 8
    among = ids[::3][::-1]
    assert n_classes % 8 and len(among) % 8 and ids[3] in among and ids[-1] in among
    for walk in (None, among):
        assert classify(head, features, among=walk) == [ids[3]] * 200
        assert [classify(head, row[None], among=walk)[0] for row in features[:40]] == [ids[3]] * 40


def _pair_oracle(head, features, ids):
    """Per feature row, the class of ``ids`` with the top float64 score, one
    dot product per (row, class) pair, bias added; an exact tie goes to the
    lowest id."""
    rows = [head.class_ids.index(c) for c in ids]
    x = np.asarray(features, dtype=np.float64)
    w = np.asarray(head.weights[rows], dtype=np.float64)
    b = np.zeros(len(ids)) if head.biases is None else head.biases[rows]
    predictions = []
    for r in range(x.shape[0]):
        scores = [np.dot(x[r], w[j]) + b[j] for j in range(len(ids))]
        top = max(scores)
        predictions.append(min(c for c, s in zip(ids, scores) if s == top))
    return predictions


@pytest.mark.parametrize("head_type, with_biases", [(np.float32, False), (np.float64, True)])
def test_classify_decides_a_wide_head_as_one_dot_product_per_pair(monkeypatch, head_type, with_biases):
    # d_w 2048 and 1100 classes: float32 class blocks of 1024 and 76 rows; scores that a float64
    # GEMM rounds by column position, and near-ties that float32 cannot resolve
    rng = np.random.default_rng(31)
    n_classes, dim, rows = 1100, 2048, 48
    ids = [f"w{i:04d}" for i in range(n_classes)]
    weights = (rng.standard_normal((n_classes, dim)) / np.sqrt(dim)).astype(np.float32).astype(np.float64)
    biases = 0.01 * rng.standard_normal(n_classes) if with_biases else None
    # near-ties a few float32 ulps apart inside a block (10, 500), across blocks (20, 1050) and in
    # the second block's last, partial group of 8 columns (40, 1097); an exact tie into it (30, 1099)
    pairs = [(10, 500), (20, 1050), (40, 1097), (30, 1099)]
    for a, b in pairs:
        weights[b] = _ulps_apart(weights[a], rng.integers(-3, 4, dim) if b != 1099 else np.zeros(dim, int))
        if biases is not None:
            biases[b] = biases[a]
    head = ClassifierHead(ids, weights.astype(head_type), biases)
    targets = [c for pair in pairs for c in pair]
    aimed = 2 * len(targets)  # rows 0 to 15 lie near a class of a tie, the rest near none
    features = 0.1 * rng.standard_normal((rows, dim)) / np.sqrt(dim)
    features[:aimed] += weights[targets * 2]
    features = features.astype(head_type)
    assert [hi - lo for lo, hi in row_blocks(n_classes, dim, evaluation.EVAL_BLOCK // 4)] == [1024, 76]
    among = [c for c in ids[::-1] if int(c[1:]) % 2 == 0 or int(c[1:]) in targets]  # gathered class blocks
    walks = _spy_walks(monkeypatch)
    for walk in (ids, among):
        walks.clear()
        predictions = classify(head, features, among=walk)
        assert predictions == _pair_oracle(head, features, walk)
        # every aimed row was left to the dot products, and no row to the float64 walk
        (_, n), (kind, near) = walks
        assert n == rows and kind == "near" and aimed <= near < rows
        assert predictions[6] == predictions[14] == ids[30]
        # a near-tie goes to the class that scores higher in float64, the higher id included
        assert {predictions[k] for k in range(aimed)} & {ids[b] for _, b in pairs[:3]}


def test_zero_feature_rows_are_decided_among_every_tied_class_as_one_dot_product_per_pair(monkeypatch):
    # every class scores exactly 0 against a zero row, so no row is certified and each of the
    # 20 rows has all 4000 classes as candidates: 80,000 pairs, each row gathered once per
    # pair block and broadcast over its classes
    rng = np.random.default_rng(66)
    n_classes, dim, rows = 4000, 2048, 20
    ids = [f"z{i:04d}" for i in rng.permutation(n_classes)]  # the lowest id is not the first row
    head = ClassifierHead(ids, (rng.standard_normal((n_classes, dim)) / np.sqrt(dim)).astype(np.float32))
    features = np.zeros((rows, dim), dtype=np.float32)
    walks = _spy_walks(monkeypatch)
    predictions = classify(head, features)
    assert walks == [(np.float32, rows), ("near", rows)]
    assert predictions == _pair_oracle(head, features, ids) == ["z0000"] * rows


# ---------------------------------------------------------------------------
# feature parts that share their parent's rows


def _copied(x, labels, ids):
    """A feature set of copies of the rows of ``x`` labelled one of ``ids``,
    built as a whole set of its own."""
    keep = [i for i, l in enumerate(labels) if l in set(ids)]
    return FeatureSet(x[keep], [labels[i] for i in keep])


@pytest.mark.parametrize("selection", ["shuffled", "contiguous", "part_of_part", "empty"])
@pytest.mark.parametrize("feature_type", [np.float32, np.float64])
@pytest.mark.parametrize("head_type", [np.float32, np.float64])
def test_index_parts_report_as_feature_sets_of_copies_of_their_rows(monkeypatch, head_type, feature_type,
                                                                    selection):
    rng = np.random.default_rng(32)
    n_classes, dim, rows = 30, 8, 90
    ids = [f"p{i:02d}" for i in range(n_classes)]
    weights = rng.standard_normal((n_classes, dim))
    weights[25], weights[12] = weights[3], weights[11]  # exact ties across and within class blocks
    biases = 0.1 * rng.standard_normal(n_classes)
    biases[25], biases[12] = biases[3], biases[11]
    seen = np.arange(n_classes) % 3 != 0
    head = ClassifierHead(ids, weights.astype(head_type), biases, seen)
    unseen_ids = [c for c, s in zip(ids, seen) if not s]
    seen_ids = [c for c, s in zip(ids, seen) if s]
    labels = [unseen_ids[i // 2 % 10] if i % 2 else seen_ids[i // 2 % 20] for i in range(rows)]
    if selection == "contiguous":
        labels = sorted(labels, key=lambda l: l in seen_ids)  # each part is one run of rows
    elif selection != "shuffled":
        labels = [labels[i] for i in rng.permutation(rows)]
    x = rng.standard_normal((rows, dim))
    x[:4] = weights[[3, 11, 3, 11]]  # rows tied in float32 and float64
    x = x.astype(feature_type)
    whole = FeatureSet(x, labels)
    # a part of a part: the unseen rows and those of 6 seen classes, split again
    kept = unseen_ids + seen_ids[:6] if selection == "part_of_part" else ids
    parent = whole.restrict_to(kept) if selection == "part_of_part" else whole
    seen_part = [] if selection == "empty" else [c for c in seen_ids if c in kept]

    # in float64, 3 class blocks of 10 and feature-row blocks of 8: each part spans several
    monkeypatch.setattr(evaluation, "EVAL_BLOCK", 8 * 10 * dim)
    parts = parent.restrict_to(unseen_ids), parent.restrict_to(seen_part)
    assert all(part.rows.matrix is whole.rows.matrix for part in parts) and parts[0].n_samples == 45
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # a part of a part leaves seen classes without samples
        got = evaluate(head, *parts, unseen_ids=unseen_ids)
        expected = evaluate(head, _copied(x, labels, unseen_ids), _copied(x, labels, seen_part),
                            unseen_ids=unseen_ids)
    assert got.to_json() == expected.to_json() and got.n_seen_samples == sum(l in seen_part for l in labels)
    descriptors = DescriptorSet(ids, rng.standard_normal((n_classes, 5)))
    for target in ("p03", "p01"):
        histograms = [failure_histogram(head, f, descriptors, target, bin_size=4)
                      for f in (parent, _copied(x, labels, kept))]
        assert histograms[0].to_json() == histograms[1].to_json()


def _restrict_to_copies(self, class_ids):
    """``FeatureSet.restrict_to`` as a feature set of copies of the part's rows."""
    wanted = {str(c) for c in class_ids}
    keep = [i for i, l in enumerate(self.labels) if l in wanted]
    return FeatureSet(self.features[keep], [self.labels[i] for i in keep])


@pytest.mark.parametrize("suffix", [".wsmat", ".csv"])
@pytest.mark.parametrize("order", ["contiguous", "shuffled"])
def test_commands_report_index_parts_as_feature_sets_of_copies(tmp_path, capsys, monkeypatch, order, suffix):
    from icis import inject, load_feature_set, load_manifest, load_matrix, save_matrix
    from icis.cli import main

    task = tmp_path / "task"
    assert main(["synth", "--out", str(task), "--seed", "4", "--seen", "12", "--unseen", "5", "--desc-dim", "6",
                 "--weight-dim", "16", "--samples-per-class", "7", "--feature-noise", "0.4"]) == 0
    manifest = load_manifest(task / "manifest.txt")
    # synth writes the rows class by class, so each part is one run; shuffled, every part is scattered
    loaded = load_feature_set(task / "features.wsmat")
    perm = np.arange(loaded.n_samples)
    if order == "shuffled":
        perm = np.random.default_rng(5).permutation(loaded.n_samples)
    FeatureSet(loaded.features[perm], [loaded.labels[i] for i in perm]).save(tmp_path / f"features{suffix}")
    head = load_classifier_head(task / "head.wsmat")
    inject(head, manifest.unseen, load_matrix(task / "true_unseen.wsmat")).save(tmp_path / "full.wsmat")
    task_args = ["--descriptors", str(task / "descriptors.wsmat"), "--head", str(task / "head.wsmat"),
                 "--manifest", str(task / "manifest.txt"), "--features", str(tmp_path / f"features{suffix}")]
    eval_args = ["eval", "--head", str(tmp_path / "full.wsmat"), "--manifest", str(task / "manifest.txt"),
                 "--features", str(tmp_path / f"features{suffix}")]
    commands = {
        "conse": ["baseline", "--method", "conse", *task_args],
        "costa": ["baseline", "--method", "costa", *task_args],
        "eval": eval_args,
        "zsl_only": [*eval_args, "--zsl-only"],  # the unseen part, split again
    }
    # feature-row blocks of 4 rows, so every part spans several, of runs or gathered
    monkeypatch.setattr(evaluation, "EVAL_BLOCK", 8 * 4 * 17)
    reports = {}
    for copies in (False, True):
        with pytest.MonkeyPatch.context() as mp:
            if copies:
                mp.setattr(FeatureSet, "restrict_to", _restrict_to_copies)
            for name, args in commands.items():
                out = tmp_path / f"{name}_{copies}"
                flag = "--out" if args[0] == "baseline" else "--report-dir"
                assert main([*args, flag, str(out)]) == 0
                reports[name, copies] = (out / "report.structured").read_bytes()
    for name in commands:
        assert reports[name, False] == reports[name, True], name
