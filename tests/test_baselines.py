"""Tests for the adapted baselines: score-weighted semantic combination,
similarity-weighted row averages, sum-one reconstruction, span-penalty
regression, and denoising refinement."""

import tracemalloc

import numpy as np
import pytest

from icis import evaluation
from icis.baselines import (
    conse_classify,
    conse_combine,
    costa_weights,
    dae_refine,
    smo_coefficients,
    span_basis,
    subspace_reg_loss,
    train_subreg,
    vgse_smo_weights,
    vgse_wavg_weights,
)
from icis.data import ClassifierHead, DescriptorSet, FeatureRows, PairSet, make_pairs, synth_generate
from icis.errors import DivergenceError, IcisError, ZeroNormError
from icis.evaluation import softmax_rows
from icis.model import IcisModel, TrainConfig
from icis.nn import LinearLayer, MlpTwoLayer
from icis.tensor import RngState, row_blocks, row_normalize

# ---------------------------------------------------------------------------
# score-weighted semantic combination


def _orthogonal_setup():
    ids = ["s0", "s1", "s2"]
    head = ClassifierHead(ids, np.eye(3))
    desc = DescriptorSet(ids, np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
    return head, desc


def _unit_head(targets):
    """The head of ``targets``' unit descriptor rows: its logits are cosines."""
    return ClassifierHead(targets.class_ids, row_normalize(targets.matrix, targets.class_ids))


def _conse(head, seen, targets, features, top_t=10):
    """ConSE's nearest target class to each feature row's combination."""
    return conse_classify(_unit_head(targets), conse_combine(head, seen, features, top_t))


def test_conse_one_hot_scores_return_that_descriptor():
    head, desc = _orthogonal_setup()
    # feature aligned with s1's classifier and orthogonal to the others
    feature = np.array([[0.0, 50.0, 0.0]])
    combined = conse_combine(head, desc, feature, top_t=1)
    assert np.allclose(combined[0], desc.vector("s1"), atol=1e-9)


def test_conse_duplicate_descriptor_predicts_the_unseen_twin():
    head, desc = _orthogonal_setup()
    targets = DescriptorSet(["u0", "u1"], np.array([[0.0, 1.0], [1.0, -1.0]]))
    # u0's descriptor equals s1's descriptor exactly
    feature = np.array([[0.0, 50.0, 0.0]])
    assert _conse(head, desc, targets, feature, top_t=1) == ["u0"]


def test_conse_exact_tie_goes_to_the_lowest_id():
    head, desc = _orthogonal_setup()
    # identical target descriptors, ids in reverse row order: a row-order argmax picks "u9"
    targets = DescriptorSet(["u9", "u1", "u5"], np.array([[0.3, 0.7], [0.3, 0.7], [1.0, -1.0]]))
    features = RngState(2).normal(6, 3)
    assert _conse(head, desc, targets, features, top_t=2) == ["u1"] * 6


def test_conse_matches_straight_line_reimplementation():
    rng = RngState(0)
    n_seen, n_unseen, d_a, d_w = 6, 4, 5, 7
    seen_ids = [f"s{i}" for i in range(n_seen)]
    target_ids = [f"u{i}" for i in range(n_unseen)]
    head = ClassifierHead(seen_ids, rng.normal(n_seen, d_w))
    desc = DescriptorSet(seen_ids, rng.normal(n_seen, d_a))
    targets = DescriptorSet(target_ids, rng.normal(n_unseen, d_a))
    features = rng.normal(12, d_w)
    top_t = 3

    got = _conse(head, desc, targets, features, top_t=top_t)

    # independent rewrite, one sample at a time
    for row, predicted in zip(features, got):
        logits = np.array([row @ head.weights[i] for i in range(n_seen)])
        probs = np.exp(logits - logits.max())
        probs /= probs.sum()
        keep = np.argsort(probs)[-top_t:]
        alpha = np.zeros(n_seen)
        alpha[keep] = probs[keep]
        alpha /= alpha.sum()
        combined = sum(alpha[i] * desc.matrix[i] for i in range(n_seen))
        best, best_sim = None, -np.inf
        for c in sorted(target_ids):
            t = targets.vector(c)
            sim = combined @ t / (np.linalg.norm(combined) * np.linalg.norm(t))
            if sim > best_sim + 1e-15:
                best, best_sim = c, sim
        assert predicted == best


@pytest.mark.parametrize("seed", range(8))
def test_conse_among_ids_decides_as_a_head_of_their_unit_rows(monkeypatch, seed):
    rng = np.random.default_rng(seed)
    n, d = 30, 4
    ids = [f"c{i:02d}" for i in range(n)]
    # small integer rows, half of them twins of another: exact ties across and within class blocks
    rows = rng.integers(-2, 3, size=(n, d)).astype(float)
    rows[n // 2:] = rows[rng.integers(0, n // 2, size=n - n // 2)]
    rows[~rows.any(axis=1)] = 1.0
    order = rng.permutation(n)  # head rows not in id order
    targets = DescriptorSet([ids[i] for i in order], rows[order])
    among = [ids[i] for i in rng.choice(n, 17, replace=False)]  # not in id order
    combined = np.vstack([rows[rng.integers(0, n, size=20)], rng.integers(-2, 3, size=(20, d))]).astype(float)
    combined[~combined.any(axis=1)] = 1.0
    monkeypatch.setattr(evaluation, "EVAL_BLOCK", 4 * 5 * d)  # bytes: 5 float32 rows
    assert [len(list(row_blocks(k, d, evaluation.EVAL_BLOCK // 4))) for k in (len(among), n)] == [4, 6]  # class blocks
    got = conse_classify(_unit_head(targets), combined, among=among)
    assert got == conse_classify(_unit_head(targets.subset(among)), combined)
    # the first top cosine in id order, wherever the gap to the next class is above rounding
    ranked = sorted(among)
    unit = combined / np.linalg.norm(combined, axis=1, keepdims=True)
    cosines = unit @ row_normalize(targets.subset(ranked).matrix).T
    ties = 0
    for row, predicted in zip(cosines, got):
        top = row.max()
        assert predicted in among
        if np.all((row == top) | (row < top - 1e-12)):
            assert predicted == ranked[int(np.argmax(row == top))]
            ties += int(np.sum(row == top) > 1)
    assert ties > 0


def test_conse_combination_is_convex():
    head, desc = _orthogonal_setup()
    features = RngState(1).normal(10, 3)
    combined = conse_combine(head, desc, features, top_t=2)
    # every combined row lies in the convex hull of the two picked rows,
    # whose coordinates here are bounded by the descriptor extremes
    assert combined.min() >= desc.matrix.min() - 1e-12
    assert combined.max() <= desc.matrix.max() + 1e-12


def test_conse_argument_errors():
    head, desc = _orthogonal_setup()
    empty = DescriptorSet([], np.zeros((0, 2)))
    with pytest.raises(IcisError, match="no classes to classify among"):
        conse_classify(_unit_head(empty), np.ones((1, 2)))
    with pytest.raises(IcisError, match="no classes to classify among"):
        conse_classify(_unit_head(desc), np.ones((1, 2)), among=[])
    with pytest.raises(IcisError):
        conse_combine(head, desc, np.ones((1, 3)), top_t=0)
    # a zero combined vector has no direction, from the combination or given
    with pytest.raises(ZeroNormError, match="combined semantic vector collapsed to zero"):
        conse_combine(head, DescriptorSet(desc.class_ids, np.zeros((3, 2))), np.ones((1, 3)))
    with pytest.raises(ZeroNormError, match="combined semantic vector collapsed to zero"):
        conse_classify(_unit_head(desc), np.array([[1.0, 0.0], [0.0, 0.0]]))


# ---------------------------------------------------------------------------
# similarity-weighted averages


def test_costa_single_seen_class_copies_its_row():
    head = ClassifierHead(["s0"], np.array([[1.0, 2.0, 3.0]]))
    seen = DescriptorSet(["s0"], np.array([[1.0, 1.0]]))
    unseen = DescriptorSet(["u0"], np.array([[2.0, 0.5]]))  # positive cosine
    out = costa_weights(unseen, seen, head)
    assert np.array_equal(out, head.weights)


def test_costa_orthogonal_to_all_but_one_copies_that_row():
    head = ClassifierHead(["s0", "s1"], np.array([[1.0, 0.0], [0.0, 1.0]]))
    seen = DescriptorSet(["s0", "s1"], np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
    unseen = DescriptorSet(["u"], np.array([[1.0, 0.0, 0.0]]))
    out = costa_weights(unseen, seen, head)
    assert np.allclose(out, [[1.0, 0.0]], atol=1e-12)


def test_costa_matches_hand_rolled_oracle():
    rng = RngState(2)
    seen_ids = [f"s{i}" for i in range(5)]
    head = ClassifierHead(seen_ids, rng.normal(5, 6))
    seen = DescriptorSet(seen_ids, rng.normal(5, 4))
    unseen = DescriptorSet(["u0", "u1"], rng.normal(2, 4))
    out = costa_weights(unseen, seen, head)
    for r, u in enumerate(unseen.class_ids):
        a_u = unseen.vector(u)
        sims = []
        for s in seen_ids:
            a_s = seen.vector(s)
            cos = a_u @ a_s / (np.linalg.norm(a_u) * np.linalg.norm(a_s))
            sims.append(max(cos, 0.0))
        sims = np.array(sims)
        expected = (sims / sims.sum()) @ head.weights
        assert np.allclose(out[r], expected, atol=1e-12)


def test_costa_dead_row_is_an_error_naming_the_class():
    head = ClassifierHead(["s0"], np.array([[1.0, 0.0]]))
    seen = DescriptorSet(["s0"], np.array([[1.0, 0.0]]))
    unseen = DescriptorSet(["u_opposite"], np.array([[-1.0, 0.0]]))
    with pytest.raises(IcisError) as err:
        costa_weights(unseen, seen, head)
    assert "u_opposite" in str(err.value)


def test_wavg_single_seen_class_copies_its_row():
    head = ClassifierHead(["s0"], np.array([[4.0, 5.0]]))
    seen = DescriptorSet(["s0"], np.array([[1.0, 0.0]]))
    unseen = DescriptorSet(["u"], np.array([[0.0, 1.0]]))
    out = vgse_wavg_weights(unseen, seen, head)
    assert np.array_equal(out, head.weights)


def test_wavg_matches_softmax_oracle_and_sharpens_with_temperature():
    rng = RngState(3)
    seen_ids = [f"s{i}" for i in range(4)]
    head = ClassifierHead(seen_ids, rng.normal(4, 5))
    seen = DescriptorSet(seen_ids, rng.normal(4, 3))
    unseen = DescriptorSet(["u"], rng.normal(1, 3))

    temp = 0.25
    out = vgse_wavg_weights(unseen, seen, head, temperature=temp)
    sims = row_normalize(unseen.matrix) @ row_normalize(seen.matrix).T
    alpha = softmax_rows(sims / temp)
    assert np.allclose(out, alpha @ head.weights, atol=1e-12)

    # at a very low temperature the row collapses onto the nearest seen row
    sharp = vgse_wavg_weights(unseen, seen, head, temperature=1e-6)
    nearest = head.weights[np.argmax(sims[0])]
    assert np.allclose(sharp[0], nearest, atol=1e-9)

    for temperature in (0.0, float("nan"), float("inf")):
        with pytest.raises(IcisError, match="temperature must be finite and > 0"):
            vgse_wavg_weights(unseen, seen, head, temperature=temperature)


# ---------------------------------------------------------------------------
# sum-one reconstruction


def test_smo_single_seen_class_copies_its_row():
    head = ClassifierHead(["s0"], np.array([[7.0, -1.0]]))
    seen = DescriptorSet(["s0"], np.array([[1.0, 2.0]]))
    unseen = DescriptorSet(["u"], np.array([[-3.0, 0.5]]))
    out = vgse_smo_weights(unseen, seen, head)
    assert np.allclose(out, head.weights, atol=1e-9)


def test_smo_coefficients_sum_to_one():
    rng = RngState(4)
    a = rng.normal(6, 4)
    beta = smo_coefficients(rng.normal(1, 4)[0][None], a)[0]
    assert beta.sum() == pytest.approx(1.0, abs=1e-9)


def test_smo_recovers_a_matching_seen_descriptor_as_gamma_vanishes():
    rng = RngState(5)
    a = rng.normal(3, 5)  # 3 independent rows in 5 dims
    beta = smo_coefficients(a[0][None], a, gamma=1e-12)[0]
    assert np.allclose(beta, [1.0, 0.0, 0.0], atol=1e-4)


def test_smo_matches_lagrange_elimination_oracle():
    # eliminate the constraint by substituting beta_k = 1 - sum(others) and
    # solving the unconstrained normal equations in the remaining k-1 vars
    for seed in range(5):
        rng = RngState(100 + seed)
        k, d = 10, 12
        a = rng.normal(k, d)
        anchor = rng.normal(1, d)[0]
        gamma = 1e-3

        beta = smo_coefficients(anchor[None], a, gamma=gamma)[0]

        # residual form: anchor - A^T beta with beta = [z; 1 - sum z]
        # objective: |anchor - A^T beta|^2 + gamma |beta|^2
        base = a[-1]
        diff = a[:-1] - base  # each free variable shifts the row mix by this
        target = anchor - base
        # d/dz: 2 diff (diff^T z - target) + 2 gamma (z - e_last-ish terms)
        # expand gamma |beta|^2 = gamma (|z|^2 + (1 - sum z)^2)
        h = diff @ diff.T + gamma * (np.eye(k - 1) + np.ones((k - 1, k - 1)))
        rhs = diff @ target + gamma * np.ones(k - 1)
        z = np.linalg.solve(h, rhs)
        expected = np.append(z, 1.0 - z.sum())
        assert np.allclose(beta, expected, atol=1e-8)


def test_smo_coefficients_of_many_anchors_are_those_of_each_alone():
    rng = RngState(7)
    a = rng.normal(10, 12)
    anchors = rng.normal(6, 12)
    beta = smo_coefficients(anchors, a)
    assert beta.shape == (6, 10)
    for i in range(6):
        assert np.allclose(beta[i], smo_coefficients(anchors[i:i + 1], a)[0], rtol=1e-12, atol=1e-12)

def test_smo_singular_system_suggests_regularisation():
    a = np.array([[1.0, 0.0], [1.0, 0.0]])  # duplicate rows, singular at gamma 0
    with pytest.raises(IcisError) as err:
        smo_coefficients(np.array([0.5, 0.5])[None], a, gamma=0.0)
    assert "gamma" in str(err.value)
    for gamma in (-1.0, float("nan"), float("inf")):
        with pytest.raises(IcisError, match="gamma must be finite and >= 0"):
            smo_coefficients(np.array([0.5, 0.5])[None], a, gamma=gamma)


def test_row_average_baselines_stay_in_the_seen_span():
    rng = RngState(6)
    seen_ids = [f"s{i}" for i in range(4)]
    head = ClassifierHead(seen_ids, rng.normal(4, 9))
    seen = DescriptorSet(seen_ids, rng.normal(4, 3))
    unseen = DescriptorSet(["u0", "u1"], rng.normal(2, 3))
    basis = span_basis(head.weights)
    for rows in (
        costa_weights(unseen, seen, head),
        vgse_wavg_weights(unseen, seen, head),
        vgse_smo_weights(unseen, seen, head),
    ):
        residual = rows - (rows @ basis.T) @ basis
        assert np.linalg.norm(residual) < 1e-8


def test_baselines_of_a_float32_seen_head_are_those_of_its_float64_rows():
    # a loaded head keeps float32 rows and so does its subset; each product of
    # them must give the bits of the same rows held as float64
    task = synth_generate(seed=7, n_seen=150, n_unseen=50, d_a=40, d_w=96, samples_per_class=2)
    narrow = ClassifierHead(task.head.class_ids, task.head.weights.astype(np.float32))
    sub = narrow.subset(task.manifest.seen[::-1])
    assert sub.weights.dtype == np.float32
    heads = [sub, ClassifierHead(sub.class_ids, sub.weights.astype(np.float64))]
    seen = task.descriptors.subset(task.manifest.seen)
    unseen = task.descriptors.subset(task.manifest.unseen)
    features = task.features.features
    rows = [
        [costa_weights(unseen, seen, h), vgse_wavg_weights(unseen, seen, h), vgse_smo_weights(unseen, seen, h),
         conse_combine(h, seen, features)]
        for h in heads
    ]
    for narrow_rows, wide_rows in zip(*rows):
        assert np.array_equal(narrow_rows, wide_rows)
    assert _conse(heads[0], seen, unseen, features) == _conse(heads[1], seen, unseen, features)


@pytest.mark.parametrize("head_dtype", [np.float64, np.float32])
def test_conse_of_float32_feature_rows_in_blocks_is_that_of_their_float64_upcast_whole(monkeypatch, head_dtype):
    task = synth_generate(seed=8, n_seen=40, n_unseen=30, d_a=12, d_w=24, samples_per_class=2, feature_noise=0.3)
    head = ClassifierHead(task.head.class_ids, task.head.weights.astype(head_dtype))
    seen = task.descriptors.subset(task.manifest.seen)
    targets = task.descriptors.subset(task.manifest.unseen[::-1])  # gathered class blocks
    x32 = task.features.features.astype(np.float32)
    x64 = x32.astype(np.float64)
    whole = conse_combine(head, seen, x64, top_t=5)
    # the 140 feature rows in float64 blocks of 3 against the 40 seen classes; the nearest
    # descriptor scores them in float32 blocks of 12 against 2 class blocks of 20 and 10 targets
    monkeypatch.setattr(evaluation, "EVAL_BLOCK", 8 * 10 * 12)
    assert len(list(row_blocks(x32.shape[0], 40, evaluation.EVAL_BLOCK // 8))) == 47
    assert len(list(row_blocks(len(targets.class_ids), 12, evaluation.EVAL_BLOCK // 4))) == 2
    assert len(list(row_blocks(x32.shape[0], 20, evaluation.EVAL_BLOCK // 4))) == 12
    for x in (x32, x64):
        assert np.array_equal(conse_combine(head, seen, x, top_t=5), whole)
    assert _conse(head, seen, targets, x32, top_t=5) == _conse(head, seen, targets, x64, top_t=5)


def _conse_oracle(head, seen, x64, top_t):
    """ConSE's combination as scored before class blocks: per row block of
    ``EVAL_BLOCK`` bytes of float64 logits, one product of its rows against
    the whole upcast head, then the softmax, its ``top_t`` largest entries
    renormalised, times the seen descriptors."""
    a_seen = seen.subset(head.class_ids).matrix
    combined = np.empty((x64.shape[0], a_seen.shape[1]))
    width = max(head.n_classes, head.weight_dim)
    for lo, hi in row_blocks(x64.shape[0], width, evaluation.EVAL_BLOCK // 8):
        probs = softmax_rows(x64[lo:hi] @ head.weights.astype(np.float64).T + head.biases)
        idx = np.argpartition(probs, -top_t, axis=1)[:, -top_t:]
        kept = np.zeros_like(probs)
        np.put_along_axis(kept, idx, np.take_along_axis(probs, idx, axis=1), axis=1)
        kept /= kept.sum(axis=1, keepdims=True)
        combined[lo:hi] = kept @ a_seen
    return combined


@pytest.mark.parametrize("n_blocks", [1, 3])
@pytest.mark.parametrize("head_dtype", [np.float32, np.float64])
def test_conse_scored_in_class_blocks_is_the_whole_upcast_product(monkeypatch, head_dtype, n_blocks):
    rng = np.random.default_rng(40)
    n_classes, d_w, d_a, rows = 128 * n_blocks, 1024, 6, 300
    ids = [f"s{i:03d}" for i in range(n_classes)]
    head = ClassifierHead(ids, rng.standard_normal((n_classes, d_w)).astype(head_dtype),
                          rng.standard_normal(n_classes))
    seen = DescriptorSet(ids, rng.standard_normal((n_classes, d_a)))
    x32 = rng.standard_normal((2 * rows, d_w)).astype(np.float32)
    scattered = FeatureRows(x32, np.sort(rng.choice(2 * rows, rows, replace=False)))
    # float64 class blocks of 128 rows and feature-row blocks of 128, 128 and 44 rows. An OpenBLAS
    # GEMM can score a class differently by where its class block is split: OpenBLAS 0.3.31's
    # Haswell kernels did not at these sizes, but did on small products (16-row blocks, d_w 2048)
    monkeypatch.setattr(evaluation, "EVAL_BLOCK", 8 * 128 * d_w)
    assert len(list(row_blocks(n_classes, d_w, evaluation.EVAL_BLOCK // 8))) == n_blocks
    assert len(list(row_blocks(rows, max(n_classes, d_w), evaluation.EVAL_BLOCK // 8))) == 3
    for features, x64 in [(x32[:rows], x32[:rows].astype(np.float64)),
                          (x32[:rows].astype(np.float64), x32[:rows].astype(np.float64)),
                          (scattered, x32[scattered.positions].astype(np.float64))]:
        assert np.array_equal(conse_combine(head, seen, features, top_t=5), _conse_oracle(head, seen, x64, 5))


def test_conse_of_a_wide_float32_head_upcasts_one_class_block_at_a_time():
    rng = np.random.default_rng(41)
    n_classes, d_w, rows = 4000, 2048, 700
    ids = [f"s{i:04d}" for i in range(n_classes)]
    head = ClassifierHead(ids, rng.standard_normal((n_classes, d_w), dtype=np.float32))
    seen = DescriptorSet(ids, rng.standard_normal((n_classes, 8)))
    x = rng.standard_normal((rows, d_w), dtype=np.float32)
    tracemalloc.start()
    try:
        conse_combine(head, seen, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the head is 31.2 MiB of float32; upcast whole for each row block, it held 99 MiB. Now a
    # row block's logits, softmax, argpartition and kept probabilities (8 MiB each), its staged
    # rows (4 MiB) and one staged class block (8 MiB) are live at once
    assert peak < 50 * 2**20


# ---------------------------------------------------------------------------
# span penalty


def test_span_basis_on_axis_aligned_rows():
    b = span_basis(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
    assert b.shape == (2, 3)
    assert np.allclose(b.T @ b, np.diag([1.0, 1.0, 0.0]), atol=1e-12)


def test_span_basis_is_orthonormal_and_leaves_residuals_orthogonal():
    w = RngState(7).normal(3, 6)
    b = span_basis(w)
    assert b.shape == (3, 6)
    assert np.allclose(b @ b.T, np.eye(3), atol=1e-12)
    x = RngState(11).normal(4, 6)
    residual = x - (x @ b.T) @ b
    assert np.abs(residual).max() > 0.1
    assert np.allclose(residual @ w.T, 0.0, atol=1e-12)


def test_span_basis_rank_zero_is_an_error():
    with pytest.raises(IcisError):
        span_basis(np.zeros((2, 3)))


def test_subspace_loss_axis_example():
    # span {e1, e2} in R^3; predicting e3 leaves the whole unit residual
    b = span_basis(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
    loss, grad = subspace_reg_loss(np.array([[0.0, 0.0, 1.0]]), b)
    assert loss == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(grad, [[0.0, 0.0, 2.0]], atol=1e-12)


def test_subspace_loss_zero_inside_the_span():
    w = RngState(8).normal(2, 5)
    b = span_basis(w)
    inside = np.array([0.3 * w[0] + 1.7 * w[1], -w[0]])
    loss, grad = subspace_reg_loss(inside, b)
    assert loss == pytest.approx(0.0, abs=1e-10)
    assert np.allclose(grad, 0.0, atol=1e-10)


def test_subspace_loss_gradient_matches_finite_differences():
    w = RngState(9).normal(2, 4)
    b = span_basis(w)
    pred = RngState(10).normal(3, 4)
    loss, grad = subspace_reg_loss(pred, b)
    assert loss > 0.0
    h = 1e-6
    for i in range(3):
        for j in range(4):
            bump = pred.copy()
            bump[i, j] += h
            dent = pred.copy()
            dent[i, j] -= h
            numeric = (subspace_reg_loss(bump, b)[0] - subspace_reg_loss(dent, b)[0]) / (2 * h)
            assert grad[i, j] == pytest.approx(numeric, abs=1e-5)


def test_train_subreg_reduces_loss_and_respects_span():
    task = synth_generate(seed=11, n_seen=12, n_unseen=4, d_a=5, d_w=8, samples_per_class=1)
    pairs = make_pairs(task.descriptors.subset(task.manifest.seen), task.head)
    unseen_desc = task.descriptors.subset(task.manifest.unseen).matrix

    model = IcisModel.init(5, 8, 32, RngState(12))
    cfg = TrainConfig(lr=1e-3, max_epochs=40, hidden_dim=32)
    trace = train_subreg(model, pairs, unseen_desc, lam=5.0, train_config=cfg)
    assert trace.total[-1] < trace.total[0]

    # strong penalty keeps unseen predictions close to the seen span
    basis = span_basis(task.head.weights)
    pred = model.a_to_w.predict(unseen_desc)
    residual_frac = np.linalg.norm(pred - (pred @ basis.T) @ basis) / np.linalg.norm(pred)
    assert residual_frac < 0.5


@pytest.mark.parametrize("lam", [-1.0, float("nan"), float("inf")])
def test_train_subreg_refuses_a_bad_penalty_weight_before_training(lam):
    task = synth_generate(seed=11, n_seen=12, n_unseen=4, d_a=5, d_w=8, samples_per_class=1)
    pairs = make_pairs(task.descriptors.subset(task.manifest.seen), task.head)
    model = IcisModel.init(5, 8, 4, RngState(12))
    params = [p for layer in model.a_to_w.layers() for p in layer.parameters()]
    before = [p.copy() for p in params]
    with pytest.raises(IcisError, match="lam must be finite and >= 0"):
        train_subreg(model, pairs, task.descriptors.subset(task.manifest.unseen).matrix, lam=lam)
    assert all(np.array_equal(a, b) for a, b in zip(before, params))


def test_train_subreg_refuses_a_hidden_dim_other_than_the_model_width():
    task = synth_generate(seed=11, n_seen=12, n_unseen=4, d_a=5, d_w=8, samples_per_class=1)
    pairs = make_pairs(task.descriptors.subset(task.manifest.seen), task.head)
    model = IcisModel.init(5, 8, 4, RngState(12))
    with pytest.raises(IcisError, match="hidden_dim=2048 does not match the model's latent width 4"):
        train_subreg(model, pairs, task.descriptors.subset(task.manifest.unseen).matrix,
                     train_config=TrainConfig(max_epochs=1))


# ---------------------------------------------------------------------------
# denoising refinement


def test_dae_with_zero_lr_returns_the_seeded_initial_net(monkeypatch):
    rng = RngState(13)
    seen = rng.normal(5, 4)
    pred = rng.normal(3, 4)
    init_rng = RngState(9).spawn("dae-init")
    net = MlpTwoLayer(
        LinearLayer.init(4, 4, init_rng, pre_rectifier=True),
        LinearLayer.init(4, 4, init_rng, pre_rectifier=False),
    )
    monkeypatch.setattr("icis.baselines.DAE_LR", 0.0)
    out = dae_refine(seen, pred, seed=9, epochs=3)
    assert np.array_equal(out, net.predict(pred))


def test_dae_output_shape_matches_input():
    rng = RngState(14)
    out = dae_refine(rng.normal(6, 5), rng.normal(4, 5), epochs=5)
    assert out.shape == (4, 5)


def test_dae_is_deterministic_per_seed():
    rng = RngState(15)
    seen = rng.normal(8, 4)
    pred = rng.normal(3, 4)
    a = dae_refine(seen, pred, seed=1, epochs=10)
    b = dae_refine(seen, pred, seed=1, epochs=10)
    c = dae_refine(seen, pred, seed=2, epochs=10)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_dae_refinement_changes_the_rows():
    rng = RngState(16)
    seen = rng.normal(8, 4)
    pred = rng.normal(3, 4)
    out = dae_refine(seen, pred, seed=0, epochs=20)
    assert not np.allclose(out, pred, atol=1e-6)


def test_dae_argument_errors(monkeypatch):
    rng = RngState(17)
    with pytest.raises(IcisError):
        dae_refine(rng.normal(1, 4), rng.normal(2, 4))
    with pytest.raises(IcisError):
        dae_refine(rng.normal(4, 4), rng.normal(2, 3))
    with pytest.raises(IcisError):
        dae_refine(rng.normal(4, 4), rng.normal(2, 4), epochs=0)
    monkeypatch.setattr("icis.baselines.DAE_LR", -1.0)
    with pytest.raises(IcisError):
        dae_refine(rng.normal(4, 4), rng.normal(2, 4))


def test_dae_divergence_is_reported(monkeypatch):
    rng = RngState(0)
    monkeypatch.setattr("icis.baselines.DAE_LR", 1e12)
    with pytest.raises(DivergenceError) as exc:
        dae_refine(rng.normal(6, 5), rng.normal(4, 5), epochs=50)
    assert 1 <= exc.value.trace.epochs_run < 50
