"""Tests for the distances, the two-layer perceptron backward pass, and Adam."""

import math
import tracemalloc
import weakref

import numpy as np
import pytest

from icis.errors import IcisError, ShapeMismatchError, ZeroNormError
from icis.nn import (
    ADAM_CHUNK,
    GRAD_BLOCK,
    AdamState,
    GradientWriter,
    LinearLayer,
    MlpTwoLayer,
    adam_step,
    batch_cosine_loss,
    batch_l2_loss,
    batch_loss,
)
from icis.tensor import RngState, as_vector

# ---------------------------------------------------------------------------
# distances: scalar oracles for the batched losses, and their own checks


def cosine_distance(v, q) -> float:
    """1 - cos(v, q). Range [0, 2]; both vectors must have positive norm."""
    v = as_vector(v)
    q = as_vector(q)
    if v.shape != q.shape:
        raise ShapeMismatchError("cosine_distance operands differ", left=v.shape, right=q.shape)
    nv = np.linalg.norm(v)
    nq = np.linalg.norm(q)
    if nv == 0.0 or nq == 0.0:
        raise ZeroNormError("cosine distance is undefined for zero-norm vectors")
    return float(1.0 - (v @ q) / (nv * nq))


def cosine_distance_grad(v, q) -> np.ndarray:
    """Gradient of ``cosine_distance(v, q)`` with respect to ``v``.

    d/dv [1 - v.q / (|v||q|)] = cos(v, q) * v / |v|^2 - q / (|v||q|),
    which is orthogonal to ``v`` and vanishes exactly when v is a positive
    multiple of q.
    """
    v = as_vector(v)
    q = as_vector(q)
    if v.shape != q.shape:
        raise ShapeMismatchError("cosine_distance_grad operands differ", left=v.shape, right=q.shape)
    nv = np.linalg.norm(v)
    nq = np.linalg.norm(q)
    if nv == 0.0 or nq == 0.0:
        raise ZeroNormError("cosine distance is undefined for zero-norm vectors")
    cos = (v @ q) / (nv * nq)
    return cos * v / (nv * nv) - q / (nv * nq)


def l2_distance(v, q) -> float:
    """Mean squared difference over coordinates."""
    v = as_vector(v)
    q = as_vector(q)
    if v.shape != q.shape:
        raise ShapeMismatchError("l2_distance operands differ", left=v.shape, right=q.shape)
    diff = v - q
    return float(diff @ diff / v.size)


def test_cosine_distance_anchor_values():
    v = np.array([1.0, 2.0, 3.0])
    assert cosine_distance(v, v) == pytest.approx(0.0, abs=1e-12)
    assert cosine_distance(v, -v) == pytest.approx(2.0, abs=1e-12)
    assert cosine_distance([1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0, abs=1e-12)


def test_cosine_distance_scale_invariance():
    rng = np.random.default_rng(3)
    v = rng.standard_normal(8)
    q = rng.standard_normal(8)
    assert cosine_distance(7.3 * v, q) == pytest.approx(cosine_distance(v, q), abs=1e-12)
    assert cosine_distance(v, 0.01 * q) == pytest.approx(cosine_distance(v, q), abs=1e-12)


def test_cosine_distance_zero_norm_is_an_error():
    with pytest.raises(ZeroNormError):
        cosine_distance([0.0, 0.0], [1.0, 0.0])
    with pytest.raises(ZeroNormError):
        cosine_distance([1.0, 0.0], [0.0, 0.0])


def test_cosine_grad_matches_finite_differences():
    rng = np.random.default_rng(0)
    v = rng.standard_normal(6)
    q = rng.standard_normal(6)
    grad = cosine_distance_grad(v, q)
    h = 1e-6
    for i in range(6):
        e = np.zeros(6)
        e[i] = h
        numeric = (cosine_distance(v + e, q) - cosine_distance(v - e, q)) / (2 * h)
        assert grad[i] == pytest.approx(numeric, abs=1e-6)


def test_cosine_grad_is_orthogonal_to_v_and_scales_inversely():
    rng = np.random.default_rng(1)
    v = rng.standard_normal(5)
    q = rng.standard_normal(5)
    grad = cosine_distance_grad(v, q)
    assert abs(grad @ v) < 1e-12
    # doubling v halves the gradient: d(v)/dv has a 1/|v| prefactor
    assert np.allclose(cosine_distance_grad(2.0 * v, q), grad / 2.0, atol=1e-12)


def test_cosine_grad_vanishes_at_positive_multiples():
    v = np.array([1.0, -2.0, 0.5])
    assert np.allclose(cosine_distance_grad(3.0 * v, v), 0.0, atol=1e-12)


def test_l2_distance_is_the_coordinate_mean():
    assert l2_distance([0.0, 0.0], [2.0, 0.0]) == pytest.approx(2.0)
    assert l2_distance([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0


def test_batch_cosine_loss_mean_and_grad():
    rng = np.random.default_rng(7)
    pred = rng.standard_normal((4, 5))
    target = rng.standard_normal((4, 5))
    loss, grad = batch_cosine_loss(pred, target)
    per_row = [cosine_distance(pred[i], target[i]) for i in range(4)]
    assert loss == pytest.approx(np.mean(per_row), abs=1e-12)
    expected = np.stack([cosine_distance_grad(pred[i], target[i]) for i in range(4)]) / 4
    assert np.allclose(grad, expected, atol=1e-12)


def test_batch_cosine_loss_zero_pred_row_aborts():
    pred = np.array([[1.0, 0.0], [0.0, 0.0]])
    target = np.ones((2, 2))
    with pytest.raises(ZeroNormError):
        batch_cosine_loss(pred, target)


def test_batch_l2_loss_mean_and_grad():
    pred = np.array([[0.0, 0.0], [1.0, 1.0]])
    target = np.array([[2.0, 0.0], [1.0, 1.0]])
    loss, grad = batch_l2_loss(pred, target)
    # rows contribute 4/2 and 0; mean over 2 rows
    assert loss == pytest.approx(1.0)
    h = 1e-6
    for i in range(2):
        for j in range(2):
            bump = pred.copy()
            bump[i, j] += h
            dent = pred.copy()
            dent[i, j] -= h
            numeric = (batch_l2_loss(bump, target)[0] - batch_l2_loss(dent, target)[0]) / (2 * h)
            assert grad[i, j] == pytest.approx(numeric, abs=1e-6)


def test_batch_loss_dispatch():
    assert batch_loss("cosine") is batch_cosine_loss
    assert batch_loss("l2") is batch_l2_loss
    with pytest.raises(IcisError):
        batch_loss("manhattan")


# ---------------------------------------------------------------------------
# layers


def gradient_arrays(*layers):
    """Every gradient of ``layers`` whole, written by the writers Adam consumes."""
    return [g.array() for layer in layers for g in layer.gradient_writers()]


def parameters(net) -> list:
    return [p for layer in net.layers() for p in layer.parameters()]


def test_linear_layer_forward_is_affine():
    layer = LinearLayer([[1.0, 2.0], [3.0, 4.0]], [10.0, 20.0])
    out = layer.forward(np.array([[1.0, 1.0]]))
    assert out.tolist() == [[13.0, 27.0]]


def test_linear_layer_init_std_and_zero_bias():
    rng = RngState(0)
    pre = LinearLayer.init(400, 300, rng, pre_rectifier=True)
    post = LinearLayer.init(400, 300, RngState(0), pre_rectifier=False)
    assert np.all(pre.bias == 0.0)
    assert pre.weight.std() == pytest.approx(np.sqrt(2.0 / 400), rel=0.02)
    assert post.weight.std() == pytest.approx(np.sqrt(1.0 / 400), rel=0.02)


def test_mlp_forward_with_zero_weights_gives_bias():
    l1 = LinearLayer(np.zeros((3, 2)), np.zeros(3))
    l2 = LinearLayer(np.zeros((2, 3)), np.array([5.0, -1.0]))
    net = MlpTwoLayer(l1, l2)
    out = net.forward(np.zeros((4, 2)))
    assert np.allclose(out, [[5.0, -1.0]] * 4)


def test_mlp_forward_hand_arithmetic():
    # hidden = relu([x1 - x2, -x1]); out = hidden1 + 2*hidden2 + 1
    l1 = LinearLayer([[1.0, -1.0], [-1.0, 0.0]], [0.0, 0.0])
    l2 = LinearLayer([[1.0, 2.0]], [1.0])
    net = MlpTwoLayer(l1, l2)
    out = net.forward(np.array([[3.0, 1.0], [-2.0, 0.0]]))
    # row 1: relu([2, -3]) = [2, 0] -> 2 + 0 + 1 = 3
    # row 2: relu([-2, 2]) = [0, 2] -> 0 + 4 + 1 = 5
    assert out.tolist() == [[3.0], [5.0]]


def test_mlp_forward_matches_straight_line_reimplementation():
    rng = RngState(13)
    l1 = LinearLayer.init(5, 7, rng, pre_rectifier=True)
    l2 = LinearLayer.init(7, 4, rng, pre_rectifier=False)
    net = MlpTwoLayer(l1, l2)
    x = RngState(14).normal(6, 5)
    manual = np.maximum(x @ l1.weight.T + l1.bias, 0.0) @ l2.weight.T + l2.bias
    assert np.allclose(net.predict(x), manual, atol=1e-12)


def test_mlp_backward_matches_finite_differences():
    rng = RngState(21)
    l1 = LinearLayer.init(6, 5, rng, pre_rectifier=True)
    l2 = LinearLayer.init(5, 4, rng, pre_rectifier=False)
    net = MlpTwoLayer(l1, l2)
    x = RngState(22).normal(3, 6)
    target = RngState(23).normal(3, 4)

    def loss_value():
        diff = net.predict(x) - target
        return float(np.sum(diff * diff))

    out = net.forward(x)
    net.backward(2.0 * (out - target))

    h = 1e-4
    for layer in (l1, l2):
        for param, grad in zip(layer.parameters(), gradient_arrays(layer)):
            flat = param.reshape(-1)
            gflat = grad.reshape(-1)
            for k in range(flat.size):
                orig = flat[k]
                flat[k] = orig + h
                up = loss_value()
                flat[k] = orig - h
                down = loss_value()
                flat[k] = orig
                assert gflat[k] == pytest.approx((up - down) / (2 * h), abs=1e-4)


def test_mlp_backward_layer2_bias_is_upstream_column_sum():
    rng = RngState(30)
    l1 = LinearLayer.init(3, 4, rng, pre_rectifier=True)
    l2 = LinearLayer.init(4, 2, rng, pre_rectifier=False)
    net = MlpTwoLayer(l1, l2)
    net.forward(RngState(31).normal(5, 3))
    upstream = RngState(32).normal(5, 2)
    net.backward(upstream)
    assert np.allclose(gradient_arrays(l2)[1], upstream.sum(axis=0), atol=1e-12)


def test_mlp_backward_accumulates_across_calls():
    rng = RngState(40)
    l1 = LinearLayer.init(3, 4, rng, pre_rectifier=True)
    l2 = LinearLayer.init(4, 2, rng, pre_rectifier=False)
    net = MlpTwoLayer(l1, l2)
    x = RngState(41).normal(4, 3)
    up = RngState(42).normal(4, 2)

    net.forward(x)
    net.backward(up)
    once = gradient_arrays(*net.layers())

    net.forward(x)
    net.backward(up)
    for g, g1 in zip(gradient_arrays(*net.layers()), once):
        assert np.allclose(g, 2.0 * g1, atol=1e-12)


def test_mlp_backward_without_forward_is_an_error():
    l1 = LinearLayer(np.zeros((2, 2)), np.zeros(2))
    l2 = LinearLayer(np.zeros((2, 2)), np.zeros(2))
    net = MlpTwoLayer(l1, l2)
    with pytest.raises(IcisError):
        net.backward(np.zeros((1, 2)))


def stacked_oracle(pairs):
    """The whole-array gradients of the stacked factors: ``U.T @ X`` and
    ``U.sum(axis=0)``, with ``U`` and ``X`` the pairs' rows in record order."""
    u = np.vstack([u for u, _ in pairs])
    x = np.vstack([x for _, x in pairs])
    return u.T @ x, u.sum(axis=0)


def written_gradients(rows, cols, pairs, zero_grad_first):
    """The weight and bias gradients a layer writes from ``pairs``, recorded
    on a fresh layer or after a stale pair and a ``zero_grad``, written
    twice; the second write reads the pair the first one stacked."""
    layer = LinearLayer(np.zeros((rows, cols)), np.zeros(rows))
    if zero_grad_first:
        layer.record(np.ones((2, rows)), np.ones((2, cols)))
        layer.zero_grad()
    for u, x in pairs:
        layer.record(u, x)
    writers = GradientWriter(layer, bias=False), GradientWriter(layer, bias=True)
    first = [g.array() for g in writers]
    assert len(layer.factors) == 1
    second = [g.array() for g in writers]
    assert all(np.array_equal(a, b) for a, b in zip(first, second))
    return first


def assert_writes_the_stacked_gradient(rows, cols, pairs, zero_grad_first):
    got, got_bias = written_gradients(rows, cols, pairs, zero_grad_first)
    want, want_bias = stacked_oracle(pairs)
    assert np.array_equal(got, want)
    assert np.array_equal(got_bias, want_bias)


@pytest.mark.parametrize("rows, cols", [(2048, 2048), (2048, 312), (312, 2048)])
@pytest.mark.parametrize("batch", [16, 6, 21])
def test_blocked_accumulation_is_bit_identical_at_the_cub_shapes(rows, cols, batch):
    rng = np.random.default_rng(rows + cols + batch)
    for n_pairs in (1, 2, 3):
        pairs = [(rng.standard_normal((batch, rows)), rng.standard_normal((batch, cols))) for _ in range(n_pairs)]
        for zero_grad_first in (False, True):
            assert_writes_the_stacked_gradient(rows, cols, pairs, zero_grad_first)


def test_blocked_accumulation_with_a_short_last_block_and_two_calls():
    cols = 64
    step = GRAD_BLOCK // cols
    rng = np.random.default_rng(4)
    # three full blocks and a short one; then a remainder of one row, which
    # joins the block before it (a one-row block would go to GEMV and round
    # differently)
    for rows in (3 * step + 5, 2 * step + 1):
        pairs = [(rng.standard_normal((16, rows)), rng.standard_normal((16, cols))) for _ in range(2)]
        for zero_grad_first in (False, True):
            assert_writes_the_stacked_gradient(rows, cols, pairs, zero_grad_first)


@pytest.mark.parametrize("rows, cols", [(2048, 2048), (2048, 312), (312, 2048)])
def test_stacked_gradient_equals_the_per_term_sum_to_rounding(rows, cols):
    # one product over K stacked rows against a sum of per-term products:
    # each entry is a K-term sum taken in another order, so the two differ by
    # at most K ulps of the largest entry (measured: 3)
    rng = np.random.default_rng(2 * rows + cols)
    eps = np.finfo(np.float64).eps
    for batches in ((16, 21), (16, 16), (6, 21, 16)):
        pairs = [(rng.standard_normal((b, rows)), rng.standard_normal((b, cols))) for b in batches]
        got, got_bias = written_gradients(rows, cols, pairs, zero_grad_first=False)
        for g, want in ((got, sum(u.T @ x for u, x in pairs)), (got_bias, sum(u.sum(axis=0) for u, _ in pairs))):
            assert np.abs(g - want).max() <= sum(batches) * eps * np.abs(want).max()


def test_first_write_leaves_one_factor_pair_per_layer_and_frees_the_terms():
    rng = RngState(55)
    net = MlpTwoLayer(LinearLayer.init(3, 4, rng, pre_rectifier=True),
                      LinearLayer.init(4, 2, rng, pre_rectifier=False))
    data = RngState(56)
    for _ in range(3):
        net.forward(data.normal(5, 3))
        net.backward(data.normal(5, 2))
    terms = [weakref.ref(a) for layer in (net.layer1, net.layer2) for pair in layer.factors for a in pair]
    assert len(net.layer1.factors) == len(net.layer2.factors) == 3
    gradient_arrays(*net.layers())
    for layer in (net.layer1, net.layer2):
        assert len(layer.factors) == 1
        u, x = layer.factors[0]
        assert u.shape == (15, layer.out_dim) and x.shape == (15, layer.in_dim)
    assert all(ref() is None for ref in terms)


def test_zero_grad_drops_the_factors_and_the_gradient_reads_zeros():
    rng = RngState(50)
    net = MlpTwoLayer(LinearLayer.init(3, 4, rng, pre_rectifier=True),
                      LinearLayer.init(4, 2, rng, pre_rectifier=False))
    net.forward(RngState(51).normal(5, 3))
    net.backward(RngState(52).normal(5, 2))
    assert any(g.any() for g in gradient_arrays(*net.layers()))
    net.zero_grad()
    assert net.layer1.factors == [] and net.layer2.factors == []
    for g, p in zip(gradient_arrays(*net.layers()), parameters(net)):
        assert g.shape == p.shape and np.array_equal(g, np.zeros_like(p))


def test_mlp_backward_builds_no_weight_sized_temporary():
    rng = RngState(60)
    net = MlpTwoLayer(LinearLayer.init(1024, 1024, rng, pre_rectifier=True),
                      LinearLayer.init(1024, 1024, rng, pre_rectifier=False))
    x = RngState(61).normal(16, 1024)
    upstream = RngState(62).normal(16, 1024)
    net.forward(x)
    tracemalloc.start()
    try:
        net.backward(upstream)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < net.layer1.weight.nbytes / 4


def test_mlp_rejects_non_composing_layers():
    with pytest.raises(ShapeMismatchError):
        MlpTwoLayer(LinearLayer(np.zeros((3, 2)), np.zeros(3)), LinearLayer(np.zeros((2, 4)), np.zeros(2)))


# ---------------------------------------------------------------------------
# optimiser


class ArrayGradient:
    """A gradient given whole, behind the writer interface ``adam_step`` takes."""

    def __init__(self, g):
        self.g, self.shape = g, g.shape

    def blocks(self):
        return [(0, self.shape[0])]

    def write(self, out, lo, hi):
        out[...] = self.g[lo:hi]


def as_writers(*grads):
    return [ArrayGradient(g) for g in grads]


def test_adam_zero_gradient_is_a_no_op():
    p = np.array([[1.0, 2.0]])
    state = AdamState(lr=0.1)
    adam_step(state, [p], as_writers(np.zeros_like(p)))
    assert np.array_equal(p, [[1.0, 2.0]])


def test_adam_first_step_has_unit_direction():
    # bias correction makes the first step -lr * g / (|g| + eps), i.e. very
    # nearly -lr * sign(g) regardless of the gradient's magnitude
    p = np.array([0.0])
    g = np.array([123.456])
    state = AdamState(lr=0.01)
    adam_step(state, [p], as_writers(g))
    assert p[0] == pytest.approx(-0.01 * 123.456 / (123.456 + 1e-8), abs=1e-15)


def test_adam_two_steps_match_hand_unrolled_update():
    lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8
    p = np.array([1.0, -2.0])
    g1 = np.array([0.3, -0.7])
    g2 = np.array([-0.1, 0.4])

    state = AdamState(lr=lr, beta1=b1, beta2=b2, eps=eps)
    adam_step(state, [p], as_writers(g1))
    adam_step(state, [p], as_writers(g2))

    q = np.array([1.0, -2.0])
    m = np.zeros(2)
    v = np.zeros(2)
    for t, g in ((1, g1), (2, g2)):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        q = q - lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
    assert np.allclose(p, q, atol=1e-12)


def test_adam_zero_lr_leaves_parameters_bit_identical():
    p = np.array([[1.5, -2.5], [0.0, 3.0]])
    before = p.copy()
    state = AdamState(lr=0.0)
    adam_step(state, [p], as_writers(np.ones_like(p)))
    adam_step(state, [p], as_writers(np.full_like(p, -2.0)))
    assert np.array_equal(p, before)


def test_adam_rejects_mismatched_shapes():
    state = AdamState()
    with pytest.raises(ShapeMismatchError):
        adam_step(state, [np.zeros(3)], as_writers(np.zeros(4)))
    with pytest.raises(ShapeMismatchError):
        adam_step(state, [np.zeros(3)], [])


def test_adam_rejects_parameters_the_moments_were_not_built_for():
    state = AdamState()
    adam_step(state, [np.zeros((2, 3)), np.zeros(3)], as_writers(np.ones((2, 3)), np.ones(3)))
    # another count
    with pytest.raises(ShapeMismatchError, match="moments were built for"):
        adam_step(state, [np.zeros((2, 3))], as_writers(np.ones((2, 3))))
    # same sizes, other shapes: the moments would be applied to the wrong entries
    with pytest.raises(ShapeMismatchError, match="moments were built for"):
        adam_step(state, [np.zeros((3, 2)), np.zeros(3)], as_writers(np.ones((3, 2)), np.ones(3)))
    assert state.step_count == 1


def test_adam_rejects_non_contiguous_parameters():
    state = AdamState(lr=0.1)
    base = np.zeros((4, 6))
    with pytest.raises(ShapeMismatchError, match="not C-contiguous"):
        adam_step(state, [base[:, ::2]], as_writers(np.ones((4, 3))))
    assert not base.any() and state.step_count == 0


def test_adam_rejects_writers_of_another_shape():
    layer = LinearLayer(np.ones((2, 3)), np.ones(2))
    weight_grad, bias_grad = layer.gradient_writers()
    p = np.zeros((3, 2))
    state = AdamState(lr=0.1)
    with pytest.raises(ShapeMismatchError, match="shape mismatch"):
        adam_step(state, [p], [weight_grad])
    with pytest.raises(ShapeMismatchError, match="shape mismatch"):
        adam_step(state, [np.zeros(3)], [bias_grad])
    assert not p.any() and state.step_count == 0


def test_adam_over_writers_is_bit_identical_to_adam_over_their_arrays():
    # weights of several gradient blocks and Adam chunks, two terms per step;
    # layer 2's 375 rows end in 187 + 1, a block larger than GRAD_BLOCK
    rng = RngState(70)
    net = MlpTwoLayer(LinearLayer.init(300, 700, rng, pre_rectifier=True),
                      LinearLayer.init(700, 375, rng, pre_rectifier=False))
    expected = [p.copy() for p in parameters(net)]
    state, oracle = AdamState(lr=1e-2), dict(lr=1e-2, beta1=0.9, beta2=0.999, eps=1e-8)
    data = RngState(71)
    for _ in range(2):
        net.zero_grad()
        for _ in range(2):
            net.forward(data.normal(6, 300))
            net.backward(data.normal(6, 375))
        adam_step_oracle(oracle, expected, gradient_arrays(*net.layers()))
        adam_step(state, parameters(net), [g for layer in net.layers() for g in layer.gradient_writers()])
    for got, want in zip(parameters(net) + state._m + state._v, expected + oracle["m"] + oracle["v"]):
        assert np.array_equal(got, want)
    assert state._grad_block.size == 188 * 700 > GRAD_BLOCK


def adam_step_oracle(state: dict, params, grads):
    """The whole-array Adam update on the scaled moments ``m / (1 - beta1)``
    and ``v / (1 - beta2)``, with the bias corrections folded into ``c`` and
    ``s`` as ``adam_step`` folds them; moments live in
    ``state["m"]``/``state["v"]``, the step count in ``state["t"]``."""
    if "m" not in state:
        state["m"] = [np.zeros_like(p) for p in params]
        state["v"] = [np.zeros_like(p) for p in params]
        state["t"] = 0
    state["t"] += 1
    t = state["t"]
    lr, b1, b2, eps = state["lr"], state["beta1"], state["beta2"], state["eps"]
    c = math.sqrt((1.0 - b2) / (1.0 - b2**t))
    step = lr * (1.0 - b1) / (1.0 - b1**t) / c
    for p, g, m, v in zip(params, grads, state["m"], state["v"]):
        m *= b1
        m += g
        v *= b2
        v += g * g
        p -= (m * step) / (np.sqrt(v) + eps / c)


def test_adam_step_is_bit_identical_to_the_whole_array_update():
    rng = np.random.default_rng(3)
    # larger than a chunk and not a multiple of it, exactly one chunk, smaller than one
    shapes = [(3, ADAM_CHUNK // 2 + 7), (ADAM_CHUNK,), (5, 9), (1,)]
    hyper = dict(lr=3e-3, beta1=0.8, beta2=0.99, eps=1e-6)
    params = [rng.standard_normal(s) for s in shapes]
    expected = [p.copy() for p in params]
    state = AdamState(**hyper)
    oracle = dict(hyper)
    for _ in range(5):
        grads = [rng.standard_normal(s) * rng.uniform(1e-4, 1e2) for s in shapes]
        adam_step(state, params, as_writers(*grads))
        adam_step_oracle(oracle, expected, [g.copy() for g in grads])
    assert state.step_count == oracle["t"] == 5
    for got, want, m, want_m, v, want_v in zip(params, expected, state._m, oracle["m"], state._v, oracle["v"]):
        assert np.array_equal(got, want)
        assert np.array_equal(m, want_m)
        assert np.array_equal(v, want_v)


def test_adam_matches_the_textbook_recurrences():
    # plain moments, no folding: m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g^2,
    # p -= lr (m / bc1) / (sqrt(v / bc2) + eps), at non-default betas and eps
    rng = np.random.default_rng(12)
    lr, b1, b2, eps = 2e-3, 0.7, 0.95, 1e-3
    shapes = [(4, 9), (ADAM_CHUNK + 3,)]
    params = [rng.standard_normal(s) for s in shapes]
    expected = [p.copy() for p in params]
    moments = [(np.zeros(s), np.zeros(s)) for s in shapes]
    state = AdamState(lr=lr, beta1=b1, beta2=b2, eps=eps)
    for t in range(1, 26):
        grads = [rng.standard_normal(s) * rng.uniform(1e-4, 1e1) for s in shapes]
        adam_step(state, params, as_writers(*grads))
        for q, g, (m, v) in zip(expected, grads, moments):
            m[...] = b1 * m + (1 - b1) * g
            v[...] = b2 * v + (1 - b2) * g * g
            q -= lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
    for got, want, v_scaled, (_, v) in zip(params, expected, state._v, moments):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        np.testing.assert_allclose(v_scaled * (1 - b2), v, rtol=1e-12, atol=0)


@pytest.mark.parametrize("hyper", [dict(beta1=1.0), dict(beta1=-0.1), dict(beta1=float("nan")),
                                   dict(beta2=1.0), dict(beta2=-1e-3), dict(beta2=float("inf")),
                                   dict(eps=-1e-8), dict(eps=float("nan")), dict(eps=float("inf")),
                                   dict(lr=-1e-3), dict(lr=float("nan")), dict(lr=float("inf"))])
def test_adam_state_refuses_invalid_hyperparameters(hyper):
    name = next(iter(hyper))
    with pytest.raises(IcisError, match=name):
        AdamState(**hyper)


def test_adam_state_accepts_the_edges_of_its_ranges():
    p = np.array([1.0, -1.0])
    adam_step(AdamState(lr=0.0, beta1=0.0, beta2=0.0, eps=0.0), [p], as_writers(np.array([0.5, 2.0])))
    assert p.tolist() == [1.0, -1.0]


@pytest.mark.parametrize("rows, cols", [(2048, 2048), (2048, 312)])
def test_terms_that_share_an_input_array_write_the_stacked_gradient_to_rounding(rows, cols):
    # the upstreams of terms that record one input array are summed, so each
    # entry is a sum of K/2 products of two-term sums instead of K products:
    # the two differ by at most K ulps of the largest entry (K the stacked rows;
    # measured: 4)
    rng = np.random.default_rng(rows + 3 * cols)
    eps = np.finfo(np.float64).eps
    x, y = rng.standard_normal((16, cols)), rng.standard_normal((16, cols))
    for inputs in ((x, x), (x, y, x), (x, x, y, y, x)):
        pairs = [(rng.standard_normal((16, rows)), inp) for inp in inputs]
        got, got_bias = written_gradients(rows, cols, pairs, zero_grad_first=False)
        want, want_bias = stacked_oracle(pairs)
        for g, w in ((got, want), (got_bias, want_bias)):
            assert np.abs(g - w).max() <= 16 * len(pairs) * eps * np.abs(w).max()


def test_terms_that_share_an_input_array_hold_it_once():
    # 16-row terms of 128 KiB each on a 1024 x 1024 layer, upstreams drawn
    # while traced. (x, x) leaves the merged upstream alone (one term);
    # (x, y, x) leaves U and X stacks of 32 rows each (four terms), where
    # holding x twice would take 48 rows each
    term = 16 * 1024 * 8
    rng = np.random.default_rng(9)
    x, y = rng.standard_normal((16, 1024)), rng.standard_normal((16, 1024))
    for inputs, kept in (((x, x), 1), ((x, y, x), 4)):
        layer = LinearLayer(np.zeros((1024, 1024)), np.zeros(1024))
        tracemalloc.start()
        try:
            for inp in inputs:
                layer.record(rng.standard_normal((16, 1024)), inp)
            GradientWriter(layer, bias=True).write(np.empty(1024), 0, 1024)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        u, stacked = layer.factors[0]
        assert u.shape[0] == stacked.shape[0] == 16 * len(set(map(id, inputs)))
        if kept == 1:
            # the input is the recorded array, not a copy
            assert stacked is x
        assert kept * term <= held < (kept + 0.5) * term


def test_record_sums_the_upstreams_of_one_input_array_in_record_order():
    # (u1, x), (u2, y), (u3, x), (u4, copy of y): x's pair stays first and
    # holds u1 + u3 in a new array; the copy equals y but is another array,
    # so it gets a pair of its own
    rng = np.random.default_rng(10)
    x, y = rng.standard_normal((3, 4)), rng.standard_normal((3, 4))
    u1, u2, u3, u4 = (rng.standard_normal((3, 2)) for _ in range(4))
    u1_before = u1.copy()
    layer = LinearLayer(np.zeros((2, 4)), np.zeros(2))
    for u, inp in ((u1, x), (u2, y), (u3, x), (u4, y.copy())):
        layer.record(u, inp)
    assert len(layer.factors) == 3
    (merged, first), (kept, second), (last, third) = layer.factors
    assert first is x and second is y and third is not y and np.array_equal(third, y)
    assert np.array_equal(merged, u1_before + u3) and np.array_equal(u1, u1_before)
    assert kept is u2 and last is u4
