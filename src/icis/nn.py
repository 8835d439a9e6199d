"""Two-layer perceptrons with hand-written backward passes, the distance
losses used for weight regression, and the Adam optimiser.

The networks here are deliberately small and explicit: a ``LinearLayer``
holds its parameters and the ``(upstream, input)`` factors that backward
records on it, and ``MlpTwoLayer`` composes two layers with a rectifier
between them (the encoder half ends in the rectifier, the decoder half is
purely affine). No gradient is stored: a :class:`GradientWriter` writes a
layer's gradient from its factors one row block at a time, and
``adam_step`` consumes each block as it is written; that writer is the only
route from a loss to Adam, and ``GradientWriter.array`` writes the same
blocks into one array for a reader that needs the gradient whole.
Gradients are derived by chain rule in closed form rather than by an
autodiff framework, so the test suite can check them against central finite
differences as a genuinely independent second route.
"""

import math

import numpy as np

from .errors import IcisError, ShapeMismatchError, ZeroNormError
from .tensor import RngState, as_matrix, as_vector, rand_normal, row_blocks

# ---------------------------------------------------------------------------
# distances


def batch_cosine_loss(pred: np.ndarray, target: np.ndarray):
    """Mean cosine distance over paired rows, plus d(loss)/d(pred).

    Returns ``(loss, grad)`` where ``grad`` has the shape of ``pred``.
    A zero-norm row on either side aborts with :class:`ZeroNormError`, since
    the cosine distance to it is undefined; it surfaces instead of being
    silently patched.
    """
    pred = as_matrix(pred)
    target = as_matrix(target)
    if pred.shape != target.shape:
        raise ShapeMismatchError("loss operands differ", left=pred.shape, right=target.shape)
    n = pred.shape[0]
    pn = np.linalg.norm(pred, axis=1)
    tn = np.linalg.norm(target, axis=1)
    if np.any(pn == 0.0):
        raise ZeroNormError("zero-norm predicted row(s); the cosine distance is undefined for them")
    if np.any(tn == 0.0):
        raise ZeroNormError("zero-norm target row(s)")
    dots = np.einsum("ij,ij->i", pred, target)
    cos = dots / (pn * tn)
    loss = float(np.mean(1.0 - cos))
    grad = (cos / (pn * pn))[:, None] * pred - target / (pn * tn)[:, None]
    return loss, grad / n


def batch_l2_loss(pred: np.ndarray, target: np.ndarray):
    """Mean over rows of the per-row coordinate-mean squared error."""
    pred = as_matrix(pred)
    target = as_matrix(target)
    if pred.shape != target.shape:
        raise ShapeMismatchError("loss operands differ", left=pred.shape, right=target.shape)
    n, d = pred.shape
    diff = pred - target
    loss = float(np.sum(diff * diff) / (n * d))
    return loss, 2.0 * diff / (n * d)


BATCH_LOSSES = {"cosine": batch_cosine_loss, "l2": batch_l2_loss}


def batch_loss(distance: str):
    try:
        return BATCH_LOSSES[distance]
    except KeyError:
        raise IcisError(f"unknown distance {distance!r}; expected one of {sorted(BATCH_LOSSES)}") from None


# ---------------------------------------------------------------------------
# layers


class LinearLayer:
    """Affine map ``y = x @ W.T + b`` with the gradient factors recorded on it.

    ``factors`` holds the ``(upstream, x)`` pairs that backward recorded
    (see :meth:`record`) since the last ``zero_grad``, one per distinct input
    array. With ``U`` and ``X`` their rows stacked in record order,
    d(loss)/d(W) is ``U.T @ X`` and d(loss)/d(b) is ``U.sum(axis=0)``: one
    product over every term, not a sum of per-term products.
    """

    def __init__(self, weight, bias):
        self.weight = as_matrix(weight)
        self.bias = as_vector(bias)
        if self.bias.shape[0] != self.weight.shape[0]:
            raise ShapeMismatchError("bias length must match output dim", left=self.bias.shape, right=self.weight.shape)
        self.factors = []

    @property
    def in_dim(self) -> int:
        return self.weight.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weight.shape[0]

    @classmethod
    def init(cls, in_dim: int, out_dim: int, rng: RngState, pre_rectifier: bool) -> "LinearLayer":
        """Seeded Gaussian initialisation, std sqrt(2/in) before a rectifier
        and sqrt(1/in) otherwise; biases start at zero."""
        std = np.sqrt((2.0 if pre_rectifier else 1.0) / in_dim)
        return cls(rand_normal(rng, out_dim, in_dim, std), np.zeros(out_dim))

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.shape[1] != self.in_dim:
            raise ShapeMismatchError("input dim mismatch", left=x.shape, right=self.weight.shape)
        return x @ self.weight.T + self.bias

    def zero_grad(self):
        self.factors.clear()

    def record(self, upstream: np.ndarray, x: np.ndarray) -> None:
        """Record one term's ``(upstream, x)`` factors. A term whose input is
        an array already recorded (``is``, never a content comparison) adds
        its upstream onto that pair's, in record order, so the array is kept
        once and its rows enter the product once."""
        for k, (u, seen) in enumerate(self.factors):
            if seen is x:
                self.factors[k] = (u + upstream, x)
                return
        self.factors.append((upstream, x))

    def stacked_factors(self):
        """The recorded pairs as one ``(U, X)`` pair, or None if none is
        recorded. Several pairs are stacked once; the result replaces the
        list, so later writes reuse it and the per-term arrays are freed."""
        if len(self.factors) > 1:
            upstreams, inputs = zip(*self.factors)
            self.factors[:] = [(np.concatenate(upstreams), np.concatenate(inputs))]
        return self.factors[0] if self.factors else None

    def parameters(self):
        return [self.weight, self.bias]

    def gradient_writers(self):
        return [GradientWriter(self, bias=False), GradientWriter(self, bias=True)]


class GradientWriter:
    """The gradient of one layer's weight or bias, written on demand from
    the layer's recorded factors, rows ``lo:hi`` at a time.

    Each block is one product of the layer's stacked factors (see
    :meth:`LinearLayer.stacked_factors`): ``U[:, lo:hi].T @ X`` for a weight,
    ``U[:, lo:hi].sum(axis=0)`` for a bias. Each output element takes the
    same float operations as in the whole ``U.T @ X``, so the blocks equal it
    bit for bit. With no pair recorded the gradient is exact zeros.
    """

    def __init__(self, layer: LinearLayer, bias: bool):
        self.layer = layer
        self.bias = bias
        self.shape = layer.bias.shape if bias else layer.weight.shape

    def blocks(self):
        """The ``(lo, hi)`` row bounds ``adam_step`` writes: a weight in
        blocks of about ``GRAD_BLOCK`` elements, a bias in one block."""
        if self.bias:
            return [(0, self.shape[0])]
        return row_blocks(*self.shape, GRAD_BLOCK)

    def write(self, out: np.ndarray, lo: int, hi: int) -> None:
        """Write gradient rows ``lo:hi`` into ``out``, a C-contiguous array
        of shape ``(hi - lo,) + shape[1:]``."""
        pair = self.layer.stacked_factors()
        if pair is None:
            out[...] = 0.0
        elif self.bias:
            np.sum(pair[0][:, lo:hi], axis=0, out=out)
        else:
            np.matmul(pair[0][:, lo:hi].T, pair[1], out=out)

    def array(self) -> np.ndarray:
        """The whole gradient as a fresh array, written block by block as
        ``adam_step`` writes it."""
        g = np.empty(self.shape)
        for lo, hi in self.blocks():
            self.write(g[lo:hi], lo, hi)
        return g


class MlpTwoLayer:
    """Composition ``layer2(relu(layer1(x)))``.

    The two layers may be shared with other compositions; ``backward``
    records its factors on them, so loss terms that reuse an encoder or
    decoder simply add their contributions to the gradient each layer writes.
    """

    def __init__(self, layer1: LinearLayer, layer2: LinearLayer):
        if layer2.in_dim != layer1.out_dim:
            raise ShapeMismatchError("layer dims do not compose", left=layer1.weight.shape, right=layer2.weight.shape)
        self.layer1 = layer1
        self.layer2 = layer2
        self._cache = None

    @property
    def in_dim(self) -> int:
        return self.layer1.in_dim

    @property
    def out_dim(self) -> int:
        return self.layer2.out_dim

    def layers(self) -> tuple:
        return (self.layer1, self.layer2)

    def zero_grad(self) -> None:
        self.layer1.zero_grad()
        self.layer2.zero_grad()

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Batched forward pass; caches pre-activations for ``backward``."""
        x = as_matrix(x)
        pre = self.layer1.forward(x)
        hidden = np.maximum(pre, 0.0)
        out = self.layer2.forward(hidden)
        self._cache = (x, pre, hidden)
        return out

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Forward pass without touching the backward cache."""
        x = as_matrix(x)
        hidden = np.maximum(self.layer1.forward(x), 0.0)
        return self.layer2.forward(hidden)

    def backward(self, upstream: np.ndarray) -> None:
        """Record the parameter-gradient factors of the cached batch.

        ``upstream`` is d(loss)/d(output). Layer 2 records ``(upstream,
        hidden)`` and layer 1 ``(dpre, x)``; their gradients are written from
        these later, by their :class:`GradientWriter`. The recorded arrays
        are ``upstream`` and the forward cache's own, so nothing may write to
        them before the next ``zero_grad``. The rectifier gate uses the
        cached pre-activations, with zero slope at exactly zero. The input
        gradient is not computed: every input here is data, not a trained
        layer.
        """
        if self._cache is None:
            raise IcisError("backward called without a cached forward pass")
        x, pre, hidden = self._cache
        upstream = as_matrix(upstream)
        if upstream.shape != (x.shape[0], self.out_dim):
            raise ShapeMismatchError("upstream gradient shape mismatch", left=upstream.shape, right=(x.shape[0], self.out_dim))
        self.layer2.record(upstream, hidden)
        dhidden = upstream @ self.layer2.weight
        self.layer1.record(dhidden * (pre > 0.0), x)
        self._cache = None


# ---------------------------------------------------------------------------
# optimiser


# Adam walks every parameter in chunks of this many elements: the chunks of
# p, g, m, v and the scratch buffer (5 x 256 KiB) fit in a 2 MiB L2.
ADAM_CHUNK = 32768

# Adam writes each weight gradient in row blocks of about this many elements
# into a 1 MiB scratch block and consumes it at once, while most of it is
# still in a 2 MiB L2.
GRAD_BLOCK = 131072


class AdamState:
    """Adam optimiser state over an ordered list of parameter arrays.

    The moments are kept scaled, as ``m / (1 - beta1)`` and ``v / (1 -
    beta2)``, so each update is a multiply and an add (see
    :func:`adam_step`). They are built on the first step, one array per
    parameter; later steps must pass parameters of the same count and shapes.
    The scratch is one ``ADAM_CHUNK`` buffer and one gradient block of
    ``GRAD_BLOCK`` elements, which grows for a block that needs more (a
    one-row remainder joins the block before it, see :func:`row_blocks`).
    ``beta1`` and ``beta2`` must lie in [0, 1), and ``lr`` and ``eps`` must be
    finite and non-negative; anything else is an :class:`IcisError`.
    """

    def __init__(self, lr: float = 1e-5, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        for name, beta in (("beta1", beta1), ("beta2", beta2)):
            if not 0.0 <= beta < 1.0:
                raise IcisError(f"{name} must lie in [0, 1), got {beta!r}")
        for name, value in (("lr", lr), ("eps", eps)):
            if not (math.isfinite(value) and value >= 0.0):
                raise IcisError(f"{name} must be finite and >= 0, got {value!r}")
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self._m = None
        self._v = None
        self._scratch = np.empty(ADAM_CHUNK)
        self._grad_block = np.empty(GRAD_BLOCK)


def adam_step(state: AdamState, params, grads):
    """One Adam update with bias correction; parameters update in place.

    Each entry of ``grads`` is a :class:`GradientWriter` (or any object with
    its ``shape``, ``blocks`` and ``write``). Its gradient is written one row
    block at a time into the state's gradient block and consumed there, so
    it never exists whole. Each block is swept in chunks of ``ADAM_CHUNK``
    elements through the state's scratch buffer, in ten ufunc passes. With
    the moments scaled as ``m' = m / (1 - beta1)`` and ``v' = v / (1 -
    beta2)``, the updates are ``m' = beta1 m' + g`` and ``v' = beta2 v' +
    g^2``, with ``g`` squared in place in the gradient block, which then
    holds the denominator. Both bias corrections and the moment scales fold
    into two scalars per step, ``c = sqrt((1 - beta2) / (1 - beta2^t))`` and
    ``s = lr (1 - beta1) / (1 - beta1^t) / c``, so the update is
    ``p -= (m' s) / (sqrt(v') + eps / c)``: the textbook
    ``lr m_hat / (sqrt(v_hat) + eps)`` with ``eps`` outside the square root,
    and one divide. Every operation is elementwise in that order, so the
    result is bit-identical to a whole-array update, whatever the block and
    chunk sizes.
    """
    if len(params) != len(grads):
        raise ShapeMismatchError("params/grads count mismatch", left=len(params), right=len(grads))
    for p, g in zip(params, grads):
        if p.shape != g.shape:
            raise ShapeMismatchError("parameter/gradient shape mismatch", left=p.shape, right=g.shape)
        # reshape(-1) of a non-contiguous array is a copy, so an update to it would be lost
        if not p.flags.c_contiguous:
            raise ShapeMismatchError(f"parameter of shape {p.shape} is not C-contiguous (strides {p.strides})")
    if state._m is None:
        state._m = [np.zeros(p.shape) for p in params]
        state._v = [np.zeros(p.shape) for p in params]
    elif [m.shape for m in state._m] != [p.shape for p in params]:
        raise ShapeMismatchError("parameters differ from those the Adam moments were built for",
                                 left=[p.shape for p in params], right=[m.shape for m in state._m])
    state.step_count += 1
    t = state.step_count
    b1, b2 = state.beta1, state.beta2
    c = math.sqrt((1.0 - b2) / (1.0 - b2**t))
    step = state.lr * (1.0 - b1) / (1.0 - b1**t) / c
    eps_c = state.eps / c
    for p, g, m, v in zip(params, grads, state._m, state._v):
        p, m, v = p.reshape(-1), m.reshape(-1), v.reshape(-1)
        for base, gb in _gradient_blocks(state, g):
            pb, mb, vb = (x[base : base + gb.size] for x in (p, m, v))
            for lo in range(0, gb.size, ADAM_CHUNK):
                hi = min(lo + ADAM_CHUNK, gb.size)
                pc, gc, mc, vc = pb[lo:hi], gb[lo:hi], mb[lo:hi], vb[lo:hi]
                update = state._scratch[: hi - lo]
                mc *= b1
                mc += gc
                gc *= gc
                vc *= b2
                vc += gc
                np.sqrt(vc, out=gc)
                gc += eps_c
                np.multiply(mc, step, out=update)
                update /= gc
                pc -= update


def _gradient_blocks(state: AdamState, g):
    """``(offset, flat block)`` pairs that cover the gradient of the writer
    ``g``: its row blocks, written in turn into the state's gradient block,
    each valid until the next is written."""
    width = math.prod(g.shape[1:])
    for lo, hi in g.blocks():
        size = (hi - lo) * width
        if state._grad_block.size < size:
            state._grad_block = np.empty(size)
        block = state._grad_block[:size]
        g.write(block.reshape((hi - lo,) + g.shape[1:]), lo, hi)
        yield lo * width, block
