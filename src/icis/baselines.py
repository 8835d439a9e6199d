"""Adapted baselines that build unseen-class weights (or predictions)
from seen-class material only.

All weight-producing baselines return a matrix with one row per requested
unseen class, aligned with the given descriptor order; injection of those
rows is the caller's job. Biases are not modelled here.
"""

import numpy as np

from . import evaluation
from .data import ClassifierHead, DescriptorSet, PairSet
from .errors import IcisError, ZeroNormError
from .evaluation import classify, softmax_rows
from .model import IcisModel, LossConfig, LossTrace, TrainConfig, check_hidden_dim, fit, stopping_threshold
from .nn import LinearLayer, MlpTwoLayer, batch_loss
from .tensor import RngState, as_matrix, row_normalize


def _cosine_sim_matrix(left: DescriptorSet, right: DescriptorSet) -> np.ndarray:
    return row_normalize(left.matrix, left.class_ids) @ row_normalize(right.matrix, right.class_ids).T


# ---------------------------------------------------------------------------
# convex combination of semantic vectors driven by seen-class scores

def conse_combine(head: ClassifierHead, seen_descriptors: DescriptorSet, features, top_t: int = 10) -> np.ndarray:
    """Per sample, a convex combination of seen-class descriptors weighted
    by the renormalised top ``top_t`` softmax scores of the seen head, for
    an array of feature rows or :class:`FeatureRows`. The softmax's sum
    cancels, so each row folds one float64 :meth:`ClassifierHead.logit_blocks`
    walk, in ascending id order, into its ``top_t`` largest scores ``s``, each
    weighed ``exp(s - max)`` over their sum; an exact tie at the last goes to
    the lowest id. No class, or a zero combination, is refused."""
    n, t = len(features), min(top_t, head.n_classes)
    if t < 1:
        raise IcisError("top_t must be >= 1" if top_t < 1 else "no seen classes to combine")
    walk = np.argsort(head.class_ids, kind="stable")
    a_walk = seen_descriptors.subset([head.class_ids[i] for i in walk]).matrix
    kept, at = np.full((n, t), -np.inf), np.zeros((n, t), dtype=np.intp)  # scores, walk positions
    combined = np.empty((n, a_walk.shape[1]))  # allocated after the walk, it raised paper_table's peak RSS 2.3 MiB
    for lo, clo, block in head.logit_blocks(features, walk, evaluation.EVAL_BLOCK):
        block[np.isnan(block)] = np.inf  # kept as the top score, it makes the row's weights NaN
        rows = slice(lo, lo + block.shape[0])
        s = np.hstack([kept[rows], block])  # the kept classes come first in the walk
        c = np.hstack([at[rows], np.broadcast_to(np.arange(clo, clo + block.shape[1]), block.shape)])
        v = np.partition(s, -t, axis=1)[:, -t, None]  # the t-th largest score
        keep = s >= v
        if np.any(keep.sum(axis=1) != t):  # exact ties with it: keep the first of those in walk order
            tied = s == v
            keep = (s > v) | tied & (np.cumsum(tied, axis=1) <= t - (s > v).sum(axis=1, keepdims=True))
        kept[rows], at[rows] = s[keep].reshape(-1, t), c[keep].reshape(-1, t)
    weights = np.exp(kept - kept.max(axis=1, keepdims=True))
    weights /= weights.sum(axis=1, keepdims=True)
    strip = max(1, (1 << 17) // max(1, t * a_walk.shape[1]))  # rows whose kept descriptors take 1 MiB
    for lo in range(0, n, strip):  # summed in id order, each strip's gather in cache
        combined[lo:lo + strip] = np.einsum("rk,rkd->rd", weights[lo:lo + strip], a_walk[at[lo:lo + strip]])
    if np.any(np.einsum("ij,ij->i", combined, combined) == 0.0):  # zero where the norm is, with no temporary
        raise ZeroNormError("combined semantic vector collapsed to zero")
    return combined


def conse_classify(targets: ClassifierHead, combined, among=None) -> list:
    """Nearest class (by cosine) to each combined semantic vector, among the
    classes of ``among`` (default: all). ``targets`` holds unit descriptor
    rows, so its logits of the unit combined vectors are the cosines, and
    :func:`classify` decides: ties go to the lowest class id."""
    norms = np.linalg.norm(combined, axis=1, keepdims=True)
    if np.any(norms == 0.0):
        raise ZeroNormError("combined semantic vector collapsed to zero")
    return classify(targets, combined / norms, among)


# ---------------------------------------------------------------------------
# similarity-weighted averages of seen weight rows

def costa_weights(
    unseen_descriptors: DescriptorSet,
    seen_descriptors: DescriptorSet,
    head: ClassifierHead,
) -> np.ndarray:
    """Unseen rows as combinations of seen rows, weighted by non-negative
    descriptor cosine similarity normalised to sum one.

    An unseen class with no positive similarity to any seen class has no
    usable weighting, so it is reported as an error.
    """
    sims = _cosine_sim_matrix(unseen_descriptors, seen_descriptors.subset(head.class_ids))
    sims = np.maximum(sims, 0.0)
    dead = np.flatnonzero(sims.sum(axis=1) == 0.0)
    if dead.size:
        names = [unseen_descriptors.class_ids[i] for i in dead]
        raise IcisError(f"no positive descriptor similarity to any seen class for {names[:5]}")
    alpha = sims / sims.sum(axis=1, keepdims=True)
    return alpha @ head.weights


def vgse_wavg_weights(
    unseen_descriptors: DescriptorSet,
    seen_descriptors: DescriptorSet,
    head: ClassifierHead,
    temperature: float = 0.1,
) -> np.ndarray:
    """Softmax-weighted average of seen rows; lower temperature sharpens
    the weighting toward the most similar seen classes."""
    if not (np.isfinite(temperature) and temperature > 0.0):
        raise IcisError(f"temperature must be finite and > 0, got {temperature!r}")
    sims = _cosine_sim_matrix(unseen_descriptors, seen_descriptors.subset(head.class_ids))
    alpha = softmax_rows(sims / temperature)
    return alpha @ head.weights


def smo_coefficients(anchors: np.ndarray, seen_matrix: np.ndarray, gamma: float = 1e-3) -> np.ndarray:
    """Ridge-regularised least-squares reconstruction coefficients of each
    anchor descriptor (one per row) from the seen descriptors, constrained
    to sum to one; one coefficient row per anchor.

    Solves ``min |anchor - beta^T A|^2 + gamma |beta|^2  s.t.  sum beta = 1``
    through the stationarity system: with ``G = A A^T + gamma I`` and
    ``c = A anchor``, the multiplier is
    ``lam = (1^T G^-1 c - 1) / (1^T G^-1 1)`` and ``beta = G^-1 (c - lam 1)``.
    ``G`` is the same for every anchor, so one solve serves them all.
    """
    if not (np.isfinite(gamma) and gamma >= 0.0):
        raise IcisError(f"gamma must be finite and >= 0, got {gamma!r}")
    a = as_matrix(seen_matrix)
    anchors = as_matrix(anchors)
    if anchors.shape[1] != a.shape[1]:
        raise IcisError(f"anchor dim {anchors.shape[1]} does not match descriptors {a.shape[1]}")
    g = a @ a.T + gamma * np.eye(a.shape[0])
    ones = np.ones(a.shape[0])
    try:
        solved = np.linalg.solve(g, np.column_stack([a @ anchors.T, ones]))
    except np.linalg.LinAlgError as exc:
        raise IcisError(f"similarity system is singular; use gamma > 0 ({exc})") from exc
    x_c, x_1 = solved[:, :-1], solved[:, -1]
    lam = (ones @ x_c - 1.0) / (ones @ x_1)
    return x_c.T - lam[:, None] * x_1


def vgse_smo_weights(
    unseen_descriptors: DescriptorSet,
    seen_descriptors: DescriptorSet,
    head: ClassifierHead,
    gamma: float = 1e-3,
) -> np.ndarray:
    """Unseen rows from sum-one ridge reconstruction coefficients of each
    unseen descriptor in the span of seen descriptors."""
    a_seen = seen_descriptors.subset(head.class_ids).matrix
    return smo_coefficients(unseen_descriptors.matrix, a_seen, gamma) @ head.weights


# ---------------------------------------------------------------------------
# subspace-regularised regression

def span_basis(seen_weights: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the row span of the seen weight matrix, one
    basis vector per row."""
    w = as_matrix(seen_weights)
    # right singular vectors; rank cut at numpy's default tolerance
    _, s, vt = np.linalg.svd(w, full_matrices=False)
    tol = max(w.shape) * np.finfo(np.float64).eps * (s[0] if s.size else 0.0)
    basis = vt[s > tol]
    if basis.shape[0] == 0:
        raise IcisError("seen weight matrix has rank 0; span projection undefined")
    return basis


def subspace_reg_loss(pred: np.ndarray, basis: np.ndarray):
    """Mean over rows of the squared distance to the span of the rows of
    ``basis`` (orthonormal, see :func:`span_basis`), with its gradient; rows
    already in the span contribute zero. The residual is ``x - (x B^T) B``,
    so no ``d_w`` x ``d_w`` projector is built."""
    pred = as_matrix(pred)
    if basis.shape[1] != pred.shape[1]:
        raise IcisError("basis dim does not match prediction dim")
    residual = pred - (pred @ basis.T) @ basis
    n = pred.shape[0]
    loss = float(np.sum(residual * residual) / n)
    return loss, 2.0 * residual / n


def train_subreg(
    model: IcisModel,
    pairs: PairSet,
    unseen_descriptors,
    lam: float = 1.0,
    distance: str = "l2",
    train_config: TrainConfig | None = None,
) -> LossTrace:
    """Regression-only training with a span penalty on unseen predictions.

    Per batch: regression loss on seen pairs plus ``lam`` times the squared
    residual of predicted unseen rows to the span of the seen weight rows.
    """
    if not (np.isfinite(lam) and lam >= 0.0):
        raise IcisError(f"lam must be finite and >= 0, got {lam!r}")
    cfg = train_config if train_config is not None else TrainConfig()
    loss_fn = batch_loss(distance)
    a_seen = as_matrix(pairs.descriptors)
    w_seen = as_matrix(pairs.weights)
    a_unseen = as_matrix(unseen_descriptors)
    if a_seen.shape[1] != model.d_a or w_seen.shape[1] != model.d_w or a_unseen.shape[1] != model.d_a:
        raise IcisError("pair or descriptor dims do not match model")
    check_hidden_dim(model, cfg)
    basis = span_basis(w_seen)

    def step(rows, extra_rows):
        loss, grad = loss_fn(model.a_to_w.forward(a_seen[rows]), w_seen[rows])
        model.a_to_w.backward(grad)
        if extra_rows.size:
            pen, pen_grad = subspace_reg_loss(model.a_to_w.forward(a_unseen[extra_rows]), basis)
            model.a_to_w.backward(lam * pen_grad)
            loss += lam * pen
        return {"reg": (loss, rows.size)}

    # only the regression path trains, so Adam and zero_grad sweep its two layers alone
    return fit(model.a_to_w, a_seen.shape[0], step, cfg, RngState(cfg.seed).spawn("subreg-shuffle"),
               stopping_threshold(LossConfig(distance=distance), cfg), n_extra=a_unseen.shape[0])


# ---------------------------------------------------------------------------
# denoising refinement of predicted rows

DAE_NOISE_SCALE = 0.1
DAE_LR = 1e-3
DAE_BATCH_SIZE = 16


def dae_refine(
    seen_weights: np.ndarray,
    predicted_weights: np.ndarray,
    seed: int = 0,
    epochs: int = 200,
) -> np.ndarray:
    """Pass predicted rows through a denoising autoencoder fit to seen rows.

    The autoencoder is a rectified two-layer net as wide as the rows,
    seeded from the ``"dae-init"`` stream of ``seed`` and trained with
    squared error, at ``DAE_LR`` in batches of ``DAE_BATCH_SIZE``, to
    reproduce seen weight rows from inputs corrupted by Gaussian noise
    scaled per dimension (``DAE_NOISE_SCALE`` times each coordinate's
    standard deviation across seen rows); ``DAE_LR = 0`` leaves the initial
    net untouched.
    """
    w = as_matrix(seen_weights)
    pred = as_matrix(predicted_weights)
    if w.shape[0] < 2:
        raise IcisError("denoising refinement needs at least 2 seen weight rows")
    if pred.shape[1] != w.shape[1]:
        raise IcisError("predicted rows and seen rows must share one dim")
    if epochs < 1:
        raise IcisError("epochs must be >= 1")
    d = w.shape[1]
    root = RngState(seed)
    init_rng = root.spawn("dae-init")
    noise_rng = root.spawn("dae-noise")
    shuffle_rng = root.spawn("dae-shuffle")
    net = MlpTwoLayer(
        LinearLayer.init(d, d, init_rng, pre_rectifier=True),
        LinearLayer.init(d, d, init_rng, pre_rectifier=False),
    )
    loss_fn = batch_loss("l2")
    per_dim_std = w.std(axis=0)

    def step(rows, _extra_rows):
        target = w[rows]
        noise = noise_rng.standard_normal((rows.shape[0], d)) * (DAE_NOISE_SCALE * per_dim_std)
        loss, grad = loss_fn(net.forward(target + noise), target)
        net.backward(grad)
        return {"reg": (loss, rows.size)}

    # stop_window = epochs: the stop rule needs two windows, so every epoch runs
    cfg = TrainConfig(lr=DAE_LR, batch_size=DAE_BATCH_SIZE, hidden_dim=d, max_epochs=epochs, stop_window=epochs)
    fit(net, w.shape[0], step, cfg, shuffle_rng, cfg.stop_threshold)
    return net.predict(pred)
