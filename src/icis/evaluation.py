"""Evaluation: argmax classification, per-class mean accuracy, harmonic
mean, prediction entropy, and the similarity-rank failure histogram.

Accuracies are reported in percent; entropies in nats.
"""

import json
import warnings
from contextvars import ContextVar
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .data import ClassifierHead, DescriptorSet, FeatureSet, _as_stored, _check_unique, rows_of
from .errors import ClassIdError, IcisError, ZeroNormError
from .tensor import as_matrix

# Evaluation holds each staged row block and each logits block to about this
# many bytes, whatever its precision: at d_w 2048 a float32 class block is
# 1024 rows and a float64 one 512 rows. Every class block is re-read per
# feature-row block, so smaller blocks cost time on wide heads. On a
# 20k x 2048 float32 head, 8 MiB float64 blocks cut the peak of an evaluate
# by 22 MiB against 16 MiB ones and, with the rows classify cannot certify
# decided by dot products, it took 5% longer (BENCH_31.json).
EVAL_BLOCK = 8 << 20

# The online entropy folds in a logits block in row strips of about this many
# elements, through two strip buffers of 256 KiB of float64 each, so no
# temporary is the size of the block.
ENTROPY_STRIP = 1 << 15

# While evaluate runs, its head's weights and their row norm bounds, which
# its argmax passes share.
_HEAD_NORMS = ContextVar("head_norms", default=(None, None))


def classify(head: ClassifierHead, features, among=None) -> list:
    """Predicted class id per feature row, among the classes of ``among``
    (default: every head class); an exact tie goes to the lowest class id.

    The classes are scored in ascending id order, in the logits blocks of
    :meth:`ClassifierHead.logit_blocks` at a budget of ``EVAL_BLOCK`` bytes,
    so the first top score met is the lowest id's. None of the head's rows is
    checked again.

    Every row is first scored in float32, which keeps its top score and the
    runner-up. Where their gap exceeds twice :func:`_float32_error`, float32
    rounding cannot have changed the decision of the float64 scores. Each
    other row whose bound is finite is decided among its candidates, the
    classes whose float32 score lies within twice the bound of its top, by
    one float64 dot product per (row, candidate) pair, which scores a class
    the same wherever its row sits; an exact tie goes to the lowest id. A
    row whose bound is infinite or whose float32 top is not finite is decided
    by the same walk in float64, where a row that meets a NaN gets the first
    id of ``among``.
    """
    if among is None:
        ids = head.class_ids
        rows = range(len(ids))
    else:
        ids = [str(c) for c in among]
        rows = rows_of(head.class_ids, ids)  # unknown ids, then duplicates, as head.subset(ids) reports them
        _check_unique(ids, "classifier")
    if not ids:
        raise IcisError("no classes to classify among")
    features = _as_stored(features)  # float32 rows stay as they are; logit_blocks stages a block at a time
    order = np.argsort(ids, kind="stable")  # positions in ids, by code point
    walk = np.asarray(rows)[order]
    with np.errstate(over="ignore", invalid="ignore"):  # rows that overflow float32 are rescored
        winner, best, runner = _argmax_walk(head, features, walk, order, np.float32)
        margin = 2.0 * _float32_error(head, features, walk)
        certified = np.isfinite(best) & (best - runner > margin)
    near = ~certified & np.isfinite(best) & np.isfinite(margin)
    redo = np.flatnonzero(~certified & ~near)
    if redo.size == 1:  # a one-row product would go to GEMV, which rounds differently: walk the row twice
        redo = np.repeat(redo, 2)
    if redo.size:
        winner[redo] = _argmax_walk(head, features[redo], walk, order, np.float64)[0]
    near = np.flatnonzero(near)
    if near.size:
        winner[near] = order[_near_tie_winners(head, features[near], walk, margin[near])]
    return [ids[j] for j in winner]


def _argmax_walk(head: ClassifierHead, features, walk, order, dtype) -> tuple:
    """Per feature row, scoring head rows ``walk`` (in id order; ``order``
    maps them to ``ids``) in ``dtype``: the position of the first top score
    met (of the first NaN met), that score, and the runner-up, the largest
    score left when it is taken out."""
    n = features.shape[0]
    best, runner = np.full(n, -np.inf), np.full(n, -np.inf)
    winner = np.full(n, order[0])  # the lowest id, where every score is -inf
    for lo, clo, scores in head.logit_blocks(features, walk, EVAL_BLOCK, dtype):
        hi = lo + scores.shape[0]
        at = (np.arange(hi - lo), scores.argmax(axis=1))
        top = scores[at]
        scores[at] = -np.inf
        second = scores.max(axis=1)
        del scores  # one logits block is live at a time
        column = order[clo + at[1]]
        lost = np.isnan(top)
        column[lost] = 0
        np.maximum(runner[lo:hi], np.maximum(second, np.minimum(best[lo:hi], top)), out=runner[lo:hi])
        take = lost | (top > best[lo:hi])
        np.copyto(winner[lo:hi], column, where=take)
        np.copyto(best[lo:hi], top, where=take)
    return winner, best, runner


def _near_tie_winners(head: ClassifierHead, features, walk, margin) -> np.ndarray:
    """Per feature row, the position in ``walk`` of the class that wins in
    float64 among the row's candidates: the classes whose float32 score lies
    within ``margin`` of its top float32 score. Each float32 score lies within
    half the margin of the float64 score of its class, so any other class
    scores below the top one in float64 too. One float32 walk of these rows
    takes, per logits block, the classes within the margin of the top met so
    far, which holds every candidate met and only classes that lose in
    float64 besides, and scores each by :func:`_pair_scores`; an exact tie
    goes to the lowest position."""
    n = features.shape[0]
    top, best = np.full(n, -np.inf), np.full(n, -np.inf)
    winner = np.zeros(n, dtype=np.intp)
    for lo, clo, scores in head.logit_blocks(features, walk, EVAL_BLOCK, np.float32):
        hi = lo + scores.shape[0]
        np.maximum(top[lo:hi], scores.max(axis=1), out=top[lo:hi])
        r, c = np.nonzero(scores >= (top[lo:hi] - margin[lo:hi])[:, None])
        del scores  # one logits block is live at a time
        r, c = r + lo, c + clo
        wide = _pair_scores(head, features, r, walk[c])
        pick = np.lexsort((c, -wide, r))  # per row: the top float64 score, then the lowest position
        first = np.ones(pick.size, dtype=bool)
        first[1:] = r[pick[1:]] != r[pick[:-1]]
        r, c, wide = r[pick[first]], c[pick[first]], wide[pick[first]]
        take = wide > best[r]  # a later block's class wins only by a higher score
        winner[r[take]], best[r[take]] = c[take], wide[take]
    return winner


def _pair_scores(head: ClassifierHead, features, rows, classes) -> np.ndarray:
    """The float64 score of feature row ``rows[i]`` against head row
    ``classes[i]``, bias added, per pair: one dot product each, in gathered
    pair blocks of about ``EVAL_BLOCK`` bytes. A pair's score does not depend
    on where its rows sit, unlike a GEMM's, whose float64 score of a class
    can change with the class's column in its block."""
    scores = np.empty(rows.size)
    step = max(1, EVAL_BLOCK // (16 * head.weight_dim))  # two float64 rows a pair
    for lo in range(0, rows.size, step):
        x = np.asarray(features[rows[lo:lo + step]], dtype=np.float64)
        w = np.asarray(head.weights[classes[lo:lo + step]], dtype=np.float64)
        scores[lo:lo + step] = np.matmul(x[:, None, :], w[:, :, None])[:, 0, 0]  # a vector-vector matmul takes BLAS's dot
    if head.biases is not None:
        scores += head.biases[classes]
    return scores


def _float32_error(head: ClassifierHead, features, rows) -> np.ndarray:
    """Per feature row, a bound on how far each float32 score against head
    rows ``rows`` lies from the float64 score of the same class, or ``inf``
    where float32 could overflow.
    A dot product of length ``K`` summed in any order with unit roundoff
    ``u`` is off by at most ``gamma_K * |x| * |w|``, ``gamma_n = n u / (1 - n u)``
    (Higham, *Accuracy and Stability of Numerical Algorithms*, 3.1): in
    float32 ``gamma_{K+2}``, the 2 for rounding float64 operands to float32,
    and in float64 ``gamma_K``, taken twice to cover the rounding of the norms
    and of this bound. A float32 bias add rounds once more, and every
    underflow adds at most the smallest float32 subnormal."""
    k, top = head.weight_dim, float(np.finfo(np.float32).max)
    weights, w_norms = _HEAD_NORMS.get()
    if weights is not head.weights:
        w_norms = _norm_bounds(head.weights)
    w_norm = float(w_norms[rows].max())
    x_norms = _norm_bounds(features)
    b_max = 0.0 if head.biases is None else float(np.abs(head.biases).max())
    p = x_norms * w_norm
    bound = ((_gamma(k + 2, 2.0**-24) + 2.0 * _gamma(k + 4, 2.0**-53)) * p + 2.0**-23 * (p + b_max)
             + 2.0**-149 * (np.sqrt(k) * (x_norms + w_norm) + 2 * k + 2))
    return np.where((p + b_max < top / 4) & (x_norms < top) & (w_norm < top), bound, np.inf)


def _gamma(n: int, u: float) -> float:
    return n * u / (1.0 - n * u) if n * u < 0.25 else np.inf


def _norm_bounds(m: np.ndarray) -> np.ndarray:
    """An upper bound on each row's norm, with no temporary the size of
    ``m``: the squares sum in ``m``'s own type, off by at most
    ``gamma_{K+1}`` relative plus one smallest subnormal each."""
    k, t = m.shape[1], np.finfo(m.dtype)
    squares = np.einsum("ij,ij->i", m, m).astype(np.float64) + k * float(t.smallest_subnormal)
    return np.sqrt(squares * (1.0 + 2.0 * _gamma(k + 1, float(t.epsneg))))


def _paired(labels, predictions) -> tuple:
    """Labels and predictions as strings, refused unless one per sample."""
    labels, predictions = [str(l) for l in labels], [str(p) for p in predictions]
    if len(labels) != len(predictions):
        raise IcisError(f"{len(labels)} labels but {len(predictions)} predictions")
    return labels, predictions


def per_class_mean_accuracy(labels, predictions, class_ids) -> tuple:
    """Mean over classes of the per-class accuracy, in percent.

    Returns ``(mean_pct, per_class_pct)``. Classes from ``class_ids`` with
    no labelled samples are excluded from the mean, with a warning.
    """
    labels, predictions = _paired(labels, predictions)
    class_ids = [str(c) for c in class_ids]
    known = set(class_ids)
    stray = sorted({l for l in labels if l not in known})
    if stray:
        raise ClassIdError(f"labels outside the evaluated class list: {stray[:5]}")

    hits = {c: 0 for c in class_ids}
    counts = {c: 0 for c in class_ids}
    for l, p in zip(labels, predictions):
        counts[l] += 1
        if p == l:
            hits[l] += 1
    empty = [c for c in class_ids if counts[c] == 0]
    if empty:
        warnings.warn(
            f"classes without samples excluded from per-class mean: {empty[:5]}", stacklevel=2
        )
    populated = [c for c in class_ids if counts[c] > 0]
    if not populated:
        raise IcisError("no evaluated class has any samples")
    per_class = {c: 100.0 * hits[c] / counts[c] for c in populated}
    mean = float(np.mean([per_class[c] for c in populated]))
    return mean, per_class


def micro_accuracy(labels, predictions) -> float:
    """Plain fraction of correct predictions, in percent."""
    labels, predictions = _paired(labels, predictions)
    if not labels:
        raise IcisError("no samples to score")
    return 100.0 * sum(l == p for l, p in zip(labels, predictions)) / len(labels)


def harmonic_mean(unseen_acc: float, seen_acc: float) -> float:
    """Harmonic mean of the two accuracies; zero when both are zero."""
    if unseen_acc < 0.0 or seen_acc < 0.0:
        raise IcisError("accuracies must be non-negative")
    if unseen_acc + seen_acc == 0.0:
        return 0.0
    return 2.0 * unseen_acc * seen_acc / (unseen_acc + seen_acc)


def softmax_rows(logits) -> np.ndarray:
    s = as_matrix(logits).copy()
    s -= s.max(axis=1, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=1, keepdims=True)
    return s


def mean_prediction_entropy(logits) -> float:
    """Mean Shannon entropy (nats) of the row-wise softmax of the logits.

    Entropy uses the convention ``0 * log 0 = 0``; a uniform row scores
    ``ln K`` and a one-hot row scores zero.
    """
    return float(_entropies(logits).mean())


def _entropies(logits) -> np.ndarray:
    """Shannon entropy (nats) of the softmax of each row of the logits. A
    ``p`` that underflows to 0 adds nothing, and so does a NaN ``p`` (a row
    with no finite maximum), which scores 0."""
    p = softmax_rows(logits)
    with np.errstate(divide="ignore", invalid="ignore"):
        return -np.where(p > 0.0, p * np.log(p), 0.0).sum(axis=1)


_LOWEST = float(np.finfo(np.float64).min)


class _OnlineEntropy:
    """Softmax entropies (nats) of logits rows, folded in over column blocks
    of them: an online softmax (Milakov & Gimelshein, arXiv 1805.02867) with
    a second running sum. Per row it keeps the running maximum ``m``,
    ``Z = sum exp(s - m)`` and ``T = sum exp(s - m) * (s - m)``; when ``m``
    grows by ``d``, ``T`` becomes ``exp(-d) * (T - d * Z)`` and ``Z`` becomes
    ``exp(-d) * Z``. The entropy is ``log Z - T / Z``, so no per-element log
    or divide is taken. The conventions are those of :func:`_entropies`: a
    term whose exponential underflows to 0 adds nothing, and a row with a NaN
    or with no finite maximum scores 0."""

    def __init__(self, rows: int):
        self.m = np.full(rows, -np.inf)
        self.z = np.zeros(rows)
        self.t = np.zeros(rows)

    def add(self, lo: int, scores: np.ndarray) -> None:
        """Fold in ``scores``, some columns of rows ``lo`` onwards, in row
        strips of about ``ENTROPY_STRIP`` elements."""
        rows, width = scores.shape
        m, z, t = (a[lo : lo + rows] for a in (self.m, self.z, self.t))
        with np.errstate(invalid="ignore"):  # rows with a NaN or an infinite maximum score 0 in the end
            top = np.maximum(m, scores.max(axis=1))
            d = np.where(z > 0.0, top - m, 0.0)  # a row with no term yet has nothing to rescale
            scale = np.exp(-d)
            t -= d * z
            t *= scale
            z *= scale
            m[...] = top
            shift = np.where(np.isfinite(top), top, 0.0)
            step = max(1, ENTROPY_STRIP // max(width, 1))
            x = np.empty((min(step, rows), width))
            e = np.empty_like(x)
            for a in range(0, rows, step):
                b = min(a + step, rows)
                xs, es = x[: b - a], e[: b - a]
                np.subtract(scores[a:b], shift[a:b, None], out=xs)
                np.exp(xs, out=es)
                np.maximum(xs, _LOWEST, out=xs)  # a -inf logit's term is 0 * lowest, not 0 * -inf
                z[a:b] += es.sum(axis=1)
                t[a:b] += np.einsum("ij,ij->i", es, xs)

    def entropies(self) -> np.ndarray:
        live = np.isfinite(self.m)
        h = np.zeros(self.m.shape)
        h[live] = np.log(self.z[live]) - self.t[live] / self.z[live]
        return h


def _head_entropy(head: ClassifierHead, features) -> float:
    """``mean_prediction_entropy(head.logits(features))`` in one read of the
    head: the logits blocks of :meth:`ClassifierHead.logit_blocks`, in head
    row order at a budget of ``EVAL_BLOCK`` bytes, folded into an
    :class:`_OnlineEntropy`."""
    features = _as_stored(features)
    entropy = _OnlineEntropy(features.shape[0])
    for lo, _, logits in head.logit_blocks(features, range(head.n_classes), EVAL_BLOCK):
        entropy.add(lo, logits)
        del logits  # one logits block is live at a time
    return float(entropy.entropies().mean())


def similarity_ranks(descriptors: DescriptorSet, anchor_id) -> dict:
    """Rank of every class by descending cosine similarity to the anchor.

    The anchor itself has rank 0; ties are broken by class id so the
    ranking is deterministic.
    """
    a = descriptors.matrix
    norms = np.linalg.norm(a, axis=1)
    if np.any(norms == 0.0):
        raise ZeroNormError("descriptor set has zero-norm rows; cosine ranks undefined")
    anchor = descriptors.vector(anchor_id)
    sims = (a @ anchor) / (norms * np.linalg.norm(anchor))
    order = sorted(
        range(len(descriptors.class_ids)),
        key=lambda j: (-sims[j], descriptors.class_ids[j]),
    )
    ranks = {}
    anchor_id = str(anchor_id)
    others = [j for j in order if descriptors.class_ids[j] != anchor_id]
    ranks[anchor_id] = 0
    for r, j in enumerate(others, start=1):
        ranks[descriptors.class_ids[j]] = r
    return ranks


@dataclass
class FailureHistogram:
    """Where one class's predictions land on the similarity ranking."""

    target_class: str
    bin_size: int
    n_samples: int
    bin_probabilities: list
    # (class_id, similarity rank, prediction count, seen flag), by rank
    predicted_classes: list
    mean_entropy: float | None = None

    def to_text(self) -> str:
        lines = [
            f"target_class = {self.target_class}",
            f"n_samples = {self.n_samples}",
            f"bin_size = {self.bin_size}",
        ]
        if self.mean_entropy is not None:
            lines.append(f"mean_entropy = {self.mean_entropy:.4f}")
        for b, p in enumerate(self.bin_probabilities):
            lines.append(f"bin {b * self.bin_size}+ probability {p:.4f}")
        for class_id, rank, count, seen in self.predicted_classes:
            tag = "seen" if seen else "unseen"
            lines.append(f"rank {rank} {class_id} ({tag}): {count}")
        return "".join(f"{l}\n" for l in lines)

    def to_json(self) -> str:
        return json.dumps(
            {
                "target_class": self.target_class,
                "bin_size": self.bin_size,
                "n_samples": self.n_samples,
                "mean_entropy": self.mean_entropy,
                "bin_probabilities": self.bin_probabilities,
                "predicted_classes": [
                    {"class_id": c, "rank": r, "count": n, "seen": bool(s)}
                    for c, r, n, s in self.predicted_classes
                ],
            },
            indent=2,
        )


def failure_histogram(
    head: ClassifierHead,
    features: FeatureSet,
    descriptors: DescriptorSet,
    target_class,
    bin_size: int = 10,
) -> FailureHistogram:
    """Classify the target class's samples with the full head and report
    where the predictions fall on the similarity ranking around it.

    Each prediction is mapped to its rank in the cosine-similarity ordering
    around the target (the class itself is rank 0) and ranks are binned in
    groups of ``bin_size``; the bin probabilities sum to 1. Includes the
    mean prediction entropy of those samples and per-class prediction
    counts tagged seen/unseen from the head's flags.
    """
    if bin_size < 1:
        raise IcisError("bin_size must be >= 1")
    target = str(target_class)
    class_feats = features.restrict_to([target])
    if class_feats.n_samples == 0:
        raise IcisError(f"no samples labelled {target!r} in the feature set")
    predictions = classify(head, class_feats.features)
    ranks = similarity_ranks(descriptors, target)
    unknown = sorted({p for p in predictions if p not in ranks})
    if unknown:
        raise ClassIdError(f"predicted classes without descriptors: {unknown[:5]}")
    bins = [0] * -(-len(ranks) // bin_size)
    counts = {}
    for p in predictions:
        bins[ranks[p] // bin_size] += 1
        counts[p] = counts.get(p, 0) + 1
    probs = [b / len(predictions) for b in bins]
    seen_by_id = dict(zip(head.class_ids, (bool(s) for s in head.seen)))
    rows = sorted(
        ((c, ranks[c], n, seen_by_id.get(c, False)) for c, n in counts.items()),
        key=lambda row: row[1],
    )
    return FailureHistogram(
        target_class=target,
        bin_size=bin_size,
        n_samples=class_feats.n_samples,
        bin_probabilities=probs,
        predicted_classes=rows,
        mean_entropy=_head_entropy(head, class_feats.features),
    )


@dataclass
class EvalReport:
    """Aggregated metrics of one evaluation run."""

    zsl_accuracy: float | None = None
    gzsl_unseen: float | None = None
    gzsl_seen: float | None = None
    harmonic: float | None = None
    zsl_micro: float | None = None
    entropy_unseen: float | None = None
    entropy_seen: float | None = None
    n_unseen_samples: int = 0
    n_seen_samples: int = 0
    per_class: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    def to_text(self) -> str:
        """One ``name = value`` line per set scalar field, in declaration
        order, then the ``extra`` entries by key."""
        lines = []
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name in ("per_class", "extra") or value is None:
                continue
            if isinstance(value, float):
                lines.append(f"{f.name} = {value:.4f}")
            else:
                lines.append(f"{f.name} = {value}")
        for key in sorted(self.extra):
            lines.append(f"{key} = {self.extra[key]}")
        return "".join(f"{l}\n" for l in lines)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


def evaluate(
    head: ClassifierHead,
    unseen_features: FeatureSet,
    seen_features: FeatureSet | None = None,
    unseen_ids=None,
) -> EvalReport:
    """Score a head on unseen-class samples, optionally also on seen ones.

    Restricted-head accuracy (decision limited to unseen classes) is always
    computed; with seen samples present the full-head seen/unseen pair and
    their harmonic mean fill in the generalised setting.
    """
    if unseen_ids is None:
        unseen_ids = [c for c, s in zip(head.class_ids, head.seen) if not s]
    unseen_ids = [str(c) for c in unseen_ids]
    if not unseen_ids:
        raise IcisError("no unseen classes to evaluate; pass unseen_ids or flag head rows")
    unseen_features.check_labels_known(unseen_ids)

    token = _HEAD_NORMS.set((head.weights, _norm_bounds(head.weights)))
    try:
        return _evaluate(head, unseen_features, seen_features, unseen_ids)
    finally:
        _HEAD_NORMS.reset(token)


def _evaluate(head: ClassifierHead, unseen_features: FeatureSet, seen_features, unseen_ids) -> EvalReport:
    report = EvalReport(n_unseen_samples=unseen_features.n_samples)

    zsl_pred = classify(head, unseen_features.features, among=unseen_ids)
    report.zsl_accuracy, per_class = per_class_mean_accuracy(
        unseen_features.labels, zsl_pred, unseen_ids
    )
    report.zsl_micro = micro_accuracy(unseen_features.labels, zsl_pred)
    report.per_class["zsl"] = per_class

    full_unseen_pred = classify(head, unseen_features.features)
    report.gzsl_unseen, per_class = per_class_mean_accuracy(
        unseen_features.labels, full_unseen_pred, unseen_ids
    )
    report.per_class["gzsl_unseen"] = per_class
    report.entropy_unseen = _head_entropy(head, unseen_features.features)

    unseen = set(unseen_ids)
    seen_ids = [c for c in head.class_ids if c not in unseen]
    if seen_features is not None and seen_features.n_samples and seen_ids:
        seen_features.check_labels_known(seen_ids)
        seen_pred = classify(head, seen_features.features)
        report.gzsl_seen, per_class = per_class_mean_accuracy(
            seen_features.labels, seen_pred, seen_ids
        )
        report.per_class["gzsl_seen"] = per_class
        report.harmonic = harmonic_mean(report.gzsl_unseen, report.gzsl_seen)
        report.entropy_seen = _head_entropy(head, seen_features.features)
        report.n_seen_samples = seen_features.n_samples

    return report
