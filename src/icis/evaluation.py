"""Evaluation: argmax classification, per-class mean accuracy, harmonic
mean, prediction entropy, and the similarity-rank failure histogram.

Accuracies are reported in percent; entropies in nats.
"""

import json
import warnings
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .data import ClassifierHead, DescriptorSet, FeatureSet, _check_unique, rows_of
from .errors import ClassIdError, IcisError
from .nn import EVAL_BLOCK, row_blocks
from .tensor import as_matrix


def _id_ranks(class_ids) -> np.ndarray:
    """Rank of each class id (by column) under ascending id sort."""
    return np.argsort(np.argsort(class_ids, kind="stable"), kind="stable")


def _lowest_rank_argmax(scores: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """Column of each row's top score; ties go to the column of lowest rank.
    A row with no maximum (it holds a NaN) gets column 0.

    The only block-sized temporary is the boolean mask of top scores: a row
    with one hit takes it, and ranks are looked at only on tied rows."""
    hits = scores == scores.max(axis=1, keepdims=True)
    columns = hits.argmax(axis=1)
    tied = np.flatnonzero(np.count_nonzero(hits, axis=1) > 1)
    if tied.size:
        columns[tied] = np.where(hits[tied], ranks, np.iinfo(np.int64).max).argmin(axis=1)
    return columns


def classify(head: ClassifierHead, features, among=None) -> list:
    """Predicted class id per feature row, among the classes of ``among``
    (default: every head class); an exact tie goes to the lowest class id.

    The classes are gathered in blocks of about ``EVAL_BLOCK`` weights, from
    head rows found once per call, each scored over feature-row blocks of
    about ``EVAL_BLOCK`` logits, so neither the head nor samples x classes is
    held at once. A row that meets a NaN gets the first id of ``among``.
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
    features = as_matrix(features)
    ranks = _id_ranks(ids)
    best = np.full(features.shape[0], -np.inf)
    winner = np.zeros(features.shape[0], dtype=np.intp)
    top = np.empty_like(best)
    column = np.empty_like(winner)
    for clo, chi in row_blocks(len(ids), head.weight_dim, EVAL_BLOCK):
        sel = rows[clo:chi]
        block = ClassifierHead(ids[clo:chi], head.weights[sel],
                               None if head.biases is None else head.biases[sel], head.seen[sel])
        for lo, hi in row_blocks(features.shape[0], chi - clo, EVAL_BLOCK):
            scores = block.logits(features[lo:hi])
            top[lo:hi] = scores.max(axis=1)
            column[lo:hi] = clo + _lowest_rank_argmax(scores, ranks[clo:chi])
            del scores  # one logits block is live at a time
        del block  # freed before the next class block is gathered
        lost = np.isnan(top)
        column[lost] = 0
        take = lost | (top > best) | ((top == best) & (ranks[column] < ranks[winner]))
        np.copyto(winner, column, where=take)
        np.copyto(best, top, where=take)
    return [ids[j] for j in winner]


def per_class_mean_accuracy(labels, predictions, class_ids) -> tuple:
    """Mean over classes of the per-class accuracy, in percent.

    Returns ``(mean_pct, per_class_pct)``. Classes from ``class_ids`` with
    no labelled samples are excluded from the mean, with a warning.
    """
    labels = [str(l) for l in labels]
    predictions = [str(p) for p in predictions]
    if len(labels) != len(predictions):
        raise IcisError(f"{len(labels)} labels but {len(predictions)} predictions")
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
    labels = [str(l) for l in labels]
    predictions = [str(p) for p in predictions]
    if len(labels) != len(predictions):
        raise IcisError(f"{len(labels)} labels but {len(predictions)} predictions")
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
    return _softmax_in_place(as_matrix(logits).copy())


def _softmax_in_place(s: np.ndarray) -> np.ndarray:
    """Row-wise softmax written over ``s``, which the caller owns."""
    s -= s.max(axis=1, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=1, keepdims=True)
    return s


def mean_prediction_entropy(logits) -> float:
    """Mean Shannon entropy (nats) of the row-wise softmax of the logits.

    Entropy uses the convention ``0 * log 0 = 0``; a uniform row scores
    ``ln K`` and a one-hot row scores zero.
    """
    return float(_entropies_in_place(as_matrix(logits).copy()).mean())


def _entropies_in_place(s: np.ndarray) -> np.ndarray:
    """Shannon entropy (nats) of the softmax of each row of ``s``,
    overwriting ``s``, which the caller owns.

    The float operations are those of ``softmax_rows`` and of
    ``where(p > 0, p * log(p), 0)``, so the result is bit-identical; the
    only block-sized temporaries are the terms and the ``p > 0`` mask."""
    p = _softmax_in_place(s)
    terms = np.zeros_like(p)
    np.log(p, out=terms, where=p > 0.0)
    terms *= p
    return -terms.sum(axis=1)


def _head_entropy(head: ClassifierHead, features) -> float:
    """``mean_prediction_entropy(head.logits(features))``, scored in blocks
    of about ``EVAL_BLOCK`` logits and averaged once, as there. With OpenBLAS
    the blocks equal one whole product on the heads of 1000 to 20000 classes
    measured; a narrow head can differ from it in the last bit on a few rows."""
    features = as_matrix(features)
    return float(np.concatenate([
        _entropies_in_place(head.logits(features[lo:hi]))
        for lo, hi in row_blocks(features.shape[0], head.n_classes, EVAL_BLOCK)
    ]).mean())


def similarity_ranks(descriptors: DescriptorSet, anchor_id) -> dict:
    """Rank of every class by descending cosine similarity to the anchor.

    The anchor itself has rank 0; ties are broken by class id so the
    ranking is deterministic.
    """
    a = descriptors.matrix
    norms = np.linalg.norm(a, axis=1)
    if np.any(norms == 0.0):
        raise IcisError("descriptor set has zero-norm rows; cosine ranks undefined")
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
