"""Weight-inference model: paired encoder/decoder networks over descriptors
and classifier weights, trained on (descriptor, weight) pairs of seen
classes, then used to infer weight rows for classes with no training data.

Four linear layers are shared across four two-layer compositions:

* descriptor encoder (rectified) and descriptor decoder,
* weight encoder (rectified) and weight decoder.

The regression path descriptor -> latent -> weight is the product being
trained; the two autoencoding paths and the weight-to-descriptor alignment
path regularise the shared latent space. Each enabled path's backward
records its gradient factors on the layers it uses; the optimiser step then
writes each layer's gradient, the sum over the paths, one block at a time,
over the layers that some enabled path reaches.
"""

import math
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import (ClassifierHead, PairSet, check_float32_range, from_file, open_binary,
                   read_matrix_block, write_matrix_block)
from .errors import ClassIdError, DataFormatError, DivergenceError, IcisError, ZeroNormError
from .nn import AdamState, LinearLayer, MlpTwoLayer, adam_step, batch_loss
from .tensor import RngState, as_matrix

DEFAULT_HIDDEN = 2048

TERM_NAMES = ("reg", "a_to_a", "w_to_w", "w_to_a")

# An epoch loss above this (or not finite) stops training with a DivergenceError.
DIVERGENCE_LIMIT = 1e8


@dataclass
class LossConfig:
    """Which loss terms are active and which distance they use.

    The descriptor-to-weight regression term is always on, so it has no
    switch; the three auxiliary terms and the use of unseen descriptors in
    the descriptor autoencoder can be toggled. One distance applies to all
    enabled terms.
    """

    distance: str = "cosine"
    use_a_to_a: bool = True
    use_w_to_w: bool = True
    use_w_to_a: bool = True
    include_unseen_descriptors: bool = True

    def __post_init__(self):
        batch_loss(self.distance)  # validates the name

    @property
    def uses_unseen_descriptors(self) -> bool:
        """Whether unseen descriptor rows join a term: only the descriptor
        autoencoding term reads them."""
        return self.use_a_to_a and self.include_unseen_descriptors

    def enabled_terms(self) -> tuple:
        terms = ["reg"]
        if self.use_a_to_a:
            terms.append("a_to_a")
        if self.use_w_to_w:
            terms.append("w_to_w")
        if self.use_w_to_a:
            terms.append("w_to_a")
        return tuple(terms)


@dataclass
class TrainConfig:
    lr: float = 1e-5
    batch_size: int = 16
    hidden_dim: int = DEFAULT_HIDDEN
    max_epochs: int = 500
    stop_window: int = 10
    stop_threshold: float = 2e-4
    seed: int = 0

    def __post_init__(self):
        # written as "not (valid)" so that NaN fails every check
        if not (math.isfinite(self.lr) and self.lr >= 0.0):
            raise IcisError(f"lr must be finite and >= 0, got {self.lr!r}")
        if self.batch_size < 1:
            raise IcisError("batch_size must be >= 1")
        if self.max_epochs < 0:
            raise IcisError("max_epochs must be >= 0")
        if self.stop_window < 1:
            raise IcisError("stop_window must be >= 1")
        if not self.stop_threshold > 0.0:
            raise IcisError("stop_threshold must be > 0")
        if self.hidden_dim < 1:
            raise IcisError("hidden_dim must be >= 1")
        if self.seed < 0:
            raise IcisError(f"seed must be >= 0, got {self.seed}")


def check_hidden_dim(model, cfg: TrainConfig) -> None:
    """Refuse a config whose ``hidden_dim`` is not the model's latent width."""
    if cfg.hidden_dim != model.hidden:
        raise IcisError(f"hidden_dim={cfg.hidden_dim} does not match the model's latent width {model.hidden}")


def stopping_threshold(loss_config: LossConfig, train_config: TrainConfig) -> float:
    """Effective flat-slope threshold; squared-error losses live on a much
    smaller scale than cosine losses, so the threshold shrinks with them."""
    scale = 1e-3 if loss_config.distance == "l2" else 1.0
    return train_config.stop_threshold * scale


def should_stop(epoch_losses, window: int, threshold: float) -> bool:
    """True when the mean loss of the latest ``window`` epochs improved on
    the previous ``window`` epochs by less than ``threshold``.

    Needs at least two full windows of history; before that, never stop.
    """
    if len(epoch_losses) < 2 * window:
        return False
    prev = float(np.mean(epoch_losses[-2 * window : -window]))
    last = float(np.mean(epoch_losses[-window:]))
    return (prev - last) < threshold


@dataclass
class LossTrace:
    """Per-epoch mean losses recorded during training."""

    total: list = field(default_factory=list)
    terms: dict = field(default_factory=lambda: {name: [] for name in TERM_NAMES})
    stopped_early: bool = False
    threshold: float = 0.0

    @property
    def epochs_run(self) -> int:
        return len(self.total)

    def append(self, total: float, term_means: dict) -> None:
        self.total.append(float(total))
        for name in TERM_NAMES:
            self.terms[name].append(float(term_means.get(name, 0.0)))

    def to_csv(self, path) -> None:
        lines = ["epoch,total," + ",".join(TERM_NAMES)]
        for e, tot in enumerate(self.total):
            cells = [str(e), repr(tot)] + [repr(self.terms[n][e]) for n in TERM_NAMES]
            lines.append(",".join(cells))
        Path(path).write_text("".join(f"{l}\n" for l in lines), encoding="utf-8")


class IcisModel:
    """Four shared layers plus the four compositions built from them."""

    def __init__(self, desc_encoder: LinearLayer, desc_decoder: LinearLayer,
                 weight_encoder: LinearLayer, weight_decoder: LinearLayer):
        if desc_encoder.out_dim != weight_decoder.in_dim or weight_encoder.out_dim != desc_decoder.in_dim:
            raise IcisError("encoder output dims must match decoder input dims")
        if desc_encoder.out_dim != weight_encoder.out_dim:
            raise IcisError("both encoders must share one latent dim")
        if desc_decoder.out_dim != desc_encoder.in_dim or weight_decoder.out_dim != weight_encoder.in_dim:
            raise IcisError(f"decoder output dims ({desc_decoder.out_dim}, {weight_decoder.out_dim}) must match "
                            f"encoder input dims ({desc_encoder.in_dim}, {weight_encoder.in_dim})")
        self.desc_encoder = desc_encoder
        self.desc_decoder = desc_decoder
        self.weight_encoder = weight_encoder
        self.weight_decoder = weight_decoder
        self.a_to_w = MlpTwoLayer(desc_encoder, weight_decoder)
        self.a_to_a = MlpTwoLayer(desc_encoder, desc_decoder)
        self.w_to_w = MlpTwoLayer(weight_encoder, weight_decoder)
        self.w_to_a = MlpTwoLayer(weight_encoder, desc_decoder)

    @classmethod
    def init(cls, d_a: int, d_w: int, hidden: int, rng: RngState) -> "IcisModel":
        """Seeded init; layers are created in a fixed order so equal seeds
        give bit-identical models."""
        if min(d_a, d_w, hidden) < 1:
            raise IcisError("all model dims must be >= 1")
        return cls(
            LinearLayer.init(d_a, hidden, rng, pre_rectifier=True),
            LinearLayer.init(hidden, d_a, rng, pre_rectifier=False),
            LinearLayer.init(d_w, hidden, rng, pre_rectifier=True),
            LinearLayer.init(hidden, d_w, rng, pre_rectifier=False),
        )

    @property
    def d_a(self) -> int:
        return self.desc_encoder.in_dim

    @property
    def d_w(self) -> int:
        return self.weight_encoder.in_dim

    @property
    def hidden(self) -> int:
        return self.desc_encoder.out_dim

    def layers(self) -> tuple:
        return (self.desc_encoder, self.desc_decoder, self.weight_encoder, self.weight_decoder)

    def copy(self) -> "IcisModel":
        """A model of copies of these layers' parameters: training it leaves
        this one as it is."""
        return IcisModel(*(LinearLayer(layer.weight.copy(), layer.bias.copy()) for layer in self.layers()))

    def zero_grad(self) -> None:
        for layer in self.layers():
            layer.zero_grad()


# ---------------------------------------------------------------------------
# loss terms

def total_loss(model: IcisModel, descriptors, weights, loss_config: LossConfig,
               unseen_descriptors=None) -> dict:
    """All enabled terms on one batch, as {term: mean loss, "total": sum}.

    Each term is one (composition, input, target) row: ``reg`` regresses
    weights from descriptors, ``a_to_a`` and ``w_to_w`` autoencode within a
    space, ``w_to_a`` maps weights back to their descriptors. Unseen
    descriptor rows, when provided and enabled, join only the descriptor
    autoencoding term. Each term's backward records its gradient factors on
    the shared layers (clearing them first with ``zero_grad`` is the
    caller's job), so the gradient a layer's writers produce is the sum of
    per-term gradients.
    """
    a, w = as_matrix(descriptors), as_matrix(weights)
    if a.shape[0] != w.shape[0]:
        raise IcisError(f"descriptor/weight pairing: {a.shape[0]} rows vs {w.shape[0]} rows")
    a_in = a
    if loss_config.uses_unseen_descriptors and unseen_descriptors is not None:
        extra = as_matrix(unseen_descriptors)
        if extra.shape[0]:
            a_in = np.vstack([a, extra])
    paths = {"reg": (model.a_to_w, a, w), "a_to_a": (model.a_to_a, a_in, a_in),
             "w_to_w": (model.w_to_w, w, w), "w_to_a": (model.w_to_a, w, a)}
    loss_fn = batch_loss(loss_config.distance)
    values = {}
    for name in loss_config.enabled_terms():
        net, x, target = paths[name]
        values[name], grad = loss_fn(net.forward(x), target)
        net.backward(grad)
    values["total"] = sum(values.values())
    return values


def infer_weights(model: IcisModel, descriptors) -> np.ndarray:
    """Predicted weight rows for descriptor rows, via the regression path."""
    a = as_matrix(descriptors)
    if a.shape[1] != model.d_a:
        raise IcisError(f"descriptor dim {a.shape[1]} does not match model dim {model.d_a}")
    return model.a_to_w.predict(a)


def _proportional_slice(start: int, end: int, n_src: int, n_dst: int) -> slice:
    # maps a batch range over n_src items onto the matching range over n_dst
    return slice((start * n_dst) // n_src, (end * n_dst) // n_src)


def fit(module, n: int, step, cfg: TrainConfig, rng: RngState, threshold: float,
        n_extra: int = 0, callback=None) -> LossTrace:
    """The training loop shared by every trainer in the package.

    Each epoch shuffles the ``n`` training rows and, when ``n_extra``,
    the extra rows, then walks the batches. Per batch the extra rows are
    the proportional share of the extra order, so every extra row is seen
    once per epoch. ``step(rows, extra_rows)`` computes the batch losses,
    whose backward passes record their gradient factors on ``module``
    (cleared with ``zero_grad`` just before), and returns ``{term: (mean,
    row count)}``. One Adam step follows over the layers of
    ``module.layers()`` that recorded factors on the first step, taken once
    in that order: their writers write each gradient block by block from
    the factors, and Adam consumes each block there. Every step must reach
    the same layers. A layer no loss term reaches is never updated: Adam
    over its zero gradient and zero moments would leave it unchanged, bit
    for bit. Epoch term means are row-weighted, their sum is the epoch
    loss. Raises DivergenceError when the epoch loss
    stops being finite or exceeds ``DIVERGENCE_LIMIT``, and passes on a
    ZeroNormError from ``step``, each with the partial trace on the
    exception; stops early by :func:`should_stop`.
    """
    params = writers = None
    opt = AdamState(lr=cfg.lr)
    trace = LossTrace(threshold=threshold)
    for epoch in range(cfg.max_epochs):
        order = rng.permutation(n)
        # without extra rows every batch gets an empty index array
        extra_order = rng.permutation(n_extra) if n_extra else order[:0]
        sums, counts = {}, {}
        for start in range(0, n, cfg.batch_size):
            end = min(start + cfg.batch_size, n)
            extra_rows = extra_order[_proportional_slice(start, end, n, n_extra)]
            module.zero_grad()
            try:
                terms = step(order[start:end], extra_rows)
            except ZeroNormError as exc:
                exc.trace = trace
                raise
            if params is None:
                reached = [layer for layer in module.layers() if layer.factors]
                params = [p for layer in reached for p in layer.parameters()]
                writers = [g for layer in reached for g in layer.gradient_writers()]
            adam_step(opt, params, writers)
            for name, (mean, count) in terms.items():
                sums[name] = sums.get(name, 0.0) + mean * count
                counts[name] = counts.get(name, 0) + count

        term_means = {name: sums[name] / counts[name] for name in TERM_NAMES if counts.get(name)}
        epoch_total = sum(term_means.values())
        trace.append(epoch_total, term_means)
        if callback is not None:
            callback(epoch, epoch_total)
        if not np.isfinite(epoch_total) or epoch_total > DIVERGENCE_LIMIT:
            raise DivergenceError(
                f"training diverged at epoch {epoch}: mean loss {epoch_total!r}", trace=trace
            )
        if should_stop(trace.total, cfg.stop_window, threshold):
            trace.stopped_early = True
            break
    return trace


def train(
    model: IcisModel,
    pairs: PairSet,
    unseen_descriptors=None,
    loss_config: LossConfig | None = None,
    train_config: TrainConfig | None = None,
    callback=None,
) -> LossTrace:
    """Fit the model on seen (descriptor, weight) pairs.

    ``unseen_descriptors`` (rows only, no weights) join the descriptor
    autoencoding term when ``loss_config.uses_unseen_descriptors``; the
    regression and weight-side terms only ever touch seen pairs. Raises
    DivergenceError when the epoch loss stops being finite or exceeds
    ``DIVERGENCE_LIMIT``, and ZeroNormError on a zero-norm prediction; the
    partial trace rides along on either exception.
    """
    loss_config = loss_config if loss_config is not None else LossConfig()
    cfg = train_config if train_config is not None else TrainConfig()

    a_seen = as_matrix(pairs.descriptors)
    w_seen = as_matrix(pairs.weights)
    if a_seen.shape[0] < 2:
        raise IcisError("training needs at least 2 seen pairs")
    if a_seen.shape[1] != model.d_a or w_seen.shape[1] != model.d_w:
        raise IcisError(
            f"pair dims ({a_seen.shape[1]}, {w_seen.shape[1]}) do not match model "
            f"({model.d_a}, {model.d_w})"
        )
    check_hidden_dim(model, cfg)
    a_extra = np.zeros((0, model.d_a))
    if unseen_descriptors is not None and loss_config.uses_unseen_descriptors:
        a_extra = as_matrix(unseen_descriptors)
        if a_extra.shape[1] != model.d_a:
            raise IcisError("unseen descriptor dim does not match model")

    def step(rows, extra_rows):
        chunk = a_extra[extra_rows] if extra_rows.size else None
        values = total_loss(model, a_seen[rows], w_seen[rows], loss_config,
                            unseen_descriptors=chunk)
        counts = {name: rows.size for name in loss_config.enabled_terms()}
        if "a_to_a" in counts:
            counts["a_to_a"] += extra_rows.size
        return {name: (values[name], count) for name, count in counts.items()}

    return fit(model, a_seen.shape[0], step, cfg, RngState(cfg.seed).spawn("train-shuffle"),
               stopping_threshold(loss_config, cfg), n_extra=a_extra.shape[0], callback=callback)


# ---------------------------------------------------------------------------
# injection

def inject(
    head: ClassifierHead,
    new_ids,
    new_weights,
    new_biases=None,
    zsl_only: bool = False,
) -> ClassifierHead:
    """Extend a classifier head with inferred rows for new classes.

    Existing rows are carried over bit-identically and keep their seen
    flags; new rows are flagged unseen. With ``zsl_only`` the result holds
    only the new rows, restricting decisions to the injected classes. The
    new rows are checked once, as a :class:`ClassifierHead` of their own,
    and must have the head's width and ids that it does not hold; the
    head's rows, checked when it was built, are not checked again.
    """
    new = ClassifierHead(new_ids, new_weights, new_biases, np.zeros(len(new_weights), dtype=bool))
    if new.weight_dim != head.weight_dim:
        raise IcisError(
            f"new weight dim {new.weight_dim} does not match head dim {head.weight_dim}"
        )
    collisions = set(new.class_ids) & set(head.class_ids)
    if collisions:
        raise ClassIdError(f"new class ids already present in head: {sorted(collisions)[:5]}")
    if zsl_only:
        return new.subset(new.class_ids)  # a gathered copy: it shares no array with the caller's rows

    weights = np.vstack([head.weights, new.weights], dtype=np.float64)  # a loaded head's float32 rows upcast exactly
    biases = None
    if head.biases is not None or new.biases is not None:
        old_b = head.biases if head.biases is not None else np.zeros(head.n_classes)
        add_b = new.biases if new.biases is not None else np.zeros(new.n_classes)
        biases = np.concatenate([old_b, add_b])
    seen = np.concatenate([head.seen, new.seen])
    return ClassifierHead._of_checked_rows(list(head.class_ids) + new.class_ids, weights, biases, seen)


def infer_and_inject(
    model: IcisModel,
    head: ClassifierHead,
    descriptors,
    new_ids,
    include_bias: bool = False,
    zsl_only: bool = False,
) -> ClassifierHead:
    """Run the regression path on new-class descriptors and inject the rows.

    With ``include_bias`` the model's output dim is the head dim plus one
    and the trailing coordinate is split off as the per-class bias.
    """
    predicted = infer_weights(model, descriptors)
    if include_bias:
        if predicted.shape[1] != head.weight_dim + 1:
            raise IcisError(
                f"model output dim {predicted.shape[1]} is not head dim {head.weight_dim} plus a bias"
            )
        return inject(head, new_ids, predicted[:, :-1], predicted[:, -1], zsl_only=zsl_only)
    return inject(head, new_ids, predicted, zsl_only=zsl_only)


# ---------------------------------------------------------------------------
# checkpoints

CHECKPOINT_MAGIC = b"WSCKPT1\n"


def save_checkpoint(path, model: IcisModel, loss_config: LossConfig | None = None,
                    include_bias: bool = False, seed: int | None = None) -> None:
    """Write the model to one file: magic, a key=value header, then weight
    and bias blocks for the four layers in fixed order (32-bit on disk)."""
    loss_config = loss_config if loss_config is not None else LossConfig()
    entries = [
        ("version", 1),
        ("d_a", model.d_a),
        ("d_w", model.d_w),
        ("hidden", model.hidden),
        ("distance", loss_config.distance),
        ("use_a_to_a", int(loss_config.use_a_to_a)),
        ("use_w_to_w", int(loss_config.use_w_to_w)),
        ("use_w_to_a", int(loss_config.use_w_to_a)),
        ("include_unseen_descriptors", int(loss_config.include_unseen_descriptors)),
        ("include_bias", int(include_bias)),
    ]
    if seed is not None:
        entries.append(("seed", seed))
    header = "".join(f"{k}={v}\n" for k, v in entries).encode("utf-8")
    for layer in model.layers():
        check_float32_range(layer.weight, "layer weights")
        check_float32_range(layer.bias, "layer biases")
    with open(Path(path), "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<I", len(header)))
        f.write(header)
        for layer in model.layers():
            write_matrix_block(f, layer.weight)
            write_matrix_block(f, layer.bias.reshape(1, -1))


def load_checkpoint(path):
    """Read a checkpoint back; returns (model, loss_config, meta dict)."""
    path = Path(path)
    with open_binary(path) as f:
        size = os.fstat(f.fileno()).st_size
        if f.read(len(CHECKPOINT_MAGIC)) != CHECKPOINT_MAGIC:
            raise DataFormatError(path, f"bad magic; expected {CHECKPOINT_MAGIC!r}", offset=0)
        raw_len = f.read(4)
        if len(raw_len) < 4:
            raise DataFormatError(path, "truncated header length", offset=size)
        (header_len,) = struct.unpack("<I", raw_len)
        pos = f.tell()
        if size < pos + header_len:
            raise DataFormatError(path, "truncated header", offset=size)
        try:
            header_text = f.read(header_len).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataFormatError(path, f"header is not UTF-8: {exc.reason}", offset=pos + exc.start) from None
        meta, header_line, dims, loss_config = _checkpoint_header(path, header_text)
        layers = []
        for _ in range(4):  # the layers in IcisModel.layers() order
            weight = read_matrix_block(f, path)
            bias = read_matrix_block(f, path)
            layers.append(LinearLayer(weight, bias.reshape(-1)))
        pos = f.tell()
    if pos != size:
        raise DataFormatError(path, f"{size - pos} trailing bytes after last block", offset=pos)

    model = from_file(path, IcisModel, *layers)
    for dim_key, value in (("d_a", model.d_a), ("d_w", model.d_w), ("hidden", model.hidden)):
        if dims[dim_key] is not None and dims[dim_key] != value:
            raise DataFormatError(path, f"header line {header_line[dim_key]}: {dim_key}={meta[dim_key]} "
                                        f"does not match blocks ({value})")
    return model, loss_config, meta


def _checkpoint_header(path, header_text: str):
    """Check a checkpoint's key=value header; returns the raw values, each
    key's line, the declared ``d_a``/``d_w``/``hidden`` and the loss config."""
    meta, header_line = {}, {}
    for lineno, line in enumerate(header_text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if "=" not in line:
            raise DataFormatError(path, f"header line {lineno} is not key=value: {line!r}")
        k, v = line.split("=", 1)
        meta[k.strip()] = v.strip()
        header_line[k.strip()] = lineno
    if meta.get("version") != "1":
        raise DataFormatError(path, f"unsupported checkpoint version {meta.get('version')!r}")

    def header_int(key, default=None, allowed=None):
        """The integer value of header ``key``, or ``default`` when it is absent."""
        if key not in meta:
            return default
        try:
            value = int(meta[key])
        except ValueError:
            value = None
        if value is None or (allowed is not None and value not in allowed):
            expected = "an integer" if allowed is None else "0 or 1"
            raise DataFormatError(path, f"header line {header_line[key]}: {key}={meta[key]!r} is not {expected}")
        return value

    dims = {key: header_int(key) for key in ("d_a", "d_w", "hidden")}
    flags = {key: bool(header_int(key, 1, (0, 1)))
             for key in ("use_a_to_a", "use_w_to_w", "use_w_to_a", "include_unseen_descriptors")}
    header_int("include_bias", 0, (0, 1))
    header_int("seed")
    distance = meta.get("distance", "cosine")
    try:
        batch_loss(distance)
    except IcisError as exc:
        raise DataFormatError(path, f"header line {header_line['distance']}: {exc}") from None
    return meta, header_line, dims, LossConfig(distance=distance, **flags)


def ablation_variants() -> dict:
    """The cumulative ablation ladder, in run order.

    Starts from a plain squared-error regression net and adds one element
    per row: the cosine distance, the two within-space autoencoding terms,
    the across-space alignment term, and finally unseen descriptors in the
    descriptor autoencoder.
    """
    off = dict(use_a_to_a=False, use_w_to_w=False, use_w_to_a=False,
               include_unseen_descriptors=False)
    return {
        "base_l2": LossConfig(distance="l2", **off),
        "cosine": LossConfig(distance="cosine", **off),
        "within_spaces": LossConfig(use_w_to_a=False, include_unseen_descriptors=False),
        "across_spaces": LossConfig(include_unseen_descriptors=False),
        "full": LossConfig(),
    }
