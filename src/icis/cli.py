"""Command-line front end.

Subcommands cover the full workflow: generate a synthetic task, train the
weight-inference model, inject inferred rows into a head, evaluate, run the
ablation ladder, sweep the seen-class fraction, run adapted baselines, and
produce the similarity-rank failure analysis.

Exit codes: 0 success, 2 usage error, 3 data error, 4 numeric divergence.
"""

import argparse
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path

from . import baselines as bl
from .data import (
    ClassifierHead,
    from_file,
    load_classifier_head,
    load_descriptor_set,
    load_feature_set,
    load_manifest,
    make_pairs,
    rows_of,
    save_ids,
    save_manifest,
    save_matrix,
    subsample_pairs,
    synth_generate,
)
from .errors import DataFormatError, DivergenceError, IcisError, ZeroNormError
from .evaluation import (
    EvalReport,
    evaluate,
    failure_histogram,
    harmonic_mean,
    micro_accuracy,
    per_class_mean_accuracy,
)
from .model import (
    IcisModel,
    LossConfig,
    TrainConfig,
    ablation_variants,
    infer_and_inject,
    infer_weights,
    inject,
    load_checkpoint,
    save_checkpoint,
    train,
)
from .tensor import RngState, row_normalize

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_DIVERGED = 4

# a2w, the regression term, is always on; each other term maps to its LossConfig switch
TERM_FLAGS = {"a2a": "use_a_to_a", "w2w": "use_w_to_w", "w2a": "use_w_to_a"}
TERMS = ("a2w", *TERM_FLAGS)
NO_UNSEEN = "the [unseen] section lists no classes"


def _write_config(path: Path, settings: dict) -> None:
    path.write_text("".join(f"{k}={v}\n" for k, v in settings.items()), encoding="utf-8")


def _write_report(run_dir: Path, report: EvalReport) -> None:
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "report.txt").write_text(report.to_text(), encoding="utf-8")
    (run_dir / "report.structured").write_text(report.to_json() + "\n", encoding="utf-8")


def _loss_config_from_args(args) -> LossConfig:
    names = [t.strip() for t in args.terms.split(",") if t.strip()]
    unknown = [t for t in names if t not in TERMS]
    if unknown:
        raise IcisError(f"unknown loss terms {unknown}; choose from {sorted(TERMS)}")
    if "a2w" not in names:
        raise IcisError("the descriptor-to-weight regression term cannot be disabled")
    flags = {flag: key in names for key, flag in TERM_FLAGS.items()}
    return LossConfig(
        distance=args.distance,
        include_unseen_descriptors=args.include_unseen_desc,
        **flags,
    )


def _train_config_from_args(args) -> TrainConfig:
    return TrainConfig(
        lr=args.lr,
        batch_size=args.batch,
        hidden_dim=args.hidden_dim,
        max_epochs=args.max_epochs,
        stop_window=args.stop_window,
        stop_threshold=args.stop_threshold,
        seed=args.seed,
    )


def _add_run_options(p: argparse.ArgumentParser, include_bias: bool = True) -> None:
    defaults = TrainConfig()
    p.add_argument("--hidden-dim", type=int, default=defaults.hidden_dim)
    p.add_argument("--lr", type=float, default=defaults.lr)
    p.add_argument("--batch", type=int, default=defaults.batch_size)
    p.add_argument("--max-epochs", type=int, default=defaults.max_epochs)
    p.add_argument("--stop-window", type=int, default=defaults.stop_window)
    p.add_argument("--stop-threshold", type=float, default=defaults.stop_threshold)
    p.add_argument("--seed", type=int, default=defaults.seed)
    if include_bias:
        p.add_argument("--include-bias", action="store_true",
                       help="regress head biases as a trailing weight coordinate")


def _add_loss_options(p: argparse.ArgumentParser) -> None:
    defaults = LossConfig()
    terms = ["a2w"] + [key for key, flag in TERM_FLAGS.items() if getattr(defaults, flag)]
    p.add_argument("--distance", choices=["cosine", "l2"], default=defaults.distance)
    p.add_argument("--terms", default=",".join(terms),
                   help="comma list of loss terms; a2w is mandatory")
    p.add_argument("--include-unseen-desc", action=argparse.BooleanOptionalAction,
                   default=defaults.include_unseen_descriptors,
                   help="mix unseen descriptors into the descriptor autoencoder")


def _add_task_options(p: argparse.ArgumentParser, descriptors: bool = True, features: bool = True) -> None:
    """The task-file flags: a head with its manifest and optional biases, and
    the descriptor and feature files when the subcommand reads them."""
    if descriptors:
        p.add_argument("--descriptors", required=True)
    p.add_argument("--head", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--biases", default=None)
    if features:
        p.add_argument("--features", required=True)


def _load_task(args, unseen_descriptors: bool = True):
    """Read the task files in one fixed order: manifest, descriptors, head
    (seen flags from the manifest, optional biases). A subcommand that takes
    no descriptors gets ``None`` for them; one that takes ``--features``
    reads them next (:func:`_read_features`). A descriptor file that lacks a
    seen class of the manifest, or an unseen one while
    ``unseen_descriptors``, is refused naming that file and the class."""
    manifest = load_manifest(args.manifest)
    descriptors = None
    if "descriptors" in args:
        descriptors = load_descriptor_set(args.descriptors)
        wanted = manifest.seen + manifest.unseen if unseen_descriptors else manifest.seen
        from_file(args.descriptors, rows_of, descriptors.class_ids, wanted)
    head = load_classifier_head(args.head, seen_ids=manifest.seen, biases_path=args.biases)
    return manifest, descriptors, head


def _read_features(args, head, manifest=None):
    """``--features`` read whole and checked for a command that scores them
    with the head of :func:`_load_task`. Features whose width is not the
    head's, or a given manifest without unseen classes, are refused here."""
    features = load_feature_set(args.features)
    if manifest is not None and not manifest.unseen:
        raise DataFormatError(args.manifest, NO_UNSEEN)
    if features.features.shape[1] != head.weight_dim:
        raise DataFormatError(args.features, f"feature dim {features.features.shape[1]} "
                                             f"does not match head weight dim {head.weight_dim}")
    return features


def _read_split(args, manifest, head):
    """:func:`_read_features`, split once into their unseen and seen parts,
    in the GZSL protocol's fixed split; the whole set is not kept."""
    features = _read_features(args, head, manifest)
    return features.restrict_to(manifest.unseen), features.restrict_to(manifest.seen)


@contextmanager
def _partial_trace_kept(run_dir):
    """A run that fails in training writes the trace of its finished epochs
    to ``run_dir/trace.csv``; with no ``run_dir`` it writes nothing."""
    try:
        yield
    except (DivergenceError, ZeroNormError) as exc:
        if run_dir is not None and exc.trace is not None:
            run_dir.mkdir(parents=True, exist_ok=True)
            exc.trace.to_csv(run_dir / "trace.csv")
        raise


def _draw_model(pairs, train_config) -> IcisModel:
    """The seeded initial model for ``pairs``: every run with the same seed,
    pair dims and ``hidden_dim`` starts from these weights."""
    return IcisModel.init(pairs.descriptors.shape[1], pairs.weights.shape[1], train_config.hidden_dim,
                          RngState(train_config.seed).spawn("model-init"))


def _train_once(model, pairs, unseen_rows, loss_config, train_config, include_bias, run_dir: Path):
    """Train ``model``, an initial model of :func:`_draw_model`, in place in
    its own run directory: config, trace, checkpoint. ``unseen_rows`` join the
    descriptor autoencoder only if the loss uses them. Returns the trace; a
    run that fails in training keeps its partial trace."""
    run_dir.mkdir(parents=True, exist_ok=True)
    settings = dict(sorted(asdict(train_config).items()))
    settings.update(sorted(asdict(loss_config).items()))
    settings["include_bias"] = include_bias
    config_path = run_dir / "config.txt"
    _write_config(config_path, settings)
    started = time.monotonic()
    with _partial_trace_kept(run_dir):
        trace = train(model, pairs, unseen_rows, loss_config, train_config)
    settings["wall_clock_s"] = f"{time.monotonic() - started:.3f}"
    _write_config(config_path, settings)
    trace.to_csv(run_dir / "trace.csv")
    save_checkpoint(run_dir / "model.ckpt", model, loss_config,
                    include_bias=include_bias, seed=train_config.seed)
    return trace


def _fmt(value, spec: str = "%.2f") -> str:
    return "n/a" if value is None else (spec % value)


# ---------------------------------------------------------------------------
# subcommands

def cmd_synth(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    task = synth_generate(
        seed=args.seed,
        n_seen=args.seen,
        n_unseen=args.unseen,
        d_a=args.desc_dim,
        d_w=args.weight_dim,
        map_kind=args.map,
        noise_std=args.map_noise,
        samples_per_class=args.samples_per_class,
        feature_noise=args.feature_noise,
        margin=args.margin,
        descriptor_rank=args.descriptor_rank,
    )
    task.descriptors.save(out / "descriptors.wsmat")
    task.head.save(out / "head.wsmat")
    task.features.save(out / "features.wsmat")
    save_manifest(out / "manifest.txt", task.manifest)
    if task.manifest.unseen:
        save_matrix(out / "true_unseen.wsmat", task.true_unseen_weights)
        save_ids(out / "true_unseen.ids", task.manifest.unseen)
    print(f"wrote synthetic task to {out}: {args.seen} seen, {args.unseen} unseen classes")
    return EXIT_OK


def cmd_train(args) -> int:
    loss_config = _loss_config_from_args(args)
    # only a loss that uses them needs a descriptor for every unseen class
    manifest, descriptors, head = _load_task(args, loss_config.uses_unseen_descriptors)
    train_config = _train_config_from_args(args)
    pairs = make_pairs(descriptors, from_file(args.head, head.subset, manifest.seen),
                       include_bias=args.include_bias)
    unseen_rows = descriptors.subset(manifest.unseen).matrix if loss_config.uses_unseen_descriptors else None
    run_dir = Path(args.out)
    trace = _train_once(_draw_model(pairs, train_config), pairs, unseen_rows, loss_config, train_config,
                        args.include_bias, run_dir)
    tail = trace.total[-1] if trace.total else float("nan")
    print(f"trained {trace.epochs_run} epochs (stopped_early={trace.stopped_early}), "
          f"final loss {tail:.6f}; checkpoint at {run_dir / 'model.ckpt'}")
    return EXIT_OK


def cmd_inject(args) -> int:
    manifest, descriptors, head = _load_task(args)
    model, _loss_config, meta = load_checkpoint(args.checkpoint)
    include_bias = bool(int(meta.get("include_bias", "0")))
    if not manifest.unseen:
        raise DataFormatError(args.manifest, NO_UNSEEN)
    known = set(head.class_ids)
    held = [c for c in manifest.unseen if c in known]
    if held:
        raise DataFormatError(args.manifest, f"unseen classes the head already holds: {held[:5]}")
    unseen = descriptors.subset(manifest.unseen)
    new_head = infer_and_inject(model, head, unseen.matrix, unseen.class_ids,
                                include_bias=include_bias, zsl_only=args.zsl_only)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    new_head.save(out)
    print(f"wrote head with {new_head.n_classes} classes to {out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    manifest, _, head = _load_task(args)
    split = _read_split(args, manifest, head)
    known = set(head.class_ids)
    present = [c for c in manifest.unseen if c in known]
    # --zsl-only scores the unseen classes the head holds; a full eval needs every one
    if len(present) < (1 if args.zsl_only else len(manifest.unseen)):
        missing = next(c for c in manifest.unseen if c not in known)
        raise DataFormatError(args.head, f"head has no row for the manifest's unseen class {missing!r}")
    if args.zsl_only:
        head = head.subset(present)
        report = evaluate(head, split[0].restrict_to(present), None, unseen_ids=present)
    else:
        from_file(args.head, rows_of, head.class_ids, sorted(set(split[1].labels)))  # every seen sample's class
        report = evaluate(head, *split, unseen_ids=manifest.unseen)
    sys.stdout.write(report.to_text())
    if args.report_dir:
        _write_report(Path(args.report_dir), report)
    return EXIT_OK


def _trained_runs(args, head, unseen, pair_sets, train_config):
    """Train every ablation variant on each pair set, in run order, and
    yield each run as it finishes: ``(variant, label, pairs, trace, run_dir,
    rows)``, where ``rows`` is the head of the run's inferred unseen rows
    alone. The model is drawn once, and every run trains a copy of it."""
    drawn = _draw_model(next(iter(pair_sets.values())), train_config)
    for name, loss_config in ablation_variants().items():
        for label, pairs in pair_sets.items():
            run_dir = Path(args.out) / name
            if label is not None:
                run_dir = run_dir / f"fraction_{label}"
            model = drawn.copy()
            trace = _train_once(model, pairs, unseen.matrix, loss_config, train_config, args.include_bias, run_dir)
            # a subsample narrows only training; the rows still extend the full head
            rows = infer_and_inject(model, head, unseen.matrix, unseen.class_ids,
                                    include_bias=args.include_bias, zsl_only=True)
            del model  # freed before the next run's copy is made
            yield name, label, pairs, trace, run_dir, rows


def _score_runs(args, manifest, head, runs):
    """Read and split the features once, then inject, evaluate, report and
    print each run of :func:`_trained_runs`, in run order. Returns the
    records of :func:`_run_ladder`."""
    split = _read_split(args, manifest, head)
    records = []
    for name, label, pairs, trace, run_dir, rows in runs:
        report = evaluate(inject(head, rows.class_ids, rows.weights, rows.biases), *split,
                          unseen_ids=manifest.unseen)
        _write_report(run_dir, report)
        tag = name if label is None else f"{name} @ {label}"
        print(f"{tag}: zsl={report.zsl_accuracy:.2f} unseen={report.gzsl_unseen:.2f} "
              f"seen={_fmt(report.gzsl_seen)} H={_fmt(report.harmonic)} "
              f"entropy={report.entropy_unseen:.3f} epochs={trace.epochs_run}")
        records.append((name, label, pairs, report, trace))
    return records


def _run_ladder(args, fractions=None):
    """Train every ablation variant on the seen pairs, or on each fraction's
    subsample of them, then score every run, each in ``out/<variant>[/
    fraction_<f>]``. Returns one ``(variant, label, pairs, report, trace)``
    record per run.

    Everything is checked before anything trains, the features too: they
    are read whole and dropped, so no feature row is held while models
    train, and read again once every run has trained. A run that fails in
    training keeps its partial trace, and the runs before it are scored
    before the error passes on."""
    manifest, descriptors, head = _load_task(args)
    _read_features(args, head, manifest)
    train_config = _train_config_from_args(args)
    seen_pairs = make_pairs(descriptors, from_file(args.head, head.subset, manifest.seen),
                            include_bias=args.include_bias)
    unseen = descriptors.subset(manifest.unseen)
    pair_sets = {None: seen_pairs} if fractions is None else {}
    for fraction in fractions or ():
        label = f"{fraction:g}"
        if label in pair_sets:
            raise IcisError(f"--fractions names the run directory fraction_{label} twice")
        pair_sets[label] = subsample_pairs(seen_pairs, fraction, args.seed)
    runs = []
    try:
        for run in _trained_runs(args, head, unseen, pair_sets, train_config):
            runs.append(run)
    except (IcisError, OSError):
        _score_runs(args, manifest, head, runs)
        raise
    return _score_runs(args, manifest, head, runs)


def cmd_ablate(args) -> int:
    lines = ["variant,zsl,gzsl_unseen,gzsl_seen,harmonic,entropy_unseen,epochs"]
    for name, _, _, report, trace in _run_ladder(args):
        lines.append(
            f"{name},{report.zsl_accuracy:.4f},{report.gzsl_unseen:.4f},"
            f"{_fmt(report.gzsl_seen, '%.4f')},{_fmt(report.harmonic, '%.4f')},"
            f"{report.entropy_unseen:.6f},{trace.epochs_run}"
        )
    (Path(args.out) / "summary.csv").write_text("".join(f"{l}\n" for l in lines), encoding="utf-8")
    return EXIT_OK


def cmd_sweep(args) -> int:
    # a malformed list is refused before any task file is read
    try:
        fractions = [float(f) for f in args.fractions.split(",") if f.strip()]
    except ValueError as exc:
        raise IcisError(f"bad --fractions value: {exc}") from None
    if not fractions:
        raise IcisError("no fractions given")
    lines = ["variant,fraction,n_seen_pairs,zsl,gzsl_unseen,gzsl_seen,harmonic"]
    for name, label, pairs, report, _ in _run_ladder(args, fractions):
        lines.append(
            f"{name},{label},{len(pairs)},{report.zsl_accuracy:.4f},"
            f"{report.gzsl_unseen:.4f},{_fmt(report.gzsl_seen, '%.4f')},"
            f"{_fmt(report.harmonic, '%.4f')}"
        )
    (Path(args.out) / "summary.csv").write_text("".join(f"{l}\n" for l in lines), encoding="utf-8")
    return EXIT_OK


def cmd_analyze(args) -> int:
    _, descriptors, head = _load_task(args)
    features = _read_features(args, head)
    # every class the head can predict needs a descriptor to be ranked
    from_file(args.descriptors, rows_of, descriptors.class_ids, head.class_ids)
    record = failure_histogram(head, features, descriptors, args.class_id, bin_size=args.bin_size)
    sys.stdout.write(record.to_text())
    if args.out:
        Path(args.out).write_text(record.to_json() + "\n", encoding="utf-8")
    return EXIT_OK


def _conse_report(manifest, descriptors, seen_head, seen_desc, split, top_t) -> EvalReport:
    """ConSE's three decisions on one head of unit descriptor rows, built
    once the unseen part is combined (a collapse is refused first)."""
    unseen_feats, seen_feats = split
    report = EvalReport(n_unseen_samples=unseen_feats.n_samples)
    unseen_rows = bl.conse_combine(seen_head, seen_desc, unseen_feats.rows, top_t)
    targets = ClassifierHead(descriptors.class_ids, row_normalize(descriptors.matrix, descriptors.class_ids))
    zsl_pred = bl.conse_classify(targets, unseen_rows, among=manifest.unseen)
    report.zsl_accuracy, per_class = per_class_mean_accuracy(unseen_feats.labels, zsl_pred, manifest.unseen)
    report.zsl_micro = micro_accuracy(unseen_feats.labels, zsl_pred)
    report.per_class["zsl"] = per_class
    all_pred = bl.conse_classify(targets, unseen_rows)
    report.gzsl_unseen, _ = per_class_mean_accuracy(unseen_feats.labels, all_pred, manifest.unseen)
    if seen_feats.n_samples:
        seen_pred = bl.conse_classify(targets, bl.conse_combine(seen_head, seen_desc, seen_feats.rows, top_t))
        report.gzsl_seen, _ = per_class_mean_accuracy(seen_feats.labels, seen_pred, manifest.seen)
        report.harmonic = harmonic_mean(report.gzsl_unseen, report.gzsl_seen)
        report.n_seen_samples = seen_feats.n_samples
    return report


def _baseline_rows(method, args, seen_head, seen_desc, unseen_desc):
    """Unseen rows from a baseline that builds them; ``dae`` refines those of its ``--base``."""
    if method == "costa":
        return bl.costa_weights(unseen_desc, seen_desc, seen_head)
    if method == "wavg":
        return bl.vgse_wavg_weights(unseen_desc, seen_desc, seen_head, temperature=args.temperature)
    if method == "smo":
        return bl.vgse_smo_weights(unseen_desc, seen_desc, seen_head, gamma=args.gamma)
    if method == "dae":
        base = _baseline_rows(args.base, args, seen_head, seen_desc, unseen_desc)
        return bl.dae_refine(seen_head.weights, base, seed=args.seed)
    # subreg: argparse `choices` refuses any other method first
    pairs = make_pairs(seen_desc, seen_head)
    train_config = _train_config_from_args(args)
    model = _draw_model(pairs, train_config)
    run_dir = Path(args.out) if args.out else None
    with _partial_trace_kept(run_dir):
        trace = bl.train_subreg(model, pairs, unseen_desc.matrix, lam=args.lam,
                                distance=args.distance, train_config=train_config)
    if run_dir is not None:
        run_dir.mkdir(parents=True, exist_ok=True)
        trace.to_csv(run_dir / "trace.csv")
    return infer_weights(model, unseen_desc.matrix)


def cmd_baseline(args) -> int:
    manifest, descriptors, head = _load_task(args)
    if not manifest.seen:  # every method builds on the seen classes
        raise DataFormatError(args.manifest, "the [seen] section lists no classes")
    split = _read_split(args, manifest, head)
    seen_head = from_file(args.head, head.subset, manifest.seen)
    seen_desc = descriptors.subset(manifest.seen)
    unseen_desc = descriptors.subset(manifest.unseen)
    if args.method == "conse":
        report = _conse_report(manifest, descriptors, seen_head, seen_desc, split, args.top_t)
    else:
        rows = _baseline_rows(args.method, args, seen_head, seen_desc, unseen_desc)
        report = evaluate(inject(head, manifest.unseen, rows), *split, unseen_ids=manifest.unseen)
    sys.stdout.write(report.to_text())
    if args.out:
        _write_report(Path(args.out), report)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="icis",
        description="Inject inferred classifier weights for unseen classes into a linear head.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic task with known ground truth")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seen", type=int, required=True)
    p.add_argument("--unseen", type=int, required=True)
    p.add_argument("--desc-dim", type=int, required=True)
    p.add_argument("--weight-dim", type=int, required=True)
    p.add_argument("--map", choices=["linear", "mlp"], default="linear")
    p.add_argument("--map-noise", type=float, default=0.0)
    p.add_argument("--samples-per-class", type=int, default=50)
    p.add_argument("--feature-noise", type=float, default=0.0)
    p.add_argument("--margin", type=float, default=1.0)
    p.add_argument("--descriptor-rank", type=int, default=None)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="fit the weight-inference model on seen pairs")
    _add_task_options(p, features=False)
    p.add_argument("--out", required=True, help="run directory")
    _add_loss_options(p)
    _add_run_options(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("inject", help="infer unseen rows from a checkpoint and extend a head")
    p.add_argument("--checkpoint", required=True)
    _add_task_options(p, features=False)
    p.add_argument("--out", required=True, help="output head path")
    p.add_argument("--zsl-only", action="store_true", help="emit only the injected rows")
    p.set_defaults(func=cmd_inject)

    p = sub.add_parser("eval", help="score a head on labelled features")
    _add_task_options(p, descriptors=False)
    p.add_argument("--report-dir", default=None)
    p.add_argument("--zsl-only", action="store_true",
                   help="restrict the decision to the manifest's unseen classes")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="train and evaluate the cumulative ablation ladder")
    _add_task_options(p)
    p.add_argument("--out", required=True)
    _add_run_options(p)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("sweep", help="vary the seen-pair fraction for every ablation variant")
    _add_task_options(p)
    p.add_argument("--out", required=True)
    p.add_argument("--fractions", default="0.25,0.5,0.75,1.0")
    _add_run_options(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("analyze", help="similarity-rank histogram of one class's predictions")
    _add_task_options(p)
    p.add_argument("--class", dest="class_id", required=True)
    p.add_argument("--bin-size", type=int, default=10)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("baseline", help="run an adapted baseline end to end")
    p.add_argument("--method", required=True,
                   choices=["conse", "costa", "subreg", "dae", "wavg", "smo"])
    _add_task_options(p)
    p.add_argument("--out", default=None)
    p.add_argument("--top-t", type=int, default=10)
    p.add_argument("--temperature", type=float, default=0.1)
    p.add_argument("--gamma", type=float, default=1e-3)
    p.add_argument("--lam", type=float, default=1.0)
    p.add_argument("--base", choices=["wavg", "costa", "smo"], default="wavg")
    p.add_argument("--distance", choices=["cosine", "l2"], default="l2")
    # baselines do not regress biases
    _add_run_options(p, include_bias=False)
    p.set_defaults(func=cmd_baseline)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DivergenceError, ZeroNormError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (IcisError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
