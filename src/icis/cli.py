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
from dataclasses import asdict
from pathlib import Path

from . import baselines as bl
from .data import (
    load_classifier_head,
    load_descriptor_set,
    load_feature_set,
    load_manifest,
    make_pairs,
    save_ids,
    save_manifest,
    save_matrix,
    subsample_pairs,
    synth_generate,
)
from .errors import DivergenceError, IcisError, ZeroNormError
from .evaluation import (
    EvalReport,
    evaluate,
    failure_histogram,
    harmonic_mean,
    micro_accuracy,
    per_class_mean_accuracy,
)
from .model import (
    DEFAULT_HIDDEN,
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
from .tensor import RngState

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_DIVERGED = 4

# a2w, the regression term, is always on; each other term maps to its LossConfig switch
TERM_FLAGS = {"a2a": "use_a_to_a", "w2w": "use_w_to_w", "w2a": "use_w_to_a"}
TERMS = ("a2w", *TERM_FLAGS)


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
    p.add_argument("--hidden-dim", type=int, default=DEFAULT_HIDDEN)
    p.add_argument("--lr", type=float, default=1e-5)
    p.add_argument("--batch", type=int, default=16)
    p.add_argument("--max-epochs", type=int, default=500)
    p.add_argument("--stop-window", type=int, default=10)
    p.add_argument("--stop-threshold", type=float, default=2e-4)
    p.add_argument("--seed", type=int, default=0)
    if include_bias:
        p.add_argument("--include-bias", action="store_true",
                       help="regress head biases as a trailing weight coordinate")


def _add_loss_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--distance", choices=["cosine", "l2"], default="cosine")
    p.add_argument("--terms", default="a2w,a2a,w2w,w2a",
                   help="comma list of loss terms; a2w is mandatory")
    p.add_argument("--include-unseen-desc", action=argparse.BooleanOptionalAction, default=True,
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


def _load_task(args):
    """Read the task files in one fixed order: manifest, descriptors, head
    (seen flags from the manifest, optional biases), features. A file the
    subcommand does not take comes back as ``None``."""
    manifest = load_manifest(args.manifest)
    descriptors = load_descriptor_set(args.descriptors) if "descriptors" in args else None
    head = load_classifier_head(args.head, seen_ids=manifest.seen, biases_path=args.biases)
    features = load_feature_set(args.features) if "features" in args else None
    return manifest, descriptors, head, features


def _load_split_task(args):
    """:func:`_load_task` for a command that evaluates: the features come
    back split once into their unseen and seen parts, in the GZSL protocol's
    fixed split, and the whole set is not kept."""
    manifest, descriptors, head, features = _load_task(args)
    split = (features.restrict_to(manifest.unseen), features.restrict_to(manifest.seen))
    return manifest, descriptors, head, split


def _train_once(pairs, unseen_rows, loss_config, train_config, include_bias, run_dir: Path):
    """One training run in its own directory: config, trace, checkpoint.
    ``unseen_rows`` join the descriptor autoencoder only if the loss uses them."""
    model = IcisModel.init(pairs.descriptors.shape[1], pairs.weights.shape[1],
                           train_config.hidden_dim,
                           RngState(train_config.seed).spawn("model-init"))
    run_dir.mkdir(parents=True, exist_ok=True)
    settings = dict(sorted(asdict(train_config).items()))
    settings.update(sorted(asdict(loss_config).items()))
    settings["include_bias"] = include_bias
    config_path = run_dir / "config.txt"
    _write_config(config_path, settings)
    started = time.monotonic()
    try:
        trace = train(model, pairs, unseen_rows, loss_config, train_config)
    except DivergenceError as exc:
        if exc.trace is not None:
            exc.trace.to_csv(run_dir / "trace.csv")
        raise
    settings["wall_clock_s"] = f"{time.monotonic() - started:.3f}"
    _write_config(config_path, settings)
    trace.to_csv(run_dir / "trace.csv")
    save_checkpoint(run_dir / "model.ckpt", model, loss_config,
                    include_bias=include_bias, seed=train_config.seed)
    return model, trace


def _evaluate_task(head_with_new, split, manifest) -> EvalReport:
    """``evaluate`` on the ``(unseen, seen)`` features of :func:`_load_split_task`."""
    unseen_feats, seen_feats = split
    return evaluate(
        head_with_new,
        unseen_feats,
        seen_feats if seen_feats.n_samples else None,
        unseen_ids=manifest.unseen,
    )


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
    manifest, descriptors, head, _ = _load_task(args)
    loss_config = _loss_config_from_args(args)
    train_config = _train_config_from_args(args)
    pairs = make_pairs(descriptors, head.subset(manifest.seen), include_bias=args.include_bias)
    # only a loss that uses them needs a descriptor for every unseen class
    unseen_rows = descriptors.subset(manifest.unseen).matrix if loss_config.uses_unseen_descriptors else None
    run_dir = Path(args.out)
    _, trace = _train_once(pairs, unseen_rows, loss_config, train_config, args.include_bias, run_dir)
    tail = trace.total[-1] if trace.total else float("nan")
    print(f"trained {trace.epochs_run} epochs (stopped_early={trace.stopped_early}), "
          f"final loss {tail:.6f}; checkpoint at {run_dir / 'model.ckpt'}")
    return EXIT_OK


def cmd_inject(args) -> int:
    manifest, descriptors, head, _ = _load_task(args)
    model, _loss_config, meta = load_checkpoint(args.checkpoint)
    include_bias = bool(int(meta.get("include_bias", "0")))
    if not manifest.unseen:
        raise IcisError("manifest lists no unseen classes to inject")
    unseen = descriptors.subset(manifest.unseen)
    new_head = infer_and_inject(model, head, unseen.matrix, unseen.class_ids,
                                include_bias=include_bias, zsl_only=args.zsl_only)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    bias_path = out.with_name(out.stem + ".biases" + out.suffix) if new_head.biases is not None else None
    new_head.save(out, bias_path)
    print(f"wrote head with {new_head.n_classes} classes to {out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    manifest, _, head, split = _load_split_task(args)
    if args.zsl_only:
        known = set(head.class_ids)
        present = [c for c in manifest.unseen if c in known]
        head = head.subset(present)
        report = evaluate(head, split[0].restrict_to(present), None, unseen_ids=present)
    else:
        report = _evaluate_task(head, split, manifest)
    sys.stdout.write(report.to_text())
    if args.report_dir:
        _write_report(Path(args.report_dir), report)
    return EXIT_OK


def _run_variant(name, loss_config, pairs, unseen, head, manifest, split,
                 train_config, include_bias, run_dir):
    """Train on one (possibly subsampled) pair set, inject the ``unseen``
    descriptors' rows into the full head, evaluate, and persist the run
    artifacts."""
    model, trace = _train_once(pairs, unseen.matrix, loss_config, train_config, include_bias, run_dir)
    new_head = infer_and_inject(model, head, unseen.matrix, unseen.class_ids,
                                include_bias=include_bias)
    report = _evaluate_task(new_head, split, manifest)
    _write_report(run_dir, report)
    print(f"{name}: zsl={report.zsl_accuracy:.2f} unseen={report.gzsl_unseen:.2f} "
          f"seen={_fmt(report.gzsl_seen)} H={_fmt(report.harmonic)} "
          f"entropy={report.entropy_unseen:.3f} epochs={trace.epochs_run}")
    return report, trace


def cmd_ablate(args) -> int:
    manifest, descriptors, head, split = _load_split_task(args)
    out = Path(args.out)
    train_config = _train_config_from_args(args)
    pairs = make_pairs(descriptors, head.subset(manifest.seen), include_bias=args.include_bias)
    unseen = descriptors.subset(manifest.unseen)
    lines = ["variant,zsl,gzsl_unseen,gzsl_seen,harmonic,entropy_unseen,epochs"]
    for name, loss_config in ablation_variants().items():
        report, trace = _run_variant(name, loss_config, pairs, unseen, head, manifest, split,
                                     train_config, args.include_bias, out / name)
        lines.append(
            f"{name},{report.zsl_accuracy:.4f},{report.gzsl_unseen:.4f},"
            f"{_fmt(report.gzsl_seen, '%.4f')},{_fmt(report.harmonic, '%.4f')},"
            f"{report.entropy_unseen:.6f},{trace.epochs_run}"
        )
    (out / "summary.csv").write_text("".join(f"{l}\n" for l in lines), encoding="utf-8")
    return EXIT_OK


def cmd_sweep(args) -> int:
    manifest, descriptors, head, split = _load_split_task(args)
    out = Path(args.out)
    try:
        fractions = [float(f) for f in args.fractions.split(",") if f.strip()]
    except ValueError as exc:
        raise IcisError(f"bad --fractions value: {exc}") from None
    if not fractions:
        raise IcisError("no fractions given")
    train_config = _train_config_from_args(args)
    all_seen = make_pairs(descriptors, head.subset(manifest.seen), include_bias=args.include_bias)
    unseen = descriptors.subset(manifest.unseen)
    lines = ["variant,fraction,n_seen_pairs,zsl,gzsl_unseen,gzsl_seen,harmonic"]
    for name, loss_config in ablation_variants().items():
        for fraction in fractions:
            # train on the subsampled pairs; injection still extends the full head
            sub = subsample_pairs(all_seen, fraction, args.seed)
            run_dir = out / name / f"fraction_{fraction:g}"
            report, _trace = _run_variant(f"{name} @ {fraction:g}", loss_config, sub, unseen, head,
                                          manifest, split, train_config, args.include_bias, run_dir)
            lines.append(
                f"{name},{fraction:g},{len(sub)},{report.zsl_accuracy:.4f},"
                f"{report.gzsl_unseen:.4f},{_fmt(report.gzsl_seen, '%.4f')},"
                f"{_fmt(report.harmonic, '%.4f')}"
            )
    (out / "summary.csv").write_text("".join(f"{l}\n" for l in lines), encoding="utf-8")
    return EXIT_OK


def cmd_analyze(args) -> int:
    _, descriptors, head, features = _load_task(args)
    record = failure_histogram(head, features, descriptors, args.class_id, bin_size=args.bin_size)
    sys.stdout.write(record.to_text())
    if args.out:
        Path(args.out).write_text(record.to_json() + "\n", encoding="utf-8")
    return EXIT_OK


def _conse_report(manifest, descriptors, seen_head, seen_desc, unseen_desc, split, top_t) -> EvalReport:
    unseen_feats, seen_feats = split
    report = EvalReport(n_unseen_samples=unseen_feats.n_samples)
    zsl_pred = bl.conse_classify(seen_head, seen_desc, unseen_desc, unseen_feats.features, top_t)
    report.zsl_accuracy, per_class = per_class_mean_accuracy(unseen_feats.labels, zsl_pred, manifest.unseen)
    report.zsl_micro = micro_accuracy(unseen_feats.labels, zsl_pred)
    report.per_class["zsl"] = per_class
    all_pred = bl.conse_classify(seen_head, seen_desc, descriptors, unseen_feats.features, top_t)
    report.gzsl_unseen, _ = per_class_mean_accuracy(unseen_feats.labels, all_pred, manifest.unseen)
    if seen_feats.n_samples:
        seen_pred = bl.conse_classify(seen_head, seen_desc, descriptors, seen_feats.features, top_t)
        report.gzsl_seen, _ = per_class_mean_accuracy(seen_feats.labels, seen_pred, manifest.seen)
        report.harmonic = harmonic_mean(report.gzsl_unseen, report.gzsl_seen)
        report.n_seen_samples = seen_feats.n_samples
    return report


def cmd_baseline(args) -> int:
    manifest, descriptors, head, split = _load_split_task(args)
    seen_head = head.subset(manifest.seen)
    seen_desc = descriptors.subset(manifest.seen)
    unseen_desc = descriptors.subset(manifest.unseen)
    method = args.method
    # rows of the similarity baselines; dae refines the rows of its --base method
    row_builders = {
        "costa": lambda: bl.costa_weights(unseen_desc, seen_desc, seen_head),
        "wavg": lambda: bl.vgse_wavg_weights(unseen_desc, seen_desc, seen_head, temperature=args.temperature),
        "smo": lambda: bl.vgse_smo_weights(unseen_desc, seen_desc, seen_head, gamma=args.gamma),
    }

    if method == "conse":
        report = _conse_report(manifest, descriptors, seen_head, seen_desc, unseen_desc,
                               split, args.top_t)
    else:
        if method in row_builders:
            rows = row_builders[method]()
        elif method == "dae":
            rows = bl.dae_refine(seen_head.weights, row_builders[args.base](), seed=args.seed)
        elif method == "subreg":
            pairs = make_pairs(descriptors, seen_head)
            model = IcisModel.init(pairs.descriptors.shape[1], pairs.weights.shape[1],
                                   args.hidden_dim, RngState(args.seed).spawn("model-init"))
            cfg = _train_config_from_args(args)
            trace = bl.train_subreg(model, pairs, unseen_desc.matrix, lam=args.lam,
                                    distance=args.distance, train_config=cfg)
            if args.out:
                run_dir = Path(args.out)
                run_dir.mkdir(parents=True, exist_ok=True)
                trace.to_csv(run_dir / "trace.csv")
            rows = infer_weights(model, unseen_desc.matrix)
        else:
            raise IcisError(f"unknown baseline method {method!r}")
        new_head = inject(head, manifest.unseen, rows)
        report = _evaluate_task(new_head, split, manifest)

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
    except IcisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
