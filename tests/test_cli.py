"""End-to-end tests of the command-line interface, run in process."""

import hashlib
import json
import struct
import tracemalloc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from icis import baselines, cli
from icis.cli import TERM_FLAGS, main
from icis.data import (
    ClassifierHead,
    FeatureSet,
    load_classifier_head,
    load_descriptor_set,
    load_feature_set,
    load_ids,
    load_manifest,
    load_matrix,
    save_matrix,
)
from icis.evaluation import evaluate
from icis.errors import DivergenceError
from icis.model import IcisModel, LossConfig, LossTrace, ablation_variants, inject, save_checkpoint
from icis.nn import LinearLayer
from icis.tensor import RngState, row_blocks

SYNTH = [
    "synth",
    "--seed", "3",
    "--seen", "8",
    "--unseen", "3",
    "--desc-dim", "5",
    "--weight-dim", "6",
    "--samples-per-class", "3",
    "--feature-noise", "0.05",
]

FAST = ["--hidden-dim", "16", "--lr", "1e-3", "--max-epochs", "10", "--seed", "0"]


def _synth(tmp_path):
    task = tmp_path / "task"
    assert main(SYNTH + ["--out", str(task)]) == 0
    return task


def _task_args(task):
    return [
        "--descriptors", str(task / "descriptors.wsmat"),
        "--head", str(task / "head.wsmat"),
        "--manifest", str(task / "manifest.txt"),
    ]


def test_synth_writes_all_artifacts(tmp_path):
    task = _synth(tmp_path)
    for name in (
        "descriptors.wsmat", "descriptors.ids",
        "head.wsmat", "head.ids",
        "features.wsmat", "features.ids",
        "manifest.txt", "true_unseen.wsmat", "true_unseen.ids",
    ):
        assert (task / name).exists(), name
    assert load_matrix(task / "descriptors.wsmat").shape == (11, 5)
    assert load_ids(task / "head.ids") == [f"c{i:03d}" for i in range(8)]
    assert load_matrix(task / "true_unseen.wsmat").shape == (3, 6)


def test_train_inject_eval_pipeline(tmp_path, capsys):
    task = _synth(tmp_path)
    run = tmp_path / "run"
    assert main(["train", *_task_args(task), "--out", str(run), *FAST]) == 0
    for name in ("config.txt", "trace.csv", "model.ckpt"):
        assert (run / name).exists(), name
    config = dict(
        line.split("=", 1) for line in (run / "config.txt").read_text().splitlines()
    )
    assert config["hidden_dim"] == "16"
    assert config["distance"] == "cosine"
    assert float(config["wall_clock_s"]) >= 0.0
    trace_lines = (run / "trace.csv").read_text().splitlines()
    assert trace_lines[0] == "epoch,total,reg,a_to_a,w_to_w,w_to_a"
    assert len(trace_lines) == 11  # header + 10 epochs

    full = tmp_path / "head_full.wsmat"
    assert main([
        "inject",
        "--checkpoint", str(run / "model.ckpt"),
        *_task_args(task),
        "--out", str(full),
    ]) == 0
    head = load_classifier_head(full)
    assert head.n_classes == 11

    capsys.readouterr()
    assert main([
        "eval",
        "--head", str(full),
        "--features", str(task / "features.wsmat"),
        "--manifest", str(task / "manifest.txt"),
        "--report-dir", str(tmp_path / "report"),
    ]) == 0
    out = capsys.readouterr().out
    assert "zsl_accuracy = " in out
    assert "harmonic = " in out
    payload = json.loads((tmp_path / "report" / "report.structured").read_text())
    assert payload["n_unseen_samples"] == 9
    assert (tmp_path / "report" / "report.txt").exists()


def test_train_is_deterministic_per_seed(tmp_path):
    task = _synth(tmp_path)
    r1, r2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["train", *_task_args(task), "--out", str(r1), *FAST]) == 0
    assert main(["train", *_task_args(task), "--out", str(r2), *FAST]) == 0
    assert (r1 / "model.ckpt").read_bytes() == (r2 / "model.ckpt").read_bytes()
    assert (r1 / "trace.csv").read_text() == (r2 / "trace.csv").read_text()


def test_train_term_selection_lands_in_config_and_trace(tmp_path):
    task = _synth(tmp_path)
    run = tmp_path / "reg_only"
    assert main([
        "train", *_task_args(task), "--out", str(run), *FAST,
        "--terms", "a2w", "--no-include-unseen-desc",
    ]) == 0
    config = dict(
        line.split("=", 1) for line in (run / "config.txt").read_text().splitlines()
    )
    assert config["use_a_to_a"] == "False"
    assert config["use_w_to_a"] == "False"
    assert config["include_unseen_descriptors"] == "False"
    line = (run / "trace.csv").read_text().splitlines()[1].split(",")
    # only the regression column is populated
    assert float(line[2]) > 0.0
    assert line[3] == line[4] == line[5] == "0.0"


def test_train_unknown_term_is_a_data_error(tmp_path):
    task = _synth(tmp_path)
    code = main(["train", *_task_args(task), "--out", str(tmp_path / "x"), "--terms", "a2w,zzz"])
    assert code == 3


def test_train_without_the_regression_term_is_a_data_error(tmp_path, capsys):
    task = _synth(tmp_path)
    out = tmp_path / "x"
    assert main(["train", *_task_args(task), "--out", str(out), "--terms", "a2a,w2w"]) == 3
    assert "the descriptor-to-weight regression term cannot be disabled" in capsys.readouterr().err
    assert not out.exists()


def test_inject_zsl_only_emits_just_unseen_rows(tmp_path):
    task = _synth(tmp_path)
    run = tmp_path / "run"
    main(["train", *_task_args(task), "--out", str(run), *FAST])
    out = tmp_path / "unseen_only.wsmat"
    assert main([
        "inject", "--checkpoint", str(run / "model.ckpt"),
        *_task_args(task), "--out", str(out), "--zsl-only",
    ]) == 0
    head = load_classifier_head(out)
    assert head.class_ids == ["c008", "c009", "c010"]


@pytest.mark.parametrize("old, new, where", [
    (b"use_a_to_a=1", b"use_a_to_a=x", "header line 6: use_a_to_a='x' is not 0 or 1"),
    (b"include_bias=0", b"include_bias=2", "header line 10: include_bias='2' is not 0 or 1"),
    (b"hidden=16", b"hidden=1x", "header line 4: hidden='1x' is not an integer"),
    (b"distance=cosine", b"distance=cosinx", "header line 5: unknown distance 'cosinx'"),
    (b"use_w_to_w=1", b"use_w_to_w=\xff", "header is not UTF-8"),
])
def test_inject_rejects_a_malformed_checkpoint_header(tmp_path, capsys, old, new, where):
    task = _synth(tmp_path)
    run = tmp_path / "run"
    assert main(["train", *_task_args(task), "--out", str(run), *FAST, "--max-epochs", "1"]) == 0
    ckpt = run / "model.ckpt"
    raw = ckpt.read_bytes()
    assert raw.count(old) == 1 and len(old) == len(new)
    ckpt.write_bytes(raw.replace(old, new))
    capsys.readouterr()
    code = main(["inject", "--checkpoint", str(ckpt), *_task_args(task), "--out", str(tmp_path / "h.wsmat")])
    assert code == 3
    err = capsys.readouterr().err
    assert str(ckpt) in err and where in err


def test_inject_refuses_a_checkpoint_whose_decoder_does_not_invert_its_encoder(tmp_path, capsys):
    # the header and every block are well formed, but the descriptor decoder
    # maps the latent to 4 dims where its encoder reads 5: the model is refused
    task = _synth(tmp_path)
    rng = RngState(2)
    layers = (LinearLayer.init(5, 8, rng, True), LinearLayer.init(8, 4, rng, False),
              LinearLayer.init(6, 8, rng, True), LinearLayer.init(8, 6, rng, False))
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, SimpleNamespace(d_a=5, d_w=6, hidden=8, layers=lambda: layers))
    capsys.readouterr()
    code = main(["inject", "--checkpoint", str(ckpt), *_task_args(task), "--out", str(tmp_path / "h.wsmat")])
    assert code == 3
    err = capsys.readouterr().err
    assert str(ckpt) in err and "decoder output dims (4, 6) must match encoder input dims (5, 6)" in err
    assert not (tmp_path / "h.wsmat").exists()


def test_inject_preserves_seen_rows_bit_for_bit(tmp_path):
    task = _synth(tmp_path)
    run = tmp_path / "run"
    main(["train", *_task_args(task), "--out", str(run), *FAST])
    full = tmp_path / "full.wsmat"
    main(["inject", "--checkpoint", str(run / "model.ckpt"), *_task_args(task), "--out", str(full)])
    original = load_matrix(task / "head.wsmat")
    extended = load_matrix(full)
    assert np.array_equal(extended[:8], original)


def test_eval_zsl_only_restricts_the_decision(tmp_path, capsys):
    task = _synth(tmp_path)
    run = tmp_path / "run"
    main(["train", *_task_args(task), "--out", str(run), *FAST])
    full = tmp_path / "full.wsmat"
    main(["inject", "--checkpoint", str(run / "model.ckpt"), *_task_args(task), "--out", str(full)])
    capsys.readouterr()
    assert main([
        "eval", "--head", str(full),
        "--features", str(task / "features.wsmat"),
        "--manifest", str(task / "manifest.txt"), "--zsl-only",
    ]) == 0
    out = capsys.readouterr().out
    assert "n_seen_samples = 0" in out
    assert "harmonic" not in out
    values = dict(
        line.split(" = ") for line in out.strip().splitlines()
    )
    assert values["zsl_accuracy"] == values["gzsl_unseen"]


@pytest.mark.parametrize("zsl_only", [False, True])
def test_eval_refuses_a_head_without_the_manifests_unseen_classes(tmp_path, capsys, zsl_only):
    # the synth head holds the seen classes c000-c007 only; the manifest's unseen ones are c008-c010
    task = _synth(tmp_path)
    capsys.readouterr()
    assert main([
        "eval", "--head", str(task / "head.wsmat"), "--manifest", str(task / "manifest.txt"),
        "--features", str(task / "features.wsmat"), *(["--zsl-only"] if zsl_only else []),
    ]) == 3
    err = capsys.readouterr().err
    assert err == f"error: {task / 'head.wsmat'}: head has no row for the manifest's unseen class 'c008'\n"


def test_eval_refuses_a_head_without_a_seen_class_of_the_features_naming_the_head(tmp_path, capsys):
    # a head that lost the seen class c004 but holds the unseen ones; the features keep c004's samples
    task = _synth(tmp_path)
    head = load_classifier_head(task / "head.wsmat")
    head = head.subset([c for c in head.class_ids if c != "c004"])
    lost = inject(head, load_ids(task / "true_unseen.ids"), load_matrix(task / "true_unseen.wsmat"))
    lost.save(tmp_path / "lost.wsmat")
    capsys.readouterr()
    assert main(["eval", "--head", str(tmp_path / "lost.wsmat"), "--manifest", str(task / "manifest.txt"),
                 "--features", str(task / "features.wsmat")]) == 3
    assert capsys.readouterr().err == f"error: {tmp_path / 'lost.wsmat'}: unknown class id 'c004'\n"


def test_exit_codes(tmp_path):
    task = _synth(tmp_path)
    # missing input file -> data error
    assert main([
        "eval", "--head", str(tmp_path / "nope.wsmat"),
        "--features", str(task / "features.wsmat"),
        "--manifest", str(task / "manifest.txt"),
    ]) == 3
    # argparse usage error -> SystemExit(2)
    with pytest.raises(SystemExit) as exc:
        main(["train", "--bogus"])
    assert exc.value.code == 2
    # baselines regress no biases, so --include-bias is not one of their options
    with pytest.raises(SystemExit) as exc:
        main(["baseline", "--method", "costa", *_task_args(task),
              "--features", str(task / "features.wsmat"), "--include-bias"])
    assert exc.value.code == 2
    # a negative learning rate is rejected before training -> data error
    assert main([
        "train", *_task_args(task), "--out", str(tmp_path / "neg"),
        "--hidden-dim", "8", "--lr", "-1", "--max-epochs", "1",
    ]) == 3
    # numeric divergence -> 4, with the partial trace preserved
    div = tmp_path / "div"
    code = main([
        "train", *_task_args(task), "--out", str(div),
        "--hidden-dim", "8", "--lr", "1e9", "--max-epochs", "30", "--distance", "l2",
    ])
    assert code == 4
    assert (div / "trace.csv").exists()
    # so does the subreg baseline, which writes no checkpoint or report
    div = tmp_path / "subreg-div"
    code = main([
        "baseline", "--method", "subreg", *_task_args(task), "--features", str(task / "features.wsmat"),
        "--out", str(div), "--hidden-dim", "8", "--lr", "1e6", "--max-epochs", "5", "--distance", "l2",
    ])
    assert code == 4
    assert sorted(p.name for p in div.iterdir()) == ["trace.csv"]


@pytest.mark.parametrize("command, flags", [
    ("synth", ["--seed", "-1"]),
    ("synth", ["--samples-per-class", "-1"]),
    ("train", ["--seed", "-3"]),
    ("ablate", ["--seed", "-1"]),
    ("sweep", ["--seed", "-2"]),
    ("baseline", ["--method", "dae", "--seed", "-1"]),
    ("baseline", ["--method", "subreg", "--seed", "-1"]),
])
def test_negative_seeds_and_sample_counts_are_data_errors(tmp_path, capsys, command, flags):
    out = ["--out", str(tmp_path / "out")]
    if command == "synth":
        args = SYNTH + out
    else:
        task = _synth(tmp_path)
        features = [] if command == "train" else ["--features", str(task / "features.wsmat")]
        args = [command, *_task_args(task), *features, *out, *FAST]
    capsys.readouterr()
    assert main(args + flags) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "must be >= 0" in err, err


@pytest.mark.parametrize("command, flags, message", [
    ("ablate", ["--seed", "-1"], "must be >= 0"),
    ("sweep", ["--fractions", "x"], "bad --fractions value"),
    ("sweep", ["--fractions", "0.5,1.5"], "fraction must be in (0, 1], got 1.5"),
    ("sweep", ["--fractions", "0.5,0.1"], "fraction 0.1 leaves 1 pairs"),
    ("sweep", ["--fractions", "0.5,0.50"], "run directory fraction_0.5 twice"),
    # a manifest whose [unseen] section is empty
    ("ablate", ["no-unseen"], "seen_only.txt: the [unseen] section lists no classes\n"),
    ("sweep", ["no-unseen"], "seen_only.txt: the [unseen] section lists no classes\n"),
    ("baseline", ["--method", "subreg", "no-unseen"], "seen_only.txt: the [unseen] section lists no classes\n"),
    # features one column narrower than the head, named by their file
    ("ablate", ["narrow"], "narrow.wsmat: feature dim 5 does not match head weight dim 6"),
    ("baseline", ["--method", "subreg", "narrow"], "narrow.wsmat: feature dim 5 does not match head weight dim 6"),
    # a features file cut short by one value (33 x 6 values need 808 bytes), and one whose
    # last value is a NaN, each named by its file with the byte offset
    ("ablate", ["cut"], "cut.wsmat (byte 804): truncated payload for declared shape (33, 6)"),
    ("sweep", ["cut"], "cut.wsmat (byte 804): truncated payload for declared shape (33, 6)"),
    ("ablate", ["nan"], "nan.wsmat (byte 804): payload contains a non-finite value"),
    ("sweep", ["nan"], "nan.wsmat (byte 804): payload contains a non-finite value"),
], ids=["ablate-flags0", "sweep-flags1", "sweep-fraction-above-one", "sweep-one-pair",
        "sweep-one-directory-twice", "ablate-no-unseen", "sweep-no-unseen", "baseline-subreg-no-unseen",
        "ablate-narrow-features", "baseline-subreg-narrow-features", "ablate-cut-features",
        "sweep-cut-features", "ablate-nan-features", "sweep-nan-features"])
def test_refused_ladder_runs_leave_no_out_directory(tmp_path, capsys, command, flags, message):
    task = _synth(tmp_path)
    out = tmp_path / "out"
    for kind in {"cut", "nan"} & set(flags):
        payload = (task / "features.wsmat").read_bytes()[:-4]
        (tmp_path / f"{kind}.wsmat").write_bytes(payload + (struct.pack("<f", np.nan) if kind == "nan" else b""))
        (tmp_path / f"{kind}.ids").write_bytes((task / "features.ids").read_bytes())
        flags = [f for f in flags if f != kind] + ["--features", str(tmp_path / f"{kind}.wsmat")]
    if "no-unseen" in flags:
        manifest = tmp_path / "seen_only.txt"
        manifest.write_text("[seen]\n" + "".join(f"{c}\n" for c in load_manifest(task / "manifest.txt").seen))
        flags = [f for f in flags if f != "no-unseen"] + ["--manifest", str(manifest)]
    if "narrow" in flags:
        features = load_matrix(task / "features.wsmat")
        FeatureSet(features[:, :-1], load_ids(task / "features.ids")).save(tmp_path / "narrow.wsmat")
        flags = [f for f in flags if f != "narrow"] + ["--features", str(tmp_path / "narrow.wsmat")]
    args = [command, *_task_args(task), "--features", str(task / "features.wsmat"), "--out", str(out), *FAST]
    assert main(args + flags) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err, err
    assert not out.exists()


@pytest.mark.parametrize("fractions, message", [
    ("x", "bad --fractions value"),
    ("", "no fractions given"),
    (" , ", "no fractions given"),
])
def test_sweep_refuses_a_malformed_fraction_list_before_reading_a_file(tmp_path, capsys, fractions, message):
    task = _synth(tmp_path)
    out = tmp_path / "out"
    args = ["sweep", *_task_args(task), "--features", str(task / "features.wsmat"), "--out", str(out), *FAST]
    # the head is missing, so reading it first would report that instead
    args[args.index("--head") + 1] = str(tmp_path / "missing.wsmat")
    assert main(args + ["--fractions", fractions]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and "missing.wsmat" not in err, err
    assert not out.exists()


@pytest.mark.parametrize("method, flag, value, message", [
    ("wavg", "--temperature", "nan", "temperature must be finite and > 0, got nan"),
    ("wavg", "--temperature", "inf", "temperature must be finite and > 0, got inf"),
    ("smo", "--gamma", "nan", "gamma must be finite and >= 0, got nan"),
    ("smo", "--gamma", "inf", "gamma must be finite and >= 0, got inf"),
    ("subreg", "--lam", "-1", "lam must be finite and >= 0, got -1.0"),
    ("subreg", "--lam", "nan", "lam must be finite and >= 0, got nan"),
    ("subreg", "--lam", "inf", "lam must be finite and >= 0, got inf"),
])
def test_baseline_hyperparameters_are_refused_by_name(tmp_path, capsys, recwarn, method, flag, value, message):
    task = _synth(tmp_path)
    out = tmp_path / "out"
    assert main([
        "baseline", "--method", method, *_task_args(task), "--features", str(task / "features.wsmat"),
        "--out", str(out), *FAST, flag, value,
    ]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()
    assert not recwarn.list


# per subcommand: the files it reads, in reading order, and the other flags it needs
READ_ORDER = {
    "train": (["manifest", "descriptors", "head", "biases"], ["--out", "run"]),
    "inject": (["manifest", "descriptors", "head", "biases", "checkpoint"], ["--out", "h.wsmat"]),
    "eval": (["manifest", "head", "biases", "features"], []),
    "ablate": (["manifest", "descriptors", "head", "biases", "features"], ["--out", "abl"]),
    "sweep": (["manifest", "descriptors", "head", "biases", "features"], ["--out", "swp"]),
    "analyze": (["manifest", "descriptors", "head", "biases", "features"], ["--class", "c009"]),
    "baseline": (["manifest", "descriptors", "head", "biases", "features"], ["--method", "costa"]),
}


@pytest.mark.parametrize("command", sorted(READ_ORDER))
def test_the_first_missing_file_in_reading_order_is_reported(tmp_path, capsys, command):
    task = _synth(tmp_path)
    save_matrix(tmp_path / "biases.wsmat", np.zeros((1, 8)))
    present = {
        "manifest": task / "manifest.txt",
        "descriptors": task / "descriptors.wsmat",
        "head": task / "head.wsmat",
        "biases": tmp_path / "biases.wsmat",
        "features": task / "features.wsmat",
    }
    files, extra = READ_ORDER[command]
    for k, first_missing in enumerate(files):
        missing = {name: tmp_path / "missing" / f"{name}.wsmat" for name in files[k:]}
        paths = {name: missing.get(name, present.get(name)) for name in files}
        args = [command, *extra]
        for name, path in paths.items():
            args += [f"--{name}", str(path)]
        capsys.readouterr()
        assert main(args) == 3, first_missing
        err = capsys.readouterr().err
        assert err.startswith(f"error: {missing[first_missing]}: cannot read file"), err
        assert not any(str(path) in err for name, path in missing.items() if name != first_missing)


def test_train_reads_unseen_descriptors_only_when_it_uses_them(tmp_path, capsys):
    task = _synth(tmp_path)
    descriptors = load_descriptor_set(task / "descriptors.wsmat")
    assert descriptors.class_ids[-1] == "c010"  # an unseen class
    descriptors.subset(descriptors.class_ids[:-1]).save(tmp_path / "d.wsmat")
    args = ["train", *_task_args(task), "--descriptors", str(tmp_path / "d.wsmat"), *FAST]
    assert main([*args, "--out", str(tmp_path / "off"), "--no-include-unseen-desc"]) == 0
    # with the flag on, a loss without the descriptor autoencoder reads no unseen descriptor
    assert main([*args, "--out", str(tmp_path / "reg"), "--terms", "a2w"]) == 0
    capsys.readouterr()
    assert main([*args, "--out", str(tmp_path / "on")]) == 3
    assert "unknown class id 'c010'" in capsys.readouterr().err


@pytest.mark.parametrize("command, flags", [
    ("train", []),
    ("ablate", ["--features"]),
    ("baseline", ["--method", "costa", "--features"]),
], ids=["train", "ablate", "baseline"])
@pytest.mark.parametrize("name, missing", [("descriptors", "c003"), ("descriptors", "c009"), ("head", "c003")],
                         ids=["descriptors-seen", "descriptors-unseen", "head-seen"])
def test_a_task_file_without_a_manifest_class_is_refused_with_its_path(tmp_path, capsys, command, flags, name,
                                                                       missing):
    # the synth task's seen classes are c000-c007 and its unseen ones c008-c010
    task = _synth(tmp_path)
    path = tmp_path / f"short_{name}.wsmat"
    load = load_descriptor_set if name == "descriptors" else load_classifier_head
    full = load(task / f"{name}.wsmat")
    full.subset([c for c in full.class_ids if c != missing]).save(path)
    out = tmp_path / "out"
    args = [command, *_task_args(task), "--out", str(out), *FAST, *flags]
    if "--features" in flags:
        args.append(str(task / "features.wsmat"))
    args[args.index(f"--{name}") + 1] = str(path)
    capsys.readouterr()
    assert main(args) == 3
    assert capsys.readouterr().err == f"error: {path}: unknown class id '{missing}'\n"
    assert not out.exists()


def test_eval_zsl_only_of_a_saved_head_reports_as_evaluate_on_its_float64_rows(tmp_path):
    task = _synth(tmp_path)
    run, full = tmp_path / "run", tmp_path / "full.wsmat"
    assert main(["train", *_task_args(task), "--out", str(run), *FAST, "--include-bias"]) == 0
    assert main(["inject", "--checkpoint", str(run / "model.ckpt"), *_task_args(task), "--out", str(full)]) == 0
    assert main(["eval", "--head", str(full), "--manifest", str(task / "manifest.txt"),
                 "--features", str(task / "features.wsmat"), "--zsl-only", "--report-dir", str(tmp_path / "zsl")]) == 0
    saved = load_classifier_head(full)
    assert saved.weights.dtype == np.float32
    unseen = load_manifest(task / "manifest.txt").unseen
    rows = [saved.class_ids.index(c) for c in unseen]
    head = ClassifierHead(unseen, saved.weights[rows].astype(np.float64), saved.biases[rows])
    report = evaluate(head, load_feature_set(task / "features.wsmat").restrict_to(unseen), None, unseen_ids=unseen)
    assert (tmp_path / "zsl" / "report.structured").read_text() == report.to_json() + "\n"


def test_a_narrow_latent_dead_at_init_is_reported_as_a_zero_norm_prediction(tmp_path, capsys):
    # at width 2 some seen descriptors leave every latent unit inactive at
    # initialisation, so the decoder, whose bias starts at zero, predicts 0
    task = _synth(tmp_path)
    manifest = load_manifest(task / "manifest.txt")
    seen = load_descriptor_set(task / "descriptors.wsmat").subset(manifest.seen).matrix
    model = IcisModel.init(5, 6, 2, RngState(0).spawn("model-init"))
    assert np.any(np.linalg.norm(model.a_to_w.predict(seen), axis=1) == 0.0)
    args = ["train", *_task_args(task), "--out", str(tmp_path / "run"), *FAST, "--hidden-dim", "2"]
    assert main(args) == 4
    err = capsys.readouterr().err
    assert err == "error: zero-norm predicted row(s); the cosine distance is undefined for them\n"


def test_a_run_stopped_by_a_zero_norm_prediction_keeps_its_partial_trace(tmp_path, capsys):
    task = _synth(tmp_path)
    run = tmp_path / "run"
    assert main(["train", *_task_args(task), "--out", str(run), *FAST, "--hidden-dim", "2"]) == 4
    assert "zero-norm predicted row(s)" in capsys.readouterr().err
    # it stops on the first batch, so the trace has its header and no epoch
    assert (run / "trace.csv").read_text() == "epoch,total,reg,a_to_a,w_to_w,w_to_a\n"
    assert not (run / "model.ckpt").exists()


def test_eval_reads_the_biases_sidecar_that_inject_writes(tmp_path, capsys):
    task = _synth(tmp_path)
    run = tmp_path / "runb"
    assert main(["train", *_task_args(task), "--out", str(run), *FAST, "--include-bias"]) == 0
    full = tmp_path / "full_bias.wsmat"
    assert main(["inject", "--checkpoint", str(run / "model.ckpt"), *_task_args(task), "--out", str(full)]) == 0
    save_matrix(tmp_path / "zeros.wsmat", np.zeros((1, 11)))
    args = ["eval", "--head", str(full), "--manifest", str(task / "manifest.txt"),
            "--features", str(task / "features.wsmat")]
    reports = {}
    for name, biases in (("sidecar", []), ("explicit", ["--biases", str(tmp_path / "full_bias.biases.wsmat")]),
                         ("zeros", ["--biases", str(tmp_path / "zeros.wsmat")])):
        assert main([*args, *biases, "--report-dir", str(tmp_path / name)]) == 0
        reports[name] = (tmp_path / name / "report.structured").read_bytes()
    assert reports["sidecar"] == reports["explicit"]
    # an explicit --biases wins over the sidecar
    assert reports["zeros"] != reports["sidecar"]


def test_eval_biases_must_be_one_row(tmp_path, capsys):
    task = _synth(tmp_path)
    manifest = load_manifest(task / "manifest.txt")
    ids = manifest.seen + manifest.unseen
    ClassifierHead(ids, np.eye(len(ids), 6) + 0.1).save(tmp_path / "full.wsmat")
    args = ["eval", "--head", str(tmp_path / "full.wsmat"), "--biases", str(tmp_path / "b.wsmat"),
            "--features", str(task / "features.wsmat"), "--manifest", str(task / "manifest.txt")]
    save_matrix(tmp_path / "b.wsmat", np.zeros((1, len(ids))))
    assert main(args) == 0
    # the same 11 values as a column -> data error naming the file and its shape
    save_matrix(tmp_path / "b.wsmat", np.zeros((len(ids), 1)))
    capsys.readouterr()
    assert main(args) == 3
    assert "b.wsmat: bias matrix has shape (11, 1); expected one row" in capsys.readouterr().err


def _zeroed(task, tmp_path, name, class_ids):
    """A copy of the task's ``name`` matrix and sidecar with the rows of ``class_ids`` set to zero."""
    matrix, ids = load_matrix(task / f"{name}.wsmat"), load_ids(task / f"{name}.ids")
    matrix[[ids.index(c) for c in class_ids]] = 0.0
    path = tmp_path / f"zero_{name}.wsmat"
    save_matrix(path, matrix)
    (tmp_path / f"zero_{name}.ids").write_text("".join(f"{i}\n" for i in ids))
    return path


@pytest.mark.parametrize("case", ["biases-length", "ids-count", "ids-duplicate", "manifest-duplicate", "zero-norm-row",
                                  "analyze-narrow-features"])
def test_a_refusal_while_a_file_is_read_names_that_file(tmp_path, capsys, case):
    task = _synth(tmp_path)
    paths = {"head": task / "head.wsmat", "manifest": task / "manifest.txt"}
    command = ["eval", "--features", str(task / "features.wsmat")]
    if case == "biases-length":
        paths["biases"] = tmp_path / "b.wsmat"
        save_matrix(paths["biases"], np.zeros((1, 7)))
        expected = "b.wsmat: bias matrix has shape (1, 7); expected one row of 8 biases"
    elif case.startswith("ids-"):
        paths["head"] = tmp_path / "relisted.wsmat"
        save_matrix(paths["head"], load_matrix(task / "head.wsmat"))
        ids = load_ids(task / "head.ids")
        listed, expected = {
            "ids-count": (ids[:-1], "relisted.wsmat: weight matrix has 8 rows but 7 class ids"),
            "ids-duplicate": ([ids[0], *ids[:-1]], "relisted.wsmat: duplicate classifier id 'c000'"),
        }[case]
        (tmp_path / "relisted.ids").write_text("".join(f"{i}\n" for i in listed))
    elif case == "manifest-duplicate":
        paths["manifest"] = tmp_path / "dup.txt"
        text = (task / "manifest.txt").read_text()
        paths["manifest"].write_text(text.replace("[seen]\n", "[seen]\nc000\n"))
        expected = "dup.txt: duplicate seen id 'c000'"
    elif case == "zero-norm-row":
        paths["head"] = _zeroed(task, tmp_path, "head", ["c003", "c005"])
        expected = "zero_head.wsmat: classifier head contains zero-norm weight rows, first of class 'c003'"
    else:
        # features one column narrower than the head, with their sidecar
        features = load_matrix(task / "features.wsmat")
        FeatureSet(features[:, :-1], load_ids(task / "features.ids")).save(tmp_path / "narrow.wsmat")
        paths["descriptors"] = task / "descriptors.wsmat"
        command = ["analyze", "--class", "c008", "--features", str(tmp_path / "narrow.wsmat")]
        expected = "narrow.wsmat: feature dim 5 does not match head weight dim 6"
    args = list(command)
    for name, path in paths.items():
        args += [f"--{name}", str(path)]
    capsys.readouterr()
    assert main(args) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.rstrip().endswith(expected), err


SEEN = [f"c{i:03d}" for i in range(8)]


@pytest.mark.parametrize("command, flags, zero, code, message", [
    # a baseline that normalises descriptors names the zero rows' classes (exit 4, degenerate input)
    ("baseline", ["--method", "costa"], ["c009"], 4, "cannot normalise zero row(s) of class(es) ['c009']"),
    ("baseline", ["--method", "wavg"], ["c009"], 4, "cannot normalise zero row(s) of class(es) ['c009']"),
    ("baseline", ["--method", "conse"], ["c009"], 4, "cannot normalise zero row(s) of class(es) ['c009']"),
    # degenerate too: ConSE's combination of zero seen descriptors, and analyze's ranking
    ("baseline", ["--method", "conse"], SEEN, 4, "combined semantic vector collapsed to zero"),
    ("analyze", ["--class", "c008"], ["c009"], 4, "descriptor set has zero-norm rows; cosine ranks undefined"),
], ids=["baseline-costa", "baseline-wavg", "baseline-conse", "baseline-conse-seen", "analyze"])
def test_zero_norm_descriptors_exit_as_documented(tmp_path, capsys, command, flags, zero, code, message):
    task = _synth(tmp_path)
    out = tmp_path / "out"
    args = [command, *_task_args(task), "--features", str(task / "features.wsmat"), "--out", str(out), *flags]
    args[args.index("--descriptors") + 1] = str(_zeroed(task, tmp_path, "descriptors", zero))
    capsys.readouterr()
    assert main(args) == code
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_inject_refuses_a_manifest_without_unseen_classes(tmp_path, capsys):
    task = _synth(tmp_path)
    checkpoint = tmp_path / "model.ckpt"
    save_checkpoint(checkpoint, IcisModel.init(5, 6, 4, RngState(0)), LossConfig())
    manifest = tmp_path / "seen_only.txt"
    manifest.write_text("[seen]\n" + "".join(f"{c}\n" for c in load_manifest(task / "manifest.txt").seen))
    out = tmp_path / "full.wsmat"
    args = ["inject", "--checkpoint", str(checkpoint), *_task_args(task), "--manifest", str(manifest)]
    capsys.readouterr()
    assert main(args + ["--out", str(out)]) == 3
    assert capsys.readouterr().err == f"error: {manifest}: the [unseen] section lists no classes\n"
    assert not out.exists()


def test_eval_refuses_a_manifest_without_unseen_classes_naming_it(tmp_path, capsys):
    task = _synth(tmp_path)
    manifest = tmp_path / "seen_only.txt"
    manifest.write_text("[seen]\n" + "".join(f"{c}\n" for c in load_manifest(task / "manifest.txt").seen))
    capsys.readouterr()
    assert main(["eval", "--head", str(task / "head.wsmat"), "--manifest", str(manifest),
                 "--features", str(task / "features.wsmat")]) == 3
    # eval injects nothing, so the message does not say "to inject"
    assert capsys.readouterr().err == f"error: {manifest}: the [unseen] section lists no classes\n"


@pytest.mark.parametrize("zsl_only", [False, True])
def test_inject_refuses_unseen_classes_the_head_already_holds_naming_the_manifest(tmp_path, capsys, zsl_only):
    task = _synth(tmp_path)
    run, full, again = tmp_path / "run", tmp_path / "full.wsmat", tmp_path / "again.wsmat"
    assert main(["train", *_task_args(task), "--out", str(run), *FAST]) == 0
    inject = ["inject", "--checkpoint", str(run / "model.ckpt"), *_task_args(task)]
    assert main(inject + ["--out", str(full)]) == 0
    # the injected head already holds the manifest's unseen classes
    inject[inject.index("--head") + 1] = str(full)
    capsys.readouterr()
    assert main(inject + ["--out", str(again), *(["--zsl-only"] if zsl_only else [])]) == 3
    assert capsys.readouterr().err == (
        f"error: {task / 'manifest.txt'}: unseen classes the head already holds: ['c008', 'c009', 'c010']\n")
    assert not again.exists()


def test_analyze_refuses_a_head_class_without_a_descriptor_naming_the_descriptors(tmp_path, capsys):
    task = _synth(tmp_path)
    head = load_classifier_head(task / "head.wsmat")
    extra = tmp_path / "extra.wsmat"
    ClassifierHead(head.class_ids + ["x999"], np.vstack([head.weights, head.weights[:1]])).save(extra)
    args = ["analyze", *_task_args(task), "--features", str(task / "features.wsmat")]
    capsys.readouterr()
    assert main(args + ["--head", str(extra), "--class", "c001"]) == 3
    assert capsys.readouterr().err == f"error: {task / 'descriptors.wsmat'}: unknown class id 'x999'\n"
    # the histogram's own refusals name no file, as before
    assert main(args + ["--class", "nope"]) == 3
    assert capsys.readouterr().err == "error: no samples labelled 'nope' in the feature set\n"


def test_an_out_directory_that_is_a_regular_file_is_a_data_error(tmp_path, capsys):
    task = _synth(tmp_path)
    out = tmp_path / "taken"
    out.write_text("not a directory\n")
    capsys.readouterr()
    assert main(["train", *_task_args(task), "--out", str(out), *FAST]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno") and str(out) in err, err
    assert out.read_text() == "not a directory\n"


def test_ablate_runs_the_full_ladder(tmp_path, capsys):
    task = _synth(tmp_path)
    out = tmp_path / "abl"
    assert main([
        "ablate", *_task_args(task),
        "--features", str(task / "features.wsmat"),
        "--out", str(out), *FAST, "--max-epochs", "5",
    ]) == 0
    lines = (out / "summary.csv").read_text().splitlines()
    assert lines[0].startswith("variant,")
    names = [l.split(",")[0] for l in lines[1:]]
    assert names == ["base_l2", "cosine", "within_spaces", "across_spaces", "full"]
    for name in names:
        assert (out / name / "model.ckpt").exists()
        assert (out / name / "report.structured").exists()
    # the l2 and cosine rows really used different distances
    cfg = lambda n: dict(
        line.split("=", 1) for line in (out / n / "config.txt").read_text().splitlines()
    )
    assert cfg("base_l2")["distance"] == "l2"
    assert cfg("cosine")["distance"] == "cosine"
    assert cfg("within_spaces")["use_w_to_a"] == "False"
    assert cfg("across_spaces")["use_w_to_a"] == "True"
    assert cfg("full")["include_unseen_descriptors"] == "True"


BIAS = {"no-bias": [], "bias": ["--include-bias"]}

# sha256 of the ladder's outputs on the test task at 5 epochs, recorded at fec60a2; the
# "bias" base_l2 and full reports re-recorded when each layer's gradient became one product
# of its stacked factors (their entropies moved in the 16th digit); "bias" full and "no-bias"
# within_spaces re-recorded when Adam moved to scaled moments and terms that share an input
# array merged their upstreams (one entropy each moved in the 16th digit); "no-bias" base_l2,
# cosine, within_spaces and full and "bias" base_l2 re-recorded when the entropy became an
# online softmax over class blocks (their entropies moved by at most 3.9e-16 relative)
ABLATE_DIGESTS = {
    "no-bias": {
        "summary.csv": "073268d526f2abffd2f311b132db22d2a43f9506003fa0edbb82310505059739",
        "base_l2/report.structured": "f38393c7bf68493893450f839b85f3e1564b7c1e02dbfc571c35fe45e05f1c8e",
        "cosine/report.structured": "f118e3950e9ba7b06461751b74046216e9d8d8c8c223fbe2906a60fbbc026f6b",
        "within_spaces/report.structured": "5de7dc567b4d8ccd686557b71096777e0cfb65b0c6fe41054297c769a0b810a7",
        "across_spaces/report.structured": "9406c2f1f6a508e60928e8a04032948c4dbc9beab4ddb7817a750a86fee05e9c",
        "full/report.structured": "b734abfdff873b88755c0a23661b4af80162c807839e88ab6f427fe960baf4ea",
    },
    "bias": {
        "summary.csv": "4dfce515eb9f676b96b7610a0fbb5ab3625f0c5f7f8062079ae796470c5d63ef",
        "base_l2/report.structured": "b704de3ef6395b2a1c6094d9f0c543f5ddc9386483fc58b1f1743b09b86516e7",
        "cosine/report.structured": "f42e5467da6b2aae18d50ea3801ca4a2aaf7aa32d172ac1094653935b2aaedbe",
        "within_spaces/report.structured": "d6d552760f6195bfe4b9f03c85bb4197d8be60cf59257e0bace37a4db4732416",
        "across_spaces/report.structured": "2b0e561cb3eff559acb99963ad13a0cc71e28dba041c1fd57e092d32dc11cd31",
        "full/report.structured": "a511f87577b87e2e37c78905d8877424be5f61651666d5b916897faef7a28bff",
    },
}


@pytest.mark.parametrize("bias", sorted(BIAS))
def test_ablate_outputs_are_bit_identical_to_the_recorded_ones(tmp_path, capsys, bias):
    task = _synth(tmp_path)
    out = tmp_path / "abl"
    assert main([
        "ablate", *_task_args(task), "--features", str(task / "features.wsmat"),
        "--out", str(out), *FAST, "--max-epochs", "5", *BIAS[bias],
    ]) == 0
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in ABLATE_DIGESTS[bias]}
    assert digests == ABLATE_DIGESTS[bias]


# sha256 of the sweep's summary.csv at fractions 0.5 and 1, recorded at fec60a2
SWEEP_DIGESTS = {
    "no-bias": "b27e66583908ae7b0e09363f588626cb7e12695eac74c31c2d64388bfaeef65a",
    "bias": "d69215423ef8bc97b7f314407c5802f45a79ebc279446602669b373bea801e6c",
}


@pytest.mark.parametrize("bias", sorted(BIAS))
def test_sweep_at_full_fraction_reproduces_ablate(tmp_path, capsys, bias):
    task = _synth(tmp_path)
    abl, swp = tmp_path / "abl", tmp_path / "swp"
    args = [*_task_args(task), "--features", str(task / "features.wsmat"), *FAST, "--max-epochs", "5",
            *BIAS[bias]]
    assert main(["ablate", *args, "--out", str(abl)]) == 0
    assert main(["sweep", *args, "--out", str(swp), "--fractions", "0.5,1.0"]) == 0
    swp_lines = (swp / "summary.csv").read_text().splitlines()
    assert swp_lines[0] == "variant,fraction,n_seen_pairs,zsl,gzsl_unseen,gzsl_seen,harmonic"
    rows = [l.split(",") for l in swp_lines[1:]]
    assert len(rows) == 10  # 5 variants x 2 fractions
    by_key = {(r[0], r[1]): r for r in rows}
    abl_rows = [l.split(",") for l in (abl / "summary.csv").read_text().splitlines()[1:]]
    for r in abl_rows:
        # zsl / gzsl_unseen / gzsl_seen / harmonic agree exactly at fraction 1
        sweep_row = by_key[(r[0], "1")]
        assert sweep_row[3:7] == r[1:5]
        # and so do the whole report, the checkpoint and the loss trace
        for name in ("report.structured", "model.ckpt", "trace.csv"):
            assert (swp / r[0] / "fraction_1" / name).read_bytes() == (abl / r[0] / name).read_bytes(), name
    # half fraction trains on fewer pairs
    assert by_key[("full", "0.5")][2] == "4"
    assert by_key[("full", "1")][2] == "8"
    assert hashlib.sha256((swp / "summary.csv").read_bytes()).hexdigest() == SWEEP_DIGESTS[bias]


# sha256 of each baseline's report.structured on the test task, recorded at 5243e1c; dae,
# smo, subreg and wavg re-recorded when the entropy became an online softmax over class
# blocks (entropy_unseen moved by at most 1.9e-16 relative)
BASELINE_DIGESTS = {
    "conse": "d054441e8918ce410a579969b244c0ad3b6bc2c6417b7fd936a2984bd937f8c0",
    "costa": "e79cb9578e6c82fb5876dc1ac2ff35857a857b4e5282e59a32cebba1b0b7e188",
    "dae": "9a387eadd938e7c0e3a677b908417232431f87396327b3666c78e6653fa617ec",
    "smo": "0f1056ec2d2d5cbcb1a858a38c91effdaad266c1d6370f24dd3bbf974bef7cea",
    "subreg": "48cb0f32ac5086ad14c281f87324c2bdced9e9a49a97d54d65edb118e6479de3",
    "wavg": "65040ede5f9db5f4735452919ec6ff6bef8456fdd56b9a2a541b06f53a9c64ac",
}


@pytest.mark.parametrize("method", sorted(BASELINE_DIGESTS))
def test_baseline_reports_are_bit_identical_to_the_recorded_ones(tmp_path, capsys, method):
    task = _synth(tmp_path)
    out = tmp_path / method
    assert main([
        "baseline", "--method", method, *_task_args(task), "--features", str(task / "features.wsmat"),
        "--out", str(out), *FAST,
    ]) == 0
    assert hashlib.sha256((out / "report.structured").read_bytes()).hexdigest() == BASELINE_DIGESTS[method]


@pytest.mark.parametrize("seen_samples", [True, False])
def test_conse_decides_on_one_head_and_combines_each_feature_part_once(tmp_path, capsys, monkeypatch, seen_samples):
    task = _synth(tmp_path)
    manifest = load_manifest(task / "manifest.txt")
    features = task / "features.wsmat"
    if not seen_samples:
        features = tmp_path / "unseen_only.wsmat"
        load_feature_set(task / "features.wsmat").restrict_to(manifest.unseen).save(features)
    heads, combined, decided = [], [], []

    def spy(name, log):
        real = getattr(baselines, name)

        def called(*args, **kwargs):
            out = real(*args, **kwargs)
            log.append((args, kwargs, out))
            return out
        monkeypatch.setattr(baselines, name, called)

    def built(*args):
        heads.append(ClassifierHead(*args))
        return heads[-1]

    monkeypatch.setattr(cli, "ClassifierHead", built)
    spy("conse_combine", combined)
    spy("conse_classify", decided)
    assert main(["baseline", "--method", "conse", *_task_args(task), "--features", str(features)]) == 0
    # one head of every descriptor's unit row serves the three decisions
    assert len(heads) == 1
    assert sorted(heads[0].class_ids) == sorted(manifest.seen + manifest.unseen)
    assert np.allclose(np.linalg.norm(heads[0].weights, axis=1), 1.0)
    assert len(decided) == (3 if seen_samples else 2) and all(args[0] is heads[0] for args, _, _ in decided)
    # the unseen part is combined once for both of its decisions, the seen part once
    assert len(combined) == (2 if seen_samples else 1)
    assert decided[0][0][1] is decided[1][0][1] is combined[0][2]
    assert [kwargs.get("among") for _, kwargs, _ in decided[:2]] == [manifest.unseen, None]
    if seen_samples:
        assert decided[2][0][1] is combined[1][2] and "among" not in decided[2][1]


def _count_restrictions(monkeypatch):
    """Count ``FeatureSet.restrict_to`` calls from here on."""
    calls = []
    real = FeatureSet.restrict_to

    def counted(self, class_ids):
        calls.append(len(self.labels))
        return real(self, class_ids)

    monkeypatch.setattr(FeatureSet, "restrict_to", counted)
    return calls


@pytest.mark.parametrize("command, flags", [
    ("ablate", []),
    ("sweep", ["--fractions", "0.5,1.0"]),
    ("baseline", ["--method", "conse"]),
    ("baseline", ["--method", "costa"]),
])
def test_evaluating_commands_split_the_features_once(tmp_path, capsys, monkeypatch, command, flags):
    task = _synth(tmp_path)
    calls = _count_restrictions(monkeypatch)
    assert main([
        command, *_task_args(task), "--features", str(task / "features.wsmat"),
        "--out", str(tmp_path / "out"), *FAST, "--max-epochs", "1", *flags,
    ]) == 0
    # once into the unseen part and once into the seen part, both from the whole set
    assert calls == [33, 33]


@pytest.mark.parametrize("zsl_only, restrictions", [(False, [33, 33]), (True, [33, 33, 9])])
def test_eval_splits_the_features_once(tmp_path, capsys, monkeypatch, zsl_only, restrictions):
    task = _synth(tmp_path)
    run, full = tmp_path / "run", tmp_path / "full.wsmat"
    assert main(["train", *_task_args(task), "--out", str(run), *FAST]) == 0
    assert main(["inject", "--checkpoint", str(run / "model.ckpt"), *_task_args(task), "--out", str(full)]) == 0
    calls = _count_restrictions(monkeypatch)
    assert main([
        "eval", "--head", str(full), "--manifest", str(task / "manifest.txt"),
        "--features", str(task / "features.wsmat"), *(["--zsl-only"] if zsl_only else []),
    ]) == 0
    # --zsl-only narrows the unseen part (9 rows) to the injected classes
    assert calls == restrictions


def test_ablate_evaluation_allocates_no_copy_of_the_feature_rows(tmp_path, capsys, monkeypatch):
    import icis.cli as cli
    import icis.evaluation as evaluation

    task = tmp_path / "task"
    assert main([
        "synth", "--out", str(task), "--seed", "3", "--seen", "4", "--unseen", "3", "--desc-dim", "5",
        "--weight-dim", "256", "--samples-per-class", "40", "--feature-noise", "0.05",
    ]) == 0
    # the smaller part's 120 rows are scored in 15 feature-row blocks of 8 rows
    monkeypatch.setattr(evaluation, "EVAL_BLOCK", 8 * 8 * 256)  # bytes: 8 float64 rows
    assert len(list(row_blocks(120, 256, evaluation.EVAL_BLOCK // 8))) >= 4
    real = cli.evaluate
    peaks, rows = [], []

    def traced(head, *split, unseen_ids):
        rows.append(min(len(part.rows) for part in split) * split[0].rows.matrix[0].nbytes)
        tracemalloc.start()
        try:
            return real(head, *split, unseen_ids=unseen_ids)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    monkeypatch.setattr(cli, "evaluate", traced)
    assert main([
        "ablate", *_task_args(task), "--features", str(task / "features.wsmat"),
        "--out", str(tmp_path / "abl"), "--hidden-dim", "16", "--lr", "1e-3", "--max-epochs", "1",
    ]) == 0
    assert len(peaks) == 5
    # the smaller part reads 120 float32 rows (120 KiB) of the matrix as loaded; one evaluation's
    # allocations stay below a quarter of its float64 copy (240 KiB)
    assert rows == [120 * 256 * 4] * 5
    assert max(peaks) < 120 * 256 * 8 / 4


@pytest.mark.parametrize("command, flags, runs", [("ablate", [], 5), ("sweep", ["--fractions", "0.5,1.0"], 10)])
def test_ladder_runs_hold_no_earlier_model_while_one_trains(tmp_path, capsys, monkeypatch, command, flags, runs):
    import icis.cli as cli

    task = _synth(tmp_path)
    real, models = cli.train, []

    def tracked(model, *args):
        # every earlier run's model is already freed, without a garbage collection
        assert [ref() for ref in models] == [None] * len(models)
        models.append(weakref.ref(model))
        return real(model, *args)

    monkeypatch.setattr(cli, "train", tracked)
    assert main([
        command, *_task_args(task), "--features", str(task / "features.wsmat"),
        "--out", str(tmp_path / "out"), *FAST, "--max-epochs", "1", *flags,
    ]) == 0
    assert len(models) == runs


@pytest.mark.parametrize("command, flags, runs", [("ablate", [], 5), ("sweep", ["--fractions", "0.5,1.0"], 10)])
def test_a_ladder_draws_one_model_and_holds_no_feature_row_while_runs_train(tmp_path, capsys, monkeypatch,
                                                                           command, flags, runs):
    import icis.cli as cli

    task = _synth(tmp_path)
    draw, load, split, train = IcisModel.init.__func__, cli.load_feature_set, FeatureSet.restrict_to, cli.train
    draws, features, trained = [], [], []

    def counted_draw(cls, *args):
        draws.append(args)
        return draw(cls, *args)

    def tracked(*args):
        # every loaded set and its matrix, and below both parts of a split and the matrix they share
        loaded = load(*args)
        features.extend([weakref.ref(loaded), weakref.ref(loaded.rows.matrix)])
        return loaded

    def tracked_split(self, class_ids):
        part = split(self, class_ids)
        features.extend([weakref.ref(part), weakref.ref(part.rows.matrix)])
        return part

    def checked(*args):
        # no feature row is reachable while a model trains, without a garbage collection
        assert [ref() for ref in features] == [None] * len(features)
        trained.append(len(features))
        return train(*args)

    monkeypatch.setattr(IcisModel, "init", classmethod(counted_draw))
    monkeypatch.setattr(cli, "load_feature_set", tracked)
    monkeypatch.setattr(FeatureSet, "restrict_to", tracked_split)
    monkeypatch.setattr(cli, "train", checked)
    assert main([
        command, *_task_args(task), "--features", str(task / "features.wsmat"),
        "--out", str(tmp_path / "out"), *FAST, "--max-epochs", "1", *flags,
    ]) == 0
    assert len(draws) == 1
    # read and checked once before the first run trained; read again and split once after the last
    assert trained == [2] * runs and len(features) == 2 + 2 + 4


def _train_flags(loss_config):
    """The ``icis train`` loss options that select ``loss_config``."""
    terms = ["a2w"] + [key for key, flag in TERM_FLAGS.items() if getattr(loss_config, flag)]
    unseen = "--include-unseen-desc" if loss_config.include_unseen_descriptors else "--no-include-unseen-desc"
    return ["--distance", loss_config.distance, "--terms", ",".join(terms), unseen]


@pytest.fixture(scope="module")
def ablated(tmp_path_factory):
    """The test task and its ablation ladder at 10 epochs."""
    root = tmp_path_factory.mktemp("ablated")
    task = _synth(root)
    assert main(["ablate", *_task_args(task), "--features", str(task / "features.wsmat"),
                 "--out", str(root / "abl"), *FAST]) == 0
    return task, root / "abl"


@pytest.mark.parametrize("variant", list(ablation_variants()))
def test_each_ladder_run_is_the_train_run_of_its_variant(tmp_path, capsys, ablated, variant):
    # every run starts from the seed's drawn weights, not from an earlier run's
    task, abl = ablated
    run = tmp_path / "run"
    assert main(["train", *_task_args(task), "--out", str(run), *FAST,
                 *_train_flags(ablation_variants()[variant])]) == 0
    for name in ("model.ckpt", "trace.csv"):
        assert (run / name).read_bytes() == (abl / variant / name).read_bytes(), name


def test_a_ladder_run_that_fails_in_training_leaves_the_earlier_runs_reported(tmp_path, capsys, monkeypatch):
    import icis.cli as cli

    task = _synth(tmp_path)
    real, calls = cli.train, []

    def third_diverges(*args):
        calls.append(args)
        if len(calls) < 3:
            return real(*args)
        trace = LossTrace()
        trace.append(1.5, {"reg": 1.5})
        raise DivergenceError("training diverged at epoch 1: mean loss nan", trace=trace)

    monkeypatch.setattr(cli, "train", third_diverges)
    out = tmp_path / "out"
    assert main(["ablate", *_task_args(task), "--features", str(task / "features.wsmat"),
                 "--out", str(out), *FAST, "--max-epochs", "1"]) == 4
    assert "training diverged at epoch 1" in capsys.readouterr().err
    done = ["config.txt", "model.ckpt", "report.structured", "report.txt", "trace.csv"]
    assert sorted(p.name for p in (out / "base_l2").iterdir()) == done
    assert sorted(p.name for p in (out / "cosine").iterdir()) == done
    # the failed run keeps its config and the trace of its one finished epoch
    assert sorted(p.name for p in (out / "within_spaces").iterdir()) == ["config.txt", "trace.csv"]
    assert len((out / "within_spaces" / "trace.csv").read_text().splitlines()) == 2
    assert sorted(p.name for p in out.iterdir()) == ["base_l2", "cosine", "within_spaces"]


def test_analyze_reports_ranked_predictions(tmp_path, capsys):
    task = _synth(tmp_path)
    run = tmp_path / "run"
    main(["train", *_task_args(task), "--out", str(run), *FAST])
    full = tmp_path / "full.wsmat"
    main(["inject", "--checkpoint", str(run / "model.ckpt"), *_task_args(task), "--out", str(full)])
    capsys.readouterr()
    json_out = tmp_path / "hist.json"
    assert main([
        "analyze", "--head", str(full),
        "--features", str(task / "features.wsmat"),
        "--descriptors", str(task / "descriptors.wsmat"),
        "--manifest", str(task / "manifest.txt"),
        "--class", "c009", "--bin-size", "4",
        "--out", str(json_out),
    ]) == 0
    out = capsys.readouterr().out
    assert "target_class = c009" in out
    assert "bin 0+ probability" in out
    payload = json.loads(json_out.read_text())
    assert payload["target_class"] == "c009"
    assert sum(payload["bin_probabilities"]) == pytest.approx(1.0, abs=1e-9)
    assert payload["n_samples"] == 3


@pytest.mark.parametrize("method", ["conse", "costa", "wavg", "smo", "dae"])
def test_baseline_methods_report_metrics(tmp_path, capsys, method):
    task = _synth(tmp_path)
    capsys.readouterr()
    assert main([
        "baseline", "--method", method, *_task_args(task),
        "--features", str(task / "features.wsmat"),
    ]) == 0
    out = capsys.readouterr().out
    assert "zsl_accuracy = " in out
    assert "gzsl_unseen = " in out
    assert "harmonic = " in out


def test_baseline_subreg_trains_and_reports(tmp_path, capsys):
    task = _synth(tmp_path)
    out_dir = tmp_path / "subreg"
    capsys.readouterr()
    assert main([
        "baseline", "--method", "subreg", *_task_args(task),
        "--features", str(task / "features.wsmat"),
        "--out", str(out_dir),
        "--hidden-dim", "16", "--lr", "1e-3", "--max-epochs", "8",
    ]) == 0
    assert "zsl_accuracy = " in capsys.readouterr().out
    assert (out_dir / "trace.csv").exists()
    assert (out_dir / "report.structured").exists()


def test_baseline_is_deterministic(tmp_path, capsys):
    task = _synth(tmp_path)
    args = [
        "baseline", "--method", "dae", *_task_args(task),
        "--features", str(task / "features.wsmat"), "--seed", "5",
    ]
    capsys.readouterr()
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first


def test_include_bias_round_trip(tmp_path):
    task = _synth(tmp_path)
    run = tmp_path / "runb"
    assert main(["train", *_task_args(task), "--out", str(run), *FAST, "--include-bias"]) == 0
    full = tmp_path / "full_bias.wsmat"
    assert main([
        "inject", "--checkpoint", str(run / "model.ckpt"), *_task_args(task), "--out", str(full),
    ]) == 0
    # the injected head carries a bias sidecar: zeros for the original rows
    bias_path = tmp_path / "full_bias.biases.wsmat"
    assert bias_path.exists()
    biases = load_matrix(bias_path).reshape(-1)
    assert biases.shape == (11,)
    assert np.array_equal(biases[:8], np.zeros(8))
