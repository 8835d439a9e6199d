"""End-to-end tests of the command-line interface, run in process."""

import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from icis.cli import main
from icis.data import (
    ClassifierHead,
    FeatureSet,
    load_classifier_head,
    load_descriptor_set,
    load_ids,
    load_manifest,
    load_matrix,
    save_matrix,
)

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


@pytest.mark.parametrize("command, flags", [
    ("ablate", ["--seed", "-1"]),
    ("sweep", ["--fractions", "x"]),
])
def test_refused_ladder_runs_leave_no_out_directory(tmp_path, capsys, command, flags):
    task = _synth(tmp_path)
    out = tmp_path / "out"
    args = [command, *_task_args(task), "--features", str(task / "features.wsmat"), "--out", str(out), *FAST]
    assert main(args + flags) == 3
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


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

# sha256 of the ladder's outputs on the test task at 5 epochs, recorded at fec60a2
ABLATE_DIGESTS = {
    "no-bias": {
        "summary.csv": "073268d526f2abffd2f311b132db22d2a43f9506003fa0edbb82310505059739",
        "base_l2/report.structured": "172f05de2d2a87d253c4273266bedd425f11c5674e84f29a03297de13b97cd6c",
        "cosine/report.structured": "416393c3f4060fa7e0ae02dd752cf71e8403c1f7947c5d3423cfcd68b5ed165d",
        "within_spaces/report.structured": "dc257c31af4947727ca611328165a4abb9811c433d1684165e462959302c2612",
        "across_spaces/report.structured": "9406c2f1f6a508e60928e8a04032948c4dbc9beab4ddb7817a750a86fee05e9c",
        "full/report.structured": "13a01ae4a15433857f69c0593fad6179a68e22c6ed8c09861656ba10b59adc64",
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
        # and so does the whole report
        report = "report.structured"
        assert (swp / r[0] / "fraction_1" / report).read_bytes() == (abl / r[0] / report).read_bytes()
    # half fraction trains on fewer pairs
    assert by_key[("full", "0.5")][2] == "4"
    assert by_key[("full", "1")][2] == "8"
    assert hashlib.sha256((swp / "summary.csv").read_bytes()).hexdigest() == SWEEP_DIGESTS[bias]


# sha256 of each baseline's report.structured on the test task, recorded at 5243e1c
BASELINE_DIGESTS = {
    "conse": "d054441e8918ce410a579969b244c0ad3b6bc2c6417b7fd936a2984bd937f8c0",
    "costa": "e79cb9578e6c82fb5876dc1ac2ff35857a857b4e5282e59a32cebba1b0b7e188",
    "dae": "69143d6542c8e67dcad022e6ebdaa5e066fe609f9939551c3e02323b36074218",
    "smo": "f08d77c4f3a7df97d0084bbe95f17a073e430a428f8b9647f7fb26a41ea5ab1c",
    "subreg": "1850d5332f4470b3f23a9cb42e8957e9c97984341d84aefbafc1993b738978c6",
    "wavg": "28512cd4f62e848de50f85609cccf2dfadacf7b52757770b9a05dad2b5105a1b",
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

    task = tmp_path / "task"
    assert main([
        "synth", "--out", str(task), "--seed", "3", "--seen", "4", "--unseen", "3", "--desc-dim", "5",
        "--weight-dim", "256", "--samples-per-class", "40", "--feature-noise", "0.05",
    ]) == 0
    real = cli._evaluate_task
    peaks, rows = [], []

    def traced(head, split, manifest):
        rows.append(min(part.features.nbytes for part in split))
        tracemalloc.start()
        try:
            return real(head, split, manifest)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    monkeypatch.setattr(cli, "_evaluate_task", traced)
    assert main([
        "ablate", *_task_args(task), "--features", str(task / "features.wsmat"),
        "--out", str(tmp_path / "abl"), "--hidden-dim", "16", "--lr", "1e-3", "--max-epochs", "1",
    ]) == 0
    assert len(peaks) == 5
    # the smaller part holds 120 rows (240 KiB); one evaluation's allocations stay far below it
    assert rows == [120 * 256 * 8] * 5
    assert max(peaks) < rows[0] / 4


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
