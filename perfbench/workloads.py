"""The benchmark's workloads: input generation, one operation, and the
output summary that is checked against the recorded references.

Each workload is an object with three steps, run in two processes:

* ``generate(out_dir, input_set)`` in the set-up process writes the inputs;
* ``prepare(in_dir, input_set)`` in the measured process loads what every
  operation shares (not timed as an operation);
* ``operation(state, op_dir)`` is one timed operation. It returns its phase
  times in seconds, the epoch times when it trains, and its outputs.

The program sees only the files ``generate`` writes. Shapes are constructor
arguments so the benchmark's tests can run the same code at a tiny size.
"""

import csv
import hashlib
import json
import time
from pathlib import Path

# Inputs come from one of this many input sets, chosen by the seed; the
# reference outputs of each set were recorded from the program (references.json).
INPUT_SETS = 8


def input_set(seed: int) -> int:
    return seed % INPUT_SETS


def summarize_report(report: dict) -> dict:
    """An EvalReport's JSON form with each per-class table reduced to its
    class count, value sum and a digest of (class id, value) pairs."""
    out = {key: value for key, value in report.items() if key not in ("per_class", "extra")}
    for name, table in sorted(report.get("per_class", {}).items()):
        pairs = sorted((str(c), round(float(v), 9)) for c, v in table.items())
        out[f"per_class.{name}"] = {
            "classes": len(pairs),
            "sum": sum(v for _, v in pairs),
            "sha256": hashlib.sha256(json.dumps(pairs).encode()).hexdigest(),
        }
    return out


def _synth(out_dir, seed, n_seen, n_unseen, d_a, d_w, samples_per_class, feature_noise):
    from icis import cli

    code = cli.main([
        "synth", "--out", str(out_dir), "--seed", str(seed),
        "--seen", str(n_seen), "--unseen", str(n_unseen),
        "--desc-dim", str(d_a), "--weight-dim", str(d_w),
        "--samples-per-class", str(samples_per_class),
        "--feature-noise", repr(feature_noise),
    ])
    if code != 0:
        raise RuntimeError(f"icis synth exited with {code}")


class TrainCub:
    """``icis.train`` at the CUB shape, all four loss terms plus unseen
    descriptors; the stop window equals the epoch count, so the stop rule
    cannot fire and every operation trains the same number of epochs."""

    def __init__(self, n_seen=150, n_unseen=50, d_a=312, d_w=2048, hidden=2048, batch=16, epochs=4):
        self.n_seen, self.n_unseen, self.d_a, self.d_w = n_seen, n_unseen, d_a, d_w
        self.hidden, self.batch, self.epochs = hidden, batch, epochs

    def generate(self, out_dir, k):
        _synth(out_dir, 100 + k, self.n_seen, self.n_unseen, self.d_a, self.d_w, 1, 0.0)

    def prepare(self, in_dir, k):
        from icis import load_classifier_head, load_descriptor_set, load_manifest, make_pairs

        in_dir = Path(in_dir)
        manifest = load_manifest(in_dir / "manifest.txt")
        descriptors = load_descriptor_set(in_dir / "descriptors.wsmat")
        head = load_classifier_head(in_dir / "head.wsmat", seen_ids=manifest.seen)
        return {
            "k": k,
            "pairs": make_pairs(descriptors, head.subset(manifest.seen)),
            "unseen": descriptors.subset(manifest.unseen).matrix,
        }

    def operation(self, state, op_dir):
        from icis import LossConfig, RngState, TrainConfig, model as icis_model

        k = state["k"]
        net = icis_model.IcisModel.init(self.d_a, self.d_w, self.hidden, RngState(k).spawn("model-init"))
        config = TrainConfig(batch_size=self.batch, hidden_dim=self.hidden, max_epochs=self.epochs,
                             stop_window=self.epochs, seed=k)
        marks = []
        start = time.perf_counter()
        trace = icis_model.train(net, state["pairs"], state["unseen"], LossConfig(), config,
                                 callback=lambda epoch, loss: marks.append(time.perf_counter()))
        train_s = time.perf_counter() - start
        epochs = [b - a for a, b in zip([start] + marks, marks)]
        output = {
            "epochs_run": trace.epochs_run,
            "stopped_early": trace.stopped_early,
            "total": trace.total,
            "terms": trace.terms,
        }
        return {"train_s": train_s}, epochs, output


class PaperTable:
    """The paper's results table at reduced epochs: the five-variant
    ``icis ablate`` ladder and the ``icis baseline`` methods through the CLI,
    plus ``dae_refine`` called directly (the CLI fixes 200 epochs)."""

    METHODS = ("costa", "wavg", "smo", "conse", "subreg")

    def __init__(self, n_seen=150, n_unseen=50, d_a=312, d_w=2048, hidden=2048, batch=16,
                 samples_per_class=50, feature_noise=0.3, epochs=1):
        self.n_seen, self.n_unseen, self.d_a, self.d_w = n_seen, n_unseen, d_a, d_w
        self.hidden, self.batch = hidden, batch
        self.samples_per_class, self.feature_noise, self.epochs = samples_per_class, feature_noise, epochs

    def generate(self, out_dir, k):
        _synth(out_dir, 200 + k, self.n_seen, self.n_unseen, self.d_a, self.d_w,
               self.samples_per_class, self.feature_noise)

    def prepare(self, in_dir, k):
        in_dir = Path(in_dir)
        return {
            "k": k,
            "task": ["--descriptors", str(in_dir / "descriptors.wsmat"), "--head", str(in_dir / "head.wsmat"),
                     "--manifest", str(in_dir / "manifest.txt"), "--features", str(in_dir / "features.wsmat")],
            "in_dir": in_dir,
        }

    def _cli(self, state, args):
        from icis import cli

        run = ["--hidden-dim", str(self.hidden), "--batch", str(self.batch),
               "--max-epochs", str(self.epochs), "--seed", str(state["k"])]
        code = cli.main(args + state["task"] + run)
        if code != 0:
            raise RuntimeError(f"icis {args[0]} exited with {code}")

    def _dae(self, state):
        import icis
        from icis import baselines

        in_dir = state["in_dir"]
        manifest = icis.load_manifest(in_dir / "manifest.txt")
        descriptors = icis.load_descriptor_set(in_dir / "descriptors.wsmat")
        head = icis.load_classifier_head(in_dir / "head.wsmat", seen_ids=manifest.seen)
        features = icis.load_feature_set(in_dir / "features.wsmat")
        seen_head = head.subset(manifest.seen)
        rows = baselines.vgse_wavg_weights(descriptors.subset(manifest.unseen),
                                           descriptors.subset(manifest.seen), seen_head)
        rows = baselines.dae_refine(seen_head.weights, rows, seed=state["k"], epochs=self.epochs)
        new_head = icis.inject(head, manifest.unseen, rows)
        report = icis.evaluate(new_head, features.restrict_to(manifest.unseen),
                               features.restrict_to(manifest.seen), unseen_ids=manifest.unseen)
        return json.loads(report.to_json())

    def operation(self, state, op_dir):
        op_dir = Path(op_dir)
        start = time.perf_counter()
        self._cli(state, ["ablate", "--out", str(op_dir / "ablate")])
        ablate_s = time.perf_counter() - start
        start = time.perf_counter()
        for method in self.METHODS:
            self._cli(state, ["baseline", "--method", method, "--out", str(op_dir / method)])
        dae = self._dae(state)
        baselines_s = time.perf_counter() - start

        with open(op_dir / "ablate" / "summary.csv", newline="") as f:
            ladder = [
                {key: (value if key == "variant" or value == "n/a" else float(value)) for key, value in row.items()}
                for row in csv.DictReader(f)
            ]
        reports = {
            method: summarize_report(json.loads((op_dir / method / "report.structured").read_text()))
            for method in self.METHODS
        }
        reports["dae"] = summarize_report(dae)
        return {"ablate_s": ablate_s, "baselines_s": baselines_s}, None, {"ladder": ladder, "baselines": reports}


class EvalWide:
    """Generalised zero-shot evaluation of a wide head read from disk: one
    operation loads the manifest, head and features, then evaluates."""

    def __init__(self, n_seen=10000, n_unseen=10000, d_w=2048, samples=2000, feature_noise=0.25):
        self.n_seen, self.n_unseen, self.d_w = n_seen, n_unseen, d_w
        self.samples, self.feature_noise = samples, feature_noise

    def generate(self, out_dir, k):
        import numpy as np
        from icis import ClassifierHead, FeatureSet, RngState, SplitManifest, save_manifest

        out_dir = Path(out_dir)
        rng = RngState(300 + k)
        n = self.n_seen + self.n_unseen
        ids = [f"c{i:05d}" for i in range(n)]
        weights = rng.spawn("head").normal(n, self.d_w)
        weights /= np.linalg.norm(weights, axis=1, keepdims=True)
        order = rng.spawn("split").permutation(n)
        seen = sorted(ids[i] for i in order[: self.n_seen])
        unseen = sorted(ids[i] for i in order[self.n_seen:])
        # half the samples from seen classes, half from unseen, one class per sample at most
        half = self.samples // 2
        rows = np.concatenate([order[: self.n_seen][:half], order[self.n_seen:][: self.samples - half]])
        features = weights[rows] + rng.spawn("features").normal(rows.size, self.d_w, self.feature_noise)
        ClassifierHead(ids, weights).save(out_dir / "head.wsmat")
        FeatureSet(features, [ids[i] for i in rows]).save(out_dir / "features.wsmat")
        save_manifest(out_dir / "manifest.txt", SplitManifest(seen, unseen))

    def prepare(self, in_dir, k):
        return {"in_dir": Path(in_dir)}

    def operation(self, state, op_dir):
        import icis

        in_dir = state["in_dir"]
        start = time.perf_counter()
        manifest = icis.load_manifest(in_dir / "manifest.txt")
        head = icis.load_classifier_head(in_dir / "head.wsmat", seen_ids=manifest.seen)
        features = icis.load_feature_set(in_dir / "features.wsmat")
        loaded = time.perf_counter()
        report = icis.evaluate(head, features.restrict_to(manifest.unseen),
                               features.restrict_to(manifest.seen), unseen_ids=manifest.unseen)
        done = time.perf_counter()
        return {"load_s": loaded - start, "eval_s": done - loaded}, None, summarize_report(json.loads(report.to_json()))


WORKLOADS = {
    "train_cub": TrainCub(),
    "paper_table": PaperTable(),
    "eval_wide": EvalWide(),
}
