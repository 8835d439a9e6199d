"""Tests of the benchmark's own arithmetic and tracing.

Run with ``PYTHONPATH=src python -m pytest -q perfbench``.
"""

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import spans as spanlib  # noqa: E402
import workloads  # noqa: E402


def test_self_time_subtracts_children_once():
    spans = [
        ["root", 0.0, 10.0, -1, None],
        ["a", 1.0, 4.0, 0, None],
        ["a.child", 2.0, 3.0, 1, None],
        ["b", 3.5, 6.0, 0, None],  # overlaps "a" by 0.5 s
        ["c", 9.0, 12.0, 0, None],  # runs past the parent's end
    ]
    assert spanlib.self_times(spans) == pytest.approx([10.0 - 6.0, 2.0, 1.0, 2.5, 3.0])


def test_aggregate_sums_calls_time_self_time_and_counts():
    spans = [
        ["outer", 0.0, 5.0, -1, None],
        ["inner", 1.0, 2.0, 0, {"bytes": 10}],
        ["inner", 3.0, 4.5, 0, {"bytes": 5}],
    ]
    totals = spanlib.aggregate(spans)
    assert totals["outer"] == {"calls": 1, "s": 5.0, "self_s": 2.5, "counts": {}}
    assert totals["inner"]["calls"] == 2
    assert totals["inner"]["s"] == pytest.approx(2.5)
    assert totals["inner"]["counts"] == {"bytes": 15}


@pytest.mark.parametrize("samples, expected", [
    (1, None), (19, None), (99, None), (100, 90.0), (999, 90.0), (1000, 99.0), (10000, 99.9),
])
def test_tail_percentile_needs_ten_samples_beyond_it(samples, expected):
    assert spanlib.tail_percentile(samples) == expected


def test_mismatches_compare_ints_exactly_and_floats_within_tolerance():
    assert run.mismatches({"n": 3, "x": 1.0, "s": "a"}, {"n": 3, "x": 1.0 + 1e-12, "s": "a"}) == []
    assert run.mismatches({"n": 3}, {"n": 4})
    assert run.mismatches({"x": 1.0}, {"x": 1.0 + 1e-5})
    assert run.mismatches({"flag": True}, {"flag": 1})
    assert run.mismatches([1.0, 2.0], [1.0])
    assert run.mismatches({"a": 1}, {"b": 1})


def test_benchmark_json_matches_the_definitions():
    written = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert written == run.benchmark_manifest()


TINY = {
    "train_cub": workloads.TrainCub(n_seen=10, n_unseen=3, d_a=4, d_w=6, hidden=8, batch=4, epochs=2),
    "paper_table": workloads.PaperTable(n_seen=8, n_unseen=3, d_a=4, d_w=6, hidden=8, batch=4,
                                        samples_per_class=3, epochs=1),
    "eval_wide": workloads.EvalWide(n_seen=12, n_unseen=10, d_w=8, samples=9),
}


def _traced_operation(name, tmp_path):
    workload = TINY[name]
    (tmp_path / "input").mkdir()
    (tmp_path / "op").mkdir()
    workload.generate(tmp_path / "input", 1)
    state = workload.prepare(tmp_path / "input", 1)
    tracer = spanlib.Tracer().install(spanlib.WORKER_LAYERS)
    try:
        tracer.active = True
        phases, epochs, output = workload.operation(state, tmp_path / "op")
        tracer.active = False
    finally:
        tracer.uninstall()
    return spanlib.aggregate(tracer.take()), phases, epochs, output


def test_tracer_rebinds_every_name_and_restores_them():
    import icis.cli  # noqa: F401

    originals = {}
    for _name, module_name, attr, _counter in spanlib.WORKER_LAYERS:
        value = getattr(sys.modules[module_name], attr, None)
        if callable(value):
            originals[attr] = (value, spanlib.bound_holders(value))
    tracer = spanlib.Tracer().install(spanlib.WORKER_LAYERS)
    try:
        for attr, (original, holders) in originals.items():
            assert spanlib.bound_holders(original) == [], attr
            assert all(getattr(h, "__name__").startswith("icis") for h in holders)
    finally:
        tracer.uninstall()
    for attr, (original, holders) in originals.items():
        assert spanlib.bound_holders(original) == holders, attr


def test_traced_training_counts_equal_the_computed_ones(tmp_path):
    w = TINY["train_cub"]
    totals, phases, epochs, output = _traced_operation("train_cub", tmp_path)
    steps = w.epochs * math.ceil(w.n_seen / w.batch)
    assert totals["nn.adam_step"]["calls"] == steps
    assert totals["model.IcisModel.zero_grad"]["calls"] == steps
    assert totals["model.total_loss"]["calls"] == steps
    for span in ("nn.MlpTwoLayer.forward", "nn.MlpTwoLayer.backward", "nn.batch_loss"):
        assert totals[span]["calls"] == 4 * steps, span
    assert totals["model.train"]["calls"] == 1
    params = run.workload_parameters(w)
    assert totals["nn.adam_step"]["counts"]["bytes"] == 56 * params * steps
    # every pass is one encoder and one decoder matmul; the a_to_a pass also sees the unseen rows
    per_row = w.d_a * w.hidden + w.hidden * w.d_w
    rows = {"a_to_w": w.n_seen, "a_to_a": w.n_seen + w.n_unseen, "w_to_w": w.n_seen, "w_to_a": w.n_seen}
    dims = {"a_to_w": per_row, "a_to_a": 2 * w.d_a * w.hidden, "w_to_w": 2 * w.d_w * w.hidden, "w_to_a": per_row}
    forward = w.epochs * sum(2 * rows[p] * dims[p] for p in rows)
    assert totals["nn.MlpTwoLayer.forward"]["counts"]["flops"] == forward
    assert totals["nn.MlpTwoLayer.backward"]["counts"]["flops"] == 2 * forward
    assert len(epochs) == output["epochs_run"] == w.epochs
    assert phases["train_s"] >= sum(epochs) * 0.999


def test_traced_paper_table_reaches_every_layer(tmp_path):
    totals, phases, _epochs, output = _traced_operation("paper_table", tmp_path)
    calls = {name: entry["calls"] for name, entry in totals.items()}
    assert calls["cli.cmd_ablate"] == 1
    assert calls["cli.cmd_baseline"] == len(workloads.PaperTable.METHODS)
    assert calls["model.train"] == calls["model.save_checkpoint"] == calls["model.infer_and_inject"] == 5
    # five ladder variants, four baselines that inject rows, and the direct dae run
    assert calls["evaluation.evaluate"] == 5 + 4 + 1
    assert calls["baselines.conse_classify"] == 3
    assert calls["baselines.vgse_wavg_weights"] == 2
    for name in ("baselines.train_subreg", "baselines.dae_refine", "baselines.costa_weights",
                 "baselines.vgse_smo_weights"):
        assert calls[name] == 1, name
    assert [row["variant"] for row in output["ladder"]] == list(__import__("icis").ablation_variants())
    assert set(output["baselines"]) == set(workloads.PaperTable.METHODS) | {"dae"}
    assert set(phases) == {"ablate_s", "baselines_s"}


@pytest.mark.filterwarnings("ignore:classes without samples")
def test_traced_wide_evaluation_counts_bytes_and_logits(tmp_path):
    w = TINY["eval_wide"]
    totals, _phases, _epochs, output = _traced_operation("eval_wide", tmp_path)
    n = w.n_seen + w.n_unseen
    matrix_bytes = 2 * 16 + 4 * (n + w.samples) * w.d_w
    assert totals["data.load_matrix"]["counts"]["bytes"] == matrix_bytes
    half = w.samples // 2
    unseen_rows, seen_rows = w.samples - half, half
    # restricted head, full head on unseen rows, their entropy, full head on seen rows, their entropy
    elements = unseen_rows * w.n_unseen + 2 * unseen_rows * n + 2 * seen_rows * n
    assert totals["data.ClassifierHead.logits"]["counts"]["elements"] == elements
    assert "nn.adam_step" not in totals
    assert output["n_unseen_samples"] == unseen_rows and output["n_seen_samples"] == seen_rows
