"""Benchmark of the icis package: training, the results table and wide-head
evaluation, end to end and layer by layer.

One workload:
    python3 perfbench/run.py --workload train_cub --seed 0 --seconds 20 --trace 0
Every workload, one after another, then rewrite BENCHMARK.json:
    python3 perfbench/run.py --all --seed 0
Record the reference outputs of every input set (after a deliberate change
of the program's results):
    python3 perfbench/run.py --record

Each workload runs in fresh processes: the inputs are generated by a set-up
process (run several times; set-up time is their median plus the measured
process's start-up), then a measured process runs operations back to back.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; with ``--trace 0`` the metrics are
the end-to-end ones, with ``--trace 1`` the per-layer ones.
"""

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans as spanlib
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench_work"
REFERENCES = HERE / "references.json"

SETUP_REPEATS = 3
RUN_SECONDS = 20
TIME_LIMIT_S = 170.0
# Outputs match their reference when ints, strings and flags are equal and
# floats agree to this relative (or absolute) tolerance.
REL_TOL = 1e-7
ABS_TOL = 1e-9

WORKLOAD_WHY = {
    "train_cub": "icis.train at the CUB shape, all four terms: Adam, forward and backward dominate, no evaluation",
    "paper_table": "ablate ladder and six baselines at 1 epoch via the CLI: single-path training, two extra "
                   "training loops, tall-narrow evaluate, checkpoints",
    "eval_wide": "load and evaluate a 20k-class head on 2k samples: id bookkeeping, logits and entropy, "
                 "no nn work, most memory",
}

END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mib", "unit": "MiB", "better": "lower", "bound": 0.1},
    {"name": "op_s_p50", "unit": "s", "better": "lower", "bound": 0.25},
]

PER_LAYER = [
    ("nn.adam_step.s", "s"), ("nn.adam_step.calls", "count"),
    ("nn.adam_step.bytes_computed", "bytes"), ("nn.adam_step.gbps_computed", "GB/s"),
    ("nn.MlpTwoLayer.forward.s", "s"), ("nn.MlpTwoLayer.forward.calls", "count"),
    ("nn.MlpTwoLayer.backward.s", "s"), ("nn.MlpTwoLayer.backward.calls", "count"),
    ("nn.batch_loss.s", "s"), ("nn.batch_loss.calls", "count"),
    ("nn.flops_per_step_computed", "flop"), ("model.parameters", "count"),
    ("model.IcisModel.zero_grad.s", "s"), ("model.total_loss.self_s", "s"), ("model.train.self_s", "s"),
    ("model.save_checkpoint.s", "s"), ("model.infer_and_inject.s", "s"),
    ("evaluation.evaluate.self_s", "s"), ("evaluation.classify.s", "s"),
    ("evaluation.per_class_mean_accuracy.s", "s"), ("evaluation.mean_prediction_entropy.s", "s"),
    ("data.load_matrix.s", "s"), ("data.load_matrix.bytes", "bytes"),
    ("data.ClassifierHead.subset.s", "s"), ("data.ClassifierHead.logits.s", "s"),
    ("data.ClassifierHead.logits.elements", "count"), ("data.FeatureSet.restrict_to.s", "s"),
    ("data.synth_generate.s", "s"), ("tensor.rand_normal.s", "s"),
    ("baselines.train_subreg.s", "s"), ("baselines.dae_refine.s", "s"), ("baselines.conse_classify.s", "s"),
    ("baselines.costa_weights.s", "s"), ("baselines.vgse_wavg_weights.s", "s"),
    ("baselines.vgse_smo_weights.s", "s"),
    ("cli.cmd_ablate.self_s", "s"), ("cli.cmd_baseline.self_s", "s"),
    ("trace.spans", "count"), ("trace.overhead_s", "s"),
]


class BenchError(Exception):
    pass


def benchmark_manifest() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": WORKLOAD_WHY[name]} for name in workloads.WORKLOADS],
        "end_to_end": END_TO_END,
        "per_layer": [{"name": name, "unit": unit, "better": "higher" if unit == "GB/s" else "lower"}
                      for name, unit in PER_LAYER],
    }


# ---------------------------------------------------------------------------
# machine notes

def _read(path) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return ""


def machine_notes() -> dict:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        caches[f"L{_read(index / 'level')} {_read(index / 'type')}"] = _read(index / "size")
    mem_kib = next((line.split()[1] for line in _read("/proc/meminfo").splitlines()
                    if line.startswith("MemTotal:")), "0")
    cpu = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor())
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy has no dict form of its build config
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "ram_mib": int(mem_kib) // 1024,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
    }


# ---------------------------------------------------------------------------
# running one workload

def child_env(nproc: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(nproc)
    return env


def _child(args, env, timeout, stdout=subprocess.DEVNULL):
    if timeout <= 0:
        raise BenchError(f"no time left for child {args[0]}")
    try:
        done = subprocess.run([sys.executable, str(HERE / "child.py")] + args, env=env,
                              stdout=stdout, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"child {args[0]} passed its {timeout:.0f} s limit and was stopped") from None
    if done.returncode != 0:
        raise BenchError(f"child {args[0]} exited with {done.returncode}")


def run_workload(name: str, seed: int, seconds: float, trace: int, nproc: int) -> dict:
    """Generate inputs, run the measured process, and return its raw result."""
    deadline = time.monotonic() + TIME_LIMIT_S
    k = workloads.input_set(seed)
    work = WORK_ROOT / f"{name}-s{seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "input").mkdir(parents=True)
    env = child_env(nproc)
    try:
        setup, gen_spans = [], []
        for rep in range(SETUP_REPEATS):
            spans_out = work / f"gen-spans{rep}.json"
            start = time.monotonic()
            _child(["gen", "--workload", name, "--input-set", str(k), "--out", str(work / "input"),
                    "--trace", str(trace), "--spans-out", str(spans_out)], env, deadline - start)
            setup.append(time.monotonic() - start)
            if trace:
                gen_spans.append(json.loads(spans_out.read_text()))
        result_path = work / "result.json"
        _child(["work", "--workload", name, "--input-set", str(k), "--work", str(work),
                "--seconds", repr(float(seconds)), "--trace", str(trace),
                "--spawned", repr(time.monotonic()), "--result", str(result_path)],
               env, deadline - time.monotonic(), stdout=sys.stderr)
        result = json.loads(result_path.read_text())
        if trace:
            shutil.copy(work / "spans.json", WORK_ROOT / f"spans-{name}-s{seed}.json")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result.update(input_set=k, setup_runs=setup, gen_spans=gen_spans)
    return result


# ---------------------------------------------------------------------------
# checking outputs

def mismatches(expected, actual, where="output") -> list:
    """Differences between a reference and an output, as readable lines."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        if expected.keys() != actual.keys():
            return [f"{where}: keys {sorted(actual)} != {sorted(expected)}"]
        return [m for key in expected for m in mismatches(expected[key], actual[key], f"{where}.{key}")]
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{where}: length {len(actual)} != {len(expected)}"]
        return [m for i, (e, a) in enumerate(zip(expected, actual)) for m in mismatches(e, a, f"{where}[{i}]")]
    numbers = (int, float)
    if (isinstance(expected, numbers) and isinstance(actual, numbers)
            and not isinstance(expected, bool) and not isinstance(actual, bool)
            and (isinstance(expected, float) or isinstance(actual, float))):
        if math.isclose(expected, actual, rel_tol=REL_TOL, abs_tol=ABS_TOL):
            return []
    elif type(expected) is type(actual) and expected == actual:
        return []
    return [f"{where}: {actual!r} != reference {expected!r}"]


def load_references() -> dict:
    try:
        return json.loads(REFERENCES.read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {REFERENCES.name}: {exc}") from None


def check_ops(name: str, result: dict, references: dict) -> int:
    """Count failed operations: raised, or output differs from the reference."""
    reference = references["outputs"][name][str(result["input_set"])]
    failed = 0
    for i, op in enumerate(result["ops"]):
        problems = [f"raised {op['error']}"] if op["error"] else mismatches(reference, op["output"])
        if problems:
            failed += 1
            print(f"op {i} FAILED: " + "; ".join(problems[:5]), file=sys.stderr)
    return failed


# ---------------------------------------------------------------------------
# metrics

def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end_metrics(result: dict) -> dict:
    good = [op for op in result["ops"] if op["phases"]]
    values = {
        "setup_s": _median(result["setup_runs"]) + result["ready_s"],
        "peak_rss_mib": result["peak_rss_mib"],
        "op_s_p50": _median([sum(op["phases"].values()) for op in good]),
    }
    units = {m["name"]: m["unit"] for m in END_TO_END}
    return {name: {"value": value, "unit": units[name]} for name, value in values.items()}


def phase_lines(name: str, result: dict) -> list:
    """The workload's own phase times, median and sample count each."""
    good = [op for op in result["ops"] if op["phases"]]
    lines = []
    for phase in sorted({p for op in good for p in op["phases"]}):
        samples = [op["phases"][phase] for op in good]
        lines.append(_summary_line(phase, samples))
    epochs = [e for op in good for e in (op["epochs"] or [])]
    if epochs:
        lines.append(_summary_line("epoch_s", epochs))
    return lines


def _summary_line(label: str, samples: list) -> str:
    tail = spanlib.tail_percentile(len(samples))
    text = f"{label}: p50 {statistics.median(samples):.4f} s over n={len(samples)}"
    if tail is None:
        return text + " (too few samples for a tail percentile)"
    cut = sorted(samples)[min(len(samples) - 1, math.ceil(tail / 100.0 * len(samples)) - 1)]
    return text + f", p{tail:g} {cut:.4f} s"


def per_layer_metrics(name: str, result: dict) -> dict:
    ops = result["spans"]
    flat = {}
    for aggregated in ops:
        for span_name, entry in aggregated.items():
            row = {"s": entry["s"], "self_s": entry["self_s"], "calls": entry["calls"], **entry["counts"]}
            for key, value in row.items():
                flat[f"{span_name}.{key}"] = flat.get(f"{span_name}.{key}", 0) + value / len(ops)
    for span_name in ("data.synth_generate", "tensor.rand_normal"):
        flat[f"{span_name}.s"] = _median([g[span_name]["s"] for g in result["gen_spans"] if span_name in g])
    calls = flat.get("nn.adam_step.calls", 0)
    adam_s = flat.get("nn.adam_step.s", 0.0)
    flat["nn.adam_step.bytes_computed"] = flat.get("nn.adam_step.bytes", 0)
    flat["nn.adam_step.gbps_computed"] = flat["nn.adam_step.bytes_computed"] / adam_s / 1e9 if adam_s else 0.0
    flops = flat.get("nn.MlpTwoLayer.forward.flops", 0) + flat.get("nn.MlpTwoLayer.backward.flops", 0)
    flat["nn.flops_per_step_computed"] = flops / calls if calls else 0
    flat["model.parameters"] = workload_parameters(workloads.WORKLOADS[name])
    spans_per_op = sum(entry["calls"] for aggregated in ops for entry in aggregated.values()) / len(ops)
    flat["trace.spans"] = spans_per_op
    flat["trace.overhead_s"] = spans_per_op * result["span_cost_s"]
    return {metric: {"value": flat.get(metric, 0), "unit": unit} for metric, unit in PER_LAYER}


def workload_parameters(workload) -> int:
    """Parameters of the weight-inference model a workload trains (0 if none)."""
    if not hasattr(workload, "hidden"):
        return 0
    a, w, h = workload.d_a, workload.d_w, workload.hidden
    return 2 * (a * h + w * h) + 2 * h + a + w


# ---------------------------------------------------------------------------
# entry points

def measure(name: str, seed: int, seconds: float, trace: int, notes: dict) -> dict:
    references = load_references()
    result = run_workload(name, seed, seconds, trace, notes["nproc"])
    failed = check_ops(name, result, references)
    notes = dict(notes, blas_threads=result["blas_threads"], blas_threads_cap=notes["nproc"])
    print(f"workload {name}: seed {seed}, input set {result['input_set']}, "
          f"{len(result['ops'])} operation(s), {failed} failed, trace={trace}")
    print("machine " + json.dumps(notes, sort_keys=True))
    for line in phase_lines(name, result):
        print("  " + line)
    print(f"  setup runs: {', '.join(f'{s:.3f}' for s in result['setup_runs'])} s; "
          f"measured process ready after {result['ready_s']:.3f} s")
    metrics = per_layer_metrics(name, result) if trace else end_to_end_metrics(result)
    for metric, entry in metrics.items():
        print(f"  {metric} = {entry['value']:.6g} {entry['unit']}")
    return {
        "correct": failed == 0,
        "attempted": len(result["ops"]),
        "failed": failed,
        "metrics": metrics,
    }


def record(notes: dict) -> None:
    outputs = {}
    for name in workloads.WORKLOADS:
        outputs[name] = {}
        for k in range(workloads.INPUT_SETS):
            result = run_workload(name, k, 0, 0, notes["nproc"])
            op = result["ops"][0]
            if op["error"]:
                raise BenchError(f"{name} input set {k} raised {op['error']}")
            outputs[name][str(k)] = op["output"]
            print(f"recorded {name} input set {k}", file=sys.stderr)
    REFERENCES.write_text(json.dumps({
        "tolerance": {"rel": REL_TOL, "abs": ABS_TOL},
        "machine": notes,
        "outputs": outputs,
    }, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--all", action="store_true", help="run every workload and rewrite BENCHMARK.json")
    parser.add_argument("--record", action="store_true", help="record reference outputs of every input set")
    args = parser.parse_args(argv)
    if not (args.workload or args.all or args.record):
        parser.error("give --workload, --all or --record")

    if not (ROOT / "src" / "icis" / "__init__.py").is_file():
        print(f"error: no icis sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    notes = machine_notes()
    try:
        if args.record:
            record(notes)
            return 0
        if args.all:
            summary = {name: measure(name, args.seed, args.seconds, args.trace, notes)
                       for name in workloads.WORKLOADS}
            (ROOT / "BENCHMARK.json").write_text(json.dumps(benchmark_manifest(), indent=2) + "\n")
            print(json.dumps(summary))
            return 0 if all(s["correct"] for s in summary.values()) else 1
        print(json.dumps(measure(args.workload, args.seed, args.seconds, args.trace, notes)))
        return 0
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
