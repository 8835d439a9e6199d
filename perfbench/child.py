"""Child processes of the benchmark.

``child.py gen`` writes one workload's inputs; ``child.py work`` is the
measured process: it loads the inputs, runs operations back to back (a
closed loop with one client) until ``--seconds`` have passed, and writes its
timings, outputs and, when traced, its per-layer spans as JSON.
Both are started by ``run.py`` with the repository's ``src`` on the path.
"""

import argparse
import ctypes
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import spans as spanlib
import workloads


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower() and ".so" in line})
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def cmd_gen(args) -> None:
    tracer = spanlib.Tracer()
    if args.trace:
        import icis  # noqa: F401  (load every module before rebinding names)
        import icis.cli  # noqa: F401

        tracer.install(spanlib.GENERATOR_LAYERS)
        tracer.active = True
    workloads.WORKLOADS[args.workload].generate(Path(args.out), args.input_set)
    tracer.active = False
    if args.trace:
        Path(args.spans_out).write_text(json.dumps(spanlib.aggregate(tracer.take())))


def cmd_work(args) -> None:
    import icis  # noqa: F401
    import icis.baselines  # noqa: F401
    import icis.cli  # noqa: F401

    workload = workloads.WORKLOADS[args.workload]
    tracer = spanlib.Tracer()
    if args.trace:
        tracer.install(spanlib.WORKER_LAYERS)
    work_dir = Path(args.work)
    state = workload.prepare(work_dir / "input", args.input_set)

    ops, per_op_spans = [], []
    first = None
    while first is None or time.perf_counter() - first < args.seconds:
        op_dir = work_dir / f"op{len(ops)}"
        op_dir.mkdir()
        if first is None:
            ready_s = time.monotonic() - args.spawned
            first = time.perf_counter()
        tracer.active = bool(args.trace)
        try:
            phases, epochs, output = workload.operation(state, op_dir)
            ops.append({"phases": phases, "epochs": epochs, "output": output, "error": None})
        except Exception as exc:  # an operation that raises counts as failed; keep measuring
            traceback.print_exc()
            ops.append({"phases": None, "epochs": None, "output": None, "error": repr(exc)})
        tracer.active = False
        per_op_spans.append(tracer.take())
        shutil.rmtree(op_dir)

    result = {
        "ready_s": ready_s,
        "ops": ops,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "blas_threads": blas_threads(),
    }
    if args.trace:
        result["spans"] = [spanlib.aggregate(s) for s in per_op_spans]
        result["span_cost_s"] = spanlib.span_cost_s()
        # every span is kept until the run ends, then written out whole
        (work_dir / "spans.json").write_text(json.dumps(per_op_spans))
    tracer.uninstall()
    Path(args.result).write_text(json.dumps(result))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="child.py")
    sub = parser.add_subparsers(dest="mode", required=True)
    gen = sub.add_parser("gen")
    gen.add_argument("--workload", required=True)
    gen.add_argument("--input-set", type=int, required=True)
    gen.add_argument("--out", required=True)
    gen.add_argument("--trace", type=int, default=0)
    gen.add_argument("--spans-out")
    work = sub.add_parser("work")
    work.add_argument("--workload", required=True)
    work.add_argument("--input-set", type=int, required=True)
    work.add_argument("--work", required=True)
    work.add_argument("--seconds", type=float, required=True)
    work.add_argument("--trace", type=int, default=0)
    work.add_argument("--spawned", type=float, required=True)
    work.add_argument("--result", required=True)
    args = parser.parse_args(argv)
    (cmd_gen if args.mode == "gen" else cmd_work)(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
