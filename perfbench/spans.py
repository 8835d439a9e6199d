"""Span recording around the public functions of the ``icis`` layers.

A :class:`Tracer` replaces a function or method with a wrapper that records
one span per call: name, start, end, parent span and optional work counts.
A function is rebound under every name any ``icis`` module holds it by
(``icis.model.adam_step`` as well as ``icis.nn.adam_step``), otherwise calls
made through the other names would go unrecorded. Spans stay in memory until
the caller collects them.
"""

import functools
import importlib
import os
import sys
import time

import numpy as np


def _rows(x) -> int:
    return int(np.shape(x)[0])


def _mlp_dims(net):
    return net.layer1.in_dim, net.layer1.out_dim, net.layer2.out_dim


def _forward_counts(net, x):
    d_in, hidden, d_out = _mlp_dims(net)
    return {"flops": 2 * _rows(x) * (d_in * hidden + hidden * d_out)}


def _backward_counts(net, upstream):
    # weight gradients and input gradients of both layers: twice the forward matmuls
    d_in, hidden, d_out = _mlp_dims(net)
    return {"flops": 4 * _rows(upstream) * (d_in * hidden + hidden * d_out)}


def _adam_counts(state, params, grads):
    # at minimum Adam reads p, g, m, v and writes p, m, v: 7 float64 passes per parameter
    return {"bytes": 7 * 8 * sum(int(p.size) for p in params)}


def _load_counts(path):
    return {"bytes": os.path.getsize(path)}


def _logits_counts(head, features):
    return {"elements": _rows(features) * head.n_classes}


# (span name, module, attribute path, work counter) for the measured process
WORKER_LAYERS = (
    ("nn.adam_step", "icis.nn", "adam_step", _adam_counts),
    ("nn.MlpTwoLayer.forward", "icis.nn", "MlpTwoLayer.forward", _forward_counts),
    ("nn.MlpTwoLayer.backward", "icis.nn", "MlpTwoLayer.backward", _backward_counts),
    ("nn.batch_loss", "icis.nn", "BATCH_LOSSES", None),
    ("model.IcisModel.zero_grad", "icis.model", "IcisModel.zero_grad", None),
    ("model.total_loss", "icis.model", "total_loss", None),
    ("model.train", "icis.model", "train", None),
    ("model.save_checkpoint", "icis.model", "save_checkpoint", None),
    ("model.infer_and_inject", "icis.model", "infer_and_inject", None),
    ("evaluation.evaluate", "icis.evaluation", "evaluate", None),
    ("evaluation.classify", "icis.evaluation", "classify", None),
    ("evaluation.per_class_mean_accuracy", "icis.evaluation", "per_class_mean_accuracy", None),
    ("evaluation.mean_prediction_entropy", "icis.evaluation", "mean_prediction_entropy", None),
    ("data.load_matrix", "icis.data", "load_matrix", _load_counts),
    ("data.ClassifierHead.subset", "icis.data", "ClassifierHead.subset", None),
    ("data.ClassifierHead.logits", "icis.data", "ClassifierHead.logits", _logits_counts),
    ("data.FeatureSet.restrict_to", "icis.data", "FeatureSet.restrict_to", None),
    ("baselines.train_subreg", "icis.baselines", "train_subreg", None),
    ("baselines.dae_refine", "icis.baselines", "dae_refine", None),
    ("baselines.conse_classify", "icis.baselines", "conse_classify", None),
    ("baselines.costa_weights", "icis.baselines", "costa_weights", None),
    ("baselines.vgse_wavg_weights", "icis.baselines", "vgse_wavg_weights", None),
    ("baselines.vgse_smo_weights", "icis.baselines", "vgse_smo_weights", None),
    ("cli.cmd_ablate", "icis.cli", "cmd_ablate", None),
    ("cli.cmd_baseline", "icis.cli", "cmd_baseline", None),
)

# the input generator's layers, measured in the set-up process
GENERATOR_LAYERS = (
    ("data.synth_generate", "icis.data", "synth_generate", None),
    ("tensor.rand_normal", "icis.tensor", "rand_normal", None),
)


class Tracer:
    """Records spans ``[name, start, end, parent, counts]`` while active.

    ``parent`` is the index of the enclosing span in ``spans`` or -1. Spans
    of one process form a tree because the program is single-threaded.
    """

    def __init__(self):
        self.spans = []
        self.active = False
        self._stack = []
        self._undo = []

    def wrap(self, name, fn, counter=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else -1
            counts = counter(*args, **kwargs) if counter is not None else None
            span = [name, time.perf_counter(), 0.0, parent, counts]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()

        return wrapper

    def install(self, layers):
        """Wrap every layer in ``layers``; undone by :meth:`uninstall`."""
        for name, module_name, attr, counter in layers:
            module = importlib.import_module(module_name)
            owner_name, _, leaf = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[leaf]
                self._set(owner, leaf, self.wrap(name, original, counter))
            elif isinstance(getattr(module, attr), dict):
                table = getattr(module, attr)
                for key, fn in list(table.items()):
                    self._undo.append((table.__setitem__, key, fn))
                    table[key] = self.wrap(name, fn, counter)
            else:
                original = getattr(module, attr)
                wrapper = self.wrap(name, original, counter)
                for holder in bound_holders(original):
                    for binding, value in list(vars(holder).items()):
                        if value is original:
                            self._set(holder, binding, wrapper)
        return self

    def _set(self, owner, attr, value):
        self._undo.append((functools.partial(setattr, owner), attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for setter, key, original in reversed(self._undo):
            setter(key, original)
        self._undo.clear()

    def take(self) -> list:
        """Return the spans recorded so far and start a new list."""
        spans, self.spans = self.spans, []
        return spans


def bound_holders(fn) -> list:
    """Every loaded ``icis`` module that binds ``fn`` under some name."""
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "icis" or name.startswith("icis."))
        and any(value is fn for value in vars(module).values())
    ]


def self_times(spans) -> list:
    """Self time of each span: its duration minus the part of that interval
    covered by its direct children (overlapping children counted once)."""
    children = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(index)
    result = []
    for index, (_name, start, end, _parent, _counts) in enumerate(spans):
        covered, reach = 0.0, start
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children[index]):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append((end - start) - covered)
    return result


def aggregate(spans) -> dict:
    """Per span name: calls, total seconds, total self seconds, summed counts."""
    totals = {}
    for span, self_s in zip(spans, self_times(spans)):
        name, start, end, _parent, counts = span
        entry = totals.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "counts": {}})
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += self_s
        for key, value in (counts or {}).items():
            entry["counts"][key] = entry["counts"].get(key, 0) + value
    return totals


def span_cost_s(calls: int = 20000) -> float:
    """Measured cost of recording one span, for the tracing-overhead estimate."""
    tracer = Tracer()
    wrapped = tracer.wrap("probe", _noop)
    tracer.active = True
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(calls):
            wrapped()
        traced = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            _noop()
        bare = time.perf_counter() - start
        tracer.take()
        best = min(best, (traced - bare) / calls)
    return max(best, 0.0)


def _noop():
    return None


def tail_percentile(samples: int, candidates=(90.0, 99.0, 99.9)):
    """Highest candidate percentile with at least ten samples beyond it, or None."""
    best = None
    for p in candidates:
        if samples * (100.0 - p) / 100.0 >= 10.0 - 1e-9:
            best = p
    return best
