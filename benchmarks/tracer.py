"""Spans around the calls into spikegrow's modules, recorded from outside.

`Tracer.patched()` replaces each public function at the name its caller
binds (for example `spikegrow.learner.fit_output_weights`, which is what
`_grow` looks up) with a wrapper that records a span, and puts the
originals back on exit. Nothing under `src/` knows it is being traced.

A span has a name, start, end, parent span and run id. Spans stay in
memory until the benchmark writes them out. A worker thread of a
`ThreadPoolExecutor` starts with an empty stack; its spans take as parent
the innermost span open on the thread that runs the CLI op, which is the
call that fanned out.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

import spikegrow.cli
import spikegrow.construct
import spikegrow.learner
from spikegrow.dataset import LabeledDataset
from spikegrow.learner import Network

LAYERS = ("dataset", "lif", "construct", "readout", "learner", "evaluation",
          "cli")
OPS = ("gen-data", "train-fresh", "train-exp", "eval")


class Span:
    __slots__ = ("id", "parent", "run", "name", "start", "end", "thread",
                 "info")

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__}


def _rows(args, kwargs, result):
    return len(args[0])


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


def _pool_info(args, kwargs, result):
    return [len(result), sum(1 for _, h in result if not h.any())]


def _grew(args, kwargs, result):
    return not result.saturated


# (object whose attribute the caller looks up, attribute, span name, info).
# `info` maps (args, kwargs, result) to a count kept on the span.
PATCHES = [
    (spikegrow.cli, "generate_family", "dataset.generate", None),
    (spikegrow.cli, "save_dataset", "dataset.save_dataset", None),
    (spikegrow.cli, "load_dataset", "dataset.load_dataset", _file_bytes),
    (spikegrow.cli, "dataset_fingerprint", "dataset.fingerprint", None),
    (spikegrow.learner, "dataset_fingerprint", "dataset.fingerprint", None),
    (spikegrow.cli, "split_train_test", "dataset.split", None),
    (spikegrow.learner, "encode_targets", "dataset.encode_targets", None),
    (LabeledDataset, "spike_tensor", "dataset.spike_tensor", None),
    (spikegrow.construct, "batch_rate_features", "lif.rate_features", _rows),
    (spikegrow.learner, "batch_rate_features", "lif.rate_features", _rows),
    (spikegrow.learner, "grow_one", "construct.grow_one", _grew),
    (spikegrow.construct, "pool_features", "construct.pool_features",
     _pool_info),
    (spikegrow.construct, "select_best", "construct.select_best", None),
    (spikegrow.learner, "fit_output_weights", "readout.fit", None),
    (spikegrow.learner, "residual", "readout.residual", None),
    (spikegrow.learner, "predict_batch", "readout.predict", None),
    (spikegrow.cli, "train_fresh", "learner.train_fresh", None),
    (spikegrow.cli, "train_experienced", "learner.train_experienced", None),
    (spikegrow.learner, "one_loop_adapt", "learner.one_loop_adapt", None),
    (Network, "features", "learner.features", None),
    (spikegrow.cli, "save_network", "learner.save_network", None),
    (spikegrow.cli, "load_network", "learner.load_network", None),
    (spikegrow.cli, "evaluate", "evaluation.evaluate", None),
    (spikegrow.cli, "export_trace", "evaluation.export_trace", None),
    (spikegrow.cli, "report_to_text", "evaluation.report", None),
]


class Tracer:
    """Collects spans; `patched()` turns recording on for its block."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._op_stack = None
        self._run = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1].id
        elif self._op_stack:
            parent = self._op_stack[-1].id
        else:
            parent = None
        span = Span()
        span.id = next(self._ids)
        span.parent = parent
        span.run = self._run
        span.name = name
        span.thread = threading.get_ident()
        span.info = None
        span.end = None
        stack.append(span)
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    @contextmanager
    def op(self, name: str, run: str):
        """Root span of one CLI op; every span opened inside shares `run`."""
        if self._op_stack is not None:
            raise RuntimeError("CLI ops do not nest")
        self._run = run
        self._op_stack = self._stack()
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)
            self._op_stack = None
            self._run = None

    def wrap(self, name: str, fn, info=None):
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if info is not None:
                span.info = info(args, kwargs, result)
            return result
        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def patched(self):
        saved = []
        try:
            for owner, attr, name, info in PATCHES:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, info))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([s.to_dict() for s in self.spans], fh)


def self_times(spans) -> dict:
    """Exclusive seconds per span id.

    Each instant of a root span's interval goes to the innermost spans open
    at that instant, shared evenly when worker threads overlap, so the self
    times of one op's spans add up to the op's wall time.
    """
    events = []
    for s in spans:
        events.append((s.start, 0, s.id, s))
        events.append((s.end, 1, -s.id, s))
    events.sort(key=lambda e: e[:3])
    own = dict.fromkeys((s.id for s in spans), 0.0)
    open_children = defaultdict(int)
    leaves = set()
    prev = None
    for t, kind, _, s in events:
        if leaves:
            share = (t - prev) / len(leaves)
            for sid in leaves:
                own[sid] += share
        prev = t
        if kind == 0:
            leaves.add(s.id)
            if s.parent is not None:
                open_children[s.parent] += 1
                leaves.discard(s.parent)
        else:
            leaves.discard(s.id)
            if s.parent is not None:
                open_children[s.parent] -= 1
                if open_children[s.parent] == 0:
                    leaves.add(s.parent)
    return own


def layer_metrics(spans) -> dict:
    """Per-layer counts and times of one pass's spans (see README.md)."""
    own = self_times(spans)
    total = defaultdict(float)
    calls = defaultdict(int)
    longest = defaultdict(float)
    info = defaultdict(int)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    fn_self = defaultdict(float)
    for s in spans:
        dur = s.end - s.start
        total[s.name] += dur
        calls[s.name] += 1
        longest[s.name] = max(longest[s.name], dur)
        layer_self[s.name.split(".", 1)[0]] += own[s.id]
        fn_self[s.name] += own[s.id]
        if s.name == "construct.pool_features":
            info["candidates"] += s.info[0]
            info["silent"] += s.info[1]
        elif s.info is not None:
            info[s.name] += s.info

    def ratio(num, den):
        return num / den if den else 0.0

    load_mb = info["dataset.load_dataset"] / 1e6
    m = {f"{layer}.self_s": layer_self[layer] for layer in LAYERS}
    m.update({
        "dataset.load_dataset_s": total["dataset.load_dataset"],
        "dataset.load_mb_per_s": ratio(load_mb, total["dataset.load_dataset"]),
        "dataset.save_dataset_s": total["dataset.save_dataset"],
        "dataset.generate_s": total["dataset.generate"],
        "dataset.fingerprint_s": total["dataset.fingerprint"],
        "dataset.fingerprint_calls": calls["dataset.fingerprint"],
        "dataset.spike_tensor_s": total["dataset.spike_tensor"],
        "dataset.split_s": total["dataset.split"],
        "lif.rate_features_s": total["lif.rate_features"],
        "lif.rate_features_calls": calls["lif.rate_features"],
        "lif.neuron_samples": info["lif.rate_features"],
        "lif.neuron_samples_per_s": ratio(info["lif.rate_features"],
                                          total["lif.rate_features"]),
        "construct.grow_one_s": total["construct.grow_one"],
        "construct.growth_steps": info["construct.grow_one"],
        "construct.pool_features_s": total["construct.pool_features"],
        "construct.pool_rounds": calls["construct.pool_features"],
        "construct.candidates": info["candidates"],
        "construct.candidates_per_s": ratio(info["candidates"],
                                            total["construct.pool_features"]),
        "construct.select_best_s": total["construct.select_best"],
        "construct.round_yield": ratio(info["construct.grow_one"],
                                       calls["construct.pool_features"]),
        "construct.silent_frac": ratio(info["silent"], info["candidates"]),
        "readout.fit_s": total["readout.fit"],
        "readout.fit_calls": calls["readout.fit"],
        "readout.fit_s_max": longest["readout.fit"],
        "readout.residual_s": total["readout.residual"],
        "readout.predict_s": total["readout.predict"],
        "learner.grow_self_s": fn_self["learner.train_fresh"]
        + fn_self["learner.train_experienced"],
        "learner.one_loop_adapt_s": total["learner.one_loop_adapt"],
        "learner.features_s": total["learner.features"],
        "learner.save_network_s": total["learner.save_network"],
        "learner.load_network_s": total["learner.load_network"],
        "evaluation.evaluate_self_s": fn_self["evaluation.evaluate"],
        "evaluation.export_trace_s": total["evaluation.export_trace"],
        "evaluation.report_s": total["evaluation.report"],
    })
    return m


def op_metric(op: str) -> str:
    """Name of the per-layer metric holding a CLI op's untraced wall time."""
    return f"cli.{op.replace('-', '_')}_s"


_UNITS = {
    "dataset.fingerprint_calls": "count", "lif.rate_features_calls": "count",
    "lif.neuron_samples": "count", "construct.growth_steps": "count",
    "construct.pool_rounds": "count", "construct.candidates": "count",
    "readout.fit_calls": "count", "dataset.load_mb_per_s": "MB/s",
    "lif.neuron_samples_per_s": "1/s", "construct.candidates_per_s": "1/s",
    "construct.round_yield": "fraction", "construct.silent_frac": "fraction",
    "trace_overhead_frac": "fraction",
}
# Every per-layer metric a traced run reports, with its unit: the layer
# metrics above, the untraced wall time of each CLI op, and the overhead.
PER_LAYER_UNITS = {
    name: _UNITS.get(name, "s")
    for name in [*layer_metrics([]), *map(op_metric, OPS),
                 "trace_overhead_frac"]
}
