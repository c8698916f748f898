"""Metrics and reporting: accuracy, confusion tables, traces, run comparison.

Evaluation runs on a dataset given as row blocks (`evaluate_blocks`), so
that `eval` can score a file as it reads it, a block at a time; `evaluate`
is the same on a dataset held whole, as one block.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, fields

import numpy as np

from ._util import atomic_write_text, check_keys, is_finite_number, is_int
from .construct import POOL_UNITS
from .dataset import LabeledDataset
from .errors import ConfigError, DataFormatError, LineageError
from .learner import (
    STATUS_TARGET,
    STATUSES,
    Network,
    TraceRecord,
    TrainingTrace,
    unit_features,
)

TRACE_VERSION = 1
TRACE_COLUMNS = [f.name for f in fields(TraceRecord)]
_COUNT_COLUMNS = {"neuron_count", "retries_used"}
_TRACE_KEYS = {"trace_version", "status", "initial_neurons", "records"}
# The retries_used of a step that grew a unit from the kept pool, drawing
# none, so the records' retries_used + 1 sum to the pools drawn.
_REUSED = -1


def _is_count(value) -> bool:
    return is_int(value) and value >= 0


def _is_column(c, value) -> bool:
    if c == "retries_used" and is_int(value) and value == _REUSED:
        return True
    return _is_count(value) if c in _COUNT_COLUMNS else is_finite_number(value)


@dataclass(frozen=True)
class EvalReport:
    accuracy: float
    confusion: np.ndarray  # (m, m) counts, rows = true category
    n_hidden: int
    space_complexity: int
    per_category_accuracy: np.ndarray  # (m,)
    predictions: np.ndarray  # per-sample predicted category index


def check_dataset(net: Network, d: int, categories: list) -> None:
    """LineageError unless a dataset of `d` channels over `categories` fits
    the network: the same channels, and categories a prefix of its own."""
    if d != net.d:
        raise LineageError(f"dataset has {d} channels, network expects {net.d}")
    if net.categories[:len(categories)] != categories:
        raise LineageError(
            "dataset categories must be a prefix of the network's categories"
        )


def evaluate_blocks(net: Network, blocks) -> EvalReport:
    """Predict a dataset given as row blocks with frozen weights and tally
    the confusion table.

    `blocks` yields the dataset's rows in order, as (spikes, label_index)
    blocks of a dataset that `check_dataset` accepts, each used before the
    next is drawn, so they may share one buffer. Their rate features fill
    one (N, n) table, from `learner.unit_features`, and one `predict_batch`
    over it predicts every row, as over the whole dataset; blocks of
    `lif.block_rows(n)` rows give the kernel the row blocks of the whole
    dataset too.
    """
    truth = []

    def spikes():
        for x, label_index in blocks:
            truth.append(label_index.copy())
            yield x

    H = unit_features(net.hidden, spikes(), net.lif)
    if not sum(map(len, truth)):
        raise ConfigError("cannot evaluate an empty dataset")
    predictions = net.predict(H)
    truth = np.concatenate(truth)
    m = net.m
    confusion = np.zeros((m, m), dtype=np.int64)
    np.add.at(confusion, (truth, predictions), 1)
    accuracy = float(np.trace(confusion)) / len(truth)
    row_totals = confusion.sum(axis=1)
    per_cat = np.where(row_totals > 0,
                       np.diag(confusion) / np.maximum(row_totals, 1), 0.0)
    return EvalReport(accuracy, confusion, net.n_hidden, space_complexity(net),
                      per_cat, predictions)


def evaluate(net: Network, ds: LabeledDataset) -> EvalReport:
    """Predict every sample with frozen weights and tally the confusion
    table: `evaluate_blocks` over the whole dataset as one block."""
    check_dataset(net, ds.d, ds.categories)
    return evaluate_blocks(net, [(ds.spikes, ds.label_index)])


def space_complexity(net: Network) -> int:
    """Trainable parameter count: n*(d+1) input/feedback weights + n*m outputs."""
    n = net.n_hidden
    return n * (net.d + 1) + n * net.m


def trace_to_text(trace: TrainingTrace) -> str:
    doc = {
        "trace_version": TRACE_VERSION,
        "status": trace.status,
        "initial_neurons": trace.initial_neurons,
        "records": [{c: getattr(rec, c) for c in TRACE_COLUMNS}
                    for rec in trace.records],
    }
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def export_trace(trace: TrainingTrace, path: str) -> None:
    """Persist a trace as JSON, the form `load_trace` reads."""
    atomic_write_text(path, trace_to_text(trace))


def load_trace(path: str) -> TrainingTrace:
    """Parse back a trace that `export_trace` wrote."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError,
                RecursionError) as exc:
            raise DataFormatError(f"malformed trace file {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise DataFormatError(f"trace file {path} must hold a JSON object")
    if doc.get("trace_version") != TRACE_VERSION:
        raise DataFormatError(
            f"unsupported trace version {doc.get('trace_version')!r} in {path}"
        )
    check_keys(doc, _TRACE_KEYS, f"trace file {path}")
    if doc["status"] not in STATUSES \
            or not _is_count(doc["initial_neurons"]) \
            or not isinstance(doc["records"], list):
        raise DataFormatError(
            f"trace file {path}: status must be one of {list(STATUSES)}, "
            f"initial_neurons a non-negative integer and records a list"
        )
    records, sq_max, t_min = [], float("inf"), 0.0
    served = 0  # units the pool drawn last has served; 0 before any draw
    for k, rec in enumerate(doc["records"]):
        if not isinstance(rec, dict):
            raise DataFormatError(f"trace record {k} in {path} is not an object")
        check_keys(rec, set(TRACE_COLUMNS), f"trace record {k} in {path}")
        for c in TRACE_COLUMNS:
            if not _is_column(c, rec[c]):
                raise DataFormatError(
                    f"trace record {k} in {path}: {c} = {rec[c]!r} is not a "
                    f"{'count' if c in _COUNT_COLUMNS else 'finite number'}"
                )
        # Growth adds a unit a record, shrinks sq_norm and keeps the clock.
        # A pool serves POOL_UNITS units at most, and record 0 draws one.
        reused = rec["retries_used"] == _REUSED
        served = served + 1 if reused else 1
        for ok, what in (
                (not reused or 1 < served <= POOL_UNITS,
                 f"retries_used is {_REUSED}, but no drawn pool is left to "
                 f"serve this unit"),
                (rec["neuron_count"] == doc["initial_neurons"] + k + 1,
                 f"neuron_count is not initial_neurons + {k + 1}"),
                (0 <= rec["train_accuracy"] <= 1
                 and 0 <= rec["test_accuracy"] <= 1,
                 "an accuracy lies outside [0, 1]"),
                (0 < rec["sigma_used"] < 1, "sigma_used lies outside (0, 1)"),
                (0 <= rec["sq_norm"] < sq_max,
                 "sq_norm is negative or does not decrease"),
                (rec["elapsed_seconds"] >= t_min,
                 "elapsed_seconds is negative or decreases")):
            if not ok:
                raise DataFormatError(f"trace record {k} in {path}: {what}")
        sq_max, t_min = rec["sq_norm"], rec["elapsed_seconds"]
        records.append(TraceRecord(**{c: rec[c] for c in TRACE_COLUMNS}))
    return TrainingTrace(records=records, status=doc["status"],
                         initial_neurons=doc["initial_neurons"])


@dataclass(frozen=True)
class ComparisonRow:
    label: str
    accuracy: float
    n_hidden: int
    added_neurons: int
    elapsed_seconds: float
    status: str


@dataclass(frozen=True)
class ComparisonReport:
    rows: tuple  # sorted by elapsed_seconds ascending
    fastest_index: int | None  # first row whose run reached its target

    @property
    def fastest_to_target(self) -> str | None:
        k = self.fastest_index
        return None if k is None else self.rows[k].label


def compare_runs(traces) -> ComparisonReport:
    """Tabulate labeled runs; flags the quickest run that reached its target."""
    traces = list(traces)
    if not traces:
        raise ConfigError("at least one trace is required")
    rows = []
    for label, trace in traces:
        rows.append(ComparisonRow(
            label=label,
            accuracy=trace.best_test_accuracy,
            n_hidden=trace.final_neurons,
            added_neurons=trace.added_neurons,
            elapsed_seconds=trace.total_elapsed,
            status=trace.status,
        ))
    rows.sort(key=lambda r: r.elapsed_seconds)
    fastest = next((k for k, r in enumerate(rows) if r.status == STATUS_TARGET), None)
    return ComparisonReport(tuple(rows), fastest)


def comparison_to_text(report: ComparisonReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["label", "accuracy", "n_hidden", "added_neurons",
                     "elapsed_seconds", "status", "fastest_to_target"])
    for k, r in enumerate(report.rows):
        writer.writerow([r.label, repr(r.accuracy), r.n_hidden, r.added_neurons,
                         repr(r.elapsed_seconds), r.status,
                         "yes" if k == report.fastest_index else ""])
    return buf.getvalue()


def report_to_text(report: EvalReport, categories) -> str:
    doc = {
        "report_version": 1,
        "accuracy": report.accuracy,
        "n_hidden": report.n_hidden,
        "space_complexity": report.space_complexity,
        "categories": list(categories),
        "per_category_accuracy": report.per_category_accuracy.tolist(),
        "confusion": report.confusion.tolist(),
        "predictions": report.predictions.tolist(),
    }
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"
