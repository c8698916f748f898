"""Metrics and reporting: accuracy, confusion tables, traces, run comparison."""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, fields

import numpy as np

from ._util import atomic_write_text, is_int
from .dataset import LabeledDataset
from .errors import ConfigError, DataFormatError
from .learner import (
    STATUS_TARGET,
    Network,
    TraceRecord,
    TrainingTrace,
)

TRACE_VERSION = 1
TRACE_COLUMNS = [f.name for f in fields(TraceRecord)]
_COUNT_COLUMNS = {"neuron_count", "retries_used"}


def _is_count(value) -> bool:
    return is_int(value) and value >= 0


@dataclass(frozen=True)
class EvalReport:
    accuracy: float
    confusion: np.ndarray  # (m, m) counts, rows = true category
    n_hidden: int
    space_complexity: int
    per_category_accuracy: np.ndarray  # (m,)
    predictions: np.ndarray  # per-sample predicted category index


def evaluate(net: Network, ds: LabeledDataset) -> EvalReport:
    """Predict every sample with frozen weights and tally the confusion table."""
    if ds.d != net.d:
        raise ConfigError(f"dataset has {ds.d} channels, network expects {net.d}")
    if net.categories[: ds.n_categories] != ds.categories:
        raise ConfigError(
            "dataset categories must be a prefix of the network's categories"
        )
    if len(ds) == 0:
        raise ConfigError("cannot evaluate an empty dataset")
    m = net.m
    predictions = net.predict_dataset(ds)
    truth = ds.label_indices()
    confusion = np.zeros((m, m), dtype=np.int64)
    np.add.at(confusion, (truth, predictions), 1)
    accuracy = float(np.trace(confusion)) / len(ds)
    row_totals = confusion.sum(axis=1)
    per_cat = np.where(row_totals > 0,
                       np.diag(confusion) / np.maximum(row_totals, 1), 0.0)
    return EvalReport(accuracy, confusion, net.n_hidden, space_complexity(net),
                      per_cat, predictions)


def space_complexity(net: Network) -> int:
    """Trainable parameter count: n*(d+1) input/feedback weights + n*m outputs."""
    n = net.n_hidden
    return n * (net.d + 1) + n * net.m


def feature_export(net: Network, ds: LabeledDataset, path: str) -> None:
    """Raw per-sample hidden-feature table (N x n CSV) for external tooling."""
    H = net.features(ds)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([f"h{j}" for j in range(net.n_hidden)])
    for row in H:
        writer.writerow([repr(float(x)) for x in row])
    atomic_write_text(path, buf.getvalue())


def trace_to_text(trace: TrainingTrace, format: str = "table") -> str:
    if format == "table":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(TRACE_COLUMNS)
        for rec in trace.records:
            writer.writerow([repr(getattr(rec, c)) for c in TRACE_COLUMNS])
        return buf.getvalue()
    if format == "structured":
        doc = {
            "trace_version": TRACE_VERSION,
            "status": trace.status,
            "initial_neurons": trace.initial_neurons,
            "records": [{c: getattr(rec, c) for c in TRACE_COLUMNS}
                        for rec in trace.records],
        }
        return json.dumps(doc, sort_keys=True, indent=1) + "\n"
    raise ConfigError(f"unknown trace format {format!r}")


def export_trace(trace: TrainingTrace, path: str, format: str = "table") -> None:
    """Persist a trace; 'table' is a fixed-header CSV, 'structured' is JSON."""
    atomic_write_text(path, trace_to_text(trace, format))


def load_trace(path: str) -> TrainingTrace:
    """Parse back the structured trace form."""
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
    missing = [k for k in ("status", "initial_neurons", "records")
               if k not in doc]
    if missing:
        raise DataFormatError(f"trace file {path} lacks {missing}")
    if not isinstance(doc["status"], str) \
            or not _is_count(doc["initial_neurons"]) \
            or not isinstance(doc["records"], list):
        raise DataFormatError(
            f"trace file {path}: status must be a string, initial_neurons "
            f"a non-negative integer and records a list"
        )
    records = []
    for k, rec in enumerate(doc["records"]):
        if not isinstance(rec, dict):
            raise DataFormatError(f"trace record {k} in {path} is not an object")
        missing = [c for c in TRACE_COLUMNS if c not in rec]
        if missing:
            raise DataFormatError(f"trace record {k} in {path} lacks {missing}")
        for c in TRACE_COLUMNS:
            ok = _is_count(rec[c]) if c in _COUNT_COLUMNS else \
                isinstance(rec[c], (int, float)) and not isinstance(rec[c], bool)
            if not ok:
                raise DataFormatError(
                    f"trace record {k} in {path}: {c} = {rec[c]!r} is not a "
                    f"{'count' if c in _COUNT_COLUMNS else 'number'}"
                )
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
