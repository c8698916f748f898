"""Self-test of the benchmark harness: span nesting, self-time accounting and
counts against the program's own trace files.

    python3 -m pytest -q benchmarks/test_harness.py

Runs tiny versions of every CLI op, so it takes a few seconds.
"""

import json
import os
import sys
from types import SimpleNamespace

import pytest

import run

sys.path.insert(0, run.SRC)

from tracer import Tracer, layer_metrics, self_times  # noqa: E402
from workloads import Workload  # noqa: E402

from spikegrow import load_trace  # noqa: E402


class Tiny(Workload):
    """Every CLI op of the benchmark on inputs small enough for a test."""

    name = "tiny"

    def __init__(self, threads):
        self.threads = str(threads)

    def setup(self, inp, seed):
        with open(os.path.join(inp, "config.json"), "w") as fh:
            json.dump({
                "generator": {"d": 8, "T": 10, "categories": 3,
                              "samples_per_category": 20, "separation": 0.9,
                              "rng_seed": seed, "stages": [2, 3]},
                "growth": {"target_train_accuracy": 1.0, "max_hidden": 4,
                           "eval_every": 2, "rng_seed": seed},
                "pruning": {"pool_size": 6},
            }, fh)

    def ops(self, inp, out):
        common = ["--config", os.path.join(inp, "config.json")]
        threads = ["--threads", self.threads]
        data = os.path.join(out, "data")
        yield "gen-data", ["gen-data", *common, "--out-dir", data]
        yield "train-fresh", [
            "train-fresh", *common, *threads,
            "--dataset", os.path.join(data, "stage-2.ds"),
            "--out-checkpoint", os.path.join(out, "fresh.net"),
            "--out-trace", os.path.join(out, "fresh.trace")]
        yield "train-exp", [
            "train-exp", *common, *threads,
            "--seed-checkpoint", os.path.join(out, "fresh.net"),
            "--dataset", os.path.join(data, "stage-3.ds"),
            "--max-hidden", "8",
            "--out-checkpoint", os.path.join(out, "exp.net"),
            "--out-trace", os.path.join(out, "exp.trace")]
        yield "eval", [
            "eval", *common, *threads,
            "--checkpoint", os.path.join(out, "exp.net"),
            "--dataset", os.path.join(data, "stage-3.ds")]


@pytest.fixture(params=[1, 2], ids=["threads1", "threads2"])
def traced_pass(request, tmp_path):
    workload = Tiny(request.param)
    inp, out = str(tmp_path / "in"), str(tmp_path / "out")
    os.makedirs(inp)
    workload.setup(inp, 3)
    tracer = Tracer()
    result = run.run_pass(workload, inp, out, 0, tracer)
    assert result["failures"] == []
    return SimpleNamespace(spans=tracer.spans, walls=result["walls"], out=out,
                           threads=request.param)


def test_spans_nest(traced_pass):
    by_id = {s.id: s for s in traced_pass.spans}
    roots = [s for s in traced_pass.spans if s.parent is None]
    assert sorted(s.name for s in roots) == [
        "cli.eval", "cli.gen-data", "cli.train-exp", "cli.train-fresh"]
    for s in traced_pass.spans:
        assert s.start <= s.end
        if s.parent is not None:
            parent = by_id[s.parent]
            assert parent.start <= s.start and s.end <= parent.end
            assert s.run == parent.run
    # With --threads 2 the pools fan out, so some spans open on workers.
    threads = {s.thread for s in traced_pass.spans}
    assert (len(threads) > 1) == (traced_pass.threads > 1)


def test_self_times_sum_to_op_wall(traced_pass):
    own = self_times(traced_pass.spans)
    for root in (s for s in traced_pass.spans if s.parent is None):
        op = [s for s in traced_pass.spans if s.run == root.run]
        op_self = layer_metrics(op)
        layer_sum = sum(v for k, v in op_self.items() if k.endswith(".self_s"))
        span_sum = sum(own[s.id] for s in op)
        wall = traced_pass.walls[root.name.split(".", 1)[1]]
        assert span_sum == pytest.approx(root.end - root.start, rel=1e-9)
        assert layer_sum == pytest.approx(root.end - root.start, rel=1e-9)
        assert layer_sum == pytest.approx(wall, rel=0.02, abs=1e-3)


def test_counts_agree_with_trace_files(traced_pass):
    for name, fits_outside_steps in (("train-fresh", 1), ("train-exp", 3)):
        # train-fresh refits once more for the best snapshot; train-exp also
        # refits in one-loop adaptation and on the inherited units.
        trace = load_trace(os.path.join(traced_pass.out,
                                        name.replace("train-", "") + ".trace"))
        m = layer_metrics([s for s in traced_pass.spans
                           if s.run == f"p0.{name}"])
        steps = len(trace.records)
        assert m["construct.growth_steps"] == steps
        grow_calls = sum(1 for s in traced_pass.spans
                         if s.run == f"p0.{name}"
                         and s.name == "construct.grow_one")
        assert grow_calls == steps + (trace.status == "Saturated")
        assert m["readout.fit_calls"] == steps + fits_outside_steps


def test_worker_thread_spans_share_time():
    def span(id_, parent, start, end):
        return SimpleNamespace(id=id_, parent=parent, start=start, end=end)

    # Root 0..10; A (1..9) and B (2..6) overlap as two workers; G (3..4)
    # is A's child.
    spans = [span(1, None, 0, 10), span(2, 1, 1, 9), span(3, 1, 2, 6),
             span(4, 2, 3, 4)]
    own = self_times(spans)
    assert own == pytest.approx({1: 2.0, 2: 5.5, 3: 2.0, 4: 0.5})
    assert sum(own.values()) == pytest.approx(10.0)


def test_metric_names_match_benchmark_json():
    from tracer import PER_LAYER_UNITS

    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == PER_LAYER_UNITS


def test_patches_are_removed():
    import spikegrow.learner

    original = spikegrow.learner.fit_output_weights
    with Tracer().patched():
        assert spikegrow.learner.fit_output_weights is not original
    assert spikegrow.learner.fit_output_weights is original
