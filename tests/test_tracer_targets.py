"""The benchmark (benchmarks/) wraps spikegrow functions at the names their
callers look up, and writes config files for the CLI. A refactor that
unbinds one of those names, or drops a config key the benchmark still
writes, would break benchmark runs; these tests fail first."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import test_pinned_growth
from conftest import failed_reuse_run, make_dataset
from spikegrow import LifParams, save_dataset
from spikegrow.cli import load_run_config, main
from spikegrow.learner import HiddenNeuron, Network, save_network
from spikegrow.lif import CELLS

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
TRACER = BENCHMARKS / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patch_target_is_bound():
    patches = load_tracer().PATCHES
    assert patches
    unbound = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, *_ in patches if attr not in owner.__dict__]
    assert unbound == []


def test_one_pool_span_pair_per_pool_drawn():
    """The benchmark's per-layer counts read one `construct.pool_features`
    span per pool drawn, each pool one kernel pass over its 10 candidates,
    and one `construct.select_best` span per pool drawn or kept pool
    re-scored. A step is offered the kept pool when the step before it drew
    one (retries_used >= 0), and takes a unit from it with retries_used -1;
    this run ends at max_hidden, with no saturated attempt, and has a step
    whose kept pool certifies none (retries_used 0 after 0)."""
    tracer = load_tracer().Tracer()
    with tracer.patched():
        _, trace = failed_reuse_run()
    retries = [r.retries_used for r in trace.records]
    pools = sum(r + 1 for r in retries)
    rescored = sum(r >= 0 for r in retries[:-1])
    assert len(trace.records) == 20 and -1 in retries
    assert (0, 0) in zip(retries, retries[1:])
    spans = {name: [s for s in tracer.spans if s.name == name]
             for name in ("construct.pool_features", "construct.select_best",
                          "lif.rate_features")}
    assert len(spans["construct.pool_features"]) == pools
    assert len(spans["construct.select_best"]) == pools + rescored
    for pool in spans["construct.pool_features"]:
        assert pool.info[0] == 10
        assert [s.parent for s in spans["lif.rate_features"]].count(pool.id) == 1


def test_lstsq_fallback_calls_the_traced_binding(monkeypatch):
    """The pinned `repeated_unit` run, at a train-accuracy target of 0.985,
    repeats a seed unit, which adds a dependent column to growth's fit.
    That column gets no weight, so no eval step fits with lstsq: the
    snapshot's fit is the only one, and it goes through the binding the
    tracer wraps, one `readout.fit` span in the experienced op."""
    tracer = load_tracer().Tracer()
    original = test_pinned_growth.train_experienced

    def traced_op(*args):
        with tracer.op("train-exp", "repeated_unit"):
            return original(*args)

    monkeypatch.setattr(test_pinned_growth, "train_experienced", traced_op)
    with tracer.patched():
        _, trace = test_pinned_growth.repeated_unit(0.985)
    fits = [s for s in tracer.spans
            if s.name == "readout.fit" and s.run == "repeated_unit"]
    assert len(trace.records) == 6
    assert len(fits) == 1


def test_eval_blocks_call_the_traced_kernel(tmp_path):
    """`eval` hands each block it reads to the kernel through the binding
    the tracer wraps, so `lif.rate_features` counts one span per kernel
    block of rows, and `learner.features`, one call per dataset, none."""
    ds = make_dataset(n_per_cat=350, n_cats=2, d=8, T=10, seed=3)
    save_dataset(ds, str(tmp_path / "d.ds"))
    rng = np.random.default_rng(3)
    hidden = [HiddenNeuron(rng.uniform(-1, 1, ds.d), float(rng.uniform(-1, 1)))
              for _ in range(50)]
    save_network(Network(ds.d, LifParams(), hidden,
                         rng.normal(size=(50, ds.n_categories)), ds.categories),
                 str(tmp_path / "n.net"))
    tracer = load_tracer().Tracer()
    with tracer.patched(), tracer.op("cli.eval", "eval"):
        assert main(["eval", "--checkpoint", str(tmp_path / "n.net"),
                     "--dataset", str(tmp_path / "d.ds")]) == 0
    rows = CELLS // 50
    assert [s.info for s in tracer.spans if s.name == "lif.rate_features"] \
        == [min(rows, len(ds) - a) for a in range(0, len(ds), rows)]
    assert not [s for s in tracer.spans if s.name == "learner.features"]


def _benchmark_workloads(monkeypatch):
    """The benchmark's workloads and its harness self-test's `Tiny`,
    imported with benchmarks/ first on sys.path, as the benchmark runs."""
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    tiny = importlib.import_module("test_harness").Tiny(1)
    return {**importlib.import_module("workloads").WORKLOADS, "tiny": tiny}


@pytest.mark.parametrize("name", ["lineage", "capacity", "data", "tiny"])
def test_benchmark_configs_load(name, monkeypatch, tmp_path):
    """Every config file the benchmark and its harness self-test write
    loads through the CLI's own reader."""
    workload = _benchmark_workloads(monkeypatch)[name]
    workload.setup(str(tmp_path), 1)
    load_run_config(str(tmp_path / "config.json"))
