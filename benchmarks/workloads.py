"""The benchmark's three workloads: inputs, CLI ops and output checks.

Each workload writes its inputs (generated datasets, a config file and, for
`data`, a seed checkpoint) in `setup`, then names the CLI ops of one pass.
Run as a script, the module does set-ups on request for the benchmark.
The seed feeds `generator.rng_seed`, `growth.rng_seed`, `split.seed` and
the random checkpoint weights, so the program only sees files and config.
See README.md for why each workload was chosen.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import sys
import time
import traceback

import numpy as np

from spikegrow import (
    GeneratorConfig,
    LifParams,
    encode_targets,
    evaluate,
    fit_output_weights,
    generate_family,
    load_dataset,
    load_network,
    load_trace,
    save_dataset,
)
from spikegrow.learner import HiddenNeuron, Network, save_network

LINEAGE_STAGES = [5, 10]
# Growth steps per training op on `lineage`. The train-accuracy target is
# set to 1.0 so that every seed stops at the cap: the growth step count,
# and with it the op's work, does not depend on the data.
LINEAGE_FRESH_UNITS = 12
LINEAGE_EXP_UNITS = 12
CAPACITY_MAX_HIDDEN = 400
DATA_HIDDEN = 50
DATA_STAGE = 20


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _write_json(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)


def _report_accuracy(path: str) -> float:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)["accuracy"]


class Workload:
    name = ""

    def setup(self, inp: str, seed: int) -> None:
        """Write this workload's inputs for `seed` into directory `inp`."""
        raise NotImplementedError

    def ops(self, inp: str, out: str):
        """Yield (op name, argv) for one pass; outputs go to `out`.

        A generator, so an op's argv may depend on the outputs of the ops
        before it.
        """
        raise NotImplementedError

    def outputs(self, out: str) -> list:
        """Files whose bytes must repeat exactly on every pass; training
        traces hold timings, so they are not among them."""
        raise NotImplementedError

    def check(self, inp: str, out: str) -> list:
        """Failure messages of the output checks that need the library."""
        raise NotImplementedError

    def accuracy(self, out: str) -> float:
        raise NotImplementedError


class Lineage(Workload):
    name = "lineage"

    def setup(self, inp, seed):
        _write_json(os.path.join(inp, "config.json"), {
            "generator": {"rng_seed": seed, "stages": LINEAGE_STAGES},
            "growth": {"rng_seed": seed, "target_train_accuracy": 1.0,
                       "max_hidden": LINEAGE_FRESH_UNITS},
            "split": {"seed": seed},
        })
        family = generate_family(GeneratorConfig(rng_seed=seed),
                                 LINEAGE_STAGES)
        for size, ds in zip(LINEAGE_STAGES, family.stages):
            save_dataset(ds, os.path.join(inp, f"stage-{size}.ds"))

    def ops(self, inp, out):
        common = ["--config", os.path.join(inp, "config.json"),
                  "--threads", "2"]
        fresh = os.path.join(out, "fresh.net")
        exp = os.path.join(out, "exp.net")
        yield "train-fresh", [
            "train-fresh", *common,
            "--dataset", os.path.join(inp, "stage-5.ds"),
            "--out-checkpoint", fresh,
            "--out-trace", os.path.join(out, "fresh.trace")]
        # The returned network is the best-test snapshot, whose size varies
        # with the seed; cap experienced growth relative to it.
        cap = load_network(fresh).n_hidden + LINEAGE_EXP_UNITS
        yield "train-exp", [
            "train-exp", *common, "--seed-checkpoint", fresh,
            "--dataset", os.path.join(inp, "stage-10.ds"),
            "--out-checkpoint", exp,
            "--out-trace", os.path.join(out, "exp.trace"),
            "--max-hidden", str(cap)]
        yield "eval", [
            "eval", *common, "--checkpoint", exp,
            "--dataset", os.path.join(inp, "stage-10.ds"),
            "--out-report", os.path.join(out, "report.json")]

    def outputs(self, out):
        return [os.path.join(out, f)
                for f in ("fresh.net", "exp.net", "report.json")]

    def check(self, inp, out):
        failures = []
        fresh = load_network(os.path.join(out, "fresh.net"))
        exp = load_network(os.path.join(out, "exp.net"))
        for name in ("fresh.trace", "exp.trace"):
            load_trace(os.path.join(out, name))
        if exp.frozen_prefix != fresh.n_hidden \
                or exp.hidden[:fresh.n_hidden] != fresh.hidden:
            failures.append("experienced network changed its frozen prefix")
        ds = load_dataset(os.path.join(inp, "stage-10.ds"))
        want = evaluate(exp, ds).accuracy
        got = _report_accuracy(os.path.join(out, "report.json"))
        if got != want:
            failures.append(f"eval report accuracy {got} != evaluate() {want}")
        return failures

    def accuracy(self, out):
        return _report_accuracy(os.path.join(out, "report.json"))


class Capacity(Workload):
    name = "capacity"

    def setup(self, inp, seed):
        gen = {"d": 32, "T": 10, "separation": 0.05, "rng_seed": seed}
        _write_json(os.path.join(inp, "config.json"), {
            "generator": {**gen, "stages": [5]},
            "growth": {"target_train_accuracy": 1.0,
                       "max_hidden": CAPACITY_MAX_HIDDEN,
                       "patience": 100000, "rng_seed": seed},
            "pruning": {"pool_size": 10},
            "split": {"seed": seed},
        })
        family = generate_family(GeneratorConfig(**gen), [5])
        save_dataset(family.stages[0], os.path.join(inp, "stage-5.ds"))

    def ops(self, inp, out):
        yield "train-fresh", [
            "train-fresh", "--config", os.path.join(inp, "config.json"),
            "--threads", "1", "--dataset", os.path.join(inp, "stage-5.ds"),
            "--out-checkpoint", os.path.join(out, "fresh.net"),
            "--out-trace", os.path.join(out, "fresh.trace")]

    def outputs(self, out):
        return [os.path.join(out, "fresh.net")]

    def check(self, inp, out):
        load_network(os.path.join(out, "fresh.net"))
        trace = load_trace(os.path.join(out, "fresh.trace"))
        if trace.final_neurons != CAPACITY_MAX_HIDDEN:
            return [f"capacity grew {trace.final_neurons} units, "
                    f"not {CAPACITY_MAX_HIDDEN} ({trace.status})"]
        return []

    def accuracy(self, out):
        return load_trace(os.path.join(out, "fresh.trace")).best_test_accuracy


class Data(Workload):
    name = "data"

    def setup(self, inp, seed):
        gen = GeneratorConfig(rng_seed=seed)
        _write_json(os.path.join(inp, "config.json"),
                    {"generator": {"rng_seed": seed}})
        # A checkpoint of realistic size (stage-20 training reaches about
        # 54 units): seeded random hidden units, readout fitted on stage-20.
        ds = generate_family(gen, [DATA_STAGE]).stages[0]
        rng = np.random.default_rng(seed)
        hidden = [HiddenNeuron(rng.uniform(-1.0, 1.0, gen.d),
                               float(rng.uniform(-1.0, 1.0)))
                  for _ in range(DATA_HIDDEN)]
        lif = LifParams()
        blank = Network(gen.d, lif, hidden,
                        np.zeros((DATA_HIDDEN, ds.n_categories)),
                        ds.categories)
        beta = fit_output_weights(blank.features(ds), encode_targets(ds))
        save_network(Network(gen.d, lif, hidden, beta, ds.categories),
                     os.path.join(inp, "seed.net"))

    def ops(self, inp, out):
        data = os.path.join(out, "data")
        yield "gen-data", [
            "gen-data", "--config", os.path.join(inp, "config.json"),
            "--out-dir", data]
        yield "eval", [
            "eval", "--threads", "1",
            "--checkpoint", os.path.join(inp, "seed.net"),
            "--dataset", os.path.join(data, f"stage-{DATA_STAGE}.ds"),
            "--out-report", os.path.join(out, "report.json")]

    def outputs(self, out):
        data = os.path.join(out, "data")
        return [os.path.join(data, "manifest.json"),
                os.path.join(out, "report.json")]

    def check(self, inp, out):
        failures = []
        data = os.path.join(out, "data")
        with open(os.path.join(data, "manifest.json"), encoding="utf-8") as fh:
            manifest = json.load(fh)
        for entry in manifest["stages"]:
            if sha256_file(os.path.join(data, entry["path"])) \
                    != entry["sha256"]:
                failures.append(f"manifest sha256 of {entry['path']} does "
                                "not match the written file")
        net = load_network(os.path.join(inp, "seed.net"))
        ds = load_dataset(os.path.join(data, f"stage-{DATA_STAGE}.ds"))
        want = evaluate(net, ds).accuracy
        got = _report_accuracy(os.path.join(out, "report.json"))
        if got != want:
            failures.append(f"eval report accuracy {got} != evaluate() {want}")
        return failures

    def accuracy(self, out):
        return _report_accuracy(os.path.join(out, "report.json"))


WORKLOADS = {w.name: w for w in (Lineage(), Capacity(), Data())}


def serve_setup(name: str, seed: int) -> int:
    """Answer each directory read from stdin with one JSON line: the seconds
    `setup` took to write the inputs there, or the error it raised."""
    workload = WORKLOADS[name]
    for line in sys.stdin:
        try:
            with contextlib.redirect_stdout(sys.stderr):
                start = time.perf_counter()
                workload.setup(line.rstrip("\n"), seed)
                reply = {"seconds": time.perf_counter() - start}
        except Exception:
            reply = {"error": traceback.format_exc()}
        print(json.dumps(reply), flush=True)
    return 0


if __name__ == "__main__":
    # python3 benchmarks/workloads.py <workload> <seed>, with src/ on
    # PYTHONPATH: set-up in a process of its own, so its memory does not
    # count in the benchmark process's peak.
    sys.exit(serve_setup(sys.argv[1], int(sys.argv[2])))
