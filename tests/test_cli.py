import hashlib
import io
import json
import os
import re
import stat
import struct
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import mutated
from spikegrow import (
    DataFormatError,
    GeneratorConfig,
    LabeledDataset,
    LifParams,
    PruningConfig,
    evaluate,
    generate_family,
    load_dataset,
    save_dataset,
    split_train_test,
)
import spikegrow.cli
import spikegrow.construct
import spikegrow.dataset
import spikegrow.learner
import spikegrow.lif
from spikegrow.cli import main
from spikegrow.dataset import dataset_fingerprint
from spikegrow.evaluation import (
    export_trace,
    load_trace,
    report_to_text,
    trace_to_text,
)
from spikegrow.learner import (
    CHECKPOINT_MAGIC,
    HiddenNeuron,
    Network,
    TraceRecord,
    TrainingTrace,
    load_network,
    network_to_bytes,
    save_network,
)


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def write_config(path, **sections):
    base = {
        "generator": {"d": 8, "T": 20, "categories": 4,
                      "samples_per_category": 10, "base_rate": 0.2,
                      "separation": 0.9, "jitter": 0.05, "rng_seed": 1,
                      "stages": [2, 4]},
        "growth": {"target_train_accuracy": 1.0, "max_hidden": 40,
                   "eval_every": 1, "rng_seed": 3},
        "pruning": {"pool_size": 25},
        "split": {"test_fraction": 0.2, "seed": 5},
    }
    base.update(sections)
    path.write_text(json.dumps(base))
    return str(path)


@pytest.fixture
def generated(workdir):
    cfg = write_config(workdir / "cfg.json")
    assert main(["gen-data", "--config", cfg, "--out-dir", "data"]) == 0
    return cfg


class TestParser:
    def test_two_calls_build_one_parser(self, workdir, monkeypatch, capsys):
        """`main` builds its argparse parser once per process and reads
        every argv with it."""
        built = []
        build = spikegrow.cli.build_parser
        monkeypatch.setattr(spikegrow.cli, "build_parser",
                            lambda: built.append(1) or build())
        spikegrow.cli._parser.cache_clear()
        try:
            for _ in range(2):
                assert main(["inspect", "--checkpoint", "missing.net"]) == 2
        finally:
            spikegrow.cli._parser.cache_clear()
        assert len(built) == 1
        assert capsys.readouterr().err.count("missing.net") == 2


class TestGenData:
    def test_writes_stage_files_and_manifest(self, generated, workdir):
        assert (workdir / "data" / "stage-2.ds").exists()
        assert (workdir / "data" / "stage-4.ds").exists()
        manifest = json.loads((workdir / "data" / "manifest.json").read_text())
        assert [s["categories"] for s in manifest["stages"]] == [2, 4]
        assert [s["n_samples"] for s in manifest["stages"]] == [20, 40]

    def test_rerun_identical_hashes(self, generated, workdir):
        m1 = json.loads((workdir / "data" / "manifest.json").read_text())
        assert main(["gen-data", "--config", generated,
                     "--out-dir", "data2"]) == 0
        m2 = json.loads((workdir / "data2" / "manifest.json").read_text())
        assert [s["sha256"] for s in m1["stages"]] == \
            [s["sha256"] for s in m2["stages"]]

    @pytest.mark.parametrize("stages", [[1, 4, 5, 7], [3]],
                             ids=["nested", "single-stage"])
    def test_stage_files_are_reference_text(self, workdir, stages):
        """With 64 samples per category, stage 1 ends inside the first
        256-row block, stage 4 on a block boundary, stage 5 inside the next
        block, where the last stage ends too."""
        generator = {"d": 3, "T": 7, "categories": 7,
                     "samples_per_category": 64, "rng_seed": 4}
        cfg = write_config(workdir / "cfg.json",
                           generator=dict(generator, stages=stages))
        assert main(["gen-data", "--config", cfg, "--out-dir", "data"]) == 0
        manifest = json.loads((workdir / "data" / "manifest.json").read_text())
        family = generate_family(GeneratorConfig(**generator), stages)
        assert [s["n_samples"] for s in manifest["stages"]] == \
            [64 * size for size in stages]
        for entry, ds in zip(manifest["stages"], family.stages, strict=True):
            blob = (workdir / "data" / entry["path"]).read_bytes()
            assert blob == oracles.dataset_text(ds).encode("ascii")
            assert entry["sha256"] == hashlib.sha256(blob).hexdigest() \
                == dataset_fingerprint(ds)

    @pytest.mark.parametrize("generator", [
        {},
        {"d": 32, "T": 10, "separation": 0.05, "stages": [5]},
        {"samples_per_category": 37},
    ], ids=["default", "capacity", "37-per-category"])
    def test_stage_files_equal_a_save_of_the_family(self, workdir, generator):
        """gen-data draws and writes a block at a time what `save_dataset`
        writes from the whole generated family: the same files and the
        same manifest. 37 samples a category make blocks that end inside
        a category and stages that end inside a block."""
        (workdir / "cfg.json").write_text(json.dumps({"generator": generator}))
        assert main(["gen-data", "--config", "cfg.json",
                     "--out-dir", "data"]) == 0
        gen = dict(generator)
        stages = gen.pop("stages", [5, 10, 15, 20])
        family = generate_family(GeneratorConfig(**gen), stages)
        (workdir / "ref").mkdir()
        paths = [workdir / "ref" / f"stage-{size}.ds" for size in stages]
        for ds, p in zip(family.stages, paths):
            save_dataset(ds, str(p))
        manifest = {"stages": [{
            "categories": size, "n_samples": len(ds),
            "path": f"stage-{size}.ds", "sha256": dataset_fingerprint(ds),
        } for size, ds in zip(stages, family.stages)]}
        assert (workdir / "data" / "manifest.json").read_text() == \
            json.dumps(manifest, indent=1, sort_keys=True) + "\n"
        for p in paths:
            assert (workdir / "data" / p.name).read_bytes() == p.read_bytes()

    def test_each_row_serialised_once(self, workdir, monkeypatch):
        """The default family's stages are row prefixes of the last, so its
        4000 rows are serialised once, not once per stage that holds them."""
        rows = []
        lines = spikegrow.dataset._sample_lines
        monkeypatch.setattr(spikegrow.dataset, "_sample_lines",
                            lambda spikes, label_index: rows.append(len(spikes))
                            or lines(spikes, label_index))
        assert main(["gen-data", "--out-dir", "data"]) == 0
        manifest = json.loads((workdir / "data" / "manifest.json").read_text())
        assert [s["n_samples"] for s in manifest["stages"]] == \
            [1000, 2000, 3000, 4000]
        assert sum(rows) == 4000

    def test_unknown_config_key_exit_2(self, workdir, capsys):
        cfg = workdir / "bad.json"
        cfg.write_text(json.dumps({"generator": {"bogus_knob": 1}}))
        assert main(["gen-data", "--config", str(cfg),
                     "--out-dir", "out"]) == 2
        assert not (workdir / "out" / "manifest.json").exists()
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("config, output", [
        ("data/manifest.json", "data/manifest.json"),
        ("data/stage-2.ds", "data/stage-2.ds"),
        ("link.json", "data/manifest.json"),
    ], ids=["manifest", "stage", "symlink"])
    def test_output_names_config_exit_2(self, workdir, capsys, config,
                                        output):
        """A config file where gen-data would write its manifest or a
        stage, also through a symlink, ends it with exit 2 before it
        generates, naming both, and every file keeps its bytes."""
        (workdir / "data").mkdir()
        write_config(workdir / output)
        os.symlink("data/manifest.json", workdir / "link.json")
        before = {p: p.read_bytes() for p in workdir.rglob("*") if p.is_file()}
        capsys.readouterr()
        assert main(["gen-data", "--config", config, "--out-dir", "data"]) == 2
        err = capsys.readouterr().err
        path = os.path.join("data", os.path.basename(output))
        assert err == (f"error: ConfigError: --out-dir output {path!r} names "
                       f"the same file as --config {config!r}\n")
        assert {p: p.read_bytes() for p in workdir.rglob("*")
                if p.is_file()} == before


# Config files that are malformed or hold a value of the wrong type or range,
# with what the one error line must name: `section.key`, the section, or the
# file.
_BAD_CONFIGS = [
    ("growth-not-object", '{"growth": 5}', "growth section"),
    ("generator-null", '{"generator": null}', "generator section"),
    ("non-utf8", b'{"lif": {"theta": "\xff"}}', "cfg.json"),
    ("nested-100000-deep", "[" * 100_000, "cfg.json"),
    ("split-seed-string", '{"split": {"seed": "x"}}', "split.seed"),
    ("pool-size-float", '{"pruning": {"pool_size": 2.5}}', "pruning.pool_size"),
    ("d-float", '{"generator": {"d": 2.5}}', "generator.d"),
    ("stages-int", '{"generator": {"stages": 5}}', "generator.stages"),
    ("stages-string", '{"generator": {"stages": ["a"]}}', "generator.stages"),
    ("stages-float", '{"generator": {"stages": [2.5]}}', "generator.stages"),
    ("stages-empty", '{"generator": {"stages": []}}', "generator.stages"),
    ("stages-beyond-categories", '{"generator": {"categories": 4}}',
     "generator.stages"),
    ("pool-size-huge", '{"pruning": {"pool_size": 1000000000000}}',
     "pruning.pool_size"),
    ("d-huge", '{"generator": {"d": 1000000000000000000000000000000}}',
     "generator.d"),
    ("growth-seed-negative", '{"growth": {"rng_seed": -1}}', "growth.rng_seed"),
    ("growth-seed-float", '{"growth": {"rng_seed": 2.5}}', "growth.rng_seed"),
    ("generator-seed-negative", '{"generator": {"rng_seed": -1}}',
     "generator.rng_seed"),
    ("test-fraction-string", '{"split": {"test_fraction": "0.2"}}',
     "split.test_fraction"),
    ("split-seed-float", '{"split": {"seed": 1.7}}', "split.seed"),
    ("eval-every-float", '{"growth": {"eval_every": 2.5}}', "growth.eval_every"),
    ("max-hidden-bool", '{"growth": {"max_hidden": true}}', "growth.max_hidden"),
    ("theta-bool", '{"lif": {"theta": true}}', "lif.theta"),
    ("samples-bool", '{"generator": {"samples_per_category": true}}',
     "generator.samples_per_category"),
    ("lambda-infinity", '{"pruning": {"lambda_growth": Infinity}}',
     "lambda_growth"),
    ("weight-scale-overflow", '{"pruning": {"weight_scale": 1e308}}',
     "pruning.weight_scale"),
    ("rate-profile-leaves-unit",
     '{"generator": {"base_rate": 0.8, "separation": 0.5}}',
     "generator.separation"),
    ("categories-float", '{"generator": {"categories": 2.0}}',
     "generator.categories"),
    ("dt-ms-string", '{"generator": {"dt_ms": "1"}}', "generator.dt_ms"),
    ("theta-string", '{"lif": {"theta": "1"}}', "lif.theta"),
    ("max-hidden-string", '{"growth": {"max_hidden": "5"}}', "growth.max_hidden"),
    ("sigma0-null", '{"pruning": {"sigma0": null}}', "pruning.sigma0"),
    ("sigma-relax-steps-removed", '{"pruning": {"sigma_relax_steps": 8}}',
     "['sigma_relax_steps'] in pruning section"),
    ("T-string", '{"generator": {"T": "3"}}', "generator.T"),
]

_BAD_CONFIG_RUNS = [
    pytest.param(command, text, named, id=f"{command}-{name}")
    for name, text, named in _BAD_CONFIGS
    for command in ("gen-data", "train-fresh", "train-exp", "eval")
]


class TestBadConfig:
    @staticmethod
    def _assert_one_config_error(capsys, named):
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: ConfigError: [^\n]*\n", err), err
        assert named in err

    @pytest.mark.parametrize("command, text, named", _BAD_CONFIG_RUNS)
    def test_exit_2_one_error_line(self, workdir, capsys, command, text,
                                   named):
        cfg = workdir / "cfg.json"
        if isinstance(text, bytes):
            cfg.write_bytes(text)
        else:
            cfg.write_text(text)
        # The dataset and checkpoint are never read: the config is
        # rejected first.
        (workdir / "x.ds").write_text("")
        (workdir / "s.net").write_text("")
        argv = {"gen-data": ["--out-dir", "out"],
                "train-fresh": ["--dataset", "x.ds", "--out-checkpoint",
                                "x.net", "--out-trace", "x.trace"],
                "train-exp": ["--seed-checkpoint", "s.net", "--dataset",
                              "x.ds", "--out-checkpoint", "x.net",
                              "--out-trace", "x.trace"],
                "eval": ["--checkpoint", "s.net", "--dataset", "x.ds",
                         "--out-report", "x.report"]}[command]
        assert main([command, "--config", str(cfg), *argv]) == 2
        self._assert_one_config_error(capsys, named)
        assert sorted(p.name for p in workdir.iterdir()) == \
            ["cfg.json", "s.net", "x.ds"]

    @pytest.mark.parametrize("flag, value, named", [
        ("--target", "2", "growth.target_train_accuracy"),
        ("--max-hidden", "0", "growth.max_hidden"),
        ("--seed", "-1", "growth.rng_seed"),
    ])
    def test_bad_override_exit_2(self, generated, workdir, capsys, flag,
                                 value, named):
        capsys.readouterr()
        assert main(["train-fresh", "--config", generated,
                     "--dataset", "data/stage-2.ds", flag, value,
                     "--out-checkpoint", "x.net", "--out-trace", "x.trace"]) == 2
        self._assert_one_config_error(capsys, named)
        assert not (workdir / "x.net").exists()

    def test_out_of_memory_exit_2(self, generated, workdir, capsys,
                                  monkeypatch):
        """A size within its range but too large for the machine: numpy's
        MemoryError, which names the array, is the one error line."""
        def too_large(*args):
            raise MemoryError("Unable to allocate 512. GiB for an array with "
                              "shape (64, 1073741823) and data type float64")

        monkeypatch.setattr(spikegrow.cli, "train_fresh", too_large)
        capsys.readouterr()
        assert main(["train-fresh", "--config", generated,
                     "--dataset", "data/stage-2.ds",
                     "--out-checkpoint", "x.net", "--out-trace", "x.trace"]) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: MemoryError: Unable to allocate [^\n]*\n",
                            err), err
        assert not (workdir / "x.net").exists()

    @pytest.mark.parametrize("generator", [
        {"d": 2**20, "T": 2**20, "samples_per_category": 2**10},
        {"d": 2**30 - 1, "T": 2**30 - 1, "samples_per_category": 2**30 - 1},
    ], ids=["beyond-memory", "beyond-numpy-size"])
    def test_family_too_large_exit_2(self, workdir, capsys, generator):
        """Every size within its range, their product too large: gen-data
        allocates one block before any file is opened, and fails at
        once."""
        cfg = write_config(workdir / "cfg.json", generator=dict(
            generator, categories=4, stages=[4]))
        assert main(["gen-data", "--config", cfg, "--out-dir", "out"]) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: MemoryError: [^\n]*\n", err), err
        assert not (workdir / "out" / "manifest.json").exists()


class TestTrainFresh:
    @pytest.mark.parametrize("pruning", [
        {"pool_size": 1, "weight_scale": 1e-300},
    ], ids=["silent-pool"])
    def test_silent_schedule_exit_3(self, workdir, capsys, pruning):
        """A run whose first pool is silent saturates on its first step and
        is degenerate."""
        cfg = write_config(workdir / "cfg.json", pruning=pruning, generator={
            "d": 4, "T": 20, "categories": 2, "samples_per_category": 5,
            "stages": [2]})
        assert main(["gen-data", "--config", cfg, "--out-dir", "data"]) == 0
        capsys.readouterr()
        assert main(["train-fresh", "--config", cfg,
                     "--dataset", "data/stage-2.ds",
                     "--out-checkpoint", "x.net", "--out-trace", "x.trace"]) == 3
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: DegenerateDataError: [^\n]*\n", err), err
        assert not (workdir / "x.net").exists()

    def _train_tiny(self, workdir, pruning) -> int:
        cfg = write_config(workdir / "cfg.json", pruning=pruning, generator={
            "d": 4, "T": 20, "categories": 2, "samples_per_category": 5,
            "stages": [2]})
        assert main(["gen-data", "--config", cfg, "--out-dir", "data"]) == 0
        return main(["train-fresh", "--config", cfg,
                     "--dataset", "data/stage-2.ds",
                     "--out-checkpoint", "x.net", "--out-trace", "x.trace"])

    def test_unmet_first_target_names_the_schedule(self, workdir, capsys,
                                                   monkeypatch):
        """Candidates fire, but none meets a contraction target of 1e-300:
        the message names pruning.sigma0 and does not claim that nothing
        spiked."""
        fired = []
        pool_features = spikegrow.construct.pool_features

        def recorded(*args):
            pairs = pool_features(*args)
            fired.extend(bool(h.any()) for _, h in pairs)
            return pairs

        monkeypatch.setattr(spikegrow.construct, "pool_features", recorded)
        capsys.readouterr()
        assert self._train_tiny(workdir, {"sigma0": 1e-300}) == 3
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: DegenerateDataError: [^\n]*\n", err), err
        assert "pruning.sigma0" in err and "sigma_relax_steps" not in err
        assert "spike" not in err
        # one pool of the default size
        assert len(fired) == PruningConfig().pool_size and any(fired)
        assert not (workdir / "x.net").exists()

    def test_end_to_end(self, generated, workdir):
        rc = main(["train-fresh", "--config", generated,
                   "--dataset", "data/stage-2.ds",
                   "--out-checkpoint", "f.net", "--out-trace", "f.trace"])
        assert rc == 0
        assert (workdir / "f.net").exists() and (workdir / "f.trace").exists()
        doc = json.loads((workdir / "f.trace").read_text())
        sq = [r["sq_norm"] for r in doc["records"]]
        assert all(b < a for a, b in zip(sq, sq[1:]))

    def test_missing_dataset_exit_2(self, generated):
        assert main(["train-fresh", "--config", generated,
                     "--dataset", "nope.ds", "--out-checkpoint", "x",
                     "--out-trace", "y"]) == 2

    def test_max_hidden_flag(self, generated, workdir):
        rc = main(["train-fresh", "--config", generated,
                   "--dataset", "data/stage-2.ds", "--max-hidden", "1",
                   "--out-checkpoint", "m.net", "--out-trace", "m.trace"])
        assert rc == 0
        assert load_network("m.net").n_hidden <= 1

    def test_thread_flag_bit_identical(self, generated, workdir):
        for threads, tag in (("1", "a"), ("8", "b")):
            assert main(["train-fresh", "--config", generated,
                         "--dataset", "data/stage-2.ds", "--threads", threads,
                         "--out-checkpoint", f"{tag}.net",
                         "--out-trace", f"{tag}.trace"]) == 0
        assert (workdir / "a.net").read_bytes() == (workdir / "b.net").read_bytes()
        strip = lambda p: [
            {k: v for k, v in r.items() if k != "elapsed_seconds"}
            for r in json.loads(p.read_text())["records"]]
        assert strip(workdir / "a.trace") == strip(workdir / "b.trace")

    def test_blas_thread_count_changes_no_output(self, workdir):
        """Checkpoints and traces do not depend on the BLAS thread count:
        `train-fresh` under OPENBLAS_NUM_THREADS 1 and 2, each in a fresh
        process, since OpenBLAS reads it once at import. The products are
        those of a small run (480 training rows, pools of 50), which only
        fixes that the thread count is read, not how a product is split."""
        cfg = write_config(
            workdir / "blas.json",
            generator={"d": 32, "T": 25, "categories": 4,
                       "samples_per_category": 150, "base_rate": 0.2,
                       "separation": 0.5, "jitter": 0.1, "rng_seed": 2,
                       "stages": [4]},
            pruning={"pool_size": 50})
        assert main(["gen-data", "--config", cfg, "--out-dir", "data"]) == 0
        src = os.path.dirname(os.path.dirname(spikegrow.cli.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=path)
            subprocess.run(
                [sys.executable, "-c",
                 "import sys; from spikegrow.cli import main; "
                 "sys.exit(main(sys.argv[1:]))",
                 "train-fresh", "--config", cfg, "--dataset", "data/stage-4.ds",
                 "--out-checkpoint", f"{threads}.net",
                 "--out-trace", f"{threads}.trace"],
                env=env, check=True, capture_output=True, timeout=300)

        def untimed(name):
            doc = json.loads((workdir / name).read_text())
            for record in doc["records"]:
                del record["elapsed_seconds"]
            return doc

        assert (workdir / "1.net").read_bytes() == \
            (workdir / "2.net").read_bytes()
        assert untimed("1.trace") == untimed("2.trace")
        assert load_network("1.net").n_hidden > 0

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_nonpositive_threads_exit_2(self, generated, workdir, capsys,
                                        threads):
        assert main(["train-fresh", "--config", generated,
                     "--dataset", "data/stage-2.ds", "--threads", threads,
                     "--out-checkpoint", "t.net", "--out-trace", "t.trace"]) == 2
        err = capsys.readouterr().err
        assert "--threads" in err and "Traceback" not in err
        assert not (workdir / "t.net").exists()


class TestTrainExp:
    def test_one_loop_only_keeps_hidden_count(self, generated, workdir):
        assert main(["train-fresh", "--config", generated,
                     "--dataset", "data/stage-2.ds",
                     "--out-checkpoint", "seed.net",
                     "--out-trace", "seed.trace"]) == 0
        seed_n = load_network("seed.net").n_hidden
        assert main(["train-exp", "--config", generated,
                     "--seed-checkpoint", "seed.net",
                     "--dataset", "data/stage-4.ds", "--one-loop-only",
                     "--out-checkpoint", "ol.net"]) == 0
        net = load_network("ol.net")
        assert net.n_hidden == seed_n
        assert net.frozen_prefix == seed_n
        assert net.m == 4

    @pytest.mark.parametrize("flag, value", [
        ("--out-trace", "e.trace"), ("--max-hidden", "99"),
        ("--target", "0.5"), ("--seed", "4")])
    def test_one_loop_only_refuses_growth_flags(self, workdir, capsys,
                                                monkeypatch, flag, value):
        """--one-loop-only grows nothing, so a flag that only growth reads
        ends it with exit 2 before any input is read, naming the flag."""
        def entered(*args, **kwargs):
            raise AssertionError("the op read an input")

        for name in ("load_run_config", "load_dataset", "load_network",
                     "DatasetReader"):
            monkeypatch.setattr(spikegrow.cli, name, entered)
        assert main(["train-exp", "--seed-checkpoint", "seed.net",
                     "--dataset", "data/stage-4.ds", "--one-loop-only",
                     "--out-checkpoint", "ol.net", flag, value]) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(rf"error: ConfigError: {flag} [^\n]* "
                            rf"--one-loop-only[^\n]*\n", err), err
        assert list(workdir.iterdir()) == []

    def test_growth_from_seed(self, generated, workdir):
        assert main(["train-fresh", "--config", generated,
                     "--dataset", "data/stage-2.ds",
                     "--out-checkpoint", "seed.net",
                     "--out-trace", "seed.trace"]) == 0
        rc = main(["train-exp", "--config", generated,
                   "--seed-checkpoint", "seed.net",
                   "--dataset", "data/stage-4.ds",
                   "--out-checkpoint", "e.net", "--out-trace", "e.trace"])
        assert rc == 0
        net = load_network("e.net")
        assert net.frozen_prefix == load_network("seed.net").n_hidden

    def test_no_unit_added_prints_returned_accuracy(self, generated, workdir,
                                                    capsys):
        """A run that adds no unit prints the test accuracy of the network
        it wrote, not 0."""
        assert main(["train-fresh", "--config", generated,
                     "--dataset", "data/stage-2.ds",
                     "--out-checkpoint", "seed.net",
                     "--out-trace", "seed.trace"]) == 0
        seed_n = load_network("seed.net").n_hidden
        capsys.readouterr()
        assert main(["train-exp", "--config", generated,
                     "--seed-checkpoint", "seed.net",
                     "--dataset", "data/stage-4.ds",
                     "--max-hidden", str(seed_n),
                     "--out-checkpoint", "e.net", "--out-trace", "e.trace"]) == 0
        out = capsys.readouterr().out
        _, test = split_train_test(load_dataset("data/stage-4.ds"), 0.2, 5)
        accuracy = evaluate(load_network("e.net"), test).accuracy
        assert accuracy > 0.0
        assert out.startswith(f"status=MaxHidden accuracy={accuracy:.4f} "
                              f"hidden={seed_n} added=0 ")
        assert load_trace("e.trace").records == []

    def test_incompatible_lineage_exit_3(self, generated, workdir):
        assert main(["train-fresh", "--config", generated,
                     "--dataset", "data/stage-4.ds",
                     "--out-checkpoint", "seed4.net",
                     "--out-trace", "seed4.trace"]) == 0
        # stage-2 lacks the seed's later categories.
        rc = main(["train-exp", "--config", generated,
                   "--seed-checkpoint", "seed4.net",
                   "--dataset", "data/stage-2.ds",
                   "--out-checkpoint", "x.net", "--out-trace", "x.trace"])
        assert rc == 3


def _litter(*sizes):
    """Allocate arrays of these byte sizes full of 1s and free them, so
    that the next arrays of about their sizes may be served the same
    memory, 1s and all, as freed heap memory is."""
    junk = [np.ones(size, dtype=np.uint8) for size in sizes]
    del junk


class TestRecycledMemory:
    """The parser writes only a file's 1s, so every buffer it fills must
    start zero however its memory was last used. A benchmark run repeats
    its ops in one process and requires every pass to write the bytes of
    the first; between passes here, freed memory is refilled with 1s."""

    def test_repeated_loads_and_train_fresh_are_identical(self, workdir):
        cfg = write_config(
            workdir / "cfg.json",
            generator={"d": 32, "T": 10, "separation": 0.05, "rng_seed": 1,
                       "stages": [5]},
            growth={"target_train_accuracy": 1.0, "max_hidden": 60,
                    "patience": 100000, "rng_seed": 1},
            pruning={"pool_size": 10}, split={"seed": 1})
        assert main(["gen-data", "--config", cfg, "--out-dir", "data"]) == 0
        path = "data/stage-5.ds"
        with open(path, "rb") as fh:
            lines = fh.readlines()
        chunk = len(b"".join(lines[1:1 + spikegrow.dataset._BLOCK]))
        first = load_dataset(path)
        sizes = [first.spikes.nbytes, first.spikes.nbytes * 4 // 5,
                 first.spikes.nbytes // 5, 8 * len(first), chunk, 4 * chunk,
                 8 * chunk]
        for _ in range(2):
            _litter(*sizes)
            assert load_dataset(path) == first
        blobs = []
        for k in range(3):
            _litter(*sizes)
            assert main(["train-fresh", "--config", cfg, "--dataset", path,
                         "--out-checkpoint", f"{k}.net",
                         "--out-trace", f"{k}.trace"]) == 0
            blobs.append((workdir / f"{k}.net").read_bytes())
        assert load_trace("0.trace").final_neurons == 60
        assert blobs[1] == blobs[0] and blobs[2] == blobs[0]


class TestEvalAndInspect:
    @pytest.fixture
    def trained(self, generated, workdir):
        assert main(["train-fresh", "--config", generated,
                     "--dataset", "data/stage-2.ds",
                     "--out-checkpoint", "f.net",
                     "--out-trace", "f.trace"]) == 0
        return generated

    def test_eval_writes_report(self, trained, workdir, capsys):
        rc = main(["eval", "--checkpoint", "f.net",
                   "--dataset", "data/stage-2.ds",
                   "--out-report", "report.json"])
        assert rc == 0
        report = json.loads((workdir / "report.json").read_text())
        assert report["accuracy"] >= 0.9
        assert "accuracy=" in capsys.readouterr().out

    @pytest.mark.parametrize("config", ["bad.json", "nonexistent.json"])
    def test_eval_bad_config_exit_2(self, trained, workdir, capsys, config):
        """eval reads the --config it accepts, as every command that takes
        the flag does: an unknown key or a missing file is exit 2."""
        (workdir / "bad.json").write_text(json.dumps({"bogus": {}}))
        capsys.readouterr()
        assert main(["eval", "--config", config, "--checkpoint", "f.net",
                     "--dataset", "data/stage-2.ds",
                     "--out-report", "r.json"]) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: ConfigError: [^\n]*\n", err), err
        assert ("bogus" if config == "bad.json" else config) in err
        assert not (workdir / "r.json").exists()

    def test_inspect_fresh_frozen_zero(self, trained, capsys):
        assert main(["inspect", "--checkpoint", "f.net"]) == 0
        out = capsys.readouterr().out
        assert "frozen_prefix=0" in out
        assert "d=8" in out

    @pytest.mark.parametrize("mismatch", ["channels", "categories"])
    def test_eval_incompatible_dataset_exit_3(self, workdir, capsys, mismatch):
        d, categories = (32, list(range(10))) if mismatch == "channels" \
            else (64, list(range(5)))
        (workdir / "net.net").write_bytes(network_to_bytes(
            Network(d, LifParams(), [HiddenNeuron(np.ones(d), 0.5)],
                    np.ones((1, len(categories))), categories)))
        gen = GeneratorConfig(d=64, T=5, categories=10,
                              samples_per_category=2, rng_seed=1)
        save_dataset(generate_family(gen, [10]).stages[0], "ds.ds")
        assert main(["eval", "--checkpoint", "net.net",
                     "--dataset", "ds.ds", "--out-report", "r.json"]) == 3
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: LineageError: .*\n", err)
        assert not (workdir / "r.json").exists()

    def test_bytes_after_last_section_exit_3(self, trained, workdir, capsys):
        size = (workdir / "f.net").stat().st_size
        with open(workdir / "f.net", "ab") as fh:
            fh.write(b"garbage")
        for argv in (["eval", "--checkpoint", "f.net", "--dataset",
                      "data/stage-2.ds", "--out-report", "r.json"],
                     ["inspect", "--checkpoint", "f.net"]):
            assert main(argv) == 3
            err = capsys.readouterr().err
            assert re.fullmatch(rf"error: DataFormatError: .* byte {size} .*\n",
                                err)
        assert not (workdir / "r.json").exists()

    def test_eval_empty_dataset_exit_2(self, workdir, capsys):
        (workdir / "seed.net").write_bytes(network_to_bytes(
            Network(8, LifParams(), [HiddenNeuron(np.ones(8), 0.5)],
                    np.ones((1, 2)), [0, 1])))
        save_dataset(LabeledDataset(np.zeros((0, 8, 20)), [], [0, 1]), "empty.ds")
        assert main(["eval", "--checkpoint", "seed.net",
                     "--dataset", "empty.ds", "--out-report", "r.json"]) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: ConfigError: .*empty dataset.*\n", err)
        assert not (workdir / "r.json").exists()

    def test_inspect_experienced_frozen_prefix(self, trained, capsys, workdir):
        seed_n = load_network("f.net").n_hidden
        assert main(["train-exp", "--config", trained,
                     "--seed-checkpoint", "f.net",
                     "--dataset", "data/stage-4.ds", "--one-loop-only",
                     "--out-checkpoint", "e.net"]) == 0
        capsys.readouterr()
        assert main(["inspect", "--checkpoint", "e.net"]) == 0
        assert f"frozen_prefix={seed_n}" in capsys.readouterr().out


class TestEvalStreamed:
    """eval reads, verifies and scores its dataset one block at a time,
    after checking the header against the checkpoint; its report and its
    errors are those of `evaluate` on `load_dataset`."""

    @staticmethod
    def network(n_hidden, d=16, m=4, seed=2):
        """Random weights, off a pool's dyadic grid, as in the `data`
        benchmark's checkpoint."""
        rng = np.random.default_rng(seed)
        hidden = [HiddenNeuron(rng.uniform(-1, 1, d), float(rng.uniform(-1, 1)))
                  for _ in range(n_hidden)]
        return Network(d, LifParams(), hidden, rng.normal(size=(n_hidden, m)),
                       list(range(m)))

    @staticmethod
    def dataset(rows, d=16, T=25, m=4, seed=3):
        rng = np.random.default_rng(seed)
        return LabeledDataset(rng.random((rows, d, T)) < 0.2,
                              rng.integers(0, m, rows), list(range(m)))

    def run_eval(self, net, blob, capsys):
        save_network(net, "n.net")
        with open("d.ds", "wb") as fh:
            fh.write(blob)
        capsys.readouterr()
        code = main(["eval", "--checkpoint", "n.net", "--dataset", "d.ds",
                     "--out-report", "r.json"])
        return code, capsys.readouterr().err

    @pytest.mark.parametrize("rows", [100, 256, 257, 700])
    @pytest.mark.parametrize("n_hidden", [0, 3, 50],
                             ids=["no-units", "3-units", "50-units"])
    def test_report_equals_evaluate_of_loaded(self, workdir, capsys, rows,
                                              n_hidden):
        """The kernel's block, CELLS // n rows, is 163 at 50 units, which
        does not divide 256, and 2730 at 3 units, longer than every file
        here; the files are shorter than one block, exactly _BLOCK and
        _BLOCK + 1 rows, and several blocks long."""
        net = self.network(n_hidden)
        save_dataset(self.dataset(rows), "ref.ds")
        code, err = self.run_eval(net, (workdir / "ref.ds").read_bytes(),
                                  capsys)
        assert (code, err) == (0, "")
        ds = load_dataset("ref.ds")
        assert (workdir / "r.json").read_text() == \
            report_to_text(evaluate(net, ds), net.categories)

    @pytest.mark.parametrize("rows", [257, 700])
    @pytest.mark.parametrize("n_hidden", [3, 50, 200])
    def test_kernel_gets_the_row_blocks_of_a_whole_dataset_pass(
            self, workdir, capsys, monkeypatch, rows, n_hidden):
        """Off the dyadic grid a drive's last bit can depend on the rows
        that share its GEMM, so eval hands the kernel the row blocks that
        `Network.features` hands it over the whole loaded file, and
        predicts every row with one product over the (N, n) table."""
        net = self.network(n_hidden)
        save_dataset(self.dataset(rows), "ref.ds")
        shapes, tables = [], []
        raster = spikegrow.lif._lif_raster
        monkeypatch.setattr(spikegrow.lif, "_lif_raster", lambda xt, *args:
                            shapes.append(xt.shape) or raster(xt, *args))
        net.features(load_dataset("ref.ds"))
        whole, shapes[:] = list(shapes), []
        predict = spikegrow.learner.predict_batch
        monkeypatch.setattr(spikegrow.learner, "predict_batch", lambda H, beta:
                            tables.append(H.shape) or predict(H, beta))
        code, _ = self.run_eval(net, (workdir / "ref.ds").read_bytes(), capsys)
        assert code == 0
        assert shapes == whole
        assert tables == [(rows, n_hidden)]

    @pytest.mark.parametrize("edit", [
        lambda lines: lines[:-2],
        lambda lines: lines[:1],
        lambda lines: lines[:1 + 163],
        lambda lines: lines[:1 + 256],
        lambda lines: lines + lines[-1:],
        lambda lines: lines + [b"x"],
        lambda lines: lines[:-1] + [lines[-1][:-1]],
        lambda lines: lines[:200] + [lines[200][:-1]],
    ], ids=["two-short", "no-sample", "one-kernel-block", "one-codec-block",
            "trailing-record", "trailing-byte", "no-final-newline",
            "cut-mid-file"])
    @pytest.mark.parametrize("n_hidden", [3, 50])
    def test_exit_3_with_the_loaders_error(self, workdir, capsys, edit,
                                           n_hidden):
        save_dataset(self.dataset(400), "ref.ds")
        lines = (workdir / "ref.ds").read_bytes().splitlines(keepends=True)
        blob = b"".join(edit(lines))
        code, err = self.run_eval(self.network(n_hidden), blob, capsys)
        with pytest.raises(DataFormatError) as loaded:
            load_dataset("d.ds")
        assert (code, err) == (3, f"error: DataFormatError: {loaded.value}\n")
        assert not (workdir / "r.json").exists()

    def test_eval_hashes_nothing(self, workdir, capsys, monkeypatch):
        """Only the loader takes a file's sha256: `eval` makes no sha256
        object, so it hashes none of the bytes it reads."""
        made = []

        class Hashlib:
            @staticmethod
            def sha256(*data):
                made.append(data)
                return hashlib.sha256(*data)

        monkeypatch.setattr(spikegrow.dataset, "hashlib", Hashlib)
        save_dataset(self.dataset(300), "ref.ds")
        blob = (workdir / "ref.ds").read_bytes()
        made.clear()
        assert self.run_eval(self.network(3), blob, capsys) == (0, "")
        assert made == []
        load_dataset("d.ds")
        assert len(made) == 1

    @pytest.mark.parametrize("claimed", [401, 10**5, 10**12])
    def test_header_longer_than_its_file_is_truncated(self, workdir, capsys,
                                                      claimed):
        """A header that claims more samples than the file holds is a
        truncated block at the end of the file, and its count is never
        allocated: the whole op stays below the (claimed, d, T) spike array
        of 10**5 samples (40 MB), and 10**12 samples, which `load_dataset`
        cannot allocate, read the same way."""
        save_dataset(self.dataset(400), "ref.ds")
        blob = (workdir / "ref.ds").read_bytes().replace(
            b'"n_samples": 400', b'"n_samples": %d' % claimed, 1)
        tracemalloc.start()
        try:
            code, err = self.run_eval(self.network(50), blob, capsys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3
        assert err == (f"error: DataFormatError: truncated sample block at "
                       f"byte {len(blob)}: expected {claimed} samples, found "
                       f"400\n")
        assert peak < 2 * 400 * 16 * 25 * 8

    def test_header_checked_before_any_sample_line(self, workdir, capsys):
        """A dataset of other channels ends eval before its sample lines
        are read, however malformed they are."""
        save_dataset(self.dataset(10, d=8), "ref.ds")
        blob = (workdir / "ref.ds").read_bytes().split(b"\n")[0] + b"\nbad\n"
        code, err = self.run_eval(self.network(5), blob, capsys)
        assert (code, err) == (3, "error: LineageError: dataset has 8 "
                                  "channels, network expects 16\n")


class TestCompare:
    def test_compare_traces(self, generated, workdir, capsys):
        for seed, tag in ((3, "a"), (4, "b")):
            assert main(["train-fresh", "--config", generated,
                         "--dataset", "data/stage-2.ds", "--seed", str(seed),
                         "--out-checkpoint", f"{tag}.net",
                         "--out-trace", f"{tag}.trace"]) == 0
        capsys.readouterr()
        rc = main(["compare", "a.trace", "b.trace", "--out", "cmp.csv"])
        assert rc == 0
        lines = (workdir / "cmp.csv").read_text().splitlines()
        assert len(lines) == 3
        elapsed = [float(l.split(",")[4]) for l in lines[1:]]
        assert elapsed == sorted(elapsed)

    def test_duplicate_basenames_mark_one_row(self, workdir, capsys):
        # Both files are named f.trace; the faster run missed its target.
        for tag, status, elapsed in (("a", "Patience", 0.1),
                                     ("b", "TargetReached", 0.2)):
            (workdir / tag).mkdir()
            trace = TrainingTrace(
                [TraceRecord(1, 1.0, 1.0, 1.0, elapsed, 0.999, 0)], status)
            export_trace(trace, str(workdir / tag / "f.trace"))
        assert main(["compare", "a/f.trace", "b/f.trace"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [r.split(",")[5] for r in rows] == ["Patience", "TargetReached"]
        assert [r.split(",")[6] for r in rows] == ["", "yes"]


# A JSON text nested deeper than the parser's recursion limit.
_DEEP = "[" * 100_000 + "]" * 100_000


def _json_edit(edit):
    """A text edit that applies `edit` to the parsed JSON document and
    re-dumps it."""
    def apply(text):
        doc = json.loads(text)
        edit(doc)
        return json.dumps(doc, sort_keys=True)
    return apply


def _valid_checkpoint() -> bytes:
    net = Network(3, LifParams(), [HiddenNeuron(np.ones(3), 0.5),
                                   HiddenNeuron(-np.ones(3), 0.25)],
                  np.eye(2), ["a", "b"], frozen_prefix=1)
    return network_to_bytes(net)


def checkpoint_with_header(edit) -> bytes:
    """A valid two-unit checkpoint whose JSON header text `edit` has
    changed."""
    blob = _valid_checkpoint()
    start = len(CHECKPOINT_MAGIC) + 4
    (length,) = struct.unpack("<I", blob[len(CHECKPOINT_MAGIC):start])
    new = edit(blob[start:start + length].decode("utf-8")).encode("utf-8")
    return CHECKPOINT_MAGIC + struct.pack("<I", len(new)) + new \
        + blob[start + length:]


class TestMalformedCheckpointHeader:
    @pytest.mark.parametrize("edit", [
        _json_edit(lambda h: h.pop("categories")),
        _json_edit(lambda h: h.update(n_hidden=2.0)),
        _json_edit(lambda h: h.update(lif={"dt": 1.0})),
        _json_edit(lambda h: h.update(frozen_prefix=3)),
        _json_edit(lambda h: h.update(extra=1)),
        _json_edit(lambda h: h["lif"].update(theta=0.0)),
        _json_edit(lambda h: h["lif"].update(tau_mem=float("nan"))),
        _json_edit(lambda h: h.update(categories=["a", "a"])),
        lambda text: _DEEP,
    ], ids=["missing-categories", "float-n-hidden", "partial-lif",
            "frozen-prefix-over-n-hidden", "unknown-key", "zero-theta",
            "nan-tau", "duplicate-categories", "nested-100000-deep"])
    def test_inspect_exit_3(self, workdir, capsys, edit):
        (workdir / "bad.net").write_bytes(checkpoint_with_header(edit))
        assert main(["inspect", "--checkpoint", "bad.net"]) == 3
        assert "DataFormatError" in capsys.readouterr().err

    def test_unedited_header_loads(self, workdir):
        (workdir / "ok.net").write_bytes(checkpoint_with_header(lambda h: h))
        assert load_network("ok.net").frozen_prefix == 1

    @pytest.mark.parametrize("theta", [True, "1", None, -1.0, 10**400],
                             ids=["bool", "string", "null", "negative",
                                  "huge-int"])
    def test_lif_value_rejected_by_lif_params(self, workdir, capsys, theta):
        edit = _json_edit(lambda h: h["lif"].update(theta=theta))
        (workdir / "bad.net").write_bytes(checkpoint_with_header(edit))
        assert main(["inspect", "--checkpoint", "bad.net"]) == 3
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: DataFormatError: .*lif\.theta.*\n", err)

    def test_int_lif_value_keeps_its_bytes(self, workdir):
        edit = _json_edit(lambda h: h["lif"].update(theta=1))
        blob = checkpoint_with_header(edit)
        (workdir / "int.net").write_bytes(blob)
        net = load_network("int.net")
        assert type(net.lif.theta) is int
        assert network_to_bytes(net) == blob


def _valid_trace() -> str:
    trace = TrainingTrace([TraceRecord(1, 2.0, 0.5, 0.5, 0.1, 0.999, 0),
                           TraceRecord(2, 1.5, 0.75, 0.5, 0.2, 0.999, -1),
                           TraceRecord(3, 1.2, 0.8, 0.5, 0.3, 0.9995, 1)],
                          "MaxHidden")
    return trace_to_text(trace)


class TestMalformedTrace:
    @pytest.mark.parametrize("edit", [
        _json_edit(lambda d: d["records"][0].pop("sq_norm")),
        _json_edit(lambda d: d.pop("status")),
        _json_edit(lambda d: d["records"][0].update(elapsed_seconds="0.1")),
        _json_edit(lambda d: d["records"][0].update(neuron_count=1.5)),
        lambda text: '{"trace_version": 1, "x": %s}' % _DEEP,
        _json_edit(lambda d: d["records"][0].update(test_accuracy=np.nan)),
        _json_edit(lambda d: d["records"][1].update(sq_norm=np.inf)),
        _json_edit(lambda d: d.update(note="x")),
        _json_edit(lambda d: d["records"][1].update(note="x")),
        _json_edit(lambda d: d.update(initial_neurons=10)),
        _json_edit(lambda d: d["records"][1].update(neuron_count=3)),
        _json_edit(lambda d: d["records"][0].update(train_accuracy=5.0)),
        _json_edit(lambda d: d["records"][1].update(test_accuracy=-0.5)),
        _json_edit(lambda d: d["records"][0].update(sigma_used=7.0)),
        _json_edit(lambda d: d["records"][0].update(sigma_used=1.0)),
        _json_edit(lambda d: d["records"][1].update(sq_norm=-3.0)),
        _json_edit(lambda d: d["records"][1].update(sq_norm=2.0)),
        _json_edit(lambda d: d["records"][0].update(elapsed_seconds=-1.0)),
        _json_edit(lambda d: d["records"][1].update(elapsed_seconds=0.05)),
        _json_edit(lambda d: d.update(status="Done")),
        _json_edit(lambda d: d.update(status=["MaxHidden"])),
        _json_edit(lambda d: d["records"][0].update(retries_used=-1)),
        _json_edit(lambda d: d["records"][2].update(retries_used=-1)),
        _json_edit(lambda d: d["records"][1].update(retries_used=-2)),
        _json_edit(lambda d: d["records"][1].update(retries_used=-1.0)),
    ], ids=["record-missing-column", "missing-status", "string-seconds",
            "float-neuron-count", "nested-100000-deep", "nan-accuracy",
            "infinite-sq-norm", "unknown-key", "record-unknown-key",
            "records-skip-initial-neurons", "neuron-count-gap",
            "train-accuracy-above-1", "test-accuracy-negative",
            "sigma-above-1", "sigma-1", "negative-sq-norm",
            "sq-norm-not-decreasing", "negative-seconds",
            "seconds-decrease", "unknown-status", "list-status",
            "first-record-reuses", "pool-serves-three-units",
            "retries-below-minus-1", "float-reuse"])
    def test_compare_exit_3(self, workdir, capsys, edit):
        (workdir / "t.trace").write_text(edit(_valid_trace()))
        assert main(["compare", "t.trace"]) == 3
        assert "DataFormatError" in capsys.readouterr().err

    def test_valid_trace_compares(self, workdir):
        (workdir / "t.trace").write_text(_valid_trace())
        assert main(["compare", "t.trace"]) == 0


def _cli_run(argv) -> tuple:
    """Exit code and stderr of the CLI, stdout swallowed; an exception that
    escapes `main` fails the calling test."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        return main(argv), err.getvalue()


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_mutated_checkpoint_loads_or_is_rejected(tmp_path_factory, data):
    """1-3 byte edits, insertions, deletions and truncations of a valid
    checkpoint: it loads or raises DataFormatError, and `inspect` exits 0
    or 3 to match, printing the loader's message (and so its byte offset)."""
    p = tmp_path_factory.getbasetemp() / "mutated.net"
    p.write_bytes(mutated(data, _valid_checkpoint()))
    try:
        load_network(str(p))
        expected = (0, "")
    except DataFormatError as exc:
        expected = (3, f"error: {type(exc).__name__}: {exc}\n")
    assert _cli_run(["inspect", "--checkpoint", str(p)]) == expected


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_mutated_trace_loads_or_is_rejected(tmp_path_factory, data):
    """The same mutations of a valid structured trace: it loads or raises
    DataFormatError, and `compare` exits 0 or 3 to match, printing the
    loader's message."""
    p = tmp_path_factory.getbasetemp() / "mutated.trace"
    p.write_bytes(mutated(data, _valid_trace().encode("utf-8")))
    try:
        load_trace(str(p))
        expected = (0, "")
    except DataFormatError as exc:
        expected = (3, f"error: {type(exc).__name__}: {exc}\n")
    assert _cli_run(["compare", str(p)]) == expected


def _record_edit(k, edit):
    """A byte edit of a saved .ds that applies `edit` to sample record k
    (1-based line index; -2 is the last record) and re-dumps it as JSON."""
    def apply(blob):
        lines = blob.split(b"\n")
        rec = json.loads(lines[k])
        edit(rec)
        lines[k] = json.dumps(rec, sort_keys=True).encode("utf-8")
        return b"\n".join(lines)
    return apply


def _float_time(rec):
    times = next(t for t in rec["spikes"] if t)
    times[0] = float(times[0])


def _unsorted_times(rec):
    next(t for t in rec["spikes"] if len(t) > 1).reverse()


def _float_label(rec):
    rec["label_index"] = float(rec["label_index"])


class TestMalformedDataset:
    @pytest.mark.parametrize("edit", [
        lambda b: b.replace(b'"spikes"', b'"spikes\xff"', 1),
        lambda b: b.replace(b'"n_samples": 20', b'"n_samples": "20"'),
        lambda b: b.replace(b'"categories": [0, 1]', b'"categories": [0, 0]'),
        _record_edit(1, _float_time),
        _record_edit(1, _unsorted_times),
        lambda b: b + b.split(b"\n")[-2] + b"\n",
        lambda b: b.replace(b"\n", b"\r\n"),
        _record_edit(-2, _float_label),
        lambda b: b.replace(b'"d": 8', b'"d": 8, "x": 0'),
        lambda b: b.replace(b'"n_samples": 20', b'"n_samples": %d' % 10**12),
        lambda b: b.replace(b'"n_samples": 20', b'"n_samples": %d' % 10**18),
    ], ids=["non-utf8", "string-n-samples", "duplicate-categories",
            "float-spike-time", "unsorted-times", "trailing-record", "crlf",
            "float-label-index", "extra-header-key", "n-samples-1e12",
            "n-samples-1e18"])
    def test_exit_3_names_byte_offset(self, generated, workdir, capsys, edit):
        blob = (workdir / "data" / "stage-2.ds").read_bytes()
        bad = edit(blob)
        assert bad != blob
        (workdir / "bad.ds").write_bytes(bad)
        capsys.readouterr()
        rc = main(["train-fresh", "--config", generated, "--dataset", "bad.ds",
                   "--out-checkpoint", "x.net", "--out-trace", "x.trace"])
        err = capsys.readouterr().err
        assert rc == 3
        assert re.fullmatch(r"error: DataFormatError: .*\bbyte \d+\b.*\n", err)
        assert "Traceback" not in err


class TestBadPaths:
    @pytest.mark.parametrize("argv, path", [
        (["train-fresh", "--dataset", "data/stage-2.ds", "--max-hidden", "2",
          "--out-checkpoint", "missing/x.net", "--out-trace", "x.trace"],
         "missing/x.net"),
        (["train-fresh", "--dataset", "data/stage-2.ds", "--max-hidden", "2",
          "--out-checkpoint", "x.net", "--out-trace", "missing/x.trace"],
         "missing/x.trace"),
        (["eval", "--checkpoint", "seed.net", "--dataset", "data"], "data"),
        (["gen-data", "--out-dir", "seed.net"], "seed.net"),
    ], ids=["checkpoint-in-missing-dir", "trace-in-missing-dir",
            "dataset-is-directory", "out-dir-is-file"])
    def test_exit_2_one_error_line(self, generated, workdir, capsys, argv,
                                   path):
        (workdir / "seed.net").write_bytes(network_to_bytes(
            Network(8, LifParams(), [HiddenNeuron(np.ones(8), 0.5)],
                    np.ones((1, 2)), [0, 1])))
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: [A-Za-z]+Error: .*\n", err)
        assert "Traceback" not in err
        assert repr(path) in err and ".tmp-" not in err


class TestOutputPathsFailFast:
    """An output path whose directory is missing, or which is a directory,
    ends the op with exit 2 before any input is read or any network grown,
    and nothing is written."""

    @pytest.fixture
    def inputs(self, generated, workdir, monkeypatch):
        (workdir / "seed.net").write_bytes(network_to_bytes(
            Network(8, LifParams(), [HiddenNeuron(np.ones(8), 0.5)],
                    np.ones((1, 2)), [0, 1])))
        export_trace(TrainingTrace(
            [TraceRecord(1, 1.0, 1.0, 1.0, 0.1, 0.999, 0)], "Patience"),
            str(workdir / "a.trace"))
        (workdir / "taken").mkdir()

        def entered(*args, **kwargs):
            raise AssertionError("the op started its work")

        for name in ("load_dataset", "load_network", "load_trace",
                     "train_fresh", "train_experienced", "evaluate",
                     "DatasetReader"):
            monkeypatch.setattr(spikegrow.cli, name, entered)
        return generated

    @pytest.mark.parametrize("bad", ["missing/x.out", "taken"])
    @pytest.mark.parametrize("argv, flag", [
        (["train-fresh", "--dataset", "data/stage-2.ds",
          "--out-checkpoint", "{}", "--out-trace", "x.trace"],
         "--out-checkpoint"),
        (["train-fresh", "--dataset", "data/stage-2.ds",
          "--out-checkpoint", "x.net", "--out-trace", "{}"], "--out-trace"),
        (["train-exp", "--seed-checkpoint", "seed.net",
          "--dataset", "data/stage-4.ds",
          "--out-checkpoint", "{}", "--out-trace", "x.trace"],
         "--out-checkpoint"),
        (["train-exp", "--seed-checkpoint", "seed.net",
          "--dataset", "data/stage-4.ds",
          "--out-checkpoint", "x.net", "--out-trace", "{}"], "--out-trace"),
        (["eval", "--checkpoint", "seed.net", "--dataset", "data/stage-2.ds",
          "--out-report", "{}"], "--out-report"),
        (["compare", "a.trace", "--out", "{}"], "--out"),
    ], ids=["fresh-checkpoint", "fresh-trace", "exp-checkpoint", "exp-trace",
            "eval-report", "compare-out"])
    def test_exit_2_before_work(self, inputs, workdir, capsys, argv, flag,
                                bad):
        argv = [a.format(bad) for a in argv]
        if argv[0].startswith("train"):
            argv += ["--config", inputs]
        before = sorted(workdir.rglob("*"))
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(rf"error: ConfigError: {flag} {bad!r}.*\n", err)
        assert sorted(workdir.rglob("*")) == before


class TestOutputNamesAnInput:
    """An output path that names the same file as an input of its command,
    or as another of its outputs, ends the op with exit 2 before any input
    is read, naming both flags, and every file keeps its bytes."""

    @pytest.fixture
    def inputs(self, workdir, monkeypatch):
        cfg = write_config(workdir / "cfg.json")
        (workdir / "data").mkdir()
        (workdir / "data" / "stage-2.ds").write_bytes(b"dataset bytes")
        (workdir / "seed.net").write_bytes(b"checkpoint bytes")
        (workdir / "a.trace").write_bytes(b"trace bytes")
        os.symlink("data/stage-2.ds", workdir / "link.ds")
        os.link(workdir / "seed.net", workdir / "hard.net")

        def entered(*args, **kwargs):
            raise AssertionError("the op started its work")

        for name in ("load_run_config", "load_dataset", "load_network",
                     "load_trace", "DatasetReader"):
            monkeypatch.setattr(spikegrow.cli, name, entered)
        return cfg

    @pytest.mark.parametrize("argv, out_flag, in_flag", [
        (["train-fresh", "--dataset", "data/stage-2.ds", "--out-checkpoint",
          "data/stage-2.ds", "--out-trace", "x.trace"],
         "--out-checkpoint", "--dataset"),
        (["train-fresh", "--dataset", "data/stage-2.ds", "--out-checkpoint",
          "x.net", "--out-trace", "./data/../data/stage-2.ds"],
         "--out-trace", "--dataset"),
        (["train-fresh", "--dataset", "data/stage-2.ds", "--out-checkpoint",
          "link.ds", "--out-trace", "x.trace"], "--out-checkpoint", "--dataset"),
        (["train-fresh", "--dataset", "link.ds", "--out-checkpoint",
          "data/stage-2.ds", "--out-trace", "x.trace"],
         "--out-checkpoint", "--dataset"),
        (["train-fresh", "--dataset", "data/stage-2.ds", "--out-checkpoint",
          "f.net", "--out-trace", "f.net"], "--out-trace", "--out-checkpoint"),
        (["train-fresh", "--dataset", "data/stage-2.ds", "--out-checkpoint",
          "x.net", "--out-trace", "cfg.json"], "--out-trace", "--config"),
        (["train-exp", "--seed-checkpoint", "seed.net", "--dataset",
          "data/stage-2.ds", "--out-checkpoint", "seed.net", "--out-trace",
          "x.trace"], "--out-checkpoint", "--seed-checkpoint"),
        (["train-exp", "--seed-checkpoint", "seed.net", "--dataset",
          "data/stage-2.ds", "--out-checkpoint", "hard.net", "--out-trace",
          "x.trace"], "--out-checkpoint", "--seed-checkpoint"),
        (["train-exp", "--seed-checkpoint", "seed.net", "--dataset",
          "data/stage-2.ds", "--out-checkpoint", "x.net", "--out-trace",
          "cfg.json"], "--out-trace", "--config"),
        (["eval", "--checkpoint", "seed.net", "--dataset", "data/stage-2.ds",
          "--out-report", "seed.net"], "--out-report", "--checkpoint"),
        (["eval", "--checkpoint", "seed.net", "--dataset", "data/stage-2.ds",
          "--out-report", "cfg.json"], "--out-report", "--config"),
        (["compare", "a.trace", "--out", "a.trace"], "--out", "trace file"),
    ], ids=["fresh-checkpoint-dataset", "fresh-trace-dataset-dotted",
            "fresh-checkpoint-dataset-symlink", "fresh-symlink-dataset",
            "fresh-checkpoint-trace", "fresh-trace-config",
            "exp-checkpoint-seed", "exp-checkpoint-seed-hardlink",
            "exp-trace-config",
            "eval-report-checkpoint", "eval-report-config",
            "compare-out-trace"])
    def test_exit_2_before_work(self, inputs, workdir, capsys, argv,
                                out_flag, in_flag):
        if argv[0] != "compare":
            argv = argv + ["--config", "cfg.json"]
        before = {p: p.read_bytes() for p in workdir.rglob("*") if p.is_file()}
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: ConfigError: [^\n]*\n", err), err
        assert err.startswith(f"error: ConfigError: {out_flag} ")
        assert f"names the same file as {in_flag} " in err
        assert {p: p.read_bytes() for p in workdir.rglob("*")
                if p.is_file()} == before

    @pytest.mark.parametrize("argv", [
        ["train-fresh", "--config", "cfg.json", "--dataset", "link.ds",
         "--out-checkpoint", "x.net", "--out-trace", "x.trace"],
        ["train-exp", "--config", "cfg.json", "--seed-checkpoint", "seed.net",
         "--dataset", "data/stage-2.ds", "--out-checkpoint", "x.net",
         "--one-loop-only"],
        ["eval", "--checkpoint", "hard.net", "--dataset", "data/stage-2.ds",
         "--out-report", "seed.report"],
        ["compare", "a.trace", "--out", "a.csv"],
    ], ids=["fresh", "exp-one-loop", "eval", "compare"])
    def test_distinct_paths_start_the_op(self, inputs, argv):
        with pytest.raises(AssertionError, match="started its work"):
            main(argv)


class TestFileModes:
    """Every file spikegrow writes gets the mode a plain `open(path, "wb")`
    gives, not that of the temp file it streamed into: 0o666 less the umask
    for a new file, and its own mode for a file it overwrites."""

    @pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
    def test_written_files_follow_umask(self, workdir, umask):
        old = os.umask(umask)
        try:
            cfg = write_config(workdir / "cfg.json")
            assert main(["gen-data", "--config", cfg, "--out-dir", "data"]) == 0
            save_network(Network(8, LifParams(), [HiddenNeuron(np.ones(8), 0.5)],
                                 np.ones((1, 2)), [0, 1]), "x.net")
            export_trace(TrainingTrace(
                [TraceRecord(1, 2.0, 0.5, 0.5, 0.1, 0.999, 0)], "MaxHidden"),
                "x.trace")
        finally:
            os.umask(old)
        written = [*(workdir / "data").iterdir(), workdir / "x.net",
                   workdir / "x.trace"]
        assert {p.name for p in written} == {
            "manifest.json", "stage-2.ds", "stage-4.ds", "x.net", "x.trace"}
        for path in written:
            assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask, path

    @pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
    @pytest.mark.parametrize("mode", [0o600, 0o644, 0o640])
    def test_overwritten_file_keeps_its_mode(self, workdir, umask, mode):
        net = Network(8, LifParams(), [HiddenNeuron(np.ones(8), 0.5)],
                      np.ones((1, 2)), [0, 1])
        (workdir / "x.net").write_bytes(b"old")
        os.chmod(workdir / "x.net", mode)
        old = os.umask(umask)
        try:
            save_network(net, "x.net")
        finally:
            os.umask(old)
        assert (workdir / "x.net").read_bytes() == network_to_bytes(net)
        assert stat.S_IMODE((workdir / "x.net").stat().st_mode) == mode


class TestHelp:
    @pytest.mark.parametrize("cmd", ["gen-data", "train-fresh", "train-exp",
                                     "eval", "inspect", "compare"])
    def test_help_available(self, cmd, capsys):
        with pytest.raises(SystemExit) as exc:
            main([cmd, "--help"])
        assert exc.value.code == 0
        assert "--" in capsys.readouterr().out
