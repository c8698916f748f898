import io
import json
import os
import re
import struct
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mutated
from spikegrow import DataFormatError, LabeledDataset, LifParams, save_dataset
import spikegrow.cli
from spikegrow.cli import main
from spikegrow.evaluation import export_trace, load_trace, trace_to_text
from spikegrow.learner import (
    CHECKPOINT_MAGIC,
    HiddenNeuron,
    Network,
    TraceRecord,
    TrainingTrace,
    load_network,
    network_to_bytes,
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

    def test_unknown_config_key_exit_2(self, workdir, capsys):
        cfg = workdir / "bad.json"
        cfg.write_text(json.dumps({"generator": {"bogus_knob": 1}}))
        assert main(["gen-data", "--config", str(cfg),
                     "--out-dir", "out"]) == 2
        assert not (workdir / "out" / "manifest.json").exists()
        assert "error:" in capsys.readouterr().err


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
     "pruning.lambda_growth"),
    ("categories-float", '{"generator": {"categories": 2.0}}',
     "generator.categories"),
    ("dt-ms-string", '{"generator": {"dt_ms": "1"}}', "generator.dt_ms"),
    ("theta-string", '{"lif": {"theta": "1"}}', "lif.theta"),
    ("max-hidden-string", '{"growth": {"max_hidden": "5"}}', "growth.max_hidden"),
    ("sigma0-null", '{"pruning": {"sigma0": null}}', "pruning.sigma0"),
    ("T-string", '{"generator": {"T": "3"}}', "generator.T"),
]

_BAD_CONFIG_RUNS = [
    pytest.param(command, text, named, id=f"{command}-{name}")
    for name, text, named in _BAD_CONFIGS
    for command in ("gen-data", "train-fresh")
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
        # The dataset is never read: the config is rejected first.
        (workdir / "x.ds").write_text("")
        argv = {"gen-data": ["--out-dir", "out"],
                "train-fresh": ["--dataset", "x.ds", "--out-checkpoint",
                                "x.net", "--out-trace", "x.trace"]}[command]
        assert main([command, "--config", str(cfg), *argv]) == 2
        self._assert_one_config_error(capsys, named)
        assert sorted(p.name for p in workdir.iterdir()) == ["cfg.json", "x.ds"]

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
        """Every size within its range, their product too large: the family
        is allocated before any sample is drawn, and fails at once."""
        cfg = write_config(workdir / "cfg.json", generator=dict(
            generator, categories=4, stages=[4]))
        assert main(["gen-data", "--config", cfg, "--out-dir", "out"]) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: MemoryError: [^\n]*\n", err), err
        assert not (workdir / "out" / "manifest.json").exists()


class TestTrainFresh:
    @pytest.mark.parametrize("pruning", [
        {"pool_size": 1, "weight_scale": 1e-300, "sigma_relax_steps": 2000},
        {"pool_size": 1, "weight_scale": 1e-300, "lambda_growth": 1e200,
         "sigma_relax_steps": 3},
    ], ids=["sigma-reaches-one", "weight-range-overflows"])
    def test_silent_schedule_exit_3(self, workdir, capsys, pruning):
        """Round schedules that run past sigma = 1.0 or past the largest
        float saturate: a run whose every pool is silent is degenerate."""
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

    def test_tiny_sigma0_trains(self, workdir, capsys):
        """A round-0 target below 1.1e-16 is sigma0 itself, not the 0.0
        that 1 - (1 - sigma0) rounds to; later rounds relax it."""
        assert self._train_tiny(workdir, {"sigma0": 1e-300}) == 0
        assert capsys.readouterr().err == ""
        records = json.loads((workdir / "x.trace").read_text())["records"]
        assert records and records[0]["retries_used"] >= 1

    def test_weight_range_overflow_at_round_0_exit_3(self, workdir, capsys):
        """No pool can be drawn at all: the message names the setting, not
        silent candidates."""
        capsys.readouterr()
        assert self._train_tiny(workdir, {"weight_scale": 1e308}) == 3
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: DegenerateDataError: [^\n]*\n", err), err
        assert "pruning.weight_scale" in err and "spikes" not in err
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

    def test_inspect_fresh_frozen_zero(self, trained, capsys):
        assert main(["inspect", "--checkpoint", "f.net"]) == 0
        out = capsys.readouterr().out
        assert "frozen_prefix=0" in out
        assert "d=8" in out

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
            export_trace(trace, str(workdir / tag / "f.trace"), "structured")
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
                           TraceRecord(2, 1.5, 0.75, 0.5, 0.2, 0.9995, 1)],
                          "MaxHidden")
    return trace_to_text(trace, "structured")


class TestMalformedTrace:
    @pytest.mark.parametrize("edit", [
        _json_edit(lambda d: d["records"][0].pop("sq_norm")),
        _json_edit(lambda d: d.pop("status")),
        _json_edit(lambda d: d["records"][0].update(elapsed_seconds="0.1")),
        _json_edit(lambda d: d["records"][0].update(neuron_count=1.5)),
        lambda text: '{"trace_version": 1, "x": %s}' % _DEEP,
    ], ids=["record-missing-column", "missing-status", "string-seconds",
            "float-neuron-count", "nested-100000-deep"])
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


class TestHelp:
    @pytest.mark.parametrize("cmd", ["gen-data", "train-fresh", "train-exp",
                                     "eval", "inspect", "compare"])
    def test_help_available(self, cmd, capsys):
        with pytest.raises(SystemExit) as exc:
            main([cmd, "--help"])
        assert exc.value.code == 0
        assert "--" in capsys.readouterr().out
