import json
import os
import struct

import numpy as np
import pytest

from spikegrow import LifParams
from spikegrow.cli import main
from spikegrow.evaluation import trace_to_text
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


class TestTrainFresh:
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


def checkpoint_with_header(edit) -> bytes:
    """A valid two-unit checkpoint whose JSON header `edit` has changed."""
    net = Network(3, LifParams(), [HiddenNeuron(np.ones(3), 0.5),
                                   HiddenNeuron(-np.ones(3), 0.25)],
                  np.eye(2), ["a", "b"], frozen_prefix=1)
    blob = network_to_bytes(net)
    start = len(CHECKPOINT_MAGIC) + 4
    (length,) = struct.unpack("<I", blob[len(CHECKPOINT_MAGIC):start])
    header = json.loads(blob[start:start + length])
    edit(header)
    new = json.dumps(header, sort_keys=True).encode("utf-8")
    return CHECKPOINT_MAGIC + struct.pack("<I", len(new)) + new \
        + blob[start + length:]


class TestMalformedCheckpointHeader:
    @pytest.mark.parametrize("edit", [
        lambda h: h.pop("categories"),
        lambda h: h.update(n_hidden=2.0),
        lambda h: h.update(lif={"dt": 1.0}),
        lambda h: h.update(frozen_prefix=3),
        lambda h: h.update(extra=1),
        lambda h: h["lif"].update(theta=0.0),
        lambda h: h["lif"].update(tau_mem=float("nan")),
        lambda h: h.update(categories=["a", "a"]),
    ], ids=["missing-categories", "float-n-hidden", "partial-lif",
            "frozen-prefix-over-n-hidden", "unknown-key", "zero-theta",
            "nan-tau", "duplicate-categories"])
    def test_inspect_exit_3(self, workdir, capsys, edit):
        (workdir / "bad.net").write_bytes(checkpoint_with_header(edit))
        assert main(["inspect", "--checkpoint", "bad.net"]) == 3
        assert "DataFormatError" in capsys.readouterr().err

    def test_unedited_header_loads(self, workdir):
        (workdir / "ok.net").write_bytes(checkpoint_with_header(lambda h: h))
        assert load_network("ok.net").frozen_prefix == 1


class TestMalformedTrace:
    def _doc(self):
        trace = TrainingTrace([TraceRecord(1, 2.0, 0.5, 0.5, 0.1, 0.999, 0)],
                              "MaxHidden")
        return json.loads(trace_to_text(trace, "structured"))

    @pytest.mark.parametrize("edit", [
        lambda d: d["records"][0].pop("sq_norm"),
        lambda d: d.pop("status"),
        lambda d: d["records"][0].update(elapsed_seconds="0.1"),
        lambda d: d["records"][0].update(neuron_count=1.5),
    ], ids=["record-missing-column", "missing-status", "string-seconds",
            "float-neuron-count"])
    def test_compare_exit_3(self, workdir, capsys, edit):
        doc = self._doc()
        edit(doc)
        (workdir / "t.trace").write_text(json.dumps(doc))
        assert main(["compare", "t.trace"]) == 3
        assert "DataFormatError" in capsys.readouterr().err

    def test_valid_trace_compares(self, workdir):
        (workdir / "t.trace").write_text(json.dumps(self._doc()))
        assert main(["compare", "t.trace"]) == 0


class TestHelp:
    @pytest.mark.parametrize("cmd", ["gen-data", "train-fresh", "train-exp",
                                     "eval", "inspect", "compare"])
    def test_help_available(self, cmd, capsys):
        with pytest.raises(SystemExit) as exc:
            main([cmd, "--help"])
        assert exc.value.code == 0
        assert "--" in capsys.readouterr().out
