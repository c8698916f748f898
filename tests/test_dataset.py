import errno
import hashlib
import os
import re
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import make_dataset, mutated
from oracles import spike_count_classifier_accuracy
from spikegrow import (
    ConfigError,
    DataFormatError,
    GeneratorConfig,
    LabeledDataset,
    LifParams,
    ShapeError,
    encode_targets,
    evaluate,
    generate_family,
    load_dataset,
    save_dataset,
    split_train_test,
)
import spikegrow.cli
import spikegrow.dataset
from spikegrow.dataset import (
    _BLOCK,
    _GROUP,
    _header,
    _row_blocks,
    _tokens,
    dataset_fingerprint,
    write_blocks,
)
from spikegrow.evaluation import report_to_text
from spikegrow.learner import HiddenNeuron, Network, save_network


def write_prefixes(parts, paths) -> list:
    """`write_blocks` of datasets that each hold a row prefix of the last,
    from the last one's blocks of _BLOCK rows; each file's sha256."""
    return write_blocks([str(p) for p in paths], [_header(p) for p in parts],
                        _row_blocks(parts[-1]))


class TestGeneratorConfig:
    @pytest.mark.parametrize("kwargs", [
        {"base_rate": 0.0}, {"base_rate": 1.0}, {"separation": 1.5},
        {"jitter": -0.1}, {"d": 0}, {"samples_per_category": 0},
    ])
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            GeneratorConfig(**kwargs)


class TestColumns:
    @pytest.mark.parametrize("label_index, error", [
        ([0, 1, -1], ConfigError),
        ([0, 1, 2], ConfigError),
        ([0, 1], ShapeError),
        ([[0], [1], [1]], ShapeError),
    ], ids=["negative-label", "label-beyond-categories", "fewer-labels",
            "2d-labels"])
    def test_bad_columns_rejected(self, label_index, error):
        with pytest.raises(error):
            LabeledDataset(np.zeros((3, 2, 5)), label_index, ["a", "b"])

    def test_bad_spike_shape_and_duplicate_categories_rejected(self):
        with pytest.raises(ShapeError):
            LabeledDataset(np.zeros((3, 10)), [0, 1, 1], ["a", "b"])
        with pytest.raises(ConfigError, match="distinct"):
            LabeledDataset(np.zeros((3, 2, 5)), [0, 1, 1], ["a", "a"])

    @pytest.mark.parametrize("spikes", [
        np.full((2, 1, 3), 2), np.full((2, 1, 3), 2, dtype=np.uint8),
        np.full((2, 1, 3), 0.5), np.full((2, 1, 3), -1),
        np.full((2, 1, 3), np.nan), np.full((2, 1, 3), "1"),
    ], ids=["int-two", "uint8-two", "half", "minus-one", "nan", "string"])
    def test_spikes_other_than_0_and_1_rejected(self, spikes):
        """Each would be cast to a different 0/1 dataset, which a save
        writes and a fingerprint hashes, while growth drives with it."""
        with pytest.raises(ConfigError, match="spike values must be 0 or 1"):
            LabeledDataset(spikes, [0, 0], [0])

    @pytest.mark.parametrize("label_index", [
        [0.7, 0.2], [1.0, 0.5], [np.nan, 0.0], [True, False], ["0", "1"],
    ], ids=["fractions", "one-fraction", "nan", "bools", "strings"])
    def test_labels_other_than_integers_rejected(self, label_index):
        with pytest.raises(ConfigError, match="must be integers in"):
            LabeledDataset(np.zeros((2, 1, 3)), label_index, [0, 1])

    @pytest.mark.parametrize("spikes", [np.ones((2, 1, 3), dtype=bool),
                                        np.ones((2, 1, 3)),
                                        np.ones((2, 1, 3), dtype=np.int64)],
                             ids=["bool", "float", "int64"])
    def test_zeros_and_ones_of_any_number_type_accepted(self, spikes):
        ds = LabeledDataset(spikes, np.array([1.0, 0.0]), [0, 1])
        assert ds.spikes.dtype == np.uint8 and ds.spikes.all()
        assert ds.label_index.dtype == np.intp
        assert ds.label_index.tolist() == [1, 0]

    @pytest.mark.parametrize("kwargs", [
        dict(dt_ms=float("nan")), dict(dt_ms=float("inf")), dict(dt_ms=True),
        dict(dt_ms="1.0"), dict(categories=[0.5, 1.5]),
        dict(categories=[True, False]), dict(categories=[np.int64(0), 1]),
        dict(categories=[None, 1]),
    ], ids=["nan-dt", "inf-dt", "bool-dt", "string-dt", "float-categories",
            "bool-categories", "numpy-int-category", "none-category"])
    def test_header_values_the_loader_refuses_rejected(self, kwargs):
        """Each was accepted, then written by save_dataset to a file that
        load_dataset refuses."""
        args = dict(spikes=np.zeros((2, 1, 3)), label_index=[0, 1],
                    categories=[0, 1])
        with pytest.raises(ConfigError):
            LabeledDataset(**{**args, **kwargs})

    def test_accepted_header_values_round_trip(self, tmp_path):
        ds = LabeledDataset(np.ones((2, 1, 3)), [1, 0], [7, "seven"],
                            dt_ms=np.float64(0.25))
        save_dataset(ds, tmp_path / "a.ds")
        assert load_dataset(tmp_path / "a.ds") == ds

    def test_columns_are_read_only(self, tiny_dataset):
        with pytest.raises(ValueError):
            tiny_dataset.spikes[0, 0, 0] = 1
        with pytest.raises(ValueError):
            tiny_dataset.label_index[0] = 1

    def test_empty_keeps_d_and_t(self):
        ds = LabeledDataset(np.zeros((0, 6, 9)), [], [0, 1])
        assert (len(ds), ds.d, ds.T) == (0, 6, 9)
        assert ds.spike_tensor().shape == (0, 6, 9)


class TestPinnedBytes:
    """sha256 of the canonical text of a generated family and of a split,
    recorded before the columnar dataset: a reordered rng draw or a changed
    split selection changes them."""

    CFG = GeneratorConfig(d=6, T=9, categories=4, samples_per_category=5,
                          rng_seed=11)

    def test_generated_stages(self):
        fam = generate_family(self.CFG, [2, 4])
        assert [dataset_fingerprint(s) for s in fam.stages] == [
            "55cf5524bd853f95def6f86e835a3da215fed853fb5580ae81e041f0179de475",
            "c0033013d982052f9ab01d4f4bf9001fb1acb9fbaba6d439b33221172644fa2e",
        ]

    def test_split(self):
        ds = generate_family(self.CFG, [2, 4]).stages[1]
        train, test = split_train_test(ds, 0.3, 7)
        assert (len(train), len(test)) == (12, 8)
        assert dataset_fingerprint(train) == \
            "60aea41366fd712aff0ff478099f39f24b48fd6129c9f65e6425cb0d775fae0d"
        assert dataset_fingerprint(test) == \
            "89e97e7e90baf7e8ff29bc487035d8b685cc15daf1e8739ca3aa7166b00a2e3f"


class TestGenerateFamily:
    def test_paper_scale_topology(self):
        cfg = GeneratorConfig(d=64, T=25, categories=20,
                              samples_per_category=200, rng_seed=0)
        fam = generate_family(cfg, [5, 10, 15, 20])
        assert [len(s) for s in fam.stages] == [1000, 2000, 3000, 4000]
        assert all(s.d == 64 and s.T == 25 for s in fam.stages)

    def test_single_stage_one_sample_each(self):
        cfg = GeneratorConfig(d=4, T=6, categories=5, samples_per_category=1)
        fam = generate_family(cfg, [5])
        (stage,) = fam.stages
        assert len(stage) == 5
        assert sorted(stage.label_index.tolist()) == [0, 1, 2, 3, 4]

    def test_nesting_is_literal_membership(self):
        cfg = GeneratorConfig(d=6, T=8, categories=6, samples_per_category=3,
                              rng_seed=4)
        fam = generate_family(cfg, [2, 4, 6])
        for a, b in zip(fam.stages, fam.stages[1:]):
            assert np.array_equal(b.spikes[: len(a)], a.spikes)
            assert np.array_equal(b.label_index[: len(a)], a.label_index)
            # A copy, not a view: splitting one stage in place moves no row
            # of another.
            assert not np.shares_memory(a.spikes, b.spikes)

    def test_determinism(self):
        cfg = GeneratorConfig(d=5, T=7, categories=3, samples_per_category=4,
                              rng_seed=12)
        f1 = generate_family(cfg, [2, 3])
        f2 = generate_family(cfg, [2, 3])
        for a, b in zip(f1.stages, f2.stages):
            assert a == b

    def test_zero_separation_rate_matches_base(self):
        cfg = GeneratorConfig(d=8, T=20, categories=4, samples_per_category=50,
                              base_rate=0.3, separation=0.0, jitter=0.0,
                              rng_seed=5)
        fam = generate_family(cfg, [4])
        ds = fam.stages[0]
        tensor = ds.spike_tensor()
        # Per-channel empirical rate within 3 binomial standard deviations.
        n_draws = len(ds) * ds.T
        sd = np.sqrt(0.3 * 0.7 / n_draws)
        rates = tensor.mean(axis=(0, 2))
        assert np.all(np.abs(rates - 0.3) <= 3 * sd)

    @pytest.mark.parametrize("stages", [[3, 2], [2, 2], []])
    def test_bad_stage_sizes(self, stages):
        cfg = GeneratorConfig(d=3, T=4, categories=4, samples_per_category=2)
        with pytest.raises(ConfigError):
            generate_family(cfg, stages)

    def test_profile_collapse_rejected(self):
        """A rate base_rate * (1 -/+ separation) outside (0, 1) is a config
        error for every seed, not only for those whose drawn signs reach
        it: d = 1 and one category draw a single sign."""
        for base_rate, separation in [(0.6, 0.9), (0.8, 0.5), (0.2, 1.0)]:
            for seed in range(8):
                with pytest.raises(ConfigError, match=(
                        r"^generator\.base_rate \* \(1 -/\+ "
                        r"generator\.separation\) must lie in \(0, 1\)")):
                    GeneratorConfig(d=1, categories=1, base_rate=base_rate,
                                    separation=separation, rng_seed=seed)
        cfg = GeneratorConfig()
        assert (cfg.base_rate, cfg.separation) == (0.2, 0.5)

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("kw, stages", [
        (dict(), [5, 10, 15, 20]),
        (dict(d=32, T=10, categories=4, samples_per_category=100), [4]),
        (dict(jitter=0.0, categories=3, samples_per_category=20), [1, 3]),
        (dict(d=1, T=5, categories=3, samples_per_category=4), [2, 3]),
        (dict(d=6, T=1, categories=3, samples_per_category=4), [3]),
        (dict(d=4, T=6, categories=5, samples_per_category=1), [1, 5]),
        (dict(d=3, T=4, categories=2, samples_per_category=2 * _BLOCK + 3),
         [1, 2]),
    ], ids=["default", "capacity", "no-jitter", "d1", "T1", "one-sample",
            "blocks"])
    def test_block_draw_matches_per_sample_reference(self, seed, kw, stages):
        cfg = GeneratorConfig(rng_seed=seed, **kw)
        spikes, label_index = oracles.generated_columns(cfg, stages)
        last = generate_family(cfg, stages).stages[-1]
        assert np.array_equal(last.spikes, spikes)
        assert np.array_equal(last.label_index, label_index)

    def test_separation_monotonicity(self):
        # More separation must not hurt a plain linear spike-count
        # classifier, averaged over seeds.
        means = []
        for sep in (0.0, 0.3, 0.6, 0.9):
            accs = []
            for seed in range(10):
                cfg = GeneratorConfig(d=10, T=20, categories=3,
                                      samples_per_category=20, base_rate=0.25,
                                      separation=sep, jitter=0.1,
                                      rng_seed=100 + seed)
                ds = generate_family(cfg, [3]).stages[0]
                train, test = split_train_test(ds, 0.25, seed)
                accs.append(spike_count_classifier_accuracy(train, test))
            means.append(np.mean(accs))
        assert all(b >= a for a, b in zip(means, means[1:]))


class TestSplit:
    def test_stratified_counts(self):
        ds = make_dataset(n_per_cat=10, n_cats=3)
        train, test = split_train_test(ds, 0.2, 0)
        for i in range(ds.n_categories):
            assert np.sum(train.label_index == i) == 8
            assert np.sum(test.label_index == i) == 2

    def test_deterministic(self):
        # The split consumes its input: each call splits its own copy.
        a = split_train_test(make_dataset(n_per_cat=6, n_cats=2), 0.3, 42)
        b = split_train_test(make_dataset(n_per_cat=6, n_cats=2), 0.3, 42)
        assert a[0] == b[0] and a[1] == b[1]

    def test_union_and_disjointness(self):
        ds = make_dataset(n_per_cat=7, n_cats=3, seed=9)
        # Train and test rows, as (block, label) pairs, partition the rows.
        rows = lambda d: sorted(zip(map(bytes, d.spikes),
                                    d.label_index.tolist()))
        before = rows(ds)
        train, test = split_train_test(ds, 0.3, 5)
        assert before == sorted(rows(train) + rows(test))

    def test_small_category_rejected(self):
        ds = make_dataset(n_per_cat=1, n_cats=2)
        with pytest.raises(ConfigError):
            split_train_test(ds, 0.5, 0)

    def test_bad_fraction_rejected(self):
        ds = make_dataset()
        with pytest.raises(ConfigError):
            split_train_test(ds, 1.0, 0)


class TestSplitInPlace:
    """The split reorders its input's own buffer into [train rows; test
    rows] and consumes the input."""

    def test_splitting_a_stage_moves_no_row_of_another(self):
        cfg = GeneratorConfig(d=6, T=8, categories=6, samples_per_category=5,
                              rng_seed=4)
        stages = generate_family(cfg, [2, 4, 6]).stages
        texts = [oracles.dataset_text(ds) for ds in stages]
        rows = [np.array(ds.spikes) for ds in stages]
        fingerprints = [dataset_fingerprint(ds) for ds in stages]
        split_train_test(stages[1], 0.4, 3)
        for k in (0, 2):
            ds = stages[k]
            assert np.array_equal(ds.spikes, rows[k])
            assert oracles.dataset_text(ds) == texts[k]
            assert dataset_fingerprint(ds) == fingerprints[k] == \
                hashlib.sha256(texts[k].encode("ascii")).hexdigest()

    def test_input_is_spent(self):
        """The input is left with no rows, and says so: its fingerprint is
        that of an empty dataset, and a second split finds no samples."""
        ds = make_dataset(n_per_cat=6, n_cats=3, d=4, T=5, seed=2)
        dataset_fingerprint(ds)
        train, test = split_train_test(ds, 0.3, 1)
        assert len(train) + len(test) == 18
        assert len(ds) == 0 and ds.spikes.shape == (0, 4, 5)
        assert ds.label_index.shape == (0,)
        empty = LabeledDataset(np.zeros((0, 4, 5)), [], ds.categories)
        assert ds == empty
        assert dataset_fingerprint(ds) == dataset_fingerprint(empty)
        with pytest.raises(ConfigError, match="0 sample"):
            split_train_test(ds, 0.3, 1)

    def test_train_and_test_are_disjoint_views_of_one_buffer(self):
        ds = make_dataset(n_per_cat=20, n_cats=3, d=4, T=6, seed=5)
        buffer = ds.spikes.base
        train, test = split_train_test(ds, 0.25, 2)
        assert train.spikes.base is buffer and test.spikes.base is buffer
        assert buffer.nbytes == 60 * 4 * 6  # no row copied beside it
        assert not np.shares_memory(train.spikes, test.spikes)
        for part in (train, test):
            assert part.spikes is part.spike_tensor()
            assert not part.spikes.flags.writeable
            assert all(step.flags.c_contiguous
                       for step in part.spikes.transpose(2, 0, 1))

    @pytest.mark.parametrize("fraction, seed", [(0.2, 1), (0.35, 7)])
    def test_loaded_file_splits_as_the_copying_split(self, tmp_path,
                                                     fraction, seed):
        """Rows, labels and fingerprints equal those of the split that
        copied rows out of an untouched dataset."""
        cfg = GeneratorConfig(d=8, T=9, categories=4,
                              samples_per_category=90, rng_seed=seed)
        path = str(tmp_path / "s.ds")
        save_dataset(generate_family(cfg, [4]).stages[0], path)
        got = split_train_test(load_dataset(path), fraction, seed)
        want = oracles.split_rows(load_dataset(path), fraction, seed)
        for a, b in zip(got, want):
            assert np.array_equal(a.spikes, b.spikes)
            assert np.array_equal(a.label_index, b.label_index)
            assert a == b
            assert dataset_fingerprint(a) == dataset_fingerprint(b)


class TestFileFingerprint:
    """A split of a loaded file takes its fingerprint from the file's
    verified lines, checked against the file's sha256 at load; a file that
    changed since leaves it to the serialiser. The digest is the same."""

    @staticmethod
    def split_file(tmp_path, d, T, fraction, seed=3):
        """A 300-row file (three _BLOCK blocks) and the halves of its load."""
        cfg = GeneratorConfig(d=d, T=T, categories=3, samples_per_category=100,
                              rng_seed=seed)
        path = tmp_path / "s.ds"
        save_dataset(generate_family(cfg, [3]).stages[0], str(path))
        return path, split_train_test(load_dataset(str(path)), fraction, seed)

    @staticmethod
    def serialised(ds) -> str:
        """The serialiser's digest of `ds`'s rows, which the per-line
        oracle's text also hashes to."""
        digest = dataset_fingerprint(LabeledDataset(
            ds.spikes, ds.label_index, ds.categories, ds.dt_ms))
        assert digest == hashlib.sha256(
            oracles.dataset_text(ds).encode("ascii")).hexdigest()
        return digest

    @staticmethod
    def serialisations(monkeypatch) -> list:
        calls = []
        lines = spikegrow.dataset._sample_lines
        monkeypatch.setattr(spikegrow.dataset, "_sample_lines",
                            lambda *block: calls.append(len(block[0]))
                            or lines(*block))
        return calls

    @pytest.mark.parametrize("fraction", [0.2, 0.35])
    @pytest.mark.parametrize("d, T", [(1, 1), (8, 9), (64, 25), (3, 120)])
    def test_halves_hash_the_files_lines(self, tmp_path, monkeypatch,
                                         fraction, d, T):
        _, halves = self.split_file(tmp_path, d, T, fraction)
        calls = self.serialisations(monkeypatch)
        got = [dataset_fingerprint(half) for half in halves]
        assert calls == []
        monkeypatch.undo()
        assert got == [self.serialised(half) for half in halves]
        assert all(half._lines is None for half in halves)

    def test_a_half_split_again_hashes_the_files_lines(self, tmp_path,
                                                       monkeypatch):
        _, (train, _) = self.split_file(tmp_path, 8, 9, 0.2)
        quarters = split_train_test(train, 0.5, 4)
        calls = self.serialisations(monkeypatch)
        got = [dataset_fingerprint(part) for part in quarters]
        assert calls == []
        monkeypatch.undo()
        assert got == [self.serialised(part) for part in quarters]

    @pytest.mark.parametrize("change", [
        "unchanged", "copied over", "same length", "truncated", "appended",
        "deleted", "renamed over", "directory", "fifo"])
    def test_a_changed_file_is_left_to_the_serialiser(self, tmp_path,
                                                      monkeypatch, change):
        """Between the load and the fingerprint the file is rewritten with
        the same length (one byte of a middle line flipped), truncated,
        extended, deleted, or replaced by another dataset's file, a
        directory or a FIFO. Only the same bytes are read back."""
        path, halves = self.split_file(tmp_path, 8, 9, 0.2)
        blob = path.read_bytes()
        other = tmp_path / "other"
        if change == "copied over":
            other.write_bytes(blob)
            os.replace(other, path)
        elif change == "same length":
            edited = bytearray(blob)
            edited[len(blob) // 2] ^= 1
            path.write_bytes(bytes(edited))
        elif change == "truncated":
            path.write_bytes(blob[:-40])
        elif change == "appended":
            path.write_bytes(blob + blob[-40:])
        elif change == "deleted":
            path.unlink()
        elif change == "renamed over":
            cfg = GeneratorConfig(d=8, T=9, categories=3,
                                  samples_per_category=100, rng_seed=4)
            save_dataset(generate_family(cfg, [3]).stages[0], str(other))
            os.replace(other, path)
        elif change == "directory":
            path.unlink()
            path.mkdir()
        elif change == "fifo":
            if not hasattr(os, "mkfifo"):
                pytest.skip("no FIFOs on this platform")
            path.unlink()
            os.mkfifo(path)
        calls = self.serialisations(monkeypatch)
        got = [dataset_fingerprint(half) for half in halves]
        assert (calls == []) == (change in ("unchanged", "copied over"))
        monkeypatch.undo()
        assert got == [self.serialised(half) for half in halves]

    def test_only_a_regular_file_keeps_its_line_ends(self, tmp_path):
        """A loaded regular file keeps the offset at which each line ends;
        a FIFO's load keeps none, and its halves serialise."""
        path, _ = self.split_file(tmp_path, 8, 9, 0.2)
        blob = path.read_bytes()
        loaded = load_dataset(str(path))
        file, rows = loaded._lines
        assert rows is None and file.sha256 == hashlib.sha256(blob).hexdigest()
        assert file.ends.tolist() == [m.end() for m in re.finditer(b"\n", blob)]
        if not hasattr(os, "mkfifo"):
            pytest.skip("no FIFOs on this platform")
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(blob,),
                                  daemon=True)
        writer.start()
        piped = load_dataset(str(fifo))
        writer.join(timeout=60)
        assert not writer.is_alive()
        assert piped == loaded and piped._lines is None
        halves = split_train_test(piped, 0.2, 3)
        assert all(half._lines is None for half in halves)
        assert [dataset_fingerprint(half) for half in halves] == \
            [self.serialised(half) for half in halves]


class TestEncodeTargets:
    def test_one_hot_rows(self, tiny_dataset):
        F = encode_targets(tiny_dataset)
        assert F.shape == (len(tiny_dataset), 3)
        assert np.all(F.sum(axis=1) == 1.0)
        assert set(np.unique(F)) <= {0.0, 1.0}

    def test_row_matches_label(self, tiny_dataset):
        F = encode_targets(tiny_dataset)
        idx = tiny_dataset.label_index
        assert np.all(F[np.arange(len(F)), idx] == 1.0)

    def test_column_sums_are_category_counts(self, tiny_dataset):
        F = encode_targets(tiny_dataset)
        counts = np.bincount(tiny_dataset.label_index).tolist()
        assert F.sum(axis=0).tolist() == counts


class TestSerialization:
    def test_round_trip_small(self, tmp_path):
        ds = make_dataset(n_per_cat=1, n_cats=2)
        p = tmp_path / "a.ds"
        save_dataset(ds, str(p))
        assert load_dataset(str(p)) == ds

    def test_round_trip_large_family(self, tmp_path):
        cfg = GeneratorConfig(d=16, T=25, categories=8,
                              samples_per_category=10, rng_seed=77)
        ds = generate_family(cfg, [8]).stages[0]
        p = tmp_path / "big.ds"
        save_dataset(ds, str(p))
        back = load_dataset(str(p))
        assert back == ds
        assert np.array_equal(back.spike_tensor(), ds.spike_tensor())

    def test_fingerprint_stable(self, tmp_path):
        ds = make_dataset(seed=3)
        assert dataset_fingerprint(ds) == dataset_fingerprint(ds)

    def test_fingerprint_is_saved_file_digest_computed_once(self, tmp_path,
                                                              monkeypatch):
        """Each of the 12-row datasets below is one block, serialised once
        by the save or by its first fingerprint."""
        import spikegrow.dataset as dataset_module
        calls = []
        lines = dataset_module._sample_lines
        monkeypatch.setattr(dataset_module, "_sample_lines",
                            lambda *block: calls.append(block) or lines(*block))
        ds = make_dataset(seed=4)
        p = tmp_path / "f.ds"
        save_dataset(ds, str(p))
        digest = hashlib.sha256(p.read_bytes()).hexdigest()
        assert dataset_fingerprint(ds) == digest
        assert dataset_fingerprint(ds) == digest
        assert len(calls) == 1
        # An equal dataset that was never saved serializes once, to the
        # same digest.
        twin = make_dataset(seed=4)
        assert dataset_fingerprint(twin) == digest
        assert dataset_fingerprint(twin) == digest
        assert len(calls) == 2

    def test_loaded_fingerprint_is_file_digest(self, tmp_path, monkeypatch):
        import spikegrow.dataset as dataset_module
        p = tmp_path / "l.ds"
        save_dataset(make_dataset(seed=5), str(p))
        monkeypatch.setattr(dataset_module, "_canonical_chunks", lambda ds:
                            pytest.fail("a loaded dataset was serialised"))
        back = load_dataset(str(p))
        assert dataset_fingerprint(back) == hashlib.sha256(
            p.read_bytes()).hexdigest()

    def test_tampered_header_rejected(self, tmp_path):
        ds = make_dataset()
        p = tmp_path / "t.ds"
        save_dataset(ds, str(p))
        lines = p.read_text().splitlines()
        lines[0] = lines[0].replace('"d": 4', '"d": broken')
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError, match="byte 0"):
            load_dataset(str(p))

    def test_version_mismatch_rejected(self, tmp_path):
        ds = make_dataset()
        p = tmp_path / "v.ds"
        save_dataset(ds, str(p))
        text = p.read_text().replace('"format_version": 1', '"format_version": 9')
        p.write_text(text)
        with pytest.raises(DataFormatError, match="version"):
            load_dataset(str(p))

    @pytest.mark.parametrize("n_samples", [10**12, 10**18])
    def test_unallocatable_header_rejected(self, tmp_path, n_samples):
        p = tmp_path / "h.ds"
        save_dataset(make_dataset(d=64, T=25), str(p))
        p.write_bytes(p.read_bytes().replace(
            b'"n_samples": 12', b'"n_samples": %d' % n_samples))
        with pytest.raises(DataFormatError,
                           match="header at byte 0: .* cannot be allocated"):
            load_dataset(str(p))

    def test_truncated_samples_rejected(self, tmp_path):
        ds = make_dataset()
        p = tmp_path / "tr.ds"
        save_dataset(ds, str(p))
        lines = p.read_text().splitlines()
        p.write_text("\n".join(lines[:-2]) + "\n")
        with pytest.raises(DataFormatError, match="truncated"):
            load_dataset(str(p))

    @pytest.mark.parametrize("kept", [0, _BLOCK])
    def test_truncated_at_a_block_boundary_rejected(self, tmp_path, kept):
        ds = make_dataset(n_per_cat=100, n_cats=3, seed=4)
        p = tmp_path / "tb.ds"
        save_dataset(ds, str(p))
        lines = p.read_bytes().splitlines(keepends=True)
        p.write_bytes(b"".join(lines[:1 + kept]))
        with pytest.raises(DataFormatError,
                           match=f"truncated .* found {kept}$"):
            load_dataset(str(p))

    def test_channel_count_mismatch_names_offset(self, tmp_path):
        ds = make_dataset(n_per_cat=1, n_cats=2)
        p = tmp_path / "c.ds"
        save_dataset(ds, str(p))
        lines = p.read_text().splitlines()
        import json
        rec = json.loads(lines[1])
        rec["spikes"] = rec["spikes"][:-1]
        lines[1] = json.dumps(rec, sort_keys=True)
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError, match="byte"):
            load_dataset(str(p))

    def test_canonical_text_is_deterministic(self, tmp_path):
        ds = make_dataset(seed=8)
        a, b = tmp_path / "a.ds", tmp_path / "b.ds"
        save_dataset(ds, str(a))
        save_dataset(ds, str(b))
        assert a.read_bytes() == b.read_bytes() \
            == oracles.dataset_text(ds).encode("ascii")

    def test_row_prefixes_saved_together(self, tmp_path):
        ds = make_dataset(n_per_cat=100, n_cats=3, seed=6)
        parts = [LabeledDataset(ds.spikes[:n], ds.label_index[:n], ds.categories)
                 for n in (0, 1, 255, 256, 257, 299)] + [ds]
        paths = [tmp_path / f"{i}.ds" for i in range(len(parts))]
        digests = write_prefixes(parts, paths)
        for part, path, digest in zip(parts, paths, digests):
            blob = path.read_bytes()
            assert blob == oracles.dataset_text(part).encode("ascii")
            assert digest == hashlib.sha256(blob).hexdigest()

    def test_time_major_dataset_reads_as_row_major(self, tmp_path):
        """`spikes` is the strided (N, d, T) view of the dataset's
        time-major buffer. The dataset fingerprints, saves alone, writes
        with a row prefix, splits and compares to the same bytes and rows
        as the per-line oracle and the copying split of its row-major
        copy."""
        ds = make_dataset(n_per_cat=150, n_cats=3, d=5, T=7, seed=8)
        rows = np.array(ds.spikes, order="C")
        assert ds.spike_tensor() is ds.spikes
        assert not ds.spikes.flags.c_contiguous and len(ds) > _BLOCK
        assert ds.spikes.transpose(2, 0, 1).flags.c_contiguous
        copy = LabeledDataset(rows, ds.label_index, ds.categories)
        text = oracles.dataset_text(copy).encode("ascii")
        assert dataset_fingerprint(ds) == hashlib.sha256(text).hexdigest()
        assert ds == copy and copy == ds
        head = LabeledDataset(ds.spikes[:300], ds.label_index[:300],
                              ds.categories)
        paths = [tmp_path / f"{k}.ds" for k in range(3)]
        save_dataset(ds, str(paths[0]))
        write_prefixes([head, ds], paths[1:])
        assert paths[0].read_bytes() == paths[2].read_bytes() == text
        for a, b in zip(split_train_test(ds, 0.2, 3),
                        oracles.split_rows(copy, 0.2, 3)):
            assert a == b and dataset_fingerprint(a) == dataset_fingerprint(b)


class TestSaveMemory:
    """A save streams each block of lines to its files as it is made: it
    holds no whole-file payload, and gen-data's stages share one
    serialisation of their rows, drawn a block at a time."""

    def test_save_peak_below_file_size(self, tmp_path):
        ds = generate_family(GeneratorConfig(rng_seed=1), [20]).stages[0]
        assert (len(ds), ds.d, ds.T) == (4000, 64, 25)
        p = tmp_path / "s.ds"
        tracemalloc.start()
        try:
            save_dataset(ds, str(p))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 0.57 of the 4.9 MiB file streamed, 2.0 when the file was joined.
        assert peak < 0.75 * p.stat().st_size

    def test_gen_data_peak_below_one_spike_array(self, tmp_path):
        """gen-data draws, serialises and writes one block at a time and
        never holds the family: the whole op peaks below one stage-20 spike
        array (4.3 MiB against 6.1; 9.8 when it generated the family
        first)."""
        tracemalloc.start()
        try:
            assert spikegrow.cli.main(["gen-data", "--out-dir",
                                       str(tmp_path)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4000 * 64 * 25

    @pytest.mark.parametrize("error", [MemoryError(),
                                       OSError(errno.ENOSPC, "No space left")])
    def test_failed_save_leaves_no_temp_file(self, tmp_path, monkeypatch,
                                             error):
        ds = make_dataset(n_per_cat=200, n_cats=3, seed=7)
        parts = [LabeledDataset(ds.spikes[:n], ds.label_index[:n], ds.categories)
                 for n in (100, 300)] + [ds]
        paths = [tmp_path / f"{i}.ds" for i in range(3)]
        paths[2].write_bytes(b"old")
        lines = spikegrow.dataset._sample_lines
        blocks = []

        def failing(spikes, label_index):
            blocks.append(len(spikes))
            if len(blocks) == 2:
                raise error
            return lines(spikes, label_index)

        monkeypatch.setattr(spikegrow.dataset, "_sample_lines", failing)
        with pytest.raises(type(error)) as raised:
            write_prefixes(parts, paths)
        assert blocks == [_BLOCK, _BLOCK]
        if isinstance(error, OSError):
            assert raised.value.filename in [str(p) for p in paths]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["2.ds"]
        assert paths[2].read_bytes() == b"old"

    @pytest.mark.parametrize("error", [MemoryError(),
                                       OSError(errno.ENOSPC, "No space left")])
    def test_failed_gen_data_leaves_no_temp_file(self, tmp_path, monkeypatch,
                                                 capsys, error):
        """gen-data fails on its second block, after the first went to every
        stage file: exit 2, no temp file, no manifest, and a stage file that
        was there keeps its bytes. 32 samples per category make blocks of
        128 and 96 rows."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"generator": {"d": 3, "T": 7, "categories": 7, '
                       '"samples_per_category": 32, "stages": [4, 7]}}')
        out = tmp_path / "out"
        out.mkdir()
        (out / "stage-7.ds").write_bytes(b"old")
        lines = spikegrow.dataset._sample_lines
        blocks = []

        def failing(spikes, label_index):
            blocks.append(len(spikes))
            if len(blocks) == 2:
                raise error
            return lines(spikes, label_index)

        monkeypatch.setattr(spikegrow.dataset, "_sample_lines", failing)
        assert spikegrow.cli.main(["gen-data", "--config", str(cfg),
                                   "--out-dir", str(out)]) == 2
        assert blocks == [_BLOCK, 7 * 32 - _BLOCK]
        err = capsys.readouterr().err
        assert err.startswith(f"error: {type(error).__name__}: ")
        if isinstance(error, OSError):
            assert str(out / "stage-4.ds") in err or str(out / "stage-7.ds") in err
            assert ".tmp-" not in err
        assert sorted(p.name for p in out.iterdir()) == ["stage-7.ds"]
        assert (out / "stage-7.ds").read_bytes() == b"old"


class TestLoadMemory:
    def test_load_peak_below_two_spike_arrays(self, tmp_path):
        """A load holds the spike array it fills and one block's parse and
        re-serialisation temporaries: 2.4 spike arrays with int64 parse
        temporaries, 1.6 with int32 ones dropped as they are read."""
        ds = generate_family(GeneratorConfig(rng_seed=1), [20]).stages[0]
        assert (len(ds), ds.d, ds.T) == (4000, 64, 25)
        p = tmp_path / "l.ds"
        save_dataset(ds, str(p))
        tracemalloc.start()
        try:
            back = load_dataset(str(p))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back == ds
        assert peak < 2 * ds.spikes.nbytes

    def test_lineage_stage_10_load_peak_below_1_7_spike_arrays(self,
                                                               tmp_path):
        """A load parses straight into the dataset's time-major buffer, a
        block of _BLOCK lines at a time: the `lineage` stage-10 file loads
        under 1.7 times its spike array (1.60x; 2.13x with 256-line blocks
        parsed into a row-major array)."""
        ds = generate_family(GeneratorConfig(rng_seed=1), [10]).stages[0]
        p = tmp_path / "stage-10.ds"
        save_dataset(ds, str(p))
        nbytes = ds.spikes.nbytes
        tracemalloc.start()
        try:
            back = load_dataset(str(p))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back == ds and nbytes == 2000 * 64 * 25
        assert peak < 1.7 * nbytes


# Sample lines of a (d, T, m) = (3, 12, 12) file, each loaded as the first,
# the middle and the last of three lines. The first three are canonical.
_LINES = {
    "empty first channel": b'{"label_index": 1, "spikes": [[], [3, 11], [0]]}',
    "empty last channel": b'{"label_index": 11, "spikes": [[2], [3, 11], []]}',
    "every channel empty": b'{"label_index": 10, "spikes": [[], [], []]}',
    "label with a leading zero": b'{"label_index": 01, "spikes": [[2], [3], [4]]}',
    "time with a leading zero": b'{"label_index": 1, "spikes": [[02], [3], [4]]}',
    "19-digit label": b'{"label_index": 1000000000000000001, "spikes": [[], [], []]}',
    "22-digit time": b'{"label_index": 1, "spikes": [[], [1234567890123456789012], []]}',
    "label out of range": b'{"label_index": 12, "spikes": [[2], [3], [4]]}',
    "time out of range": b'{"label_index": 1, "spikes": [[2], [12], [4]]}',
    "d + 1 channels": b'{"label_index": 1, "spikes": [[2], [3], [4], [5]]}',
    "d - 1 channels": b'{"label_index": 1, "spikes": [[2], [3]]}',
    "d - 1 channels, last empty": b'{"label_index": 1, "spikes": [[2], []]}',
    "no label": b'{"label_index": , "spikes": [[2], [3], [4]]}',
    "no label key": b'{"spikes": [[2], [3], [4]]}',
    "no number": b'{"label_index": [], "spikes": [[], [], []]}',
    "empty line": b"",
    "unsorted times": b'{"label_index": 1, "spikes": [[4, 2], [3], [4]]}',
    "no space after a comma": b'{"label_index": 1, "spikes": [[2,4], [3], [4]]}',
}
_CANONICAL = list(_LINES)[:3]


def _case_file(tmp_path, case, ending, at):
    """A file of three canonical lines with line `at` replaced by the case
    and `ending`; returns its path and the byte offset of that line."""
    good = oracles.dataset_text(make_dataset(n_per_cat=1, n_cats=3, d=3, T=12,
                                             seed=3)).encode("ascii").splitlines()
    header = good[0].replace(b'"categories": [0, 1, 2]', b'"categories": [%s]'
                             % b", ".join(b"%d" % c for c in range(12)))
    lines = [line + b"\n" for line in good[1:]]
    lines[at] = _LINES[case] + ending
    p = tmp_path / "case.ds"
    p.write_bytes(header + b"\n" + b"".join(lines))
    return p, len(header) + 1 + sum(map(len, lines[:at]))


@pytest.mark.parametrize("at", [0, 1, 2])
@pytest.mark.parametrize("ending", [b"\n", b"\r\n"], ids=["LF", "CRLF"])
@pytest.mark.parametrize("case", list(_LINES))
def test_parser_cases_match_per_line_reference(tmp_path, case, ending, at):
    """Each line loads as the per-line reference loads it, or both reject
    it at its own byte offset; the lines around it are canonical."""
    p, at_line = _case_file(tmp_path, case, ending, at)
    blob = p.read_bytes()
    if case in _CANONICAL and ending == b"\n":
        ds = load_dataset(str(p))
        assert ds == oracles.load_dataset(str(p))
        save_dataset(ds, str(tmp_path / "saved.ds"))
        assert (tmp_path / "saved.ds").read_bytes() == blob
        return
    with pytest.raises(DataFormatError) as reference:
        oracles.load_dataset(str(p))
    with pytest.raises(DataFormatError) as raised:
        load_dataset(str(p))
    assert _byte_offset(raised.value) == _byte_offset(reference.value) == at_line


@pytest.mark.parametrize("at", [0, 1, 2])
@pytest.mark.parametrize("ending", [b"\n", b"\r\n"], ids=["LF", "CRLF"])
@pytest.mark.parametrize("case", list(_LINES))
def test_eval_reads_each_case_as_the_loader(tmp_path, capsys, case, ending,
                                            at):
    """eval reads a file a block at a time, as it scores it: a file that
    loads gives the report of `evaluate` on the loaded dataset; any other
    exits 3 with the loader's error, naming the same byte offset."""
    p, at_line = _case_file(tmp_path, case, ending, at)
    rng = np.random.default_rng(5)
    net = Network(3, LifParams(), [HiddenNeuron(rng.uniform(-1, 1, 3), 0.5)
                                   for _ in range(3)],
                  rng.normal(size=(3, 12)), list(range(12)))
    save_network(net, str(tmp_path / "n.net"))
    code = spikegrow.cli.main(["eval", "--checkpoint", str(tmp_path / "n.net"),
                               "--dataset", str(p), "--out-report",
                               str(tmp_path / "r.json")])
    err = capsys.readouterr().err
    try:
        ds = load_dataset(str(p))
    except DataFormatError as exc:
        assert (code, err) == (3, f"error: DataFormatError: {exc}\n")
        assert _byte_offset(exc) == at_line
        assert not (tmp_path / "r.json").exists()
        return
    assert code == 0
    assert (tmp_path / "r.json").read_text() == \
        report_to_text(evaluate(net, ds), net.categories)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_mutated_file_round_trips_or_is_rejected(tmp_path_factory, data):
    """Byte edits, insertions, deletions and truncations of a valid file:
    the loader returns a dataset that serialises to exactly the mutated
    bytes, or raises DataFormatError, and never anything else."""
    valid = oracles.dataset_text(make_dataset(n_per_cat=2, n_cats=2, d=3, T=6,
                                              seed=1)).encode("utf-8")
    blob = mutated(data, valid)
    p = tmp_path_factory.getbasetemp() / "mutated.ds"
    p.write_bytes(blob)
    try:
        ds = load_dataset(str(p))
    except DataFormatError as exc:
        # The per-line reference loader rejects it too, at the same line.
        with pytest.raises(DataFormatError) as reference:
            oracles.load_dataset(str(p))
        assert _byte_offset(exc) == _byte_offset(reference.value)
        return
    assert oracles.load_dataset(str(p)) == ds
    assert dataset_fingerprint(ds) == hashlib.sha256(blob).hexdigest()
    saved = p.with_suffix(".saved")
    save_dataset(ds, str(saved))
    assert saved.read_bytes() == bytes(blob)


def _byte_offset(exc: DataFormatError) -> int:
    return int(re.search(r"\bbyte (\d+)\b", str(exc)).group(1))


@settings(max_examples=50, deadline=None)
@given(shape=st.tuples(st.sampled_from([0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1])
                       | st.integers(0, 5),
                       st.integers(1, 12) | st.sampled_from([1000, 1500]))
       | st.tuples(st.integers(0, 3),
                   st.sampled_from([_GROUP, _GROUP + 1, 123457])),
       d=st.integers(1, 4),
       m=st.integers(1, 40),
       density=st.sampled_from([0.0, 0.05, 0.5, 1.0]),
       seed=st.integers(0, 2**32 - 1))
def test_block_codec_matches_per_line_reference(tmp_path_factory, shape, d, m,
                                                density, seed):
    """The block codec writes the reference's bytes and reads them back, on
    files of up to two blocks, long trains (above _GROUP, times are written
    in 4-digit groups), multi-digit labels and rows with an empty and a full
    channel."""
    n, T = shape
    rng = np.random.default_rng(seed)
    spikes = rng.random((n, d, T)) < density
    spikes[np.arange(n), rng.integers(0, d, n)] = False
    spikes[np.arange(n), rng.integers(0, d, n)] = True
    ds = LabeledDataset(spikes, rng.integers(0, m, n), list(range(m)))
    p = tmp_path_factory.getbasetemp() / "codec.ds"
    save_dataset(ds, str(p))
    assert p.read_bytes() == oracles.dataset_text(ds).encode("ascii")
    assert load_dataset(str(p)) == ds


@pytest.mark.parametrize("T", [2, _GROUP, _GROUP + 1, 123457, 10**8 + 7,
                               2**30 - 1])
def test_tokens_spell_each_time(T):
    """Every token, from the table of T <= _GROUP or from 4-digit groups
    above it, up to the largest T a generator setting allows."""
    times = sorted({t for t in (0, 1, 9, 10, 99, 100, 9999, _GROUP, _GROUP + 1,
                                10**5 + 3, 99999999, 10**8, 123456789, T - 1)
                    if t < T})
    ids = np.concatenate([times, [T], T + 1 + np.array(times), [2 * T + 1]])
    rows = _tokens(ids, T).reshape(len(ids), -1)
    tokens = [row[row != 0].tobytes() for row in rows]
    assert tokens == [b"%d" % t for t in times] + [b"], ["] \
        + [b", %d" % t for t in times] + [b"]]}\n"]
