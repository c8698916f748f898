import hashlib
import re

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
    ShapeError,
    encode_targets,
    generate_family,
    load_dataset,
    save_dataset,
    split_train_test,
)
from spikegrow.dataset import _BLOCK, dataset_fingerprint, dataset_to_text


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

    def test_columns_are_read_only(self, tiny_dataset):
        with pytest.raises(ValueError):
            tiny_dataset.spikes[0, 0, 0] = 1
        with pytest.raises(ValueError):
            tiny_dataset.label_indices()[0] = 1

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
        assert [_sha(dataset_to_text(s)) for s in fam.stages] == [
            "55cf5524bd853f95def6f86e835a3da215fed853fb5580ae81e041f0179de475",
            "c0033013d982052f9ab01d4f4bf9001fb1acb9fbaba6d439b33221172644fa2e",
        ]

    def test_split(self):
        ds = generate_family(self.CFG, [2, 4]).stages[1]
        train, test = split_train_test(ds, 0.3, 7)
        assert (len(train), len(test)) == (12, 8)
        assert _sha(dataset_to_text(train)) == \
            "60aea41366fd712aff0ff478099f39f24b48fd6129c9f65e6425cb0d775fae0d"
        assert _sha(dataset_to_text(test)) == \
            "89e97e7e90baf7e8ff29bc487035d8b685cc15daf1e8739ca3aa7166b00a2e3f"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


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
        assert sorted(stage.label_indices().tolist()) == [0, 1, 2, 3, 4]

    def test_nesting_is_literal_membership(self):
        cfg = GeneratorConfig(d=6, T=8, categories=6, samples_per_category=3,
                              rng_seed=4)
        fam = generate_family(cfg, [2, 4, 6])
        for a, b in zip(fam.stages, fam.stages[1:]):
            assert np.array_equal(b.spikes[: len(a)], a.spikes)
            assert np.array_equal(b.label_indices()[: len(a)], a.label_indices())
            assert np.shares_memory(a.spikes, b.spikes)  # a view, not a copy

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
        cfg = GeneratorConfig(d=3, T=4, categories=2, samples_per_category=2,
                              base_rate=0.6, separation=0.9)
        with pytest.raises(ConfigError):
            generate_family(cfg, [2])

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
            assert np.sum(train.label_indices() == i) == 8
            assert np.sum(test.label_indices() == i) == 2

    def test_deterministic(self):
        ds = make_dataset(n_per_cat=6, n_cats=2)
        a = split_train_test(ds, 0.3, 42)
        b = split_train_test(ds, 0.3, 42)
        assert a[0] == b[0] and a[1] == b[1]

    def test_union_and_disjointness(self):
        ds = make_dataset(n_per_cat=7, n_cats=3, seed=9)
        train, test = split_train_test(ds, 0.3, 5)
        # Train and test rows, as (block, label) pairs, partition the rows.
        rows = lambda d: sorted(zip(map(bytes, d.spikes),
                                    d.label_indices().tolist()))
        assert rows(ds) == sorted(rows(train) + rows(test))

    def test_small_category_rejected(self):
        ds = make_dataset(n_per_cat=1, n_cats=2)
        with pytest.raises(ConfigError):
            split_train_test(ds, 0.5, 0)

    def test_bad_fraction_rejected(self):
        ds = make_dataset()
        with pytest.raises(ConfigError):
            split_train_test(ds, 1.0, 0)


class TestEncodeTargets:
    def test_one_hot_rows(self, tiny_dataset):
        F = encode_targets(tiny_dataset)
        assert F.shape == (len(tiny_dataset), 3)
        assert np.all(F.sum(axis=1) == 1.0)
        assert set(np.unique(F)) <= {0.0, 1.0}

    def test_row_matches_label(self, tiny_dataset):
        F = encode_targets(tiny_dataset)
        idx = tiny_dataset.label_indices()
        assert np.all(F[np.arange(len(F)), idx] == 1.0)

    def test_column_sums_are_category_counts(self, tiny_dataset):
        F = encode_targets(tiny_dataset)
        counts = np.bincount(tiny_dataset.label_indices()).tolist()
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
        import spikegrow.dataset as dataset_module
        calls = []
        chunks = dataset_module._canonical_chunks
        monkeypatch.setattr(dataset_module, "_canonical_chunks",
                            lambda ds: calls.append(ds) or chunks(ds))
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
        for name in ("dataset_to_text", "_canonical_chunks"):
            monkeypatch.setattr(dataset_module, name, lambda ds:
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

    def test_canonical_text_is_deterministic(self):
        ds = make_dataset(seed=8)
        assert dataset_to_text(ds) == dataset_to_text(ds)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_mutated_file_round_trips_or_is_rejected(tmp_path_factory, data):
    """Byte edits, insertions, deletions and truncations of a valid file:
    the loader returns a dataset that serialises to exactly the mutated
    bytes, or raises DataFormatError, and never anything else."""
    valid = dataset_to_text(make_dataset(n_per_cat=2, n_cats=2, d=3, T=6,
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
    assert dataset_to_text(ds).encode("utf-8") == bytes(blob)
    assert dataset_fingerprint(ds) == hashlib.sha256(blob).hexdigest()


def _byte_offset(exc: DataFormatError) -> int:
    return int(re.search(r"\bbyte (\d+)\b", str(exc)).group(1))


@settings(max_examples=50, deadline=None)
@given(n=st.sampled_from([0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1]) | st.integers(0, 5),
       d=st.integers(1, 4),
       T=st.integers(1, 12) | st.sampled_from([1000, 1500]),
       m=st.integers(1, 40),
       density=st.sampled_from([0.0, 0.05, 0.5, 1.0]),
       seed=st.integers(0, 2**32 - 1))
def test_block_codec_matches_per_line_reference(tmp_path_factory, n, d, T, m,
                                                density, seed):
    """The block codec writes the reference's bytes and reads them back, on
    files of up to two blocks, long trains, multi-digit labels and rows with
    an empty and a full channel."""
    rng = np.random.default_rng(seed)
    spikes = rng.random((n, d, T)) < density
    spikes[np.arange(n), rng.integers(0, d, n)] = False
    spikes[np.arange(n), rng.integers(0, d, n)] = True
    ds = LabeledDataset(spikes, rng.integers(0, m, n), list(range(m)))
    text = dataset_to_text(ds)
    assert text == oracles.dataset_text(ds)
    p = tmp_path_factory.getbasetemp() / "codec.ds"
    p.write_text(text)
    assert load_dataset(str(p)) == ds
