import numpy as np
import pytest

from conftest import make_dataset
from oracles import spike_count_classifier_accuracy
from spikegrow import (
    ChecksumError,
    ConfigError,
    DataFormatError,
    DegenerateDataError,
    GeneratorConfig,
    GrowthConfig,
    LifParams,
    LineageError,
    PruningConfig,
    encode_targets,
    generate_family,
    load_network,
    one_loop_adapt,
    save_network,
    split_train_test,
    train_experienced,
    train_fresh,
)
import spikegrow.learner
from spikegrow.learner import (
    _CERT_RTOL,
    STATUS_MAX_HIDDEN,
    STATUS_TARGET,
    HiddenNeuron,
    Network,
)
from spikegrow.lif import batch_rate_features
from spikegrow.readout import fit_output_weights, residual


def quick_cfg(**kwargs):
    defaults = dict(target_train_accuracy=1.0, max_hidden=40, eval_every=1,
                    pruning=PruningConfig(pool_size=30), rng_seed=3)
    defaults.update(kwargs)
    return GrowthConfig(**defaults)


def nested_splits(seed=11):
    cfg = GeneratorConfig(d=16, T=25, categories=10, samples_per_category=40,
                          base_rate=0.2, separation=0.7, jitter=0.1,
                          rng_seed=seed)
    s5, s10 = generate_family(cfg, [5, 10]).stages
    return split_train_test(s5, 0.2, seed), split_train_test(s10, 0.2, seed)


class TestTrainFresh:
    def test_single_category_trivial(self):
        ds = make_dataset(n_per_cat=6, n_cats=1)
        train, test = split_train_test(ds, 0.25, 0)
        net, trace = train_fresh(train, test, quick_cfg())
        assert trace.status == STATUS_TARGET
        assert np.all(net.predict_dataset(test) == 0)

    def test_separable_two_class_reaches_target(self, two_class_family):
        ds = two_class_family.stages[0]
        train, test = split_train_test(ds, 0.2, 7)
        # Confirm separability independently before asking the learner.
        assert spike_count_classifier_accuracy(train, train) == 1.0
        net, trace = train_fresh(train, test, quick_cfg())
        assert trace.status == STATUS_TARGET
        assert trace.records[-1].train_accuracy == 1.0
        assert net.n_hidden <= 40

    def test_sq_norm_strictly_decreasing(self, two_class_family):
        ds = two_class_family.stages[0]
        train, test = split_train_test(ds, 0.2, 7)
        _, trace = train_fresh(train, test, quick_cfg())
        sq = [r.sq_norm for r in trace.records]
        assert all(b < a for a, b in zip(sq, sq[1:]))
        start = float(np.sum(encode_targets(train) ** 2))
        assert sq[0] < start

    def test_sigma_bound_per_step(self, two_class_family):
        ds = two_class_family.stages[0]
        train, test = split_train_test(ds, 0.2, 7)
        _, trace = train_fresh(train, test, quick_cfg())
        prev = float(np.sum(encode_targets(train) ** 2))
        for r in trace.records:
            assert r.sq_norm <= r.sigma_used * prev * (1 + 1e-9)
            prev = r.sq_norm

    def test_neuron_count_increments_by_one(self, two_class_family):
        ds = two_class_family.stages[0]
        train, test = split_train_test(ds, 0.2, 7)
        _, trace = train_fresh(train, test, quick_cfg())
        counts = [r.neuron_count for r in trace.records]
        assert counts == list(range(1, len(counts) + 1))

    def test_seed_determinism(self, two_class_family):
        ds = two_class_family.stages[0]
        train, test = split_train_test(ds, 0.2, 7)
        n1, t1 = train_fresh(train, test, quick_cfg())
        n2, t2 = train_fresh(train, test, quick_cfg())
        assert n1 == n2
        assert [r.sq_norm for r in t1.records] == [r.sq_norm for r in t2.records]

    def test_thread_count_does_not_change_result(self, two_class_family):
        # The batched feature table equals the per-unit single-neuron
        # columns, so a network's features do not depend on how its units
        # are grouped.
        ds = two_class_family.stages[0]
        train, test = split_train_test(ds, 0.2, 7)
        net, _ = train_fresh(train, test, quick_cfg())
        assert net.n_hidden > 1
        H = net.features(test)
        tensor = test.spike_tensor()
        for j, h in enumerate(net.hidden):
            column = batch_rate_features(tensor, h.w, h.v, net.lif)
            assert np.array_equal(H[:, j], column)

    def test_degenerate_data_raises(self):
        ds = make_dataset(n_per_cat=3, n_cats=2, d=3, T=6)
        train, test = split_train_test(ds, 0.34, 0)
        cfg = quick_cfg(lif=LifParams(theta=1e9),
                        pruning=PruningConfig(pool_size=3, sigma_relax_steps=1))
        with pytest.raises(DegenerateDataError):
            train_fresh(train, test, cfg)

    def test_category_mismatch_rejected(self):
        a = make_dataset(n_per_cat=4, n_cats=2)
        b = make_dataset(n_per_cat=4, n_cats=3)
        with pytest.raises(ConfigError):
            train_fresh(a, b, quick_cfg())

    def test_max_hidden_respected(self, two_class_family):
        ds = two_class_family.stages[0]
        train, test = split_train_test(ds, 0.2, 7)
        net, _ = train_fresh(train, test, quick_cfg(max_hidden=1))
        assert net.n_hidden <= 1

    def test_best_model_return(self, two_class_family):
        ds = two_class_family.stages[0]
        train, test = split_train_test(ds, 0.2, 7)
        net, trace = train_fresh(train, test, quick_cfg())
        from spikegrow import evaluate
        assert evaluate(net, test).accuracy == pytest.approx(
            max(r.test_accuracy for r in trace.records))


def record_growth(monkeypatch):
    """Wrap the learner's `grow_one`; returns the list of (E, outcome) pairs
    it saw, E copied at the call."""
    calls = []
    original = spikegrow.learner.grow_one

    def wrapped(E, *args, **kwargs):
        outcome = original(E, *args, **kwargs)
        calls.append((np.array(E, copy=True), outcome))
        return outcome

    monkeypatch.setattr(spikegrow.learner, "grow_one", wrapped)
    return calls


def lstsq_residual(H, F):
    if H.shape[1] == 0:
        return residual(H, np.zeros((0, F.shape[1])), F)
    return residual(H, fit_output_weights(H, F), F)


def check_against_lstsq(calls, trace, H_prefix, F):
    """Every residual the growth loop used or recorded equals the
    least-squares residual of the feature table at that step."""
    grown = [o.selection.feature for _, o in calls if not o.saturated]
    H = np.column_stack([H_prefix] + [h[:, None] for h in grown])
    n0 = H_prefix.shape[1]
    for k, (E, _) in enumerate(calls):
        np.testing.assert_allclose(E, lstsq_residual(H[:, :n0 + k], F).E,
                                   rtol=0, atol=1e-9)
    assert len(trace.records) == len(grown)
    for rec in trace.records:
        expected = lstsq_residual(H[:, :rec.neuron_count], F).sq_norm
        assert rec.sq_norm == pytest.approx(expected, rel=1e-9)


class TestIncrementalResidual:
    def test_equals_least_squares_residual(self, monkeypatch,
                                           two_class_family):
        ds = two_class_family.stages[0]
        train, test = split_train_test(ds, 0.2, 7)
        calls = record_growth(monkeypatch)
        _, trace = train_fresh(train, test, quick_cfg(eval_every=1))
        assert len(trace.records) > 1
        F = encode_targets(train)
        check_against_lstsq(calls, trace, np.zeros((len(train), 0)), F)

    def test_realised_gain_at_least_certified(self, monkeypatch):
        _, (tr10, te10) = nested_splits()
        calls = record_growth(monkeypatch)
        _, trace = train_fresh(tr10, te10, quick_cfg(max_hidden=60,
                                                     patience=100))
        assert len(trace.records) > 10
        for (E, outcome), rec in zip(calls, trace.records):
            prev_sq = float(np.sum(E * E))
            certified = outcome.selection.error_gain
            assert prev_sq - rec.sq_norm >= certified * (1 - _CERT_RTOL)

    def test_repeated_seed_unit_matches_least_squares(self, monkeypatch):
        (tr5, te5), (tr10, te10) = nested_splits()
        cfg = quick_cfg(target_train_accuracy=0.9, max_hidden=150)
        grown, _ = train_fresh(tr5, te5, cfg)
        hidden = grown.hidden + [grown.hidden[0]]
        H5 = Network(grown.d, grown.lif, hidden,
                     np.zeros((len(hidden), grown.m)), grown.categories
                     ).features(tr5)
        seed = Network(grown.d, grown.lif, hidden,
                       fit_output_weights(H5, encode_targets(tr5)),
                       grown.categories, lineage=grown.lineage)
        calls = record_growth(monkeypatch)
        directions = []
        original = spikegrow.learner.orthonormal_direction

        def recorded(Q, h):
            directions.append(original(Q, h))
            return directions[-1]

        monkeypatch.setattr(spikegrow.learner, "orthonormal_direction",
                            recorded)
        net, trace = train_experienced(seed, tr10, te10, cfg)
        assert net.hidden[:len(hidden)] == hidden
        # The repeated unit adds no direction; every other unit adds one.
        assert [q is None for q in directions[:len(hidden)]] == \
            [False] * grown.n_hidden + [True]
        assert calls and trace.records
        check_against_lstsq(calls, trace, seed.features(tr10),
                            encode_targets(tr10))

    def test_readout_solved_only_on_eval_steps(self, monkeypatch):
        """The count of least-squares solves in a fresh run is the tier-1
        image of the benchmark's `readout.fit_calls`: one per eval step
        plus the refit of the returned snapshot, never one per step."""
        _, (tr10, te10) = nested_splits()
        calls = []
        original = spikegrow.learner.fit_output_weights

        def counted(H, F):
            calls.append(H.shape[1])
            return original(H, F)

        monkeypatch.setattr(spikegrow.learner, "fit_output_weights", counted)
        _, trace = train_fresh(tr10, te10, quick_cfg(
            eval_every=5, max_hidden=23, patience=100))
        assert trace.status == STATUS_MAX_HIDDEN
        # Eval steps 5, 10, 15, 20 and the last (23), then the snapshot.
        assert calls[:5] == [5, 10, 15, 20, 23]
        assert len(calls) == 6


class TestOneLoopAdapt:
    def test_same_data_is_identity_on_predictions(self, two_class_family):
        ds = two_class_family.stages[0]
        train, test = split_train_test(ds, 0.2, 7)
        seed, _ = train_fresh(train, test, quick_cfg())
        adapted = one_loop_adapt(seed, train)
        assert adapted.n_hidden == seed.n_hidden
        assert np.array_equal(adapted.predict_dataset(train),
                              seed.predict_dataset(train))

    def test_output_layer_expands(self):
        (tr5, te5), (tr10, te10) = nested_splits()
        seed, _ = train_fresh(tr5, te5, quick_cfg(target_train_accuracy=0.9,
                                                  max_hidden=150))
        adapted = one_loop_adapt(seed, tr10)
        assert adapted.beta.shape == (seed.n_hidden, 10)
        assert adapted.frozen_prefix == seed.n_hidden

    def test_better_than_chance_on_enlarged(self):
        accs = []
        for seed_val in range(5):
            (tr5, te5), (tr10, te10) = nested_splits(seed_val + 20)
            seed, _ = train_fresh(tr5, te5, quick_cfg(
                target_train_accuracy=0.9, max_hidden=150, rng_seed=seed_val))
            adapted = one_loop_adapt(seed, tr10)
            from spikegrow import evaluate
            accs.append(evaluate(adapted, te10).accuracy)
        assert all(a > 0.2 for a in accs)  # 2x the 10-way chance level

    def test_lineage_violation_rejected(self):
        ds = make_dataset(n_per_cat=4, n_cats=2)
        train, test = split_train_test(ds, 0.25, 0)
        seed, _ = train_fresh(train, test, quick_cfg())
        other = make_dataset(n_per_cat=4, n_cats=3, d=6)
        with pytest.raises(LineageError):
            one_loop_adapt(seed, other)


class TestTrainExperienced:
    def test_target_met_after_one_loop_adds_nothing(self, two_class_family):
        ds = two_class_family.stages[0]
        train, test = split_train_test(ds, 0.2, 7)
        seed, _ = train_fresh(train, test, quick_cfg())
        net, trace = train_experienced(seed, train, test, quick_cfg())
        assert trace.status == STATUS_TARGET
        assert trace.added_neurons == 0
        assert net.n_hidden == seed.n_hidden

    def test_frozen_prefix_bit_identical(self):
        (tr5, te5), (tr10, te10) = nested_splits()
        cfg = quick_cfg(target_train_accuracy=0.9, max_hidden=150)
        seed, _ = train_fresh(tr5, te5, cfg)
        net, _ = train_experienced(seed, tr10, te10, cfg)
        assert net.frozen_prefix == seed.n_hidden
        for a, b in zip(seed.hidden, net.hidden):
            assert np.array_equal(a.w, b.w) and a.v == b.v

    def test_trace_starts_at_seed_count(self):
        (tr5, te5), (tr10, te10) = nested_splits()
        cfg = quick_cfg(target_train_accuracy=0.9, max_hidden=150)
        seed, _ = train_fresh(tr5, te5, cfg)
        _, trace = train_experienced(seed, tr10, te10, cfg)
        assert trace.initial_neurons == seed.n_hidden
        if trace.records:
            assert trace.records[0].neuron_count == seed.n_hidden + 1

    def test_chained_freeze_transitivity(self):
        cfg_gen = GeneratorConfig(d=12, T=20, categories=9,
                                  samples_per_category=20, base_rate=0.2,
                                  separation=0.8, jitter=0.05, rng_seed=31)
        s3, s6, s9 = generate_family(cfg_gen, [3, 6, 9]).stages
        cfg = quick_cfg(target_train_accuracy=0.9, max_hidden=120)
        tr3, te3 = split_train_test(s3, 0.25, 1)
        tr6, te6 = split_train_test(s6, 0.25, 1)
        tr9, te9 = split_train_test(s9, 0.25, 1)
        n3, _ = train_fresh(tr3, te3, cfg)
        n6, _ = train_experienced(n3, tr6, te6, cfg)
        n9, _ = train_experienced(n6, tr9, te9, cfg)
        for a, b in zip(n3.hidden, n6.hidden):
            assert a == b
        for a, b in zip(n6.hidden, n9.hidden):
            assert a == b


class TestCheckpointRoundTrip:
    def _net(self, n=3, d=4, m=2, seed=0):
        rng = np.random.default_rng(seed)
        hidden = [HiddenNeuron(rng.normal(size=d), float(rng.normal()))
                  for _ in range(n)]
        H = rng.uniform(0, 1, (8, n))
        F = np.zeros((8, m))
        F[np.arange(8), rng.integers(0, m, 8)] = 1.0
        beta = fit_output_weights(H, F)
        return Network(d, LifParams(), hidden, beta, list(range(m)),
                       frozen_prefix=1,
                       lineage=[{"kind": "fresh", "fingerprint": "x",
                                 "n_hidden_before": 0, "n_hidden_after": n,
                                 "status": "TargetReached"}])

    def test_round_trip_equality(self, tmp_path):
        net = self._net()
        p = tmp_path / "n.net"
        save_network(net, str(p))
        assert load_network(str(p)) == net

    def test_round_trip_predictions(self, tmp_path, two_class_family):
        ds = two_class_family.stages[0]
        train, test = split_train_test(ds, 0.2, 7)
        net, _ = train_fresh(train, test, quick_cfg())
        p = tmp_path / "n.net"
        save_network(net, str(p))
        back = load_network(str(p))
        assert np.array_equal(back.predict_dataset(ds), net.predict_dataset(ds))

    def test_corrupted_weights_detected(self, tmp_path):
        net = self._net()
        p = tmp_path / "c.net"
        save_network(net, str(p))
        blob = bytearray(p.read_bytes())
        blob[-40] ^= 0xFF  # inside the beta payload, before its checksum
        p.write_bytes(bytes(blob))
        with pytest.raises(ChecksumError):
            load_network(str(p))

    def test_truncated_file_detected(self, tmp_path):
        net = self._net()
        p = tmp_path / "t.net"
        save_network(net, str(p))
        p.write_bytes(p.read_bytes()[:-10])
        with pytest.raises(DataFormatError):
            load_network(str(p))

    def test_bad_magic_detected(self, tmp_path):
        p = tmp_path / "m.net"
        p.write_bytes(b"NOT-A-CHECKPOINT" * 4)
        with pytest.raises(DataFormatError):
            load_network(str(p))
