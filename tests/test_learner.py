import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import float_bits, make_dataset
from oracles import spike_count_classifier_accuracy
from test_pinned_growth import RUNS as PINNED_RUNS
from test_pinned_growth import _cfg as pinned_cfg, _splits as pinned_splits
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
    evaluate,
    generate_family,
    load_network,
    one_loop_adapt,
    save_dataset,
    save_network,
    split_train_test,
    train_experienced,
    train_fresh,
)
import spikegrow.learner
import spikegrow.lif
import spikegrow.readout
from spikegrow.cli import main
from spikegrow.dataset import dataset_fingerprint
from spikegrow.learner import (
    _CERT_RTOL,
    STATUS_MAX_HIDDEN,
    STATUS_SATURATED,
    STATUS_TARGET,
    HiddenNeuron,
    Network,
    network_to_bytes,
    unit_features,
)
from spikegrow.lif import batch_rate_features
from spikegrow.readout import (
    GrowingFit,
    fit_output_weights,
    predict_batch,
    residual,
)


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
                        pruning=PruningConfig(pool_size=3))
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

    def test_batched_test_features_match_per_unit(self):
        """Growth computes test features in one batch per eval step; its
        columns equal those of one unit at a time bit for bit."""
        (tr5, te5), _ = nested_splits()
        net, _ = train_fresh(tr5, te5, quick_cfg(max_hidden=60,
                                                 patience=100, rng_seed=8))
        assert net.n_hidden > 10
        tensor = te5.spike_tensor()
        one_by_one = np.column_stack([unit_features([h], [tensor], net.lif)
                                      for h in net.hidden])
        for batch in (5, 7, net.n_hidden):
            batched = np.column_stack([
                unit_features(net.hidden[i:i + batch], [tensor], net.lif)
                for i in range(0, net.n_hidden, batch)])
            assert batched.tobytes() == one_by_one.tobytes()

    def test_best_model_return(self, two_class_family):
        ds = two_class_family.stages[0]
        train, test = split_train_test(ds, 0.2, 7)
        net, trace = train_fresh(train, test, quick_cfg())
        from spikegrow import evaluate
        assert evaluate(net, test).accuracy == pytest.approx(
            max(r.test_accuracy for r in trace.records))


class TestSaturationStep:
    def test_unevaluated_last_step_is_evaluated(self):
        """The pinned saturating run's data and pruning, at rng_seed 3 and
        eval_every=5, stop on step 2, which no eval step measured. That
        step is evaluated before the snapshot is chosen: the run returns its
        2 units, and the last record holds the test accuracy the every-step
        run measured there."""
        [(train, test)] = pinned_splits([4], seed=2, d=2, T=3, categories=4,
                                        samples_per_category=10)
        pruning = PruningConfig(pool_size=20, sigma0=0.95)
        runs = [train_fresh(train, test, pinned_cfg(
            max_hidden=20, patience=100, pruning=pruning, rng_seed=3,
            eval_every=every)) for every in (1, 5)]
        (_, every_step), (net, trace) = runs
        assert trace.status == STATUS_SATURATED and len(trace.records) == 2
        assert net.n_hidden == 2
        assert trace.records[-1].test_accuracy \
            == every_step.records[-1].test_accuracy
        assert trace.best_test_accuracy == trace.records[-1].test_accuracy


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


def lstsq_weights(H, F):
    if H.shape[1] == 0:
        return np.zeros((0, F.shape[1]))
    return fit_output_weights(H, F)


def lstsq_residual(H, F):
    return residual(H, lstsq_weights(H, F), F)


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


def check_test_accuracy(calls, trace, prefix, train, test, eval_every=1):
    """Every evaluated record's test accuracy equals that of lstsq's output
    weights at the record's width; every other record carries the previous
    value. Eval steps are every `eval_every`-th step and the last."""
    grown = [o.selection for _, o in calls if not o.saturated]
    hidden = list(prefix) + [HiddenNeuron(s.winner.w, s.winner.v)
                             for s in grown]

    def features(units, ds):
        return Network(ds.d, LifParams(), units,
                       np.zeros((len(units), ds.n_categories)),
                       ds.categories).features(ds)

    H_train = np.column_stack([features(prefix, train)]
                              + [s.feature[:, None] for s in grown])
    H_test = features(hidden, test)
    F, labels = encode_targets(train), test.label_index

    def accuracy(n):
        beta = lstsq_weights(H_train[:, :n], F)
        return np.mean(predict_batch(H_test[:, :n], beta) == labels)

    assert len(trace.records) == len(grown)
    previous = accuracy(len(prefix))
    for step, rec in enumerate(trace.records, start=1):
        if step % eval_every and step < len(trace.records):
            assert rec.test_accuracy == previous
        else:
            assert rec.test_accuracy == accuracy(rec.neuron_count)
        previous = rec.test_accuracy


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
        original = spikegrow.readout.orthonormal_direction

        def recorded(Q, h, **kwargs):
            directions.append(original(Q, h, **kwargs))
            return directions[-1]

        monkeypatch.setattr(spikegrow.readout, "orthonormal_direction",
                            recorded)
        net, trace = train_experienced(seed, tr10, te10, cfg)
        assert net.hidden[:len(hidden)] == hidden
        # The repeated unit adds no direction; every other unit adds one.
        assert [q is None for q in directions[:len(hidden)]] == \
            [False] * grown.n_hidden + [True]
        assert calls and trace.records
        check_against_lstsq(calls, trace, seed.features(tr10),
                            encode_targets(tr10))
        # The repeated unit makes R miss a column, so every eval step falls
        # back to lstsq, and reads the same test accuracy as it.
        check_test_accuracy(calls, trace, hidden, tr10, te10)

    @pytest.mark.parametrize("stage", [0, 1])
    def test_fresh_test_accuracy_matches_least_squares(self, monkeypatch,
                                                       stage):
        split = nested_splits()[stage]
        calls = record_growth(monkeypatch)
        _, trace = train_fresh(*split, quick_cfg(max_hidden=60, patience=100,
                                                 rng_seed=8))
        assert len(trace.records) > 10
        check_test_accuracy(calls, trace, [], *split)

    def test_experienced_test_accuracy_matches_least_squares(self,
                                                             monkeypatch):
        (tr5, te5), (tr10, te10) = nested_splits()
        cfg = quick_cfg(target_train_accuracy=0.9, max_hidden=150)
        seed, _ = train_fresh(tr5, te5, cfg)
        calls = record_growth(monkeypatch)
        _, trace = train_experienced(seed, tr10, te10, cfg)
        assert seed.n_hidden > 0 and trace.records
        check_test_accuracy(calls, trace, seed.hidden, tr10, te10)

    @pytest.mark.parametrize("kind", ["fresh", "experienced"])
    def test_queued_test_accuracy_matches_least_squares(self, monkeypatch,
                                                        kind):
        """At eval_every=5 an eval step consumes up to five queued columns
        at once, and reads the same test accuracy as lstsq at its width."""
        (tr5, te5), (tr10, te10) = nested_splits()
        prefix = []
        if kind == "experienced":
            seed, _ = train_fresh(tr5, te5, quick_cfg(
                target_train_accuracy=0.9, max_hidden=150))
            assert seed.n_hidden > 1
            prefix = seed.hidden
        calls = record_growth(monkeypatch)
        cfg = quick_cfg(eval_every=5, max_hidden=len(prefix) + 23,
                        patience=100)
        if prefix:
            _, trace = train_experienced(seed, tr10, te10, cfg)
        else:
            _, trace = train_fresh(tr10, te10, cfg)
        assert len(trace.records) > 10
        check_test_accuracy(calls, trace, prefix, tr10, te10, eval_every=5)

    def test_dependent_column_falls_back_to_lstsq(self):
        """A dependent column leaves the residual lstsq's and gets no
        weight: if its test features repeat those of the column it repeats
        (a repeated unit), the test outputs are lstsq's at every width;
        if not, they are lstsq's on the table without it."""
        rng = np.random.default_rng(12)
        H = rng.uniform(0, 1, size=(30, 5))
        H[:, 3] = H[:, 1]
        F = rng.normal(size=(30, 2))
        for repeated in (True, False):
            H_test = rng.uniform(0, 1, size=(10, 5))
            if repeated:
                H_test[:, 3] = H_test[:, 1]
            fit = GrowingFit(F, len(H_test))
            for j in range(5):
                fit.add(H[:, j])
                np.testing.assert_allclose(
                    fit.E, lstsq_residual(H[:, :j + 1], F).E,
                    rtol=0, atol=1e-10)
                cols = [k for k in range(j + 1) if repeated or k != 3]
                np.testing.assert_allclose(
                    fit.test_outputs(H_test[:, j:j + 1]),
                    H_test[:, cols] @ fit_output_weights(H[:, cols], F),
                    rtol=0, atol=1e-10)

    def test_readout_solved_only_on_eval_steps(self, monkeypatch):
        """The count of least-squares solves in a fresh run is the tier-1
        image of the benchmark's `readout.fit_calls`: one per run, for the
        returned snapshot. The fit's queued columns are consumed only at
        the start evaluation and on eval steps; no step refits."""
        _, (tr10, te10) = nested_splits()
        calls, consumed = [], []
        original = spikegrow.learner.fit_output_weights
        test_outputs = GrowingFit.test_outputs

        def counted(H, F):
            calls.append(H.shape[1])
            return original(H, F)

        def counted_outputs(fit, H_new):
            consumed.append((fit.Q.n, H_new.shape[1]))
            return test_outputs(fit, H_new)

        monkeypatch.setattr(spikegrow.learner, "fit_output_weights", counted)
        monkeypatch.setattr(GrowingFit, "test_outputs", counted_outputs)
        net, trace = train_fresh(tr10, te10, quick_cfg(
            eval_every=5, max_hidden=23, patience=100))
        assert trace.status == STATUS_MAX_HIDDEN
        # (width, columns consumed) at the start (empty) evaluation, eval
        # steps 5, 10, 15, 20 and the last (23); one lstsq, at the returned
        # snapshot's width.
        assert consumed == [(0, 0), (5, 5), (10, 5), (15, 5), (20, 5), (23, 3)]
        assert calls == [net.n_hidden]

    @pytest.mark.parametrize("name,growths", [
        ("fresh", 1), ("experienced", 2), ("saturating", 1),
        ("repeated_unit", 2)])
    def test_one_lstsq_per_growth_run(self, name, growths, monkeypatch):
        """On each pinned run, seeds' growths included, lstsq runs once per
        growth run, for its returned snapshot: a run's `readout.fit_calls`
        is its number of growth runs. `repeated_unit` holds a dependent
        column, and it too solves only its snapshot."""
        events = []
        grow = spikegrow.learner._grow
        fit = spikegrow.learner.fit_output_weights

        def counted_grow(*args):
            events.append("grow")
            return grow(*args)

        def counted_fit(H, F):
            events.append("fit")
            return fit(H, F)

        monkeypatch.setattr(spikegrow.learner, "_grow", counted_grow)
        monkeypatch.setattr(spikegrow.learner, "fit_output_weights",
                            counted_fit)
        PINNED_RUNS[name]()
        assert events == ["grow", "fit"] * growths


class TestGrowthProperty:
    """Growth invariants over small random configs: every record's sq_norm
    is the least-squares residual at its width, every step certifies the
    contraction, and the run repeats to the byte. Records' test accuracy
    is left to the tie repro in TestTrainExperienced."""

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(2, 8), T=st.integers(3, 10), m=st.integers(2, 4),
           samples=st.integers(4, 12), separation=st.floats(0.0, 0.9),
           pool_size=st.integers(2, 12), sigma0=st.floats(0.9, 0.999),
           weight_scale=st.sampled_from([0.5, 1.0, 2.0, 4.0]),
           target=st.floats(0.8, 1.0), max_hidden=st.integers(1, 12),
           patience=st.integers(1, 4), eval_every=st.integers(1, 3),
           seed=st.integers(0, 2**16))
    def test_records_are_exact_contracting_and_repeat(
            self, d, T, m, samples, separation, pool_size, sigma0,
            weight_scale, target, max_hidden, patience, eval_every, seed):
        ds = generate_family(GeneratorConfig(
            d=d, T=T, categories=m, samples_per_category=samples,
            separation=separation, rng_seed=seed), [m]).stages[0]
        train, test = split_train_test(ds, 0.25, seed)
        cfg = GrowthConfig(
            target_train_accuracy=target, max_hidden=max_hidden,
            patience=patience, eval_every=eval_every, rng_seed=seed,
            pruning=PruningConfig(pool_size=pool_size,
                                  weight_scale=weight_scale, sigma0=sigma0))
        with pytest.MonkeyPatch.context() as mp:
            calls = record_growth(mp)
            try:
                net, trace = train_fresh(train, test, cfg)
            except DegenerateDataError:
                # The first pool certified no unit; so it does again.
                with pytest.raises(DegenerateDataError):
                    train_fresh(train, test, cfg)
                return
        check_against_lstsq(calls, trace, np.zeros((len(train), 0)),
                            encode_targets(train))
        for (E, _), rec in zip(calls, trace.records):
            prev_sq = float(np.sum(E * E))
            assert rec.sq_norm <= sigma0 * prev_sq * (1 + _CERT_RTOL)
            assert rec.sq_norm < prev_sq
        again, _ = train_fresh(train, test, cfg)
        assert network_to_bytes(again) == network_to_bytes(net)


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
        seed, _ = train_fresh(train, test, quick_cfg(rng_seed=4))
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

    @pytest.mark.parametrize("stop", ["max_hidden", "target"])
    def test_run_adding_no_unit_reports_returned_accuracy(self, stop):
        """A run that stops before adding a unit has no trace records; its
        best test accuracy is the one growth measured for the returned
        network, not 0."""
        (tr5, te5), (tr10, te10) = nested_splits()
        seed, _ = train_fresh(tr5, te5, quick_cfg(target_train_accuracy=0.9,
                                                  max_hidden=30))
        cfg = quick_cfg(max_hidden=seed.n_hidden) if stop == "max_hidden" \
            else quick_cfg(target_train_accuracy=0.01)
        net, trace = train_experienced(seed, tr10, te10, cfg)
        assert trace.records == [] and net.n_hidden == seed.n_hidden
        accuracy = evaluate(net, te10).accuracy
        assert accuracy > 0.0
        assert trace.best_test_accuracy == accuracy

    def test_returned_accuracy_is_the_checkpoints_on_a_tied_output(self):
        """One test row's outputs for categories 1 and 2 tie in exact
        arithmetic: the growing fit keeps the tie (argmax 1), lstsq's
        weights miss it by rounding (argmax 2). The accuracy the run
        returns is the one `evaluate` measures on the network it returns,
        not the fit's."""
        ds = generate_family(GeneratorConfig(
            d=7, T=7, categories=3, samples_per_category=9, separation=0.05,
            rng_seed=4429), [3]).stages[0]
        train, test = split_train_test(ds, 0.25, 4429)
        cfg = GrowthConfig(target_train_accuracy=0.5, max_hidden=4,
                           patience=1, eval_every=2, rng_seed=4429,
                           pruning=PruningConfig(pool_size=9, weight_scale=0.1,
                                                 sigma0=0.99))
        net, trace = train_fresh(train, test, cfg)
        accuracy = evaluate(net, test).accuracy
        assert trace.returned_test_accuracy == accuracy
        assert trace.best_test_accuracy == accuracy
        # The case still reaches the tie: the fit's record reads otherwise.
        assert net.n_hidden == trace.records[-1].neuron_count == 4
        assert trace.records[-1].test_accuracy != accuracy

    def test_growth_reads_both_sets_as_views(self, monkeypatch):
        """The prefix columns, every candidate pool, every test pass and the
        returned snapshot's columns and test accuracy hand the kernel views
        of the one time-major copy of their set: no pass copies a block."""
        (tr5, te5), (tr10, te10) = nested_splits()
        seed, _ = train_fresh(tr5, te5, quick_cfg(target_train_accuracy=0.9,
                                                  max_hidden=30))
        assert seed.n_hidden > 0
        assert tr10.spikes.base is te10.spikes.base  # the split's one buffer
        train_rows, test_rows = [], []
        kernel = spikegrow.lif._lif_raster

        def recorded(xt, *args):
            if np.shares_memory(xt, tr10.spikes):
                train_rows.append(xt.shape[1])
            else:
                assert np.shares_memory(xt, te10.spikes)
                test_rows.append(xt.shape[1])
            return kernel(xt, *args)

        monkeypatch.setattr(spikegrow.lif, "_lif_raster", recorded)
        _, trace = train_experienced(
            seed, tr10, te10, quick_cfg(max_hidden=seed.n_hidden + 5))
        assert trace.status == STATUS_MAX_HIDDEN and len(trace.records) == 5
        for ds in (tr10, te10):
            assert ds.spikes is ds.spike_tensor()
        pools = sum(r.retries_used + 1 for r in trace.records)
        assert len(train_rows) > 2 + pools  # the training set spans blocks
        assert sum(train_rows) == len(tr10) * (2 + pools)
        # The start, five eval steps and the returned snapshot's accuracy.
        assert sum(test_rows) == len(te10) * 7

    @pytest.mark.parametrize("kind", ["fresh", "experienced"])
    def test_growth_leaves_one_array_per_set(self, kind):
        """After growth, the training set and the test set still hold
        their rows in the split's one time-major buffer: `spikes` is the
        tensor, each time step contiguous, with the same rows as before."""
        (tr5, te5), (tr10, te10) = nested_splits()
        cfg = quick_cfg(target_train_accuracy=0.9, max_hidden=30)
        before = [np.array(ds.spikes) for ds in (tr10, te10)]
        if kind == "fresh":
            train_fresh(tr10, te10, cfg)
        else:
            seed, _ = train_fresh(tr5, te5, cfg)
            train_experienced(seed, tr10, te10,
                              quick_cfg(max_hidden=seed.n_hidden + 2))
        for ds, rows in zip((tr10, te10), before):
            assert ds.spikes is ds.spike_tensor()
            assert all(step.flags.c_contiguous
                       for step in ds.spike_tensor().transpose(2, 0, 1))
            assert np.array_equal(ds.spikes, rows)

    def test_one_loop_lineage_without_second_solve(self, monkeypatch):
        """The one-loop step is recorded in the lineage, and its fit of the
        inherited table is growth's initial fit, not a second solve: lstsq
        runs once, for the returned snapshot, so at most once at the
        inherited width."""
        (tr5, te5), (tr10, te10) = nested_splits()
        cfg = quick_cfg(target_train_accuracy=0.9, max_hidden=60,
                        eval_every=5)
        seed, _ = train_fresh(tr5, te5, cfg)
        assert seed.n_hidden > 0
        widths = []
        original = spikegrow.learner.fit_output_weights

        def counted(H, F):
            widths.append(H.shape[1])
            return original(H, F)

        monkeypatch.setattr(spikegrow.learner, "fit_output_weights", counted)
        net, _ = train_experienced(seed, tr10, te10, cfg)
        assert [e["kind"] for e in net.lineage] == [
            "fresh", "one_loop", "experienced"]
        assert net.lineage[1]["fingerprint"] == dataset_fingerprint(tr10)
        assert widths == [net.n_hidden]
        assert widths.count(seed.n_hidden) <= 1

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


class TestExactFeatures:
    """Pool draws lie on a dyadic grid, so every drive is exact and a unit's
    features do not depend on the kernel pass that computes them."""

    @pytest.mark.parametrize("name", PINNED_RUNS)
    def test_growth_features_are_eval_features(self, name, monkeypatch):
        """Every unit a pinned run accepts has, bit for bit, the training
        feature column that `Network.features` computes for it, both in the
        returned network and in one holding every accepted unit."""
        calls = record_growth(monkeypatch)
        datasets = []
        recorded = spikegrow.learner.grow_one

        def seen(E, ds, *args):
            datasets.append(ds)
            return recorded(E, ds, *args)

        monkeypatch.setattr(spikegrow.learner, "grow_one", seen)
        net, trace = PINNED_RUNS[name]()
        train, n0 = datasets[-1], trace.initial_neurons
        grown = [o.selection for _, o in calls if not o.saturated]
        grown = grown[len(grown) - len(trace.records):]
        hidden = net.hidden[:n0] + [HiddenNeuron(s.winner.w, s.winner.v)
                                    for s in grown]
        assert grown and hidden[:net.n_hidden] == net.hidden
        every = Network(net.d, net.lif, hidden,
                        np.zeros((len(hidden), net.m)),
                        net.categories).features(train)
        grown_features = np.column_stack([s.feature for s in grown])
        assert np.array_equal(float_bits(every[:, n0:]),
                              float_bits(grown_features))
        assert np.array_equal(float_bits(net.features(train)),
                              float_bits(every[:, :net.n_hidden]))

    @pytest.mark.parametrize("name", PINNED_RUNS)
    def test_checkpoint_independent_of_kernel_blocks(self, name,
                                                     monkeypatch):
        """A pinned run writes the same checkpoint bytes whatever the
        kernel's block size: CELLS is a memory and speed constant only."""
        blobs = []
        for cells in (8192, 97, 1):
            monkeypatch.setattr(spikegrow.lif, "CELLS", cells)
            blobs.append(network_to_bytes(PINNED_RUNS[name]()[0]))
        assert blobs[1] == blobs[0] and blobs[2] == blobs[0]


class TestSpikeCounts:
    @pytest.mark.parametrize("T", [1, 2, 3, 7, 10, 25, 255, 256, 1000, 65535,
                                   65536])
    def test_counts_rebuild_the_kernels_rates(self, T):
        """The kernel sums spike counts in the smallest unsigned type that
        holds T (uint16 and uint32 above 255), and each rate is its count
        over T: `counts / T` of the raster's int64 sums is the kernel's own
        rate bit for bit."""
        rng = np.random.default_rng(T)
        x = (rng.random((8, 3, T)) < 0.4).astype(np.uint8)
        W, V = rng.uniform(-1, 2, (5, 3)), rng.uniform(-1, 1, 5)
        rates = batch_rate_features(x, W, V, LifParams())
        raster = spikegrow.lif._lif_raster(
            np.ascontiguousarray(x.transpose(2, 0, 1)), W, V, LifParams())
        counts = raster.sum(axis=0, dtype=np.int64)
        assert counts.max() > 255 or T <= 256  # beyond uint8 where it can be
        assert np.array_equal((counts / T).view(np.uint64),
                              rates.view(np.uint64))


class TestMemory:
    def test_growth_peak_below_four_training_sets(self):
        """Above its datasets, a growth run holds one kernel block's
        temporaries, its pool tables and its fit, under 4x the training
        spikes. A float64 training tensor alone takes 8x; with it the run
        peaked at 10.7x."""
        cfg = GeneratorConfig(d=64, T=25, categories=10,
                              samples_per_category=200, rng_seed=1)
        train, test = split_train_test(generate_family(cfg, [10]).stages[0],
                                       0.2, 1)
        assert (len(train), train.d, train.T) == (1600, 64, 25)
        tracemalloc.start()
        try:
            net, _ = train_fresh(train, test, GrowthConfig(
                target_train_accuracy=1.0, max_hidden=4, rng_seed=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert net.n_hidden == 4
        assert peak < 4 * train.spikes.nbytes

    def test_growth_peak_per_sample_and_unit(self):
        """A `capacity`-shaped run (N = 800, d = 32, T = 10, pools of 10) to
        200 units peaks under 32 bytes per (training sample, unit) above
        its datasets. Growth keeps no feature table; the basis Q keeps 8
        bytes a cell. Measured: 3.74 MB; one-byte count tables peaked at
        4.00 MB and float64 ones at 5.98 MB (5.12 MB is the bound)."""
        gen = GeneratorConfig(d=32, T=10, categories=5,
                              samples_per_category=200, separation=0.05,
                              rng_seed=1)
        train, test = split_train_test(generate_family(gen, [5]).stages[0],
                                       0.2, 1)
        units = 200
        tracemalloc.start()
        try:
            _, trace = train_fresh(train, test, GrowthConfig(
                target_train_accuracy=1.0, max_hidden=units, patience=10**5,
                rng_seed=1, pruning=PruningConfig(pool_size=10)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (len(train), trace.final_neurons) == (800, units)
        assert peak < 32 * len(train) * units

    def test_train_exp_peak_below_1_8_spike_arrays(self, tmp_path):
        """A `train-exp` op on `lineage`-shaped inputs (default generator,
        stages [5, 10], 12 units grown fresh, then 12 added) holds its data
        once: the load parses into one time-major buffer, the split
        reorders it in place, and growth reads its two views. The whole op
        peaks below 1.8 times the loaded stage-10 spike array; it read
        1.70x, 2.14x when the split copied rows out of a row-major array
        that growth then converted, and 2.82x when growth kept both
        layouts."""
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "generator": {"rng_seed": 1, "stages": [5, 10]},
            "growth": {"rng_seed": 1, "target_train_accuracy": 1.0,
                       "max_hidden": 12},
            "split": {"seed": 1}}))
        stages = generate_family(GeneratorConfig(rng_seed=1), [5, 10]).stages
        for size, ds in zip([5, 10], stages):
            save_dataset(ds, str(tmp_path / f"stage-{size}.ds"))
        nbytes = stages[-1].spikes.nbytes
        del stages, ds
        common = ["--config", str(config)]
        fresh = str(tmp_path / "fresh.net")
        assert main(["train-fresh", *common,
                     "--dataset", str(tmp_path / "stage-5.ds"),
                     "--out-checkpoint", fresh,
                     "--out-trace", str(tmp_path / "fresh.trace")]) == 0
        cap = load_network(fresh).n_hidden + 12
        tracemalloc.start()
        try:
            assert main(["train-exp", *common, "--seed-checkpoint", fresh,
                         "--dataset", str(tmp_path / "stage-10.ds"),
                         "--out-checkpoint", str(tmp_path / "exp.net"),
                         "--out-trace", str(tmp_path / "exp.trace"),
                         "--max-hidden", str(cap)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert load_network(str(tmp_path / "exp.net")).n_hidden > 12
        assert peak < 1.8 * nbytes
