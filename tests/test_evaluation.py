import tracemalloc

import numpy as np
import pytest

from conftest import make_dataset
from spikegrow import (
    ConfigError,
    GeneratorConfig,
    GrowthConfig,
    LabeledDataset,
    LifParams,
    LineageError,
    PruningConfig,
    compare_runs,
    evaluate,
    export_trace,
    generate_family,
    load_trace,
    save_dataset,
    space_complexity,
    split_train_test,
    train_fresh,
)
from spikegrow.cli import main
from spikegrow.evaluation import comparison_to_text, trace_to_text
from spikegrow.learner import (
    HiddenNeuron,
    Network,
    TraceRecord,
    TrainingTrace,
    save_network,
)
from spikegrow.lif import CELLS


def trained_pair(two_class_family):
    ds = two_class_family.stages[0]
    train, test = split_train_test(ds, 0.2, 7)
    cfg = GrowthConfig(target_train_accuracy=1.0, max_hidden=40, eval_every=1,
                       pruning=PruningConfig(pool_size=30), rng_seed=4)
    net, trace = train_fresh(train, test, cfg)
    return net, trace, train, test


def make_trace(n, status, initial=0, elapsed_step=1.0, acc=0.9):
    records = [TraceRecord(neuron_count=initial + k + 1, sq_norm=10.0 / (k + 1),
                           train_accuracy=acc, test_accuracy=acc,
                           elapsed_seconds=elapsed_step * (k + 1),
                           sigma_used=0.999, retries_used=0)
               for k in range(n)]
    return TrainingTrace(records=records, status=status,
                         initial_neurons=initial)


class TestEvaluate:
    def test_perfect_fit_diagonal_confusion(self, two_class_family):
        net, _, train, _ = trained_pair(two_class_family)
        report = evaluate(net, train)
        assert report.accuracy == 1.0
        assert np.all(report.confusion == np.diag(np.diag(report.confusion)))

    def test_confusion_conservation(self, two_class_family):
        net, _, _, test = trained_pair(two_class_family)
        report = evaluate(net, test)
        assert report.confusion.sum() == len(test)
        assert 0.0 <= report.accuracy <= 1.0
        truth = test.label_index
        for q in range(net.m):
            assert report.confusion[q].sum() == int(np.sum(truth == q))

    def test_constant_network_chance_level(self):
        ds = make_dataset(n_per_cat=5, n_cats=4)
        # One silent hidden unit: every output is 0, argmax picks category 0.
        net = Network(ds.d, LifParams(), [HiddenNeuron(np.zeros(ds.d), 0.0)],
                      np.zeros((1, 4)), ds.categories)
        report = evaluate(net, ds)
        assert report.accuracy == pytest.approx(0.25)

    def test_accuracy_matches_prediction_recount(self, two_class_family):
        net, _, _, test = trained_pair(two_class_family)
        report = evaluate(net, test)
        recount = np.mean(report.predictions == test.label_index)
        assert report.accuracy == pytest.approx(float(recount))

    def test_incompatible_dataset_rejected(self, two_class_family):
        net, _, _, _ = trained_pair(two_class_family)
        other = make_dataset(d=net.d + 1)
        with pytest.raises(LineageError):
            evaluate(net, other)

    def test_repeat_evaluation_identical(self, two_class_family):
        net, _, _, test = trained_pair(two_class_family)
        a, b = evaluate(net, test), evaluate(net, test)
        assert a.accuracy == b.accuracy
        assert np.array_equal(a.confusion, b.confusion)


class TestSpaceComplexity:
    def test_arithmetic(self):
        net = Network(3, LifParams(),
                      [HiddenNeuron(np.zeros(3), 0.0),
                       HiddenNeuron(np.ones(3), 1.0)],
                      np.zeros((2, 2)), [0, 1])
        assert space_complexity(net) == 2 * 4 + 2 * 2

    def test_empty_network(self):
        net = Network(3, LifParams(), [], np.zeros((0, 2)), [0, 1])
        assert space_complexity(net) == 0

    def test_monotone_in_n(self):
        counts = []
        for n in range(4):
            hidden = [HiddenNeuron(np.zeros(5), 0.0) for _ in range(n)]
            net = Network(5, LifParams(), hidden, np.zeros((n, 3)), [0, 1, 2])
            counts.append(space_complexity(net))
        assert counts == sorted(counts) and len(set(counts)) == 4

    def test_matches_serialized_weight_count(self, tmp_path, two_class_family):
        from spikegrow import load_network, save_network
        net, _, _, _ = trained_pair(two_class_family)
        p = tmp_path / "n.net"
        save_network(net, str(p))
        back = load_network(str(p))
        serialized = sum(h.w.size + 1 for h in back.hidden) + back.beta.size
        assert space_complexity(net) == serialized


class TestExportTrace:
    def test_structured_round_trip(self, tmp_path):
        trace = make_trace(5, "Patience", initial=2)
        p = tmp_path / "t.json"
        export_trace(trace, str(p))
        back = load_trace(str(p))
        assert back.records == trace.records
        assert back.status == trace.status
        assert back.initial_neurons == trace.initial_neurons

    def test_byte_deterministic(self):
        trace = make_trace(4, "MaxHidden")
        assert trace_to_text(trace) == trace_to_text(trace)


class TestCompareRuns:
    def test_single_run(self):
        report = compare_runs([("only", make_trace(2, "TargetReached"))])
        assert len(report.rows) == 1
        assert report.rows[0].label == "only"
        assert report.fastest_to_target == "only"

    def test_added_neurons(self):
        report = compare_runs([("exp", make_trace(3, "TargetReached",
                                                  initial=10))])
        assert report.rows[0].added_neurons == 3
        assert report.rows[0].n_hidden == 13

    def test_sorted_by_elapsed(self):
        slow = make_trace(4, "TargetReached", elapsed_step=2.0)
        fast = make_trace(2, "TargetReached", elapsed_step=0.5)
        report = compare_runs([("slow", slow), ("fast", fast)])
        assert [r.label for r in report.rows] == ["fast", "slow"]
        assert report.fastest_to_target == "fast"

    def test_no_target_reached(self):
        report = compare_runs([("a", make_trace(2, "MaxHidden"))])
        assert report.fastest_to_target is None

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            compare_runs([])

    def test_text_rendering(self):
        report = compare_runs([("r", make_trace(1, "TargetReached"))])
        text = comparison_to_text(report)
        assert text.splitlines()[0].startswith("label,accuracy")
        assert ",yes" in text


class TestMemory:
    """A pass runs the kernel on a dataset's uint8 spikes, a block of rows
    at a time, and never holds a float64 copy of them; a dataset's one
    time-major buffer is what its pools and eval steps re-read."""

    @staticmethod
    def evaluate_peak(N):
        """The dataset and evaluate's tracemalloc peak for a 50-unit
        network on N samples of 64 x 25."""
        cfg = GeneratorConfig(d=64, T=25, categories=5,
                              samples_per_category=N // 5, rng_seed=1)
        ds = generate_family(cfg, [5]).stages[0]
        assert (len(ds), ds.d, ds.T) == (N, 64, 25)
        rng = np.random.default_rng(2)
        hidden = [HiddenNeuron(rng.uniform(-1, 1, ds.d), float(rng.uniform(-1, 1)))
                  for _ in range(50)]
        net = Network(ds.d, LifParams(), hidden,
                      rng.normal(size=(50, ds.n_categories)), ds.categories)
        spikes = ds.spikes
        tracemalloc.start()
        try:
            report = evaluate(net, ds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.n_hidden == 50
        assert ds.spikes is spikes
        return ds, peak

    def test_evaluate_peak_below_one_float_copy(self):
        """Above the (N, n) float64 feature table, evaluate's peak does not
        grow with N by as much as one kernel block's temporaries: the uint8
        block, its float64 step cast, five (rows, P) float64 state arrays
        and the (T, rows, P) raster. The whole-batch kernel took 10 MB more
        at N = 4000 than at N = 1000."""
        P, d, T = 50, 64, 25
        rows = max(1, CELLS // P)
        block = rows * (d * T + 8 * d + P * (T + 5 * 8))
        above = {}
        for N in (1000, 4000):
            ds, peak = self.evaluate_peak(N)
            assert peak < ds.spikes.size * 8
            above[N] = peak - N * P * 8
        assert abs(above[4000] - above[1000]) < block

    def test_eval_peak_below_one_spike_array(self, tmp_path):
        """eval on stage-20 reads, verifies and scores one block of rows at
        a time and never holds the dataset: with a 50-unit network the
        whole op peaks below one stage-20 spike array (3.8 MiB against 6.1;
        9.9 when it loaded the file first). A network of fewer than
        `lif.FEW_NEURONS` units, down to none, is read in blocks of 1024
        rows, not of more rows than the file holds (3.5 MiB; 8.1 at no
        units and 8.4 at one when it held the whole file)."""
        ds = generate_family(GeneratorConfig(rng_seed=1), [20]).stages[0]
        assert (len(ds), ds.d, ds.T) == (4000, 64, 25)
        save_dataset(ds, str(tmp_path / "stage-20.ds"))
        nbytes = ds.spikes.nbytes
        rng = np.random.default_rng(2)
        for n_hidden in (50, 0, 1):
            hidden = [HiddenNeuron(rng.uniform(-1, 1, ds.d),
                                   float(rng.uniform(-1, 1)))
                      for _ in range(n_hidden)]
            save_network(Network(ds.d, LifParams(), hidden,
                                 rng.normal(size=(n_hidden, ds.n_categories)),
                                 ds.categories), str(tmp_path / "n.net"))
            tracemalloc.start()
            try:
                assert main(["eval", "--checkpoint", str(tmp_path / "n.net"),
                             "--dataset", str(tmp_path / "stage-20.ds"),
                             "--out-report", str(tmp_path / "r.json")]) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < nbytes, n_hidden

    def test_growth_holds_one_copy_of_each_set(self, two_class_family):
        """Growth's sets are the split's two views of one time-major
        buffer, each time step contiguous, and growth leaves them so;
        evaluate converts nothing."""
        net, _, train, test = trained_pair(two_class_family)
        for ds in (train, test):
            assert ds.spikes is ds.spike_tensor()
            assert ds.spikes.base is train.spikes.base
            assert all(step.flags.c_contiguous
                       for step in ds.spikes.transpose(2, 0, 1))
        rows = LabeledDataset(np.array(test.spikes, order="C"),
                              test.label_index, test.categories)
        spikes = rows.spikes
        report = evaluate(net, rows)
        assert rows.spikes is spikes
        assert report.predictions.tobytes() == \
            evaluate(net, test).predictions.tobytes()
