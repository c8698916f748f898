import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import lif_unroll
from spikegrow import (
    GeneratorConfig,
    LifParams,
    ShapeError,
    SpikeTrain,
    generate_family,
)
import spikegrow.lif
from spikegrow.lif import (
    CELLS,
    batch_rate_features,
    simulate_neuron,
)

PARAMS = LifParams(dt=1.0, tau_syn=5.0, tau_mem=10.0, theta=1.0)


class TestLifParams:
    def test_decay_factors_in_unit_interval(self):
        assert 0.0 < PARAMS.syn_decay < 1.0
        assert 0.0 < PARAMS.mem_decay < 1.0

    @pytest.mark.parametrize("kwargs", [
        {"dt": 0.0}, {"dt": -1.0}, {"tau_syn": 0.0}, {"tau_mem": -2.0},
        {"theta": 0.0},
    ])
    def test_invalid_params_rejected(self, kwargs):
        with pytest.raises(ValueError):
            LifParams(**kwargs)


class TestLifStep:
    """The recurrence's step rules, seen on the spikes of one channel."""

    def test_zero_fixed_point(self):
        out = simulate_neuron(np.zeros((1, 8)), [1.0], 1.0, PARAMS)
        assert out.bits.tolist() == [0] * 8

    def test_current_decays_geometrically(self):
        """A pulse of weight w at t = 0 leaves the current w * a_s**t, so
        the membrane is w * (a_m**t - a_s**t) / (a_m - a_s) until it first
        fires, which is rising for t <= 6: the neuron first fires at step k
        just above the weight that lands u on theta there, not just below."""
        a_s, a_m = PARAMS.syn_decay, PARAMS.mem_decay
        x = np.zeros((1, 10))
        x[0, 0] = 1
        for k in range(1, 7):
            w = PARAMS.theta * (a_m - a_s) / (a_m**k - a_s**k)
            above = simulate_neuron(x, [w * (1 + 1e-9)], 0.0, PARAMS).bits
            below = simulate_neuron(x, [w * (1 - 1e-9)], 0.0, PARAMS).bits
            assert above.tolist()[:k + 1] == [0] * k + [1]
            assert below.tolist()[:k + 1] == [0] * (k + 1)

    def test_constant_drive_first_spike_step(self):
        # Unrolling i(t)=a_s*i+0.5, u(t)=a_m*u+i(t-1)-s(t-1) with theta=1
        # crosses threshold at the third step.
        out = simulate_neuron(np.ones((1, 5)), [0.5], 0.0, PARAMS)
        assert out.bits.tolist()[:3] == [0, 0, 1]

    def test_membrane_uses_previous_current(self):
        # The membrane reads the pre-step current, so no drive, however
        # strong, makes the neuron fire at the step it arrives.
        out = simulate_neuron(np.ones((1, 1)), [1e6], 0.0, PARAMS)
        assert out.bits.tolist() == [0]

    def test_inclusive_threshold(self):
        # A pulse of weight 1 at t = 0 lands u exactly on theta at t = 1.
        out = simulate_neuron([[1, 0, 0]], [1.0], 0.0, PARAMS)
        assert out.bits.tolist() == [0, 1, 0]


class TestSimulateNeuron:
    def test_zero_weights_silent(self):
        x = np.ones((3, 12), dtype=np.uint8)
        out = simulate_neuron(x, np.zeros(3), 0.0, PARAMS)
        assert not out.bits.any()

    def test_zero_input_silent(self):
        x = np.zeros((4, 20), dtype=np.uint8)
        out = simulate_neuron(x, np.ones(4), 0.7, PARAMS)
        assert not out.bits.any()

    def test_matches_unroll_on_dense_input(self):
        x = np.ones((2, 10), dtype=np.uint8)
        out = simulate_neuron(x, [1.0, 1.0], 0.0, PARAMS)
        expected = lif_unroll([[1] * 10, [1] * 10], [1.0, 1.0], 0.0,
                              1.0, 5.0, 10.0, 1.0)
        assert out.bits.tolist() == expected

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ShapeError):
            simulate_neuron(np.zeros((3, 5)), np.zeros(2), 0.0, PARAMS)

    def test_determinism(self):
        rng = np.random.default_rng(3)
        x = (rng.random((4, 30)) < 0.4).astype(np.uint8)
        w = rng.uniform(-1, 1, 4)
        a = simulate_neuron(x, w, 0.3, PARAMS)
        b = simulate_neuron(x, w, 0.3, PARAMS)
        assert a == b

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_oracle_equivalence_random_instances(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 5))
        T = int(rng.integers(1, 33))
        x = (rng.random((d, T)) < 0.4).astype(np.uint8)
        w = rng.uniform(-1, 1, d)
        v = float(rng.uniform(-1, 1))
        got = simulate_neuron(x, w, v, PARAMS)
        expected = lif_unroll(x.tolist(), w.tolist(), v, 1.0, 5.0, 10.0, 1.0)
        assert got.bits.tolist() == expected


class TestBatchRateFeatures:
    def test_matches_per_sample_simulation(self):
        rng = np.random.default_rng(9)
        x = (rng.random((7, 3, 16)) < 0.35).astype(np.uint8)
        w = rng.uniform(-1, 1, 3)
        v = 0.4
        batched = batch_rate_features(x, w, v, PARAMS)
        single = [simulate_neuron(x[i], w, v, PARAMS).bits.mean()
                  for i in range(7)]
        assert batched.tolist() == single

    def test_pool_matches_oracle_per_sample_and_neuron(self):
        rng = np.random.default_rng(5)
        N, d, T, P = 6, 3, 18, 5
        x = (rng.random((N, d, T)) < 0.4).astype(np.uint8)
        W = rng.uniform(-1.5, 1.5, (P, d))
        W[2] = 0.0  # a silent neuron
        V = rng.uniform(-1, 1, P)
        H = batch_rate_features(x, W, V, PARAMS)
        assert H.shape == (N, P)
        assert not H[:, 2].any()
        assert H.any()
        for n in range(N):
            for k in range(P):
                spikes = lif_unroll(x[n].tolist(), W[k].tolist(), float(V[k]),
                                    1.0, 5.0, 10.0, 1.0)
                assert H[n, k] == sum(spikes) / T
        for k in range(P):
            assert np.array_equal(H[:, k],
                                  batch_rate_features(x, W[k], V[k], PARAMS))

    @pytest.mark.parametrize("w_shape, v_shape", [
        ((3,), ()),       # one neuron, wrong d
        ((4, 3), (4,)),   # pool, wrong d
        ((4, 2), (3,)),   # pool, wrong feedback length
        ((4, 2), ()),     # pool, scalar feedback
        ((2,), (1,)),     # one neuron, vector feedback
    ])
    def test_shape_errors(self, w_shape, v_shape):
        x = np.zeros((5, 2, 7))
        with pytest.raises(ShapeError):
            batch_rate_features(x, np.ones(w_shape), np.zeros(v_shape), PARAMS)

    def test_all_in_unit_interval(self):
        rng = np.random.default_rng(2)
        x = (rng.random((10, 4, 20)) < 0.5).astype(np.uint8)
        h = batch_rate_features(x, rng.uniform(-2, 2, 4), 0.5, PARAMS)
        assert np.all((h >= 0.0) & (h <= 1.0))


class TestTimeMajorLayout:
    """The cached tensor is a uint8 view of a time-major buffer, and the
    kernel gives the same rates on it, a block of rows at a time and with no
    copy, as on a plain C-ordered batch, on row-major uint8 spikes and on a
    float64 copy run as one block."""

    @pytest.fixture(scope="class", params=[(32, 10), (64, 25)],
                    ids=["capacity", "lineage"])
    def dataset(self, request):
        d, T = request.param
        cfg = GeneratorConfig(d=d, T=T, categories=4,
                              samples_per_category=200, rng_seed=2)
        return generate_family(cfg, [4]).stages[0]

    @pytest.fixture(scope="class")
    def row_major(self, dataset):
        """A C-ordered copy of the spikes: a dataset's `spikes` is a view of
        its time-major buffer, so a row-major batch is a plain array."""
        spikes = np.array(dataset.spikes, order="C")
        spikes.setflags(write=False)
        return spikes

    @staticmethod
    def viewed_blocks(monkeypatch, source):
        """Record, for each block the kernel gets, that it is a view of
        `source` with strided time steps, not a copy: the kernel's step
        cast reads any layout."""
        viewed = []
        kernel = spikegrow.lif._lif_raster

        def recorded(xt, *args):
            viewed.append(np.shares_memory(xt, source)
                          and not xt[0].flags.c_contiguous)
            return kernel(xt, *args)

        monkeypatch.setattr(spikegrow.lif, "_lif_raster", recorded)
        return viewed

    def test_tensor_is_read_only_n_d_t_view(self, dataset):
        t = dataset.spike_tensor()
        assert t.shape == (len(dataset), dataset.d, dataset.T)
        assert t.dtype == np.uint8
        assert dataset.spike_tensor() is t
        assert np.array_equal(t, dataset.spikes)
        assert not t.flags.writeable
        with pytest.raises(ValueError):
            t[0, 0, 0] = 1.0
        assert t.transpose(2, 0, 1).flags.c_contiguous

    @pytest.mark.parametrize("P", [1, 2, 10, 50])
    def test_cached_tensor_equals_c_ordered_copy(self, dataset, P):
        rng = np.random.default_rng(P)
        W = rng.uniform(-1, 1, (P, dataset.d))
        V = rng.uniform(-1, 1, P)
        cached = dataset.spike_tensor()
        plain = np.array(cached, order="C")
        assert plain.flags.c_contiguous
        H = batch_rate_features(cached, W, V, PARAMS)
        assert H.any()
        assert np.array_equal(H, batch_rate_features(plain, W, V, PARAMS))
        reference = dataset.spikes.astype(np.float64)
        assert np.array_equal(H, batch_rate_features(reference, W, V, PARAMS))

    @pytest.mark.parametrize("P", [1, 2, 10, 50])
    def test_uint8_spikes_equal_cached_tensor(self, dataset, row_major, P,
                                              monkeypatch):
        rng = np.random.default_rng(100 + P)
        W = rng.uniform(-1, 1, (P, dataset.d))
        V = rng.uniform(-1, 1, P)
        assert row_major.dtype == np.uint8
        viewed = self.viewed_blocks(monkeypatch, row_major)
        H = batch_rate_features(row_major, W, V, PARAMS)
        assert viewed and all(viewed)
        assert H.any()
        reference = row_major.astype(np.float64)
        assert H.tobytes() == \
            batch_rate_features(reference, W, V, PARAMS).tobytes()
        assert H.tobytes() == \
            batch_rate_features(dataset.spike_tensor(), W, V, PARAMS).tobytes()

    @pytest.mark.parametrize("cells", [CELLS, 256])
    @pytest.mark.parametrize("P", [1, 10, 50])
    def test_cached_view_blocks_equal_float_single_block(
            self, dataset, P, cells, monkeypatch):
        """The cached tensor runs in blocks of max(1, CELLS // P) rows, each
        handed to the kernel as a view of the cache; its rates equal, byte
        for byte, those of a float64 copy run as one block. With 256 cells
        every P spans at least three blocks."""
        monkeypatch.setattr(spikegrow.lif, "CELLS", cells)
        rows = max(1, cells // P)
        assert cells == CELLS or len(dataset) >= 3 * rows
        rng = np.random.default_rng(400 + P)
        W = rng.uniform(-1, 1, (P, dataset.d))
        V = rng.uniform(-1, 1, P)
        cached = dataset.spike_tensor()
        blocks = []
        kernel = spikegrow.lif._lif_raster

        def recorded(xt, *args):
            blocks.append((xt.shape[1], np.shares_memory(xt, cached)))
            return kernel(xt, *args)

        monkeypatch.setattr(spikegrow.lif, "_lif_raster", recorded)
        H = batch_rate_features(cached, W, V, PARAMS)
        assert blocks == [(min(rows, len(dataset) - a), True)
                          for a in range(0, len(dataset), rows)]
        assert H.any()
        single = batch_rate_features(dataset.spikes.astype(np.float64),
                                     W, V, PARAMS)
        assert blocks[-1] == (len(dataset), False)
        assert H.tobytes() == single.tobytes()

    @pytest.mark.parametrize("P", [1, 2, 10, 50])
    def test_strided_uint8_view_equals_float_copy(self, dataset, row_major, P,
                                                  monkeypatch):
        rng = np.random.default_rng(200 + P)
        W = rng.uniform(-1, 1, (P, dataset.d))
        V = rng.uniform(-1, 1, P)
        rows = row_major[::3]  # a row subset: a non-contiguous view
        assert not rows.flags.c_contiguous
        assert np.shares_memory(rows, row_major)
        viewed = self.viewed_blocks(monkeypatch, row_major)
        H = batch_rate_features(rows, W, V, PARAMS)
        assert viewed and all(viewed)
        assert H.any()
        assert H.tobytes() == batch_rate_features(
            rows.astype(np.float64), W, V, PARAMS).tobytes()
        one = batch_rate_features(rows, W[0], V[0], PARAMS)
        assert one.tobytes() == np.ascontiguousarray(H[:, 0]).tobytes()

    @pytest.mark.parametrize("P", [1, 2, 10, 50])
    def test_weight_layout_does_not_change_rates(self, dataset, row_major, P):
        """The kernel hands BLAS one C-contiguous (d, P) weight block, so a
        C-ordered (P, d) array, its Fortran-ordered copy and the column view
        of a pool's (P, d + 1) draw give the same rates."""
        draw = np.random.default_rng(300 + P).uniform(-1, 1, (P, dataset.d + 1))
        view, V = draw[:, :-1], draw[:, -1]
        W = np.ascontiguousarray(view)
        fortran = np.asfortranarray(W)
        assert fortran.flags.f_contiguous and np.shares_memory(view, draw)
        assert P == 1 or not (fortran.flags.c_contiguous
                              or view.flags.c_contiguous)
        for x in (dataset.spike_tensor(), row_major):
            H = batch_rate_features(x, W, np.ascontiguousarray(V), PARAMS)
            assert H.any()
            for weights in (fortran, view):
                assert batch_rate_features(x, weights, V, PARAMS).tobytes() \
                    == H.tobytes()


class TestRowBlocks:
    """A uint8 batch runs through the kernel max(1, CELLS // P) rows at a
    time; its rates equal those of the float64 tensor, which runs as one
    block, byte for byte, whichever way N falls on the block edges."""

    @pytest.mark.parametrize("P", [1, 10, CELLS + 1])
    @pytest.mark.parametrize("blocks", ["0", "1", "rows-1", "rows", "rows+1",
                                        "3rows+7"])
    def test_blocked_uint8_equals_float_tensor(self, P, blocks):
        rows = max(1, CELLS // P)
        N = {"0": 0, "1": 1, "rows-1": rows - 1, "rows": rows,
             "rows+1": rows + 1, "3rows+7": 3 * rows + 7}[blocks]
        d, T = 4, 12
        rng = np.random.default_rng(N * 31 + P)
        x = (rng.random((N, d, T)) < 0.4).astype(np.uint8)
        W = rng.uniform(-0.5, 1.5, (P, d))
        V = rng.uniform(-1, 1, P)
        if P > 1:
            W[P // 2] = 0.0  # a silent unit
        tensor = np.ascontiguousarray(x.transpose(2, 0, 1), dtype=np.float64)
        H = batch_rate_features(x, W, V, PARAMS)
        expected = batch_rate_features(tensor.transpose(1, 2, 0), W, V, PARAMS)
        assert H.shape == (N, P)
        assert H.tobytes() == expected.tobytes()
        if N:
            assert H.any()
            assert P == 1 or not H[:, P // 2].any()

    @pytest.mark.parametrize("dtype", [np.uint8, np.float64])
    @pytest.mark.parametrize("N", [0, 5])
    def test_no_neurons_give_an_empty_table(self, N, dtype):
        """A pass of no neurons is read in one neuron's blocks and gives
        an (N, 0) table."""
        x = np.ones((N, 4, 12), dtype=dtype)
        H = batch_rate_features(x, np.zeros((0, 4)), np.zeros(0), PARAMS)
        assert H.shape == (N, 0) and H.dtype == np.float64
        assert spikegrow.lif.block_rows(0) == spikegrow.lif.block_rows(1) \
            == CELLS


class TestKernelInputs:
    """The kernel takes uint8 batches as they are and copies every other
    input as uint8; which inputs it accepts and rejects does not depend on
    that."""

    def setup_method(self):
        rng = np.random.default_rng(4)
        self.x = (rng.random((6, 3, 12)) < 0.4).astype(np.uint8)
        self.w = rng.uniform(-1.5, 1.5, (4, 3))
        self.v = rng.uniform(-1, 1, 4)
        self.expected = batch_rate_features(self.x.astype(np.float64),
                                            self.w, self.v, PARAMS)
        assert self.expected.any()

    @pytest.mark.parametrize("convert", [
        lambda x: x.tolist(),
        lambda x: x.astype(float).tolist(),
        lambda x: x.astype(bool),
        lambda x: x.astype(np.int64),
        lambda x: x.astype(np.float32),
        lambda x: x,
    ], ids=["int-list", "float-list", "bool", "int64", "float32", "uint8"])
    def test_accepted_inputs_give_the_same_rates(self, convert):
        got = batch_rate_features(convert(self.x), self.w, self.v, PARAMS)
        assert got.dtype == np.float64
        assert got.tobytes() == self.expected.tobytes()

    @pytest.mark.parametrize("dtype", [np.uint8, np.float64])
    @pytest.mark.parametrize("shape", [(3, 12), (6, 3, 12, 1), (12,)])
    def test_bad_batch_shapes(self, dtype, shape):
        with pytest.raises(ShapeError):
            batch_rate_features(np.zeros(shape, dtype=dtype), self.w, self.v,
                                PARAMS)

    @pytest.mark.parametrize("dtype", [np.uint8, np.float64])
    def test_wrong_channel_count(self, dtype):
        with pytest.raises(ShapeError):
            batch_rate_features(np.zeros((6, 2, 12), dtype=dtype), self.w,
                                self.v, PARAMS)

    @pytest.mark.parametrize("dtype", [np.uint8, np.float64])
    def test_zero_time_steps(self, dtype):
        with pytest.raises(ValueError, match="zero time steps"):
            batch_rate_features(np.zeros((6, 3, 0), dtype=dtype), self.w,
                                self.v, PARAMS)

    def test_empty_batch(self):
        for x in (np.zeros((0, 3, 12), dtype=np.uint8), np.zeros((0, 3, 12))):
            assert batch_rate_features(x, self.w, self.v, PARAMS).shape == (0, 4)

    @pytest.mark.parametrize("value, dtype", [
        (2, np.uint8), (2, np.int64), (0.5, np.float64), (-1, np.int64),
        (np.nan, np.float64),
    ], ids=["uint8-two", "int-two", "half", "minus-one", "nan"])
    def test_values_other_than_0_and_1_rejected(self, value, dtype):
        """As a SpikeTrain's: each would give rates of spikes that no
        dataset holds."""
        x = self.x.astype(dtype)
        x[3, 1, 5] = value
        with pytest.raises(ValueError, match="spike values must be 0 or 1"):
            batch_rate_features(x, self.w, self.v, PARAMS)
        with pytest.raises(ValueError, match="spike values must be 0 or 1"):
            simulate_neuron(x[3], self.w[0], self.v[0], PARAMS)

class TestRateFeature:
    """A unit's rate feature is the spike count of its train over T."""

    def test_all_zero(self):
        x = np.ones((3, 4, 100), dtype=np.uint8)
        assert not batch_rate_features(x, np.zeros(4), 0.0, PARAMS).any()

    def test_empty_train_raises(self):
        with pytest.raises(ValueError, match="zero time steps"):
            batch_rate_features(np.zeros((2, 3, 0), dtype=np.uint8),
                                np.ones(3), 0.0, PARAMS)

    @settings(deadline=None)
    @given(st.lists(st.integers(0, 1), min_size=1, max_size=64))
    def test_equals_popcount_over_length(self, bits):
        train = simulate_neuron([bits], [1.5], -0.5, PARAMS)
        rate = batch_rate_features(np.array([[bits]], dtype=np.uint8), [1.5],
                                   -0.5, PARAMS)
        assert rate.tolist() == [sum(train.bits.tolist()) / len(bits)]


class TestSpikeTrain:
    def test_read_only_bits(self):
        train = SpikeTrain([0, 1, 1])
        assert train.bits.dtype == np.uint8 and len(train) == train.T == 3
        with pytest.raises(ValueError):
            train.bits[0] = 1

    def test_uint8_input_left_writable(self):
        bits = np.array([1, 0], dtype=np.uint8)
        SpikeTrain(bits)
        assert bits.flags.writeable

    @pytest.mark.parametrize("bits", [[0.5, 1.7], ["1"], [-1], [2], [True, 2],
                                      np.array([0, 2], dtype=np.uint8),
                                      [float("nan")]],
                             ids=["fractions", "string", "negative", "two",
                                  "bool-and-two", "uint8-two", "nan"])
    def test_values_other_than_0_and_1_rejected(self, bits):
        with pytest.raises(ValueError, match="0 or 1"):
            SpikeTrain(bits)

    @pytest.mark.parametrize("bits", [[0, 1], [0.0, 1.0], [False, True],
                                      np.array([0, 1], dtype=np.int8)])
    def test_zeros_and_ones_of_any_number_type_accepted(self, bits):
        assert SpikeTrain(bits).bits.tolist() == [0, 1]
