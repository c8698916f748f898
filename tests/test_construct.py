import copy
import math
import sys
import weakref
from dataclasses import dataclass, replace
from typing import Any

import numpy as np
import pytest

from conftest import failed_reuse_run, float_bits, make_dataset
from oracles import lif_unroll, single_unit_update_sq_norm
from test_pinned_growth import RUNS as PINNED_RUNS
import spikegrow.construct
import spikegrow.learner
import spikegrow.lif
from spikegrow import (
    Candidate,
    ConfigError,
    GeneratorConfig,
    LifParams,
    PruningConfig,
    ShapeError,
    generate_family,
    grow_one,
    select_best,
    xi_index,
)
from spikegrow._util import SIZE_MAX
from spikegrow.construct import (
    POOL_UNITS,
    KeptPool,
    _certificates,
    _draw,
    pool_features,
)
from spikegrow.learner import save_network
from spikegrow.lif import CELLS, batch_rate_features

PARAMS = LifParams()


class TestSampleCandidates:
    """`_draw` gives a pool as one (P, d + 1) array: row p holds candidate
    p's weights, then its feedback."""

    def test_values_within_range(self):
        cfg = PruningConfig(pool_size=40, weight_scale=0.7)
        draw = _draw(cfg, 5, np.random.default_rng(1))
        assert draw.shape == (40, 6) and np.all(np.abs(draw) <= 0.7)

    def test_pool_indices_in_draw_order(self, tiny_dataset):
        """A winner's pool index is its row in the round's draw."""
        from spikegrow import encode_targets
        cfg = PruningConfig(pool_size=10)
        out = grow_one(encode_targets(tiny_dataset), tiny_dataset, cfg, PARAMS,
                       np.random.default_rng(2))
        draw = _draw(cfg, tiny_dataset.d, np.random.default_rng(2))
        winner = out.selection.winner
        assert out.rounds_used == 1
        assert np.array_equal(winner.w, draw[winner.pool_index, :-1])
        assert winner.v == draw[winner.pool_index, -1]

    def test_same_seed_same_pool(self):
        cfg = PruningConfig(pool_size=5)
        a = _draw(cfg, 3, np.random.default_rng(7))
        b = _draw(cfg, 3, np.random.default_rng(7))
        assert np.array_equal(a, b)

    def test_larger_pool_shares_prefix(self):
        small = _draw(PruningConfig(pool_size=4), 3, np.random.default_rng(5))
        large = _draw(PruningConfig(pool_size=9), 3, np.random.default_rng(5))
        assert np.array_equal(small, large[:4])

    def test_one_draw_equals_serial_draws(self):
        """The pool's one (P, d + 1) draw gives the values, and leaves the
        rng state, of drawing w then v candidate by candidate, each value
        truncated onto the pool's grid: q = 2**(3 - 53), as 4 * 0.6 < 2**3."""
        cfg = PruningConfig(pool_size=7, weight_scale=0.6)
        rng, ref = np.random.default_rng(13), np.random.default_rng(13)
        draw = _draw(cfg, 4, rng)
        q = 2.0**-50
        for row in draw:
            w = np.trunc(ref.uniform(-0.6, 0.6, size=4) / q) * q
            v = float(np.trunc(ref.uniform(-0.6, 0.6) / q) * q)
            assert np.array_equal(row[:4], w) and row[4] == v
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_uniform_moments(self):
        cfg = PruningConfig(pool_size=2000, weight_scale=1.0)
        draws = _draw(cfg, 50, np.random.default_rng(11))[:, :50]  # 1e5 values
        se = np.sqrt(1.0 / 3.0 / draws.size)  # Var(U[-1,1]) = 1/3
        assert abs(draws.mean()) <= 3 * se


class _GivenDraw:
    """An rng whose uniform draw is given, so `_draw`'s rounding of
    extreme values is tested without drawing a pool of that width."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=np.float64)

    def uniform(self, low, high, size):
        return self.values.copy()


class TestDyadicGrid:
    @pytest.mark.parametrize("d, scale", [
        (5, 0.9), (16, 1.0), (64, 1.0), (64, 37.5), (200, 0.05), (7, 1e-310),
    ])
    def test_drives_exact_in_any_block(self, d, scale):
        """A pool drawn on the grid gives every drive w.x over 0/1 inputs
        exactly: a GEMM over row blocks of 1, 37, 163 or all rows, or over a
        slice of the pool's units, equals the whole product and the
        correctly rounded sum of each drive's terms, bit for bit."""
        rng = np.random.default_rng(d)
        cfg = PruningConfig(pool_size=50, weight_scale=scale)
        W = _draw(cfg, d, rng)[:, :d]
        assert np.abs(W).max() <= scale and np.count_nonzero(W) > 0
        x = (rng.random((400, d)) < 0.5).astype(np.float64)
        full = x @ W.T
        exact = [[math.fsum(W[p, row == 1]) for p in range(len(W))]
                 for row in x]
        assert np.array_equal(float_bits(full), float_bits(exact))
        for rows in (1, 37, 163, len(x)):
            blocks = np.vstack([x[a:a + rows] @ W.T
                                for a in range(0, len(x), rows)])
            assert np.array_equal(float_bits(blocks), float_bits(full)), rows
        assert np.array_equal(float_bits(x @ W[7:20].T),
                              float_bits(full[:, 7:20]))

    @pytest.mark.parametrize("d, scale, q", [
        (5, 0.9, 2.0**-50),  # 0.9 < 2**0 and 5 < 2**3
        (1, 1e-310, 2.0**-1074),  # 2**-1081 clamped to the least subnormal
        (SIZE_MAX, 8e307, 2.0**1000),  # d * scale overflows; 2**1053 bounds it
    ])
    def test_extreme_draws_truncate_onto_the_grid(self, d, scale, q):
        """Each value moves toward zero by less than q onto a multiple of
        q, so no weight leaves [-scale, scale], even the largest draw below
        scale; q is computed without overflow."""
        top = np.nextafter(scale, 0.0)
        u = np.array([[top, -top, scale / 3, -scale / 7, scale * 2**-60]])
        cfg = PruningConfig(pool_size=1, weight_scale=scale)
        w = _draw(cfg, d, _GivenDraw(u))
        assert np.all(np.isfinite(w)) and np.all(np.fmod(w, q) == 0.0)
        assert np.all(np.abs(w) <= np.abs(u)) and np.all(np.abs(u - w) < q)
        assert np.all(np.abs(w) <= scale) and w[0, 0] > 0.0


class TestCandidateFeatures:
    """A candidate's feature is its per-sample firing rate over the
    dataset, one kernel pass over the uint8 spikes."""

    def test_zero_weight_candidate_silent(self, tiny_dataset):
        h = batch_rate_features(tiny_dataset.spikes, np.zeros(tiny_dataset.d),
                                0.0, PARAMS)
        assert np.all(h == 0.0)

    def test_values_in_unit_interval(self, tiny_dataset):
        rng = np.random.default_rng(3)
        h = batch_rate_features(tiny_dataset.spikes,
                                rng.uniform(-1, 1, tiny_dataset.d), 0.5, PARAMS)
        assert np.all((h >= 0.0) & (h <= 1.0))
        assert h.shape == (len(tiny_dataset),)

    def test_matches_scalar_unroll(self, tiny_dataset):
        rng = np.random.default_rng(4)
        w = rng.uniform(-1, 1, tiny_dataset.d)
        h = batch_rate_features(tiny_dataset.spikes, w, 0.3, PARAMS)
        for i, block in enumerate(tiny_dataset.spikes):
            spikes = lif_unroll(block.tolist(), w.tolist(), 0.3,
                                PARAMS.dt, PARAMS.tau_syn, PARAMS.tau_mem,
                                PARAMS.theta)
            assert h[i] == sum(spikes) / len(spikes)

    def test_thread_fanout_matches_serial(self, tiny_dataset):
        # The batched pass over a pool's draw gives each candidate exactly
        # the feature it gets when evaluated alone, in pool order.
        draw = _draw(PruningConfig(pool_size=8), tiny_dataset.d,
                     np.random.default_rng(6))
        pairs = pool_features(draw, tiny_dataset, PARAMS)
        assert [p for p, _ in pairs] == list(range(8))
        for row, (_, h) in zip(draw, pairs, strict=True):
            alone = batch_rate_features(tiny_dataset.spikes, row[:-1],
                                        float(row[-1]), PARAMS)
            assert np.array_equal(h, alone)

    def test_pool_reads_cached_tensor_as_views(self, monkeypatch):
        """A pool's kernel pass hands every row block of the dataset's
        cached uint8 tensor to the kernel as a view of the cache: no pool
        copies the training set."""
        cfg = GeneratorConfig(d=64, T=25, categories=4,
                              samples_per_category=200, rng_seed=3)
        ds = generate_family(cfg, [4]).stages[0]
        cache = ds.spike_tensor()
        shared = []
        kernel = spikegrow.lif._lif_raster

        def recorded(xt, *args):
            shared.append(np.shares_memory(xt, cache))
            return kernel(xt, *args)

        monkeypatch.setattr(spikegrow.lif, "_lif_raster", recorded)
        draw = np.random.default_rng(5).uniform(-1.0, 1.0, (50, ds.d + 1))
        pool_features(draw, ds, PARAMS)
        rows = CELLS // 50
        assert len(shared) == -(-len(ds) // rows) >= 3
        assert all(shared)


class TestXiIndex:
    def test_orthogonal_feature_rejected(self):
        E = np.array([[1.0], [1.0]])
        h = np.array([1.0, -1.0])  # orthogonal to E's only column
        xi = xi_index(E, h, 0.9)
        assert xi == pytest.approx(-(1 - 0.9) * 2.0)
        assert xi < 0

    def test_parallel_feature_accepted(self):
        E = np.array([[2.0], [4.0]])
        h = np.array([1.0, 2.0])
        sigma = 0.8
        xi = xi_index(E, h, sigma)
        assert xi == pytest.approx(sigma * 20.0)

    def test_hand_computed_value(self):
        E = np.array([[1.0], [1.0]])
        h = np.array([1.0, 0.0])
        assert xi_index(E, h, 0.9) == pytest.approx(0.8)

    def test_silent_feature_raises(self):
        with pytest.raises(ValueError, match="silent"):
            xi_index(np.ones((3, 1)), np.zeros(3), 0.5)

    def test_bad_sigma_rejected(self):
        with pytest.raises(ConfigError):
            xi_index(np.ones((2, 1)), np.ones(2), 1.0)

    def test_certificate_identity(self):
        # xi >= 0 iff the single-unit update contracts by at least sigma.
        rng = np.random.default_rng(8)
        for _ in range(200):
            N, m = int(rng.integers(2, 12)), int(rng.integers(1, 5))
            E = rng.normal(size=(N, m))
            h = rng.normal(size=N)
            sigma = float(rng.uniform(0.05, 0.999))
            xi = xi_index(E, h, sigma)
            new_sq = single_unit_update_sq_norm(E, h)
            bound = sigma * np.sum(E * E)
            if xi >= 0:
                assert new_sq <= bound * (1 + 1e-9) + 1e-12
            else:
                assert new_sq > bound * (1 - 1e-9) - 1e-12

    def test_pool_scores_equal_xi_index_bit_for_bit(self):
        """Every candidate's empty-basis score in a pool equals `xi_index`
        of that candidate alone, bit for bit, on 10,000 rate features
        against residuals of N < 4000 rows and m < 30 columns (C- and
        Fortran-ordered); silent candidates score NaN and are skipped."""
        rng = np.random.default_rng(13)
        checked = 0
        for case in range(40):
            N, m = int(rng.integers(1, 4000)), int(rng.integers(1, 30))
            T = int(rng.integers(1, 40))
            E = rng.normal(size=(N, m))
            if case % 4 == 3:
                E = np.asfortranarray(E)
            sigma = float(rng.uniform(0.5, 0.999))
            H = rng.integers(0, T + 1, size=(250, N)) / T
            H[:: 50] = 0.0  # silent features
            H[1::50] *= rng.random(N) < 0.05  # mostly silent ones
            basis = None if case % 2 else np.empty((N, 0))
            xis, _ = _certificates(H, E, sigma, basis)
            for h, xi in zip(H, xis):
                if not h.any():
                    assert np.isnan(xi)
                    continue
                assert xi == xi_index(E, h, sigma)
                checked += 1
        assert checked >= 9_000


class TestSelectBest:
    def _pool(self, hs):
        return KeptPool(None, np.arange(len(hs)), np.array(hs, float), 0)

    def test_single_qualifier(self):
        E = np.array([[1.0], [1.0]])
        pool = self._pool([[1.0, 1.0]])
        sel = select_best(pool, E, 0.9)
        assert sel is not None and sel.winner == 0

    def test_max_xi_wins(self):
        E = np.array([[1.0], [1.0]])
        pool = self._pool([[1.0, 0.0], [1.0, 1.0]])  # xi 0.8 < 1.8
        sel = select_best(pool, E, 0.9)
        assert sel.winner == 1

    def test_tie_breaks_to_lowest_index(self):
        E = np.array([[1.0], [1.0]])
        pool = self._pool([[1.0, 1.0], [1.0, 1.0]])
        sel = select_best(pool, E, 0.9)
        assert sel.winner == 0

    def test_silent_candidates_skipped(self):
        E = np.array([[1.0], [1.0]])
        pool = self._pool([[0.0, 0.0], [1.0, 1.0]])
        sel = select_best(pool, E, 0.9)
        assert sel.winner == 1

    def test_no_qualifier_returns_none(self):
        E = np.array([[1.0], [1.0]])
        pool = self._pool([[1.0, -1.0]])
        assert select_best(pool, E, 0.9999) is None

    def test_superset_pool_never_worse(self, tiny_dataset):
        from spikegrow import encode_targets
        E = encode_targets(tiny_dataset)
        rng1 = np.random.default_rng(21)
        rng2 = np.random.default_rng(21)
        small = rng1.uniform(-1.0, 1.0, (5, tiny_dataset.d + 1))
        large = rng2.uniform(-1.0, 1.0, (20, tiny_dataset.d + 1))
        sigma = 0.999
        s_sel = select_best(pool_features(small, tiny_dataset, PARAMS), E, sigma)
        l_sel = select_best(pool_features(large, tiny_dataset, PARAMS), E, sigma)
        if s_sel is not None:
            assert l_sel is not None and l_sel.xi >= s_sel.xi

    def test_error_gain_definition(self):
        E = np.array([[1.0], [1.0]])
        pool = self._pool([[1.0, 0.0]])
        sigma = 0.9
        sel = select_best(pool, E, sigma)
        assert sel.error_gain == pytest.approx(sel.xi + (1 - sigma) * 2.0)
        assert sel.error_gain > 0


    def test_winner_scores_equal_xi_index_exactly(self, tiny_dataset):
        from spikegrow import encode_targets
        E = encode_targets(tiny_dataset) - 0.3
        sigma = 0.99
        draw = np.random.default_rng(4).uniform(-1.0, 1.0,
                                                (30, tiny_dataset.d + 1))
        pool = pool_features(draw, tiny_dataset, PARAMS)
        sel = select_best(pool, E, sigma)
        assert sel is not None
        xis = [xi_index(E, h, sigma) for _, h in pool if h.any()]
        assert sel.xi == xi_index(E, sel.feature, sigma) == max(xis)
        assert sel.error_gain == sel.xi + (1.0 - sigma) * float(
            np.sum(np.asarray(E) ** 2))

    def test_empty_basis_scores_equal_xi_index_exactly(self, tiny_dataset):
        """A basis of no columns goes through the projection GEMM and gives
        every candidate the per-column certificate, bit for bit."""
        from spikegrow import encode_targets
        E = encode_targets(tiny_dataset) - 0.3
        sigma = 0.99
        draw = np.random.default_rng(4).uniform(-1.0, 1.0,
                                                (30, tiny_dataset.d + 1))
        pool = pool_features(draw, tiny_dataset, PARAMS)
        sel = select_best(pool, E, sigma, np.empty((len(E), 0)))
        plain = select_best(pool, E, sigma)
        assert (sel.winner, sel.xi, sel.error_gain) \
            == (plain.winner, plain.xi, plain.error_gain)
        xis = [xi_index(E, h, sigma) for _, h in pool if h.any()]
        assert sel.xi == xi_index(E, sel.feature, sigma) == max(xis)

    def test_near_dependent_candidate_skipped(self):
        """A grown column plus noise of about 1e-9 has the largest
        per-column certificate, but its remainder outside the basis is
        below NEAR_DEPENDENT of its norm: scored against the basis it is
        never picked, and without one it always is."""
        rng = np.random.default_rng(5)
        N, sigma = 60, 0.99
        for _ in range(20):
            grown = rng.integers(0, 11, N) / 10
            Q = (grown / np.linalg.norm(grown))[:, None]
            E = np.outer(grown, [3.0, -2.0]) + rng.normal(size=(N, 2))
            hs = list(rng.integers(0, 11, (5, N)) / 10)
            near = int(rng.integers(0, 6))
            hs.insert(near, grown + 1e-9 * rng.normal(size=N))
            pool = self._pool(hs)
            xis = [xi_index(E, h, sigma) for h in hs]
            assert max(xis) == xis[near] >= 0.0
            assert select_best(pool, E, sigma).winner == near
            sel = select_best(pool, E, sigma, Q)
            assert sel is None or sel.winner != near

    def test_basis_shape_checked(self):
        pool = self._pool([[1.0, 1.0]])
        E = np.ones((2, 1))
        with pytest.raises(ShapeError):
            select_best(pool, E, 0.9, np.ones((3, 1)))
        with pytest.raises(ShapeError):
            select_best(self._pool([[1.0, 1.0, 1.0]]), E, 0.9, np.ones((2, 1)))

class TestGrowOne:
    def test_first_round_success_uses_sigma0(self, tiny_dataset):
        from spikegrow import encode_targets
        E = encode_targets(tiny_dataset)
        cfg = PruningConfig(pool_size=30, sigma0=0.999)
        out = grow_one(E, tiny_dataset, cfg, PARAMS,
                       np.random.default_rng(13))
        assert not out.saturated
        assert out.selection.error_gain >= (1.0 - 0.999) * np.sum(E * E)
        assert out.rounds_used == 1

    @staticmethod
    def _saturates_after_one_draw(E, ds, cfg, params):
        """The attempt draws one pool, taking one `_draw` from the rng, and
        saturates."""
        rng, one_draw = np.random.default_rng(1), np.random.default_rng(1)
        out = grow_one(E, ds, cfg, params, rng)
        _draw(cfg, ds.d, one_draw)
        assert out.saturated and out.rounds_used == 1 and out.pool is None
        assert rng.bit_generator.state == one_draw.bit_generator.state

    def test_all_silent_saturates_after_all_rounds(self):
        # Huge threshold: no candidate can ever fire.
        ds = make_dataset(n_per_cat=2, n_cats=2, d=3, T=6)
        from spikegrow import encode_targets
        self._saturates_after_one_draw(encode_targets(ds), ds,
                                       PruningConfig(pool_size=4),
                                       LifParams(theta=1e9))

    def test_widest_weight_range_saturates_after_all_rounds(self):
        """At the largest weight_scale a config accepts, the range 2 * scale
        is finite, each draw is finite, within it and on its grid, q =
        2**(1023 + 2 - 53) for d = 3, and an attempt saturates after its one
        pool."""
        from spikegrow import LabeledDataset, encode_targets
        scale = sys.float_info.max / 2
        cfg = PruningConfig(pool_size=3, weight_scale=scale)
        for row in _draw(cfg, 3, np.random.default_rng(1)):
            assert np.all(np.abs(row) <= scale) and np.count_nonzero(row)
            assert np.all(np.fmod(row, 2.0**972) == 0.0)
        # No input spikes: every pool is silent, whatever its weights.
        ds = LabeledDataset(np.zeros((4, 3, 6)), [0, 0, 1, 1], [0, 1])
        self._saturates_after_one_draw(encode_targets(ds), ds, cfg, PARAMS)

    def test_deterministic_across_thread_counts(self, tiny_dataset):
        # Same rng state, same outcome; the winner's feature is the one it
        # gets when evaluated alone.
        from spikegrow import encode_targets
        E = encode_targets(tiny_dataset)
        cfg = PruningConfig(pool_size=16)
        a = grow_one(E, tiny_dataset, cfg, PARAMS, np.random.default_rng(3))
        b = grow_one(E, tiny_dataset, cfg, PARAMS, np.random.default_rng(3))
        assert a.rounds_used == b.rounds_used
        assert np.array_equal(a.selection.winner.w, b.selection.winner.w)
        assert np.array_equal(a.selection.feature, b.selection.feature)
        winner = a.selection.winner
        alone = batch_rate_features(tiny_dataset.spikes, winner.w, winner.v,
                                    PARAMS)
        assert np.array_equal(a.selection.feature, alone)


def test_growth_builds_one_candidate_per_accepted_unit(monkeypatch):
    """A pool is one array: growth makes a Candidate for each round's winner
    only, not one per candidate drawn."""
    built = []
    post_init = Candidate.__post_init__
    monkeypatch.setattr(Candidate, "__post_init__",
                        lambda c: built.append(c.pool_index) or post_init(c))
    _, trace = failed_reuse_run()
    retries = [r.retries_used for r in trace.records]
    assert (0, 0) in zip(retries, retries[1:])  # a failed reuse
    assert len(built) == len(trace.records) == 20


@dataclass
class Attempt:
    """One call of the learner's `grow_one`: its arguments, with the
    residual, basis and rng state copied at the call, the rng state after
    it, and its outcome. The pool offered and the pool kept are shallow
    copies, which keep the arrays the pools held: the next attempt clears a
    kept pool that certifies nothing."""

    E: np.ndarray
    ds: Any
    cfg: PruningConfig
    params: LifParams
    rng: Any
    Q: Any
    pool: Any
    outcome: Any
    rng_after: Any


def record_attempts(monkeypatch) -> list:
    attempts = []
    original = spikegrow.learner.grow_one

    def recorded(E, ds, cfg, params, rng, Q, pool):
        E, Q, at_call = np.array(E), np.array(Q), copy.deepcopy(rng)
        offered = copy.copy(pool)
        outcome = original(E, ds, cfg, params, rng, Q, pool)
        attempts.append(Attempt(E, ds, cfg, params, at_call, Q, offered,
                                replace(outcome, pool=copy.copy(outcome.pool)),
                                copy.deepcopy(rng)))
        return outcome

    monkeypatch.setattr(spikegrow.learner, "grow_one", recorded)
    return attempts


# Fresh runs whose every attempt is one growth: units taken from a kept
# pool, a kept pool that certifies nothing, so that the attempt retries with
# a fresh draw (in the retrying run), and a saturated attempt (in the
# saturating run).
KEPT_POOL_RUNS = {"retrying": failed_reuse_run, "fresh": PINNED_RUNS["fresh"],
                  "saturating": PINNED_RUNS["saturating"]}


class TestKeptPool:
    """Growth keeps the winner's pool and re-scores its other candidates on
    the next step, at sigma0, before drawing a fresh pool."""

    @pytest.mark.parametrize("name", KEPT_POOL_RUNS)
    def test_reused_winner_is_select_best_of_the_rest_at_sigma0(
            self, name, monkeypatch):
        """Each attempt is offered the previous outcome's pool. A unit taken
        from it is `select_best` of its candidates at sigma0, with that
        step's E and basis; when that finds none, a fresh pool is drawn."""
        attempts = record_attempts(monkeypatch)
        KEPT_POOL_RUNS[name]()
        reused = 0
        for prev, a in zip([None] + attempts, attempts):
            kept = prev and prev.outcome.pool
            assert (a.pool is None) == (kept is None)
            if a.pool is None:
                assert a.outcome.rounds_used >= 1
                continue
            assert a.pool.features is kept.features
            offered = select_best(a.pool, a.E, a.cfg.sigma0, a.Q)
            if a.outcome.rounds_used >= 1:
                assert offered is None
                continue
            reused += 1
            sel, p = a.outcome.selection, offered.winner
            assert (sel.winner.pool_index, sel.xi, sel.error_gain) \
                == (p, offered.xi, offered.error_gain)
            assert np.array_equal(float_bits(sel.feature),
                                  float_bits(offered.feature))
            assert np.array_equal(sel.winner.w, a.pool.draw[p, :-1])
            assert sel.winner.v == a.pool.draw[p, -1]
        assert reused > 0

    @pytest.mark.parametrize("name", KEPT_POOL_RUNS)
    def test_no_pool_serves_more_than_two_units(self, name, monkeypatch):
        attempts = record_attempts(monkeypatch)
        _, trace = KEPT_POOL_RUNS[name]()
        units = []
        for a in attempts:
            if a.outcome.saturated:
                continue
            if a.outcome.rounds_used == 0:
                units[-1] += 1
            else:
                units.append(1)
        assert POOL_UNITS == 2 and max(units) == 2
        retries = [r.retries_used for r in trace.records]
        assert retries[0] >= 0 and (-1, -1) not in zip(retries, retries[1:])

    @pytest.mark.parametrize("name", KEPT_POOL_RUNS)
    def test_kept_pool_is_the_draws_other_candidates(self, name,
                                                     monkeypatch):
        """A pool drawn this step is kept without its winner: the other
        rows of its draw, each with its own kernel feature."""
        attempts = record_attempts(monkeypatch)
        KEPT_POOL_RUNS[name]()
        kept = [a for a in attempts if a.outcome.pool is not None]
        assert kept
        for a in kept:
            pool, winner = a.outcome.pool, a.outcome.selection.winner
            assert a.outcome.rounds_used >= 1 and pool.units == 1
            assert np.array_equal(winner.w, pool.draw[winner.pool_index, :-1])
            rest = [(c, h) for c, h in pool_features(pool.draw, a.ds, a.params)
                    if c != winner.pool_index]
            assert [c for c, _ in pool] == [c for c, _ in rest]
            for (_, h), (_, h_rest) in zip(pool, rest):
                assert np.array_equal(float_bits(h), float_bits(h_rest))

    def test_units_pin_no_pool_and_kept_pools_keep_one_table(
            self, monkeypatch):
        """A grown unit's weights and feature are copies, sharing no memory
        with its pool's draw or feature table, so no unit pins its pool; a
        kept pool's features are the rows of its draw's one table, moved up
        in place over the winner's."""
        attempts = record_attempts(monkeypatch)
        pools = []
        original = spikegrow.construct.pool_features

        def recorded(*args):
            pools.append(original(*args))
            return pools[-1]

        monkeypatch.setattr(spikegrow.construct, "pool_features", recorded)
        net, _ = failed_reuse_run()
        assert net.n_hidden > 0
        kept = 0
        for a in attempts:
            sel, pool = a.outcome.selection, a.outcome.pool
            for drawn in pools:
                assert not np.shares_memory(sel.winner.w, drawn.draw)
                assert not np.shares_memory(sel.feature, drawn.features)
            if pool is not None:
                kept += 1
                assert any(pool.features.base is drawn.features
                           for drawn in pools)
                assert pool.features.flags.c_contiguous
        assert kept > 0
        for unit in net.hidden:
            assert not any(np.shares_memory(unit.w, drawn.draw)
                           for drawn in pools)

    def test_failed_kept_pool_is_freed_before_the_next_kernel_pass(
            self, monkeypatch, tmp_path):
        """A kept pool that certifies nothing is cleared: its feature table
        is gone when the fresh pool's kernel pass runs, and the run's records
        and checkpoint are those of a run that keeps it."""
        def run(name):
            net, trace = failed_reuse_run()
            save_network(net, str(tmp_path / name))
            return (tmp_path / name).read_bytes(), [
                replace(r, elapsed_seconds=0.0) for r in trace.records]

        monkeypatch.setattr(KeptPool, "clear", lambda pool: None)
        kept = run("kept.net")
        monkeypatch.undo()
        failed, passes = [], []
        select, features = select_best, pool_features

        def scored(pool, *args):
            selection = select(pool, *args)
            if selection is None and pool.units:
                table = pool.features
                failed.append(weakref.ref(
                    table if table.base is None else table.base))
            return selection

        def drawn(*args):
            passes.append([ref() is None for ref in failed])
            return features(*args)

        monkeypatch.setattr(spikegrow.construct, "select_best", scored)
        monkeypatch.setattr(spikegrow.construct, "pool_features", drawn)
        assert run("freed.net") == kept
        # A failed kept pool is cleared, then the same attempt draws.
        assert failed and passes[-1] == [True] * len(failed)
        assert all(all(gone) for gone in passes)

    @pytest.mark.parametrize("name", ["retrying"])
    def test_failed_reuse_draws_the_pool_of_no_reuse(self, name,
                                                     monkeypatch):
        """An attempt that draws is the attempt offered no pool from the
        same rng state: re-scoring a kept pool consumes no rng draw. Of the
        kept-pool runs, only the retrying one has a failed reuse."""
        attempts = record_attempts(monkeypatch)
        KEPT_POOL_RUNS[name]()
        drew = [a for a in attempts if a.outcome.rounds_used >= 1]
        assert any(a.pool is not None for a in drew)
        for a in drew:
            rng = copy.deepcopy(a.rng)
            alone = spikegrow.construct.grow_one(a.E, a.ds, a.cfg, a.params,
                                                 rng, a.Q)
            assert rng.bit_generator.state == a.rng_after.bit_generator.state
            assert alone.rounds_used == a.outcome.rounds_used
            if alone.saturated:
                assert a.outcome.saturated
                continue
            got, want = a.outcome.selection, alone.selection
            assert (got.winner.pool_index, got.winner.v, got.xi) \
                == (want.winner.pool_index, want.winner.v, want.xi)
            assert np.array_equal(got.winner.w, want.winner.w)
            assert np.array_equal(a.outcome.pool.draw, alone.pool.draw)
