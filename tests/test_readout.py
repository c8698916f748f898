import numpy as np
import pytest

from oracles import normal_equations_lstsq, single_unit_update_sq_norm
from spikegrow import ShapeError, fit_output_weights, residual
from spikegrow.readout import (
    SVD_CUTOFF,
    GrowingFit,
    orthonormal_direction,
    predict_batch,
)


class TestFitOutputWeights:
    def test_identity_features_exact_fit(self):
        F = np.random.default_rng(0).normal(size=(4, 2))
        beta = fit_output_weights(np.eye(4), F)
        assert np.allclose(beta, F)
        assert residual(np.eye(4), beta, F).sq_norm == pytest.approx(0.0)

    def test_two_by_one_hand_case(self):
        H = np.array([[1.0], [2.0]])
        F = np.array([[1.0], [1.0]])
        beta = fit_output_weights(H, F)
        assert beta[0, 0] == pytest.approx(3 / 5)
        res = residual(H, beta, F)
        assert res.sq_norm == pytest.approx(0.2)
        assert np.allclose(res.E[:, 0], [0.4, -0.2])

    def test_duplicated_column_splits_weight(self):
        h = np.array([0.5, 1.0, 0.25])
        H = np.column_stack([h, h])
        F = h.reshape(-1, 1)
        beta = fit_output_weights(H, F)
        assert beta[0, 0] == pytest.approx(beta[1, 0])
        assert beta[0, 0] == pytest.approx(0.5)

    def test_empty_problem_raises(self):
        with pytest.raises(ValueError):
            fit_output_weights(np.zeros((0, 2)), np.zeros((0, 1)))
        with pytest.raises(ValueError):
            fit_output_weights(np.zeros((3, 0)), np.zeros((3, 1)))

    def test_residual_orthogonal_to_columns(self):
        rng = np.random.default_rng(5)
        H = rng.normal(size=(30, 7))
        F = rng.normal(size=(30, 3))
        beta = fit_output_weights(H, F)
        E = F - H @ beta
        for q in range(3):
            for j in range(7):
                bound = 1e-6 * np.linalg.norm(E[:, q]) * np.linalg.norm(H[:, j])
                assert abs(E[:, q] @ H[:, j]) <= max(bound, 1e-12)

    def test_matches_normal_equations_full_rank(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            N, n, m = 25, int(rng.integers(1, 10)), int(rng.integers(1, 4))
            H = rng.normal(size=(N, n))
            F = rng.normal(size=(N, m))
            beta = fit_output_weights(H, F)
            oracle = normal_equations_lstsq(H, F)
            assert np.allclose(beta, oracle, rtol=1e-8, atol=1e-10)

    def test_zero_column_gets_zero_weight(self):
        rng = np.random.default_rng(7)
        H = rng.normal(size=(10, 3))
        F = rng.normal(size=(10, 2))
        base = residual(H, fit_output_weights(H, F), F).sq_norm
        H2 = np.column_stack([H, np.zeros(10)])
        beta2 = fit_output_weights(H2, F)
        assert np.allclose(beta2[3], 0.0)
        assert residual(H2, beta2, F).sq_norm == pytest.approx(base)

    def test_refit_dominates_single_unit_update(self):
        rng = np.random.default_rng(8)
        H = rng.normal(size=(20, 4))
        F = rng.normal(size=(20, 3))
        beta = fit_output_weights(H, F)
        E = F - H @ beta
        h = rng.normal(size=20)
        predicted = single_unit_update_sq_norm(E, h)
        H2 = np.column_stack([H, h])
        full = residual(H2, fit_output_weights(H2, F), F).sq_norm
        assert full <= predicted * (1 + 1e-9) + 1e-12


class TestOrthonormalDirection:
    def test_unit_and_orthogonal_to_basis(self):
        rng = np.random.default_rng(9)
        Q, _ = np.linalg.qr(rng.normal(size=(15, 4)))
        q = orthonormal_direction(Q, rng.normal(size=15))
        assert np.linalg.norm(q) == pytest.approx(1.0)
        assert np.allclose(Q.T @ q, 0.0, atol=1e-14)

    def test_dependent_and_zero_columns_add_nothing(self):
        rng = np.random.default_rng(10)
        Q, _ = np.linalg.qr(rng.normal(size=(15, 4)))
        assert orthonormal_direction(Q, Q @ rng.normal(size=4)) is None
        assert orthonormal_direction(Q, np.zeros(15)) is None
        assert orthonormal_direction(np.zeros((15, 0)), np.zeros(15)) is None

    def test_projection_gives_least_squares_residual(self):
        # Rank-deficient: column 3 repeats column 1, column 5 is zero.
        rng = np.random.default_rng(11)
        H = rng.uniform(0, 1, size=(20, 6))
        H[:, 3] = H[:, 1]
        H[:, 5] = 0.0
        F = rng.normal(size=(20, 3))
        Q, E = np.zeros((20, 0)), F
        for j in range(6):
            q = orthonormal_direction(Q, H[:, j])
            assert (q is None) == (j in (3, 5))
            if q is not None:
                Q = np.column_stack([Q, q])
                E = E - np.outer(q, q @ E)
            fit = residual(H[:, :j + 1],
                           fit_output_weights(H[:, :j + 1], F), F)
            assert np.allclose(E, fit.E, rtol=0, atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            orthonormal_direction(np.zeros((5, 1)), np.ones(4))
        with pytest.raises(ShapeError):
            orthonormal_direction(np.zeros((5, 1)), np.ones((5, 1)))


def lstsq_outputs(H, F, H_test):
    """Test outputs of lstsq's output weights on the first columns of H."""
    return H_test[:, :H.shape[1]] @ fit_output_weights(H, F)


class TestTriangularOutputWeights:
    """The output weights R^{-1} c of growth's triangular factor, which
    GrowingFit applies to the test table without solving for them."""

    def test_growth_factors_match_lstsq(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            N, n, m = 40, int(rng.integers(1, 12)), int(rng.integers(1, 5))
            H = rng.uniform(0, 1, size=(N, n))
            H_test = rng.uniform(0, 1, size=(15, n))
            F = rng.normal(size=(N, m))
            fit = GrowingFit(F, len(H_test))
            for k in range(n):
                fit.add(H[:, k])
                np.testing.assert_allclose(
                    fit.test_outputs(H_test[:, k:k + 1]),
                    lstsq_outputs(H[:, :k + 1], F, H_test),
                    rtol=1e-10, atol=1e-10)
            Q = fit.Q.table
            np.testing.assert_allclose(Q @ np.triu(Q.T @ H), H, rtol=0,
                                       atol=1e-12)

    @pytest.mark.parametrize("batch", [2, 3, 5])
    def test_queued_columns_match_lstsq(self, batch):
        """Test features fed in batches, as growth's eval steps feed them,
        give the outputs that one column at a time gives."""
        rng = np.random.default_rng(batch)
        H = rng.uniform(0, 1, size=(40, 11))
        H_test = rng.uniform(0, 1, size=(15, 11))
        F = rng.normal(size=(40, 3))
        fit = GrowingFit(F, len(H_test))
        assert np.array_equal(fit.test_outputs(H_test[:, :0]),
                              np.zeros((15, 3)))
        for lo in range(0, 11, batch):
            hi = min(lo + batch, 11)
            for k in range(lo, hi):
                fit.add(H[:, k])
            np.testing.assert_allclose(fit.test_outputs(H_test[:, lo:hi]),
                                       lstsq_outputs(H[:, :hi], F, H_test),
                                       rtol=1e-10, atol=1e-10)

    def test_out_leaves_direction_unchanged(self):
        rng = np.random.default_rng(13)
        Q, _ = np.linalg.qr(rng.normal(size=(15, 4)))
        h = rng.normal(size=15)
        out = np.empty(5)
        assert orthonormal_direction(Q, h, out=out).tobytes() == \
            orthonormal_direction(Q, h).tobytes()
        assert orthonormal_direction(Q, Q[:, 0], out=out) is None

    def test_ill_conditioned_factor_keeps_exact_outputs(self):
        """Columns whose factor is R = [[1, a], [0, r]]. A diagonal that
        spans up to 1 / SVD_CUTOFF still gives the finite outputs of the
        exact two-column solve, where lstsq's rcond may cut a direction; a
        repeated column (r = 0), which R misses, gets no weight, so the
        outputs are those of the first column alone."""
        H_test = np.array([[1.0, 0.5], [0.0, 1.0], [1.0, 1.0]])
        F = np.ones((4, 1))
        for a, r in ((0.5, SVD_CUTOFF), (0.5, 10 * SVD_CUTOFF), (1.0, 0.0)):
            H = np.zeros((4, 2))
            H[0] = 1.0, a
            H[1, 1] = r
            fit = GrowingFit(F, len(H_test))
            fit.add(H[:, 0])
            fit.add(H[:, 1])
            assert fit.pending == 2
            outputs = fit.test_outputs(H_test)
            assert fit.pending == 0 and np.all(np.isfinite(outputs))
            if r > 0:
                expected = H_test @ np.linalg.solve(H[:2], F[:2])
            else:
                expected = lstsq_outputs(H[:, :1], F, H_test)
            np.testing.assert_allclose(outputs, expected, rtol=1e-12, atol=0)

    def test_shape_mismatch(self):
        fit = GrowingFit(np.ones((4, 2)), 3)
        fit.add(np.arange(4.0))
        for wrong in (np.ones((3, 0)), np.ones((3, 2)), np.ones((2, 1))):
            with pytest.raises(ShapeError):
                fit.test_outputs(wrong)


class TestResidual:
    def test_zero_beta_gives_targets(self):
        F = np.eye(3)
        res = residual(np.ones((3, 2)), np.zeros((2, 3)), F)
        assert np.array_equal(res.E, F)
        assert res.sq_norm == pytest.approx(3.0)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            residual(np.ones((3, 2)), np.zeros((3, 2)), np.ones((3, 2)))

    def test_sq_norm_consistent(self):
        rng = np.random.default_rng(1)
        H, beta, F = rng.normal(size=(9, 4)), rng.normal(size=(4, 2)), \
            rng.normal(size=(9, 2))
        res = residual(H, beta, F)
        assert res.sq_norm == pytest.approx(np.sum(res.E ** 2), rel=1e-9)


class TestPredict:
    def test_argmax(self):
        beta = np.eye(3)
        assert predict_batch(np.array([[0.1, 0.9, 0.0]]), beta).tolist() == [1]

    def test_tie_breaks_low(self):
        beta = np.eye(2)
        assert predict_batch(np.array([[0.5, 0.5]]), beta).tolist() == [0]

    def test_perfect_fit_predicts_all(self):
        F = np.eye(5)
        beta = fit_output_weights(np.eye(5), F)
        pred = predict_batch(np.eye(5), beta)
        assert pred.tolist() == [0, 1, 2, 3, 4]

    def test_scaling_leaves_decisions_unchanged(self):
        rng = np.random.default_rng(2)
        H = rng.uniform(0, 1, size=(12, 4))
        F = np.zeros((12, 3))
        F[np.arange(12), rng.integers(0, 3, 12)] = 1.0
        beta = fit_output_weights(H, F)
        beta_scaled = fit_output_weights(H, 7.5 * F)
        assert np.allclose(beta_scaled, 7.5 * beta)
        assert np.array_equal(predict_batch(H, beta), predict_batch(H, beta_scaled))
