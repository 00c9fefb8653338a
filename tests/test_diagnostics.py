from dataclasses import replace

import numpy as np
import pytest

from helpers import generate_identifiable

from mcpca import (
    DimensionMismatchError,
    FitConfig,
    RankDeficiencyError,
    compute_diagnostics,
    fit_mcpca,
    kl_loss,
    model_dimension,
    projection_matrix,
    score_samples,
    stack_covariances,
    tensor_from_factors,
    uncorrelatedness_score,
    variance_explained,
)
from mcpca.decompose import McpcaModel, reconstruction_error


def _model_from(A, B, ids=None):
    # Assemble a model directly, honoring the ordering/sign invariants.
    order = np.argsort(-B.sum(axis=0), kind="stable")
    A = A[:, order].copy()
    B = B[:, order].copy()
    for j in range(A.shape[1]):
        if A[np.argmax(np.abs(A[:, j])), j] < 0:
            A[:, j] *= -1
    return McpcaModel(
        A=A,
        B=B,
        context_ids=ids or tuple(f"c{i}" for i in range(B.shape[0])),
        seed=0,
        converged=(True,) * A.shape[1],
    )


def _exact_case(p, k, r, seed, orthonormal=False):
    pm = generate_identifiable(p, k, r, 0.9, seed=seed, orthonormal=orthonormal)
    t = tensor_from_factors(pm.A_true, pm.B_true)
    return pm, t, _model_from(pm.A_true, pm.B_true)


class TestProjectionMatrix:
    def test_orthonormal_gives_transpose(self):
        pm, t, model = _exact_case(8, 4, 3, seed=1, orthonormal=True)
        np.testing.assert_allclose(projection_matrix(model), model.A.T, atol=1e-12)

    def test_rank_one_unit_vector(self):
        e1 = np.zeros(4)
        e1[0] = 1.0
        model = _model_from(e1[:, None], np.ones((2, 1)))
        np.testing.assert_allclose(projection_matrix(model), e1[None, :], atol=1e-15)

    def test_left_inverse(self):
        pm, t, model = _exact_case(9, 5, 4, seed=2)
        np.testing.assert_allclose(
            projection_matrix(model) @ model.A, np.eye(4), atol=1e-10
        )

    def test_rank_deficient_rejected(self):
        a = np.zeros(4)
        a[0] = 1.0
        near = a + 1e-14 * np.arange(4)
        near /= np.linalg.norm(near)
        model = _model_from(np.column_stack([a, near]), np.ones((2, 2)))
        with pytest.raises(RankDeficiencyError):
            projection_matrix(model)


class TestScoreSamples:
    def test_latent_round_trip(self):
        pm, t, model = _exact_case(8, 4, 3, seed=3)
        rng = np.random.default_rng(4)
        Z = rng.standard_normal((20, 3))
        np.testing.assert_allclose(
            score_samples(model, Z @ model.A.T), Z, atol=1e-8
        )

    def test_zero_input(self):
        pm, t, model = _exact_case(6, 3, 2, seed=5)
        np.testing.assert_array_equal(
            score_samples(model, np.zeros((4, 6))), np.zeros((4, 2))
        )

    def test_full_rank_orthonormal_is_isometry(self):
        pm, t, model = _exact_case(5, 3, 5, seed=6, orthonormal=True)
        rng = np.random.default_rng(7)
        X = rng.standard_normal((10, 5))
        scores = score_samples(model, X)
        assert abs(np.linalg.norm(scores) - np.linalg.norm(X)) <= 1e-10

    def test_shape_mismatch(self):
        pm, t, model = _exact_case(6, 3, 2, seed=8)
        with pytest.raises(DimensionMismatchError):
            score_samples(model, np.zeros((4, 5)))


class TestUncorrelatedness:
    def test_exact_model_diagonalizes(self):
        pm, t, model = _exact_case(8, 5, 3, seed=9)
        scores = uncorrelatedness_score(t, model)
        limit = 1e-8 * max(np.trace(s) for s in t.slices)
        assert scores.max() <= limit

    def test_diagonal_slices_identity_model(self):
        t = stack_covariances([np.diag([2.0, 1.0]), np.diag([3.0, 0.5])])
        model = _model_from(np.eye(2), np.array([[2.0, 1.0], [3.0, 0.5]]))
        np.testing.assert_allclose(uncorrelatedness_score(t, model), 0.0, atol=1e-14)

    def test_two_by_two_correlation(self):
        rho = 0.37
        t = stack_covariances([np.array([[1.0, rho], [rho, 1.0]])])
        model = _model_from(np.eye(2), np.array([[1.0, 1.0]]))
        np.testing.assert_allclose(
            uncorrelatedness_score(t, model), [np.sqrt(2) * rho], atol=1e-12
        )


class TestKlLoss:
    def test_diagonal_gives_zero(self):
        t = stack_covariances([np.diag([2.0, 5.0])])
        model = _model_from(np.eye(2), np.array([[2.0, 5.0]]))
        np.testing.assert_allclose(kl_loss(t, model), [0.0], atol=1e-12)

    def test_half_correlation_analytic_value(self):
        # Direct evaluation: log det Diag - log det = -log(1 - 0.5^2).
        t = stack_covariances([np.array([[1.0, 0.5], [0.5, 1.0]])])
        model = _model_from(np.eye(2), np.array([[1.0, 1.0]]))
        (value,) = kl_loss(t, model)
        assert value == pytest.approx(-np.log(0.75), abs=1e-12)
        assert value == pytest.approx(0.2876820724517809, abs=1e-12)

    def test_exact_model_near_zero(self):
        pm = generate_identifiable(8, 5, 3, 1.0, seed=10)
        t = tensor_from_factors(pm.A_true, pm.B_true)
        model = _model_from(pm.A_true, pm.B_true)
        values = kl_loss(t, model)
        assert all(v is not None and v <= 1e-8 for v in values)
        assert all(v >= -1e-10 for v in values)

    def test_non_pd_context_reports_none(self):
        # Second context has a zero slice: projected covariance singular.
        rng = np.random.default_rng(11)
        A = np.linalg.qr(rng.standard_normal((5, 2)))[0]
        t = tensor_from_factors(A, np.array([[1.0, 2.0], [0.0, 0.0]]))
        model = _model_from(A, np.array([[1.0, 2.0], [0.0, 0.0]]))
        values = kl_loss(t, model)
        assert values[0] is not None
        assert values[1] is None

    def test_zero_iff_uncorrelated(self):
        rho = 0.25
        t = stack_covariances(
            [np.diag([1.0, 2.0]), np.array([[1.0, rho], [rho, 1.0]])]
        )
        model = _model_from(np.eye(2), np.array([[1.0, 2.0], [1.0, 1.0]]))
        kl = kl_loss(t, model)
        unc = uncorrelatedness_score(t, model)
        assert kl[0] == pytest.approx(0.0, abs=1e-12)
        assert unc[0] == pytest.approx(0.0, abs=1e-12)
        assert kl[1] > 1e-3 and unc[1] > 1e-3


class TestVarianceExplained:
    def test_exact_model_full_ratio(self):
        pm, t, model = _exact_case(8, 5, 3, seed=12)
        ve = variance_explained(t, model)
        np.testing.assert_allclose(ve.ratio, 1.0, atol=1e-9)

    def test_zero_loadings_explain_nothing(self):
        pm, t, _ = _exact_case(6, 3, 2, seed=13)
        model = _model_from(pm.A_true, np.zeros((3, 2)))
        ve = variance_explained(t, model)
        np.testing.assert_array_equal(ve.ratio, 0.0)
        np.testing.assert_array_equal(ve.explained, 0.0)

    def test_orthonormal_explained_is_squared_loadings(self):
        # Oracle: direct Frobenius norms of A B_i A^T; with orthonormal A
        # the Gram matrix is the identity so cross terms vanish.
        pm, t, model = _exact_case(8, 4, 3, seed=14, orthonormal=True)
        ve = variance_explained(t, model)
        direct = np.array(
            [
                np.linalg.norm(model.A @ np.diag(model.B[i]) @ model.A.T) ** 2
                for i in range(4)
            ]
        )
        np.testing.assert_allclose(ve.explained, (model.B**2).sum(axis=1), atol=1e-10)
        np.testing.assert_allclose(ve.explained, direct, atol=1e-10)


def test_scaling_to_the_float_limit_is_exact():
    # Tensor and loadings scaled by 2^520: their squares pass the float
    # limit, but the norms scale exactly, the ratios and KL gaps keep their
    # bits, only the explained mass overflows (to inf), and nothing warns
    # (the suite makes RuntimeWarnings errors).
    pm = generate_identifiable(6, 4, 2, 0.7, seed=3)
    rng = np.random.default_rng(0)
    noise = rng.standard_normal((4, 6, 6)) * 0.05
    t = stack_covariances(tensor_from_factors(pm.A_true, pm.B_true).slices + noise @ noise.transpose(0, 2, 1))
    m = fit_mcpca(t, 2, FitConfig(seed=0))[0]
    big_t = stack_covariances(t.slices * 2.0**520)
    big_m = replace(m, B=m.B * 2.0**520)
    d, big = compute_diagnostics(t, m), compute_diagnostics(big_t, big_m)
    assert np.array_equal(big.variance.ratio, d.variance.ratio)
    assert np.isinf(big.variance.explained).all()
    assert np.array_equal(big.uncorrelatedness, d.uncorrelatedness * 2.0**520)
    assert big.kl_loss == d.kl_loss
    total, per_context = reconstruction_error(t, m)
    big_total, big_per_context = reconstruction_error(big_t, big_m)
    assert big_total == total * 2.0**520
    assert np.array_equal(big_per_context, per_context * 2.0**520)


class TestModelDimension:
    def test_benchmark_scale_value(self):
        assert model_dimension(100, 50, 60) == 8940

    def test_empty_model(self):
        assert model_dimension(5, 3, 0) == 0

    def test_small_case(self):
        assert model_dimension(2, 1, 1) == 2

    def test_rank_above_p_rejected(self):
        with pytest.raises(ValueError):
            model_dimension(4, 3, 5)


def test_compute_diagnostics_assembles_everything():
    pm, t, model = _exact_case(7, 4, 3, seed=16)
    diag = compute_diagnostics(t, model)
    assert diag.uncorrelatedness.shape == (4,)
    assert len(diag.kl_loss) == 4
    assert diag.variance.ratio.shape == (4,)


def test_compute_diagnostics_projects_once(monkeypatch):
    # One projection serves both the uncorrelatedness and the log-det gap,
    # which keep the bits of the public functions that project apiece.
    import mcpca.diagnostics as diagnostics

    rng = np.random.default_rng(5)
    t = stack_covariances([np.cov(rng.standard_normal((4, 30))) for _ in range(5)])
    model, _ = fit_mcpca(t, 3, FitConfig(seed=0))
    calls = []
    real = diagnostics.projection_matrix
    monkeypatch.setattr(
        diagnostics, "projection_matrix", lambda m: calls.append(m) or real(m)
    )
    diag = compute_diagnostics(t, model)
    assert len(calls) == 1
    np.testing.assert_array_equal(diag.uncorrelatedness, uncorrelatedness_score(t, model))
    assert diag.kl_loss == kl_loss(t, model)
    assert len(calls) == 3


def test_fitted_model_diagnostics_match_planted(seed=17):
    # Density 1 keeps every projected covariance positive definite (a
    # zero loading makes the corresponding B_i singular and the log-det
    # undefined for that context).
    pm = generate_identifiable(8, 5, 3, 1.0, seed=seed)
    t = tensor_from_factors(pm.A_true, pm.B_true)
    model, _ = fit_mcpca(t, 3, FitConfig(seed=0))
    diag = compute_diagnostics(t, model)
    assert diag.variance.ratio.min() >= 1 - 1e-8
    assert all(v is not None and v <= 1e-8 for v in diag.kl_loss)
