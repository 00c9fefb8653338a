import numpy as np
import pytest

from helpers import generate_identifiable

from mcpca import (
    DegeneracyError,
    FitConfig,
    ascore,
    fit_mcpca,
    jennrich,
    pca_stack,
    stack_covariances,
    tensor_from_factors,
)


class TestPcaStack:
    def test_diagonal_average(self):
        t = stack_covariances([np.diag([4.0, 1.0]), np.diag([2.0, 1.0])])
        result = pca_stack(t, 1)
        np.testing.assert_allclose(np.abs(result.A[:, 0]), [1.0, 0.0], atol=1e-12)
        assert result.notes == ()

    def test_repeated_eigenvalue_flagged(self):
        t = stack_covariances([np.diag([2.0, 0.0]), np.diag([0.0, 2.0])])
        result = pca_stack(t, 1)
        assert "eigenvalue-tie" in result.notes

    def test_single_context_is_ordinary_pca(self):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((5, 5))
        cov = m @ m.T
        t = stack_covariances([cov])
        result = pca_stack(t, 3)
        eigvals, eigvecs = np.linalg.eigh(cov)
        top = eigvecs[:, np.argsort(eigvals)[::-1][:3]]
        assert ascore(top, result.A).ascore >= 1 - 1e-10


class TestJennrich:
    def test_diagonal_two_component_model(self):
        t = tensor_from_factors(
            np.eye(2), np.array([[1.0, 2.0], [3.0, 1.0]])
        )
        result = jennrich(t, 2, seed=0)
        assert ascore(np.eye(2), result.A).ascore >= 1 - 1e-9

    def test_generic_planted_recovery_with_residual_oracle(self):
        # Oracle: solve for loadings given the recovered directions and
        # check the full tensor residual vanishes.
        pm = generate_identifiable(6, 4, 3, 0.8, seed=2)
        t = tensor_from_factors(pm.A_true, pm.B_true)
        result = jennrich(t, 3, seed=3)
        assert ascore(pm.A_true, result.A).ascore >= 0.999
        design = np.einsum("pj,qj->pqj", result.A, result.A).reshape(36, 3)
        recon = np.empty_like(t.slices)
        for i in range(4):
            coef = np.linalg.lstsq(design, t.slices[i].ravel(), rcond=None)[0]
            recon[i] = (design @ coef).reshape(6, 6)
        assert np.linalg.norm(recon - t.slices) <= 1e-8 * np.linalg.norm(t.slices)

    def test_duplicated_loading_columns_always_degenerate(self):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((5, 2))
        A /= np.linalg.norm(A, axis=0)
        b = np.abs(rng.standard_normal(4)) + 0.5
        t = tensor_from_factors(A, np.column_stack([b, b]))
        for seed in range(10):
            with pytest.raises(DegeneracyError):
                jennrich(t, 2, seed=seed)

    def test_rank_validated(self):
        t = stack_covariances([np.eye(3)])
        with pytest.raises(ValueError):
            jennrich(t, 4, seed=0)


class TestBaselineAgreement:
    def test_jennrich_matches_power_method_fit(self):
        for seed in (10, 11, 12):
            pm = generate_identifiable(10, 6, 4, 0.6, seed=seed)
            t = tensor_from_factors(pm.A_true, pm.B_true)
            model, _ = fit_mcpca(t, 4, FitConfig(seed=0))
            result = jennrich(t, 4, seed=1)
            assert ascore(result.A, model.A).ascore >= 0.999

    def test_commuting_orthonormal_case_agrees(self):
        # Orthonormal components make all slices commute; the combined
        # eigenvectors then coincide with the fitted components whenever
        # the loading columns are distinct.  (With loading columns all
        # proportional to the same vector, the extracted subspace is made
        # entirely of rank-one elements and component directions inside it
        # are not determined; see the decisions ledger.)
        for seed in (20, 21, 22):
            pm = generate_identifiable(10, 6, 4, 1.0, seed=seed, orthonormal=True)
            t = tensor_from_factors(pm.A_true, pm.B_true)
            model, _ = fit_mcpca(t, 4, FitConfig(seed=0))
            stacked = pca_stack(t, 4)
            assert ascore(stacked.A, model.A).ascore >= 0.999
            assert ascore(pm.A_true, model.A).ascore >= 0.999

    def test_generic_non_orthogonal_plants_differ(self):
        for seed in (30, 31, 32):
            pm = generate_identifiable(10, 6, 4, 0.6, seed=seed)
            t = tensor_from_factors(pm.A_true, pm.B_true)
            model, _ = fit_mcpca(t, 4, FitConfig(seed=0))
            stacked = pca_stack(t, 4)
            assert ascore(pm.A_true, stacked.A).ascore < 0.95
            assert ascore(pm.A_true, model.A).ascore >= 0.999
