"""Shared test utilities: identifiable planted models and exact datasets."""

import numpy as np

from mcpca import PlantedModel, build_tensor, generate_planted, sample_dataset

# Reject planted draws whose loading columns are nearly collinear or
# vanish; such instances are non-identifiable by construction and are
# excluded wherever a test requires a generic identifiable model.
MAX_B_COLUMN_COS = 0.98


def generate_identifiable(p, k, r, density, seed, orthonormal=False):
    """First planted model at or after `seed` with well-separated loadings."""
    attempt = seed
    while True:
        pm = generate_planted(p, k, r, density, orthonormal=orthonormal, seed=attempt)
        norms = np.linalg.norm(pm.B_true, axis=0)
        if norms.min() > 1e-9:
            unit = pm.B_true / norms
            off = np.abs(unit.T @ unit - np.eye(r)).max()
            if off < MAX_B_COLUMN_COS:
                return pm
        attempt += 1


def duplicated_column_model(p, k, r, density, seed, scale=2.0):
    """Identifiable draw with one loading column replaced by a multiple of
    another, making the pair collinear (non-identifiable)."""
    pm = generate_identifiable(p, k, r, density, seed)
    B = pm.B_true.copy()
    B[:, 1] = scale * B[:, 0]
    return PlantedModel(A_true=pm.A_true, B_true=B, seed=pm.seed)


def exact_sample_matrix(cov, rows_per_eigvec=2):
    """Rows whose sample covariance equals `cov` exactly.

    Uses +/- pairs of scaled eigenvectors, so columns have zero mean and
    X^T X / (n - 1) reproduces the eigendecomposition.
    """
    eigvals, eigvecs = np.linalg.eigh(cov)
    eigvals = np.clip(eigvals, 0.0, None)
    p = cov.shape[0]
    n = 2 * p
    rows = []
    for j in range(p):
        row = np.sqrt(eigvals[j] * (n - 1) / 2.0) * eigvecs[:, j]
        rows.append(row)
        rows.append(-row)
    return np.asarray(rows)


def active_set_example():
    """Strongly correlated components and a context that needs Lawson-Hanson.

    Returns (A, B, extra): A is 10 x 4 with unit columns around a common
    direction (cond of (A^T A) o (A^T A) about 17), B holds positive
    loadings for five contexts, and ``extra`` is a PSD matrix off the
    model whose NNLS loadings on A need two active-set solves after the
    warm start.
    """
    rng = np.random.default_rng(1)
    u = rng.standard_normal(10)
    A = u[:, None] + 0.9 * np.linalg.norm(u) / np.sqrt(10) * rng.standard_normal((10, 4))
    A /= np.linalg.norm(A, axis=0)
    B = np.array(
        [
            [1.0, 2.0, 0.5, 1.5],
            [2.0, 1.0, 1.0, 0.5],
            [0.5, 1.0, 2.0, 1.0],
            [1.0, 0.5, 1.5, 2.0],
            [1.5, 1.5, 0.5, 1.0],
        ]
    )
    W = np.random.default_rng(44).standard_normal((10, 3))
    return A, B, W @ W.T


def benchmark_tensor(seed, p, k, r):
    """The tensor the benchmark harness builds at ``seed`` for a shape:
    a planted model of density 0.2 and 1000 samples per context, drawn
    from the seed streams (seed, 1) and (seed, 2)."""

    def derive(tag):
        return int(np.random.SeedSequence([seed, tag]).generate_state(1)[0])

    pm = generate_planted(p, k, r, 0.2, seed=derive(1))
    return build_tensor(sample_dataset(pm, 1000, seed=derive(2)))
