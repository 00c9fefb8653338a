"""Post-fit quantities: sample scores, variance explained, diagonality.

On an exact model the projection A^+ maps data to coordinates that are
uncorrelated in every context, so both the off-diagonal mass of the
projected covariances and the log-det gap between them and their
diagonal parts vanish.  Both are reported per context as goodness
measures for real data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decompose import McpcaModel
from .exceptions import DimensionMismatchError, RankDeficiencyError
from .tensor_core import CovarianceTensor, binary_scale

# Condition-number ceiling for treating A as full column rank.
CONDITION_LIMIT = 1e12

# Projected covariances with min eigenvalue at or below this fraction of
# the trace are reported as non-positive-definite instead of producing a
# log-det.
PD_RTOL = 1e-12


@dataclass(frozen=True)
class Diagnostics:
    """Per-context diagnostics, one entry per context.

    ``explained_ratio[i]`` is ||A B_i A^T||_F^2 / ||S_i||_F^2 (0 for a zero
    slice); the explained mass plus the residual make up ||S_i||_F^2 only
    when no non-negativity constraint is active in the loadings.
    ``uncorrelatedness[i]`` is the Frobenius norm of the off-diagonal of
    A^+ S_i (A^+)^T, inf past the float limit, and ``kl_loss`` is
    :func:`kl_loss`.
    """

    explained_ratio: np.ndarray
    uncorrelatedness: np.ndarray
    kl_loss: tuple[float | None, ...]


def model_dimension(p: int, k: int, r: int) -> int:
    """Parameter count of the rank-r model: r * (p + k - 1)."""
    if r < 0 or p < 1 or k < 1:
        raise ValueError("need p >= 1, k >= 1, r >= 0")
    if r > p:
        raise ValueError(f"rank {r} exceeds p = {p}")
    return r * (p + k - 1)


def projection_matrix(m: McpcaModel) -> np.ndarray:
    """Left inverse A^+ = (A^T A)^{-1} A^T mapping data to component scores."""
    gram = m.A.T @ m.A
    if np.linalg.cond(gram) > CONDITION_LIMIT:
        raise RankDeficiencyError(
            "components are not numerically linearly independent; "
            "the projection matrix is undefined"
        )
    return np.linalg.solve(gram, m.A.T)


def score_samples(m: McpcaModel, X) -> np.ndarray:
    """Project centered samples onto the components: X @ (A^+)^T."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != m.p:
        raise DimensionMismatchError(
            f"X must have {m.p} columns, got shape {X.shape}"
        )
    return X @ projection_matrix(m).T


def _projected_slices(t: CovarianceTensor, m: McpcaModel):
    """A^+ S_i (A^+)^T of each context, divided by the binary scale of S_i
    (exact, and in range for slices near the float limit), and the (k,)
    scales."""
    if m.p != t.p or m.k != t.k:
        raise DimensionMismatchError(
            f"model is ({m.p}, {m.k}), tensor is ({t.p}, {t.k})"
        )
    pinv = projection_matrix(m)
    scale = binary_scale(t.slices, axis=(1, 2))
    projected = np.einsum("rp,ipq,sq->irs", pinv, t.slices / scale, pinv, optimize=True)
    return 0.5 * (projected + projected.transpose(0, 2, 1)), scale[:, 0, 0]


def _log_det_gaps(projected) -> tuple[float | None, ...]:
    out: list[float | None] = []
    for s in projected:
        trace = float(np.trace(s))
        eigvals = np.linalg.eigvalsh(s)
        if trace <= 0.0 or eigvals[0] <= PD_RTOL * trace:
            out.append(None)
            continue
        out.append(float(np.sum(np.log(np.diag(s))) - np.sum(np.log(eigvals))))
    return tuple(out)


def kl_loss(t: CovarianceTensor, m: McpcaModel) -> tuple[float | None, ...]:
    """Log-det gap between projected covariances and their diagonals.

    Entry i is log det Diag(S'_i) - log det S'_i for S'_i = A^+ S_i
    (A^+)^T, which is (twice) the KL divergence from the projected
    Gaussian to its decorrelated version; non-negative by Hadamard's
    inequality and zero iff S'_i is diagonal.  Contexts whose projected
    covariance is not positive definite (min eigenvalue <= PD_RTOL *
    trace) report None instead of a value; log-dets use the symmetric
    eigendecomposition for stability near singularity.
    """
    return _log_det_gaps(_projected_slices(t, m)[0])  # the gap is scale-free


def compute_diagnostics(t: CovarianceTensor, m: McpcaModel) -> Diagnostics:
    """All per-context diagnostics, from one projection of the tensor."""
    projected, scale = _projected_slices(t, m)
    # The explained mass goes through the Gram matrix of the component
    # outer products, with S_i and B_i divided by the binary scale of S_i:
    # the ratio keeps its bits, and stays finite near the float limit.
    s = t.slices / scale[:, None, None]
    b = m.B / scale[:, None]
    explained = np.einsum("ij,jl,il->i", b, (m.A.T @ m.A) ** 2, b, optimize=True)
    totals = np.einsum("ipq,ipq->i", s, s)
    off = projected.copy()
    idx = np.arange(off.shape[1])
    off[:, idx, idx] = 0.0
    with np.errstate(over="ignore"):
        uncorrelatedness = np.linalg.norm(off, axis=(1, 2)) * scale
    return Diagnostics(
        explained_ratio=np.divide(
            explained, totals, out=np.zeros_like(explained), where=totals > 0
        ),
        uncorrelatedness=uncorrelatedness,
        kl_loss=_log_det_gaps(projected),
    )
