"""Reference methods: PCA on combined data, and Jennrich's algorithm.

Both recover only component directions (no loadings); they serve as
oracles and comparison points for the power-method fit.  Jennrich
contracts the tensor with two random vectors and reads components off a
generalized eigendecomposition; it is exact on noiseless identifiable
input but fragile under noise, which is expected behavior.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DegeneracyError, DimensionMismatchError
from .tensor_core import CovarianceTensor, contract_mode3, fix_signs

# Eigenvalue gaps at or below this (relative to the largest magnitude)
# count as collisions.
_PCA_TIE_TOL = 1e-12
_JENNRICH_COLLISION_TOL = 1e-10

# Imaginary parts above this fraction of the eigenvalue scale are noted;
# real parts are used regardless.
_IMAG_NOTE_TOL = 1e-8

# Degenerate contraction draws are retried this many times.
_JENNRICH_REDRAWS = 2


@dataclass(frozen=True)
class BaselineResult:
    """Recovered unit-norm components plus degeneracy notes."""

    method: str
    A: np.ndarray
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        if A.ndim != 2:
            raise DimensionMismatchError("A must be a matrix")
        if np.abs(np.linalg.norm(A, axis=0) - 1.0).max() > 1e-10:
            raise ValueError("columns must have unit norm within 1e-10")
        A = A.copy()
        A.setflags(write=False)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "notes", tuple(self.notes))


def pca_stack(t: CovarianceTensor, weights=None, r: int | None = None) -> BaselineResult:
    """Top-r eigenvectors of the weighted average covariance matrix.

    ``weights`` must be positive and sum to 1 (uniform when omitted).  A
    tie between the r-th and (r+1)-th eigenvalue makes the returned basis
    non-unique; this is flagged in ``notes`` rather than raised.
    """
    if r is None:
        raise ValueError("rank r is required")
    if not 1 <= r <= t.p:
        raise ValueError(f"rank must be in [1, p={t.p}], got {r}")
    if weights is None:
        w = np.full(t.k, 1.0 / t.k)
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape != (t.k,):
            raise DimensionMismatchError(f"need {t.k} weights, got shape {w.shape}")
        if np.any(w <= 0):
            raise ValueError("weights must be positive")
        if abs(w.sum() - 1.0) > 1e-8:
            raise ValueError("weights must sum to 1")
    combined = contract_mode3(t, w)
    eigvals, eigvecs = np.linalg.eigh(combined)
    order = np.argsort(eigvals)[::-1]
    eigvals = eigvals[order]
    A = eigvecs[:, order[:r]]
    fix_signs(A)
    notes = []
    if r < t.p:
        gap = eigvals[r - 1] - eigvals[r]
        if gap <= _PCA_TIE_TOL * max(1.0, abs(eigvals[0])):
            notes.append("eigenvalue-tie")
    return BaselineResult(method="pca_stack", A=A, notes=tuple(notes))


def _jennrich_attempt(t: CovarianceTensor, r, rng):
    u = rng.standard_normal(t.k)
    u /= np.linalg.norm(u)
    v = rng.standard_normal(t.k)
    v /= np.linalg.norm(v)
    m1 = contract_mode3(t, u)
    m2 = contract_mode3(t, v)
    basis, s, _ = np.linalg.svd(m2)
    if s[0] <= 0.0 or s[r - 1] <= 1e-12 * s[0]:
        raise DegeneracyError(
            f"second contraction has numerical rank below {r}; redraw"
        )
    ur = basis[:, :r]
    m1r = ur.T @ m1 @ ur
    m2r = ur.T @ m2 @ ur
    eigvals, eigvecs = np.linalg.eig(m1r @ np.linalg.inv(m2r))
    scale = max(1.0, float(np.abs(eigvals).max()))
    if r > 1:
        diffs = np.abs(eigvals[:, None] - eigvals[None, :])
        diffs[np.arange(r), np.arange(r)] = np.inf
        if diffs.min() <= _JENNRICH_COLLISION_TOL * scale:
            raise DegeneracyError(
                "eigenvalue collision: two loading columns have coinciding "
                "contraction ratios"
            )
    notes = []
    if float(np.abs(eigvals.imag).max()) > _IMAG_NOTE_TOL * scale:
        notes.append("complex-eigenvalues")
    order = np.argsort(eigvals.real)[::-1]
    comps = (ur @ eigvecs.real)[:, order]
    norms = np.linalg.norm(comps, axis=0)
    if np.any(norms <= 1e-12):
        raise DegeneracyError("eigenvector with vanishing real part; redraw")
    comps /= norms
    fix_signs(comps)
    return BaselineResult(method="jennrich", A=comps, notes=tuple(notes))


def jennrich(t: CovarianceTensor, r: int, seed: int = 0) -> BaselineResult:
    """Components via simultaneous diagonalization of two random contractions.

    Forms M1, M2 from contraction vectors drawn on the sphere, restricts
    M1 @ pinv(M2) to the top-r column space of M2 (so low-rank tensors
    with r < p stay well posed) and reads the components off the
    eigenvectors of the reduced r x r operator.  Eigenvalue collisions
    trigger up to two redraws; if every draw collides (structural
    degeneracy, e.g. duplicated loading columns) ``DegeneracyError`` is
    raised.
    """
    if not 1 <= r <= t.p:
        raise ValueError(f"rank must be in [1, p={t.p}], got {r}")
    rng = np.random.default_rng(seed)
    failure = None
    for _ in range(1 + _JENNRICH_REDRAWS):
        try:
            return _jennrich_attempt(t, r, rng)
        except DegeneracyError as exc:
            failure = exc
    raise DegeneracyError(
        f"eigenvalue collision persisted across {1 + _JENNRICH_REDRAWS} draws: "
        f"{failure}"
    )
