"""Dense covariance-tensor representation, flattening and contractions.

A covariance tensor stacks one symmetric p x p matrix per context into a
p x p x k array that is symmetric under swapping its first two indices.
Every other module works through the operations here: the SVD of the
flattening (the p x (p*k) matrix whose column blocks are the individual
slices), computed once per tensor and cached on it; mode-3 contractions;
and the orthonormal subspace bases that power iterations contract.

Vectorization convention: a p x k matrix ``D`` and a vector in R^{p*k}
are identified by ``vec(D)[i*p + alpha] = D[alpha, i]`` (variable index
fastest, context index slowest).  This matches the column-block order of
the flattening and is part of the on-disk contract.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import AsymmetricInputError, DimensionMismatchError

# Relative tolerance for the symmetry check on input slices.  Inputs that
# pass are symmetrized exactly so drift cannot accumulate downstream.
SYMMETRY_RTOL = 1e-12

# Orthonormality tolerance for subspace bases.
ORTHONORMALITY_TOL = 1e-10


def _as_float_array(x, name):
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class CovarianceTensor:
    """Stack of k symmetric p x p covariance matrices.

    ``slices`` has shape (k, p, p); slice i is the covariance matrix of
    context i.  Slices are validated to be symmetric within
    ``SYMMETRY_RTOL`` (relative to the largest entry magnitude) and then
    symmetrized exactly.  Instances are immutable and safe to share; the
    SVD of the flattening is cached on first use by :func:`flatten`.
    ``slices`` is a read-only view of a private base array, so its write
    flag cannot be turned back on.
    """

    slices: np.ndarray
    context_ids: tuple[str, ...] | None = None
    _flattening: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        slices = _as_float_array(self.slices, "slices")
        if slices.ndim != 3 or slices.shape[1] != slices.shape[2]:
            raise DimensionMismatchError(
                f"expected a (k, p, p) stack of square matrices, got shape {slices.shape}"
            )
        k, p, _ = slices.shape
        if k < 1 or p < 1:
            raise DimensionMismatchError("need k >= 1 contexts and p >= 1 variables")
        for i in range(k):
            s = slices[i]
            scale = max(1.0, float(np.abs(s).max()))
            dev = float(np.abs(s - s.T).max())
            if dev > SYMMETRY_RTOL * scale:
                raise AsymmetricInputError(
                    f"slice {i} is asymmetric: max |S - S^T| = {dev:.3e} "
                    f"exceeds {SYMMETRY_RTOL:.0e} * {scale:.3e}"
                )
        slices = 0.5 * (slices + slices.transpose(0, 2, 1))
        slices.setflags(write=False)
        # Expose a view: numpy refuses to make a view of a read-only base
        # writable again, which keeps the cached flattening valid.
        object.__setattr__(self, "slices", slices.view())
        if self.context_ids is not None:
            ids = tuple(str(c) for c in self.context_ids)
            if len(ids) != k:
                raise DimensionMismatchError(
                    f"got {len(ids)} context ids for {k} slices"
                )
            object.__setattr__(self, "context_ids", ids)

    @property
    def p(self) -> int:
        return self.slices.shape[1]

    @property
    def k(self) -> int:
        return self.slices.shape[0]


@dataclass(frozen=True)
class SubspaceTensor:
    """Orthonormal basis of an r-dimensional subspace of p x k matrices.

    ``basis`` has shape (r, p, k); the vectorized rows (see module
    docstring) are pairwise orthonormal.  The contiguous (p, k*r)
    unfolding used by power iterations is cached at construction.
    """

    basis: np.ndarray
    _unfold_p: np.ndarray = field(init=False, repr=False, compare=False)
    _flat: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        basis = _as_float_array(self.basis, "basis")
        if basis.ndim != 3:
            raise DimensionMismatchError("basis must have shape (r, p, k)")
        r, p, k = basis.shape
        if r > p:
            raise DimensionMismatchError(f"r={r} exceeds p={p}")
        flat = np.ascontiguousarray(basis.transpose(0, 2, 1).reshape(r, p * k))
        gram_dev = float(np.abs(flat @ flat.T - np.eye(r)).max())
        if gram_dev > ORTHONORMALITY_TOL:
            raise ValueError(
                f"basis is not orthonormal: max Gram deviation {gram_dev:.3e}"
            )
        unfold_p = np.ascontiguousarray(basis.transpose(1, 2, 0).reshape(p, k * r))
        for arr in (basis, flat, unfold_p):
            arr.setflags(write=False)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "_flat", flat)
        object.__setattr__(self, "_unfold_p", unfold_p)

    @property
    def r(self) -> int:
        return self.basis.shape[0]

    @property
    def p(self) -> int:
        return self.basis.shape[1]

    @property
    def k(self) -> int:
        return self.basis.shape[2]


def stack_covariances(matrices, context_ids=None) -> CovarianceTensor:
    """Stack symmetric p x p matrices, in order, into a covariance tensor.

    Raises ``DimensionMismatchError`` if the matrices are not all square
    with a shared p, and ``AsymmetricInputError`` if any is asymmetric
    beyond tolerance.
    """
    mats = [_as_float_array(m, f"matrix {i}") for i, m in enumerate(matrices)]
    if not mats:
        raise DimensionMismatchError("need at least one covariance matrix")
    p = None
    for i, m in enumerate(mats):
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatchError(f"matrix {i} is not square: shape {m.shape}")
        if p is None:
            p = m.shape[0]
        elif m.shape[0] != p:
            raise DimensionMismatchError(
                f"matrix {i} is {m.shape[0]} x {m.shape[0]}, expected {p} x {p}"
            )
    return CovarianceTensor(np.stack(mats), context_ids=context_ids)


def tensor_from_factors(A, B, context_ids=None) -> CovarianceTensor:
    """Build the exact tensor with slices A @ diag(B[i]) @ A.T.

    ``A`` is p x r with unit-norm columns, ``B`` is k x r non-negative.
    """
    A = _as_float_array(A, "A")
    B = _as_float_array(B, "B")
    if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[1]:
        raise DimensionMismatchError(
            f"incompatible factor shapes {A.shape} and {B.shape}"
        )
    slices = np.einsum("pj,qj,ij->ipq", A, A, B, optimize=True)
    return CovarianceTensor(slices, context_ids=context_ids)


def flatten(t: CovarianceTensor) -> tuple[np.ndarray, np.ndarray]:
    """SVD of the flattening M = [S_1 ... S_k]: (singular_values, vt).

    ``singular_values`` has length p, nonincreasing; the rows of ``vt``
    (p x p*k) are the right singular vectors, vectorized as in the module
    docstring.  The SVD runs once per tensor: the read-only result is
    cached on ``t`` (sound because its slices cannot be made writable) and
    shared by every later call.
    """
    if t._flattening is None:
        m = t.slices.transpose(1, 0, 2).reshape(t.p, t.k * t.p)
        _, sv, vt = np.linalg.svd(m, full_matrices=False)
        sv.setflags(write=False)
        vt.setflags(write=False)
        object.__setattr__(t, "_flattening", (sv, vt))
    return t._flattening


def contract_mode3(t: CovarianceTensor, v) -> np.ndarray:
    """Weighted sum of slices: sum_i v[i] * S_i.  Symmetric by construction."""
    v = _as_float_array(v, "v")
    if v.shape != (t.k,):
        raise DimensionMismatchError(f"expected length {t.k}, got {v.shape}")
    return np.tensordot(v, t.slices, axes=(0, 0))
