"""Dense covariance-tensor representation, flattening and contractions.

A covariance tensor stacks one symmetric p x p matrix per context into a
p x p x k array that is symmetric under swapping its first two indices.
Every other module works through the operations here: the SVD of the
flattening M = [S_1 ... S_k] (the p x (p*k) matrix whose column blocks
are the individual slices), computed once per tensor and cached on it,
and mode-3 contractions.  Column i*p + alpha of M holds variable alpha
of context i, and so does entry i*p + alpha of a right singular vector.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import AsymmetricInputError, DimensionMismatchError

# Relative tolerance for the symmetry check on input slices.  Inputs that
# pass are symmetrized exactly so drift cannot accumulate downstream.
SYMMETRY_RTOL = 1e-12


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
    _svd: tuple[np.ndarray, np.ndarray] | None = field(
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
    (p x p*k) are the right singular vectors, indexed like the columns of
    M (see the module docstring).  The SVD runs once per tensor: the
    read-only result is cached on ``t`` (sound because its slices cannot
    be made writable) and shared by every later call.
    """
    if t._svd is None:
        m = t.slices.transpose(1, 0, 2).reshape(t.p, t.k * t.p)
        _, sv, vt = np.linalg.svd(m, full_matrices=False)
        sv.setflags(write=False)
        vt.setflags(write=False)
        object.__setattr__(t, "_svd", (sv, vt))
    return t._svd


def fix_signs(A) -> np.ndarray:
    """Negate, in place, each column of ``A`` whose entry of largest
    magnitude (the first such entry, on ties) is negative.

    This is the one sign convention of components and projection rows.
    Returns the mask of negated columns.
    """
    flip = A[np.argmax(np.abs(A), axis=0), np.arange(A.shape[1])] < 0
    A[:, flip] *= -1.0
    return flip


def binary_scale(x, axis=None) -> np.ndarray:
    """The largest power of two at most the largest |entry| of ``x`` along
    ``axis`` (1/2 where they are all 0), with the reduced axes kept.

    Dividing by it is exact, and it brings the entries below 2, so their
    squares and sums stay in range: the norms and masses of data near the
    float limit need it.
    """
    top = np.abs(x).max(axis=axis, keepdims=True, initial=0.0)
    return np.ldexp(1.0, np.frexp(top)[1] - 1)


def frobenius(x, axis=None) -> np.ndarray:
    """``np.linalg.norm(x, axis=axis)`` computed on ``x`` divided by its
    :func:`binary_scale`: the same bits where numpy's squares stay in
    range, and inf, without a warning, for a norm past the float limit."""
    scale = binary_scale(x, axis)
    with np.errstate(over="ignore"):
        return np.linalg.norm(x / scale, axis=axis) * np.squeeze(scale, axis)


def contract_mode3(t: CovarianceTensor, v) -> np.ndarray:
    """Weighted sum of slices: sum_i v[i] * S_i.  Symmetric by construction."""
    v = _as_float_array(v, "v")
    if v.shape != (t.k,):
        raise DimensionMismatchError(f"expected length {t.k}, got {v.shape}")
    return np.tensordot(v, t.slices, axes=(0, 0))
