"""Rank-r partially symmetric decomposition of a covariance tensor.

The fit proceeds in three stages:

1. extract the r-dimensional working subspace spanned by the top right
   singular vectors of the flattening [S_1 ... S_k].  That SVD depends
   only on the tensor: it runs once per tensor and is shared by every
   fit of it, whatever the rank or seed;
2. find component directions one at a time: power iterations maximize
   F(a, b) = ||T_A(a, b, *)||^2, the squared norm of the projection of
   the unit rank-one matrix a (x) b onto the working subspace.  All
   restarts of a component advance together as one block, and each step
   reads the subspace's unfolding twice, in two matrix-matrix products:
   the contraction behind one step's b-update is carried into the next
   step's c-update.  Each discovered pair is refined on the original
   (undeflated) subspace and then projected out of the working basis
   before the next component is sought.  Refinement matters: with
   non-orthogonal components the deflated subspace no longer contains
   the remaining rank-one generators exactly, so maximizers drift by an
   amount that grows with the component correlations; re-running the
   iteration on the original subspace from the discovered point removes
   that bias.
3. recompute all loadings globally by non-negative least squares against
   the original tensor, discarding the loadings implied by the power
   iterations.  Each context's problem is solved on its r x r normal
   equations G b = h_i, b >= 0, with G = (A^T A) o (A^T A) and
   h_i = diag(A^T S_i A), which have the same minimizer as the p^2 x r
   least-squares problem.  A Lawson-Hanson active-set solver in numpy
   works on (G, h_i) directly: no Cholesky factor, no scipy.

Vectorization convention: a p x k matrix D and a vector in R^{p*k} are
identified by vec(D)[i*p + alpha] = D[alpha, i] (variable index fastest,
context index slowest), the column order of the flattening.  The working
subspace is held as r orthonormal rows in that order; :func:`_unfoldings`
gives the unfolding the power iterations contract.

Fits are deterministic given (tensor, rank, config) at a fixed BLAS
thread count: restart points are drawn up front from a seeded generator,
and ties between restarts are broken by the earliest restart index.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .exceptions import (
    DegenerateStartError,
    DimensionMismatchError,
    GramSingularityError,
    RankDeficiencyError,
)
from .tensor_core import CovarianceTensor, flatten

# Singular values below RANK_RTOL * sigma_1 do not count toward the
# numerical rank of the flattening.
RANK_RTOL = 1e-12

# Contractions with norm at or below this are treated as exactly zero
# (degenerate start), not as tiny-but-usable directions.
_DEGENERATE_NORM = 1e-150

# Maximum admissible condition number of the NNLS Gram matrix.
GRAM_COND_LIMIT = 1e12

# Restart objectives within this of the best are ties, broken by the
# earliest restart index.  Keeps the winner independent of evaluation
# order when maximizers share the same objective value exactly.
_RESTART_TIE_TOL = 1e-9

# A refined component (a, b) whose contraction T_A(*, b, *) has
# 1 - sigma_2/sigma_1 at or below this shares its loading direction b
# with a second component direction, so the pair is determined only up
# to a rotation (see docs/decisions.md).  Exact collinear loadings give
# gaps at rounding level (<= 4e-16 measured); loadings perturbed by 10%
# give 3.7e-3 and generic identifiable models 6e-2 and more.
IDENTIFIABILITY_GAP_TOL = 1e-8

# Refinement runs until the sign-aligned step of both unit iterates is at
# most this, i.e. until each component sits at its floating-point fixed
# point (noiseless generators become exact to machine precision).  The
# iteration contracts linearly, so stopping on the tolerance instead
# would leave an error of the same order as the last step.
_FIXED_POINT_STEP = 16 * np.finfo(float).eps

# Cap on the Lawson-Hanson solves of one NNLS row, per column of A
# (scipy.optimize.nnls uses the same 3r).
_NNLS_SOLVES_PER_COLUMN = 3


@dataclass(frozen=True)
class FitConfig:
    """Knobs for :func:`fit_mcpca`.

    ``tol`` bounds the successive cosine gap 1 - |<x_new, x_old>| of both
    unit-vector iterates: a restart has converged, and its discovery
    stops, once the gap falls below it.  Refinement continues past that
    point to the floating-point fixed point, within ``max_iter``
    iterations.  ``restarts_per_component`` random starts are drawn per
    component from ``seed``.
    """

    seed: int = 0
    restarts_per_component: int = 10
    tol: float = 1e-10
    max_iter: int = 500

    def __post_init__(self):
        if self.restarts_per_component < 1:
            raise ValueError("restarts_per_component must be >= 1")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass(frozen=True)
class McpcaModel:
    """Fitted components A (p x r, unit columns) and loadings B (k x r, >= 0).

    Both must be finite.  That check is explicit because a NaN fails
    every comparison, so it would pass all the others.

    Columns are ordered by nonincreasing column sums of B and sign-fixed
    so each column of A has a positive entry of maximum magnitude.
    """

    A: np.ndarray
    B: np.ndarray
    context_ids: tuple[str, ...]
    ordering_rule: str
    sign_rule: str
    seed: int
    converged: tuple[bool, ...]

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        B = np.asarray(self.B, dtype=float)
        for name, m in (("A", A), ("B", B)):
            if not np.all(np.isfinite(m)):
                raise ValueError(f"{name} contains non-finite entries")
        if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[1]:
            raise DimensionMismatchError(
                f"incompatible A {A.shape} and B {B.shape}"
            )
        norms = np.linalg.norm(A, axis=0)
        if np.abs(norms - 1.0).max() > 1e-10:
            raise ValueError("columns of A must have unit norm within 1e-10")
        if np.any(B < 0):
            raise ValueError("B must be entrywise non-negative")
        # Sums of B over its largest entry: those of B itself can overflow.
        top = float(B.max(initial=0.0))
        colsums = (B / top if top > 0 else B).sum(axis=0)
        if np.any(np.diff(colsums) > 1e-12 * max(1.0, float(colsums.max(initial=0.0)))):
            raise ValueError("columns must be ordered by nonincreasing B column sums")
        for j in range(A.shape[1]):
            if A[np.argmax(np.abs(A[:, j])), j] < 0:
                raise ValueError(f"column {j} violates the sign convention")
        if len(self.context_ids) != B.shape[0]:
            raise DimensionMismatchError("one context id per row of B required")
        if len(self.converged) != A.shape[1]:
            raise DimensionMismatchError("one converged flag per component required")
        A = A.copy()
        B = B.copy()
        A.setflags(write=False)
        B.setflags(write=False)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "context_ids", tuple(self.context_ids))
        object.__setattr__(self, "converged", tuple(bool(c) for c in self.converged))

    @property
    def p(self) -> int:
        return self.A.shape[0]

    @property
    def r(self) -> int:
        return self.A.shape[1]

    @property
    def k(self) -> int:
        return self.B.shape[0]


@dataclass(frozen=True)
class FitReport:
    """Per-fit diagnostics.

    ``objective_trace[j]`` lists the objective value at every iteration
    of component j's best restart (discovery followed by refinement, in
    final column order); it is nondecreasing within floating-point slack.
    ``iterations[j]`` counts every power step of that restart, discovery
    and refinement; the trace holds one value per step plus the final
    value of each stage, ``iterations[j] + 2`` in all.
    ``non_identifiable_suspect`` is None unless the fit was asked to run
    the identifiability probe; it is then True when some component's
    loading direction is shared with a second component direction (see
    :func:`fit_mcpca`).  The probe is deterministic: no second fit is
    run, and the flag is the same for every seed that recovers the same
    components.
    """

    reconstruction_error: float
    per_context_error: np.ndarray
    objective_trace: tuple[tuple[float, ...], ...]
    restarts_used: tuple[int, ...]
    iterations: tuple[int, ...]
    elapsed_seconds: float
    seed: int
    non_identifiable_suspect: bool | None = None
    metadata: tuple[tuple[str, str], ...] = ()


def extract_subspace(t: CovarianceTensor, r: int) -> np.ndarray:
    """Top-r right singular vectors of the flattening, as (r, p*k) rows.

    The rows are orthonormal and vectorized as in the module docstring.
    They are a read-only view of the tensor's cached SVD from
    :func:`flatten`: no SVD runs and nothing is copied.  Raises
    ``ValueError`` unless 1 <= r <= p, and ``RankDeficiencyError``
    (carrying the largest admissible rank) when sigma_r falls below
    RANK_RTOL * sigma_1.
    """
    if not 1 <= r <= t.p:
        raise ValueError(f"rank must satisfy 1 <= r <= p = {t.p}, got {r}")
    s, vt = flatten(t)
    if s[0] <= 0.0:
        raise RankDeficiencyError("flattening is identically zero", max_rank=0)
    numerical_rank = int(np.count_nonzero(s > RANK_RTOL * s[0]))
    if r > numerical_rank:
        raise RankDeficiencyError(
            f"requested rank {r} exceeds the numerical rank {numerical_rank} "
            f"of the flattening; the largest admissible rank is {numerical_rank}",
            max_rank=numerical_rank,
        )
    return vt[:r]


def _row_dots(x, y):
    """Dot products of matching rows, each the one-vector product x_i @ y_i."""
    return (x[:, None, :] @ y[:, :, None])[:, 0, 0]


def _row_norms(x):
    return np.sqrt(_row_dots(x, x))


def _unit_rows(x, ok):
    """Rows of ``x`` over their norms, and the norms.

    Rows whose norm is at most ``_DEGENERATE_NORM`` are cleared in ``ok``
    (in place) and divided by one instead, so a vanished contraction
    raises no floating-point warning.
    """
    norms = _row_norms(x)
    if norms.min() > _DEGENERATE_NORM:
        return x / norms[:, None], norms
    ok &= norms > _DEGENERATE_NORM
    return x / np.where(ok, norms, 1.0)[:, None], norms


def _aligned_steps(x_new, x):
    """Sign-aligned steps ||x_new - sign(x_new . x) x|| between unit rows.

    Each square over two is 1 - |x_new . x|, computed without cancellation.
    """
    signs = np.copysign(1.0, _row_dots(x_new, x))
    return _row_norms(x_new - signs[:, None] * x)


def _power_iterate(unfold, unfold_t, k, a0, b0, tol, max_iter, to_fixed_point=False):
    """Alternating normalized contractions of a block of starts on one unfolding.

    ``unfold`` is the (p, k*m) unfolding of an m-dimensional subspace and
    ``unfold_t`` its (k*m, p) transpose: a contiguous copy speeds up the
    block products, and for a single start the view ``unfold.T`` makes
    numpy run the very vector products of a one-start loop.  ``a0``
    (R, p) and ``b0`` (R, k) hold R unit starts.  Every row repeats
    c <- normalize(T_A(a, b, *)), a <- normalize(T_A(*, b, c)),
    b <- normalize(T_A(a, *, c)), and the rows advance in lockstep.  The
    contraction T_A(a, *, *) that gives the new b is also the one the
    next step's c comes from, so it is carried over: a step reads the
    unfolding twice, once through ``unfold_t`` for a and once through
    ``unfold`` for T_A(a, *, *), with two matrix products over the block
    rather than 2R vector products, plus one read before the first step.
    Each row measures the larger sign-aligned step of its two iterates;
    its ``converged`` flag is set once step^2 / 2 = 1 - |cos| falls below
    ``tol``.  A row leaves the block when its own stop test passes (the
    ``tol`` test, or with ``to_fixed_point`` a step of at most
    ``_FIXED_POINT_STEP``) or after ``max_iter`` steps.

    Returns one entry per start: None if one of its contractions vanished
    (a degenerate start, masked out of the block without a warning), else
    (a, b, objective, iterations, trace, converged).  The trace holds the
    objective at the start of every iteration plus the final value.
    """
    n = a0.shape[0]
    m = unfold.shape[1] // k
    # The live rows' state, compact: row j belongs to start live[j].  All
    # live rows have taken ``steps`` steps.
    live = np.arange(n)
    x = np.array(a0, dtype=float)
    y = np.array(b0, dtype=float)
    m_a = (x @ unfold).reshape(n, k, m)
    converged = np.zeros(n, dtype=bool)
    stop = np.zeros(n, dtype=bool)
    steps = 0
    lives, objectives = [], []
    results = [None] * n
    while live.size:
        ok = np.ones(live.size, dtype=bool)
        c, sigma = _unit_rows((y[:, None, :] @ m_a)[:, 0], ok)
        lives.append(live)
        objectives.append(sigma * sigma)
        # A row whose stop test passed leaves once the carried contraction
        # has given its final objective.
        if stop.any():
            for j in np.flatnonzero(stop):
                results[live[j]] = (x[j], y[j], steps, bool(converged[j]))
            going = ~stop
            live, x, y, m_a, c, ok, converged = (
                v[going] for v in (live, x, y, m_a, c, ok, converged)
            )
            if not live.size:
                break
        outer_bc = (y[:, :, None] * c[:, None, :]).reshape(-1, k * m)
        x_new, _ = _unit_rows(outer_bc @ unfold_t, ok)
        m_a = (x_new @ unfold).reshape(-1, k, m)
        y_new, _ = _unit_rows((m_a @ c[:, :, None])[:, :, 0], ok)
        step = np.maximum(_aligned_steps(x_new, x), _aligned_steps(y_new, y))
        x, y = x_new, y_new
        steps += 1
        converged |= 0.5 * step * step < tol
        stop = (step <= _FIXED_POINT_STEP if to_fixed_point else converged) | (
            steps >= max_iter
        )
        if not ok.all():
            live, x, y, m_a, converged, stop = (
                v[ok] for v in (live, x, y, m_a, converged, stop)
            )
    # Row t of ``objectives`` holds the objectives of the rows live at step t.
    trace_table = np.empty((len(lives), n))
    trace_table[
        np.repeat(np.arange(len(lives)), [rows.size for rows in lives]),
        np.concatenate(lives),
    ] = np.concatenate(objectives)
    for i, row in enumerate(results):
        if row is not None:
            a, b, row_steps, row_converged = row
            trace = trace_table[: row_steps + 1, i].tolist()
            results[i] = (a, b, trace[-1], row_steps, trace, row_converged)
    return results


def _householder_complement(u):
    """Rows form an orthonormal basis of the hyperplane orthogonal to u."""
    m = u.shape[0]
    sign = 1.0 if u[0] >= 0 else -1.0
    w = u.copy()
    w[0] += sign
    w /= np.linalg.norm(w)
    q = -2.0 * np.outer(w[1:], w)
    q[np.arange(m - 1), np.arange(1, m)] += 1.0
    return q


def _deflate(flat, direction):
    """Remove one vectorized rank-one direction from an orthonormal basis.

    ``flat`` is (m, p*k) with orthonormal rows; the projection of
    ``direction`` onto the span is removed and the remaining (m-1)-dim
    basis returned.
    """
    coeffs = flat @ direction
    norm = float(np.linalg.norm(coeffs))
    if norm <= _DEGENERATE_NORM:
        # Direction has no presence in the span; drop the trailing basis
        # vector so the dimension bookkeeping stays correct.
        return flat[:-1]
    return _householder_complement(coeffs / norm) @ flat


def _unfoldings(flat, p, k):
    """Contiguous (p, k*m) unfolding of an (m, p*k) basis and its transpose.

    ``unfold[alpha, i*m + j] == flat[j, i*p + alpha]``: the one conversion
    between the two layouts of a subspace.
    """
    m = flat.shape[0]
    unfold_t = flat.reshape(m, k, p).transpose(1, 0, 2).reshape(k * m, p)
    return np.ascontiguousarray(unfold_t.T), unfold_t


def _sphere(rng, n):
    v = rng.standard_normal(n)
    return v / np.linalg.norm(v)


def _lawson_hanson(G, h, x, passive, tol, max_iter):
    """Lawson-Hanson loop for G x = h over x >= 0 from a feasible point.

    ``x`` is positive on ``passive`` and zero elsewhere, and solves the
    passive block.  The index of largest dual w = h - G x above ``tol``
    enters the passive set; an entry that turns non-positive sends x back
    to the boundary and leaves.  The loop ends when the KKT conditions
    hold.  An entering index whose own solution is not positive is set
    aside until x next moves: Lawson and Hanson's guard against a
    rounding-level dual entering and leaving until the cap.  Raises
    ``np.linalg.LinAlgError`` after ``max_iter`` solves.
    """
    r = h.shape[0]
    passive = passive.copy()
    set_aside = np.zeros(r, dtype=bool)
    solves = 0
    while True:
        w = np.where(passive | set_aside, -np.inf, h - G @ x)
        j = int(np.argmax(w))
        if w[j] <= tol:
            return x
        passive[j] = True
        entering = True
        while True:
            solves += 1
            if solves > max_iter:
                raise np.linalg.LinAlgError(
                    f"NNLS for the loadings did not converge in {max_iter} "
                    f"active-set solves"
                )
            s = np.zeros(r)
            s[passive] = np.linalg.solve(G[np.ix_(passive, passive)], h[passive])
            if entering and s[j] <= 0:
                passive[j] = False
                set_aside[j] = True
                break
            entering = False
            if s[passive].min() > 0:
                x = s
                set_aside[:] = False
                break
            blocking = np.flatnonzero(passive & (s <= 0))
            ratios = x[blocking] / (x[blocking] - s[blocking])
            x = x + ratios.min() * (s - x)
            x[blocking[np.argmin(ratios)]] = 0.0
            passive &= x > 0
            x[~passive] = 0.0


def _nnls_gram(G, H):
    """Solutions of G x = h over x >= 0, one per row h of H.

    Each row minimizes x^T G x / 2 - h^T x for symmetric positive definite
    G, the normal equations of a non-negative least-squares problem.  A
    warm start solves on all indices and drops those with a non-positive
    solution until the rest are positive.  It runs for all rows at once:
    outside a row's passive set its matrix holds identity rows and
    columns, so one batched solve serves every row.  The warm start ends
    at a feasible point, from which :func:`_lawson_hanson` reaches the KKT
    conditions.  The dual tolerance scales with h and G x (G = (A^T A) o
    (A^T A) and x are non-negative, so G x is the size of its own terms),
    so x(c h) = c x(h) for every c > 0.  Each row's Lawson-Hanson loop
    may take ``_NNLS_SOLVES_PER_COLUMN`` * r solves.
    """
    k, r = H.shape
    max_iter = _NNLS_SOLVES_PER_COLUMN * r
    X = np.zeros((k, r))
    passive = np.ones((k, r), dtype=bool)
    rows = np.arange(k)
    while rows.size:
        P = passive[rows]
        M = np.where(P[:, :, None] & P[:, None, :], G, np.eye(r))
        S = np.linalg.solve(M, np.where(P, H[rows], 0.0)[:, :, None])[:, :, 0]
        done = ((S > 0) | ~P).all(axis=1)
        X[rows[done]] = np.where(P, S, 0.0)[done]
        passive[rows] &= S > 0
        rows = rows[~done & passive[rows].any(axis=1)]
    tol = 10 * np.finfo(float).eps * r * np.maximum(
        np.abs(H).max(axis=1), (X @ G).max(axis=1)
    )
    return np.array(
        [_lawson_hanson(G, H[i], X[i], passive[i], tol[i], max_iter) for i in range(k)]
    )


def solve_nnls(t: CovarianceTensor, A) -> np.ndarray:
    """Non-negative loadings B minimizing ||S_i - sum_j B[i,j] a_j a_j^T||_F.

    The objective separates over contexts.  With D the p^2 x r design
    whose columns are the vectorized a_j a_j^T, only its r x r Gram
    matrix G = D^T D = (A^T A) o (A^T A) and h_i = D^T vec(S_i) =
    diag(A^T S_i A) enter: ||D b - vec(S_i)||^2 = b^T G b - 2 b^T h_i +
    ||S_i||^2, so each row is the solution of G b = h_i over b >= 0,
    found by the numpy active-set solver :func:`_nnls_gram` on (G, h_i),
    and D is never built.  Raises ``GramSingularityError`` naming the
    most collinear column pair when G is numerically singular.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != t.p:
        raise DimensionMismatchError(f"A must be {t.p} x r, got {A.shape}")
    norms = np.linalg.norm(A, axis=0)
    if np.abs(norms - 1.0).max() > 1e-8:
        raise ValueError("columns of A must have unit norm")
    r = A.shape[1]
    cross = A.T @ A
    gram = cross**2
    if r > 1 and np.linalg.cond(gram) > GRAM_COND_LIMIT:
        off = np.abs(cross) - 2.0 * np.eye(r)
        i, j = np.unravel_index(np.argmax(off), off.shape)
        pair = (min(i, j), max(i, j))
        raise GramSingularityError(
            f"components {pair[0]} and {pair[1]} are near-duplicates "
            f"(|cos| = {abs(cross[i, j]):.6f}); loadings are not determined",
            columns=pair,
        )
    sa = (t.slices.reshape(t.k * t.p, t.p) @ A).reshape(t.k, t.p, r)
    h = np.einsum("ipj,pj->ij", sa, A)
    return _nnls_gram(gram, h)


def _identifiability_gap(unfold_p, k, r, b):
    """1 - sigma_2/sigma_1 of the p x r contraction T_A(*, b, *).

    Zero when the subspace holds two orthogonal rank-one elements
    a (x) b and a' (x) b with the same loading direction b; 1 when r = 1,
    where no second element fits.
    """
    p = unfold_p.shape[0]
    contraction = np.tensordot(b, unfold_p.reshape(p, k, r), axes=([0], [1]))
    s = np.linalg.svd(contraction, compute_uv=False)
    if s.shape[0] < 2:
        return 1.0
    return float(1.0 - s[1] / s[0])


def reconstruction_error(t: CovarianceTensor, m: McpcaModel):
    """Frobenius residuals per context and in total.

    Returns (total, per_context) with total = sqrt(sum of squares), the
    Frobenius distance between the tensor and the model.
    """
    if m.p != t.p or m.k != t.k:
        raise DimensionMismatchError(
            f"model is ({m.p}, {m.k}), tensor is ({t.p}, {t.k})"
        )
    fitted = np.einsum("pj,qj,ij->ipq", m.A, m.A, m.B, optimize=True)
    residual = t.slices - fitted
    per_context = np.linalg.norm(residual, axis=(1, 2))
    total = float(np.linalg.norm(per_context))
    return total, per_context


def fit_mcpca(
    t: CovarianceTensor,
    r: int,
    cfg: FitConfig = FitConfig(),
    identifiability_probe: bool = False,
) -> tuple[McpcaModel, FitReport]:
    """Fit the rank-r model: components by deflated power iterations with
    refinement, loadings by global non-negative least squares.

    With ``identifiability_probe`` the report's ``non_identifiable_suspect``
    flag is set by a deterministic check on each refined component
    (a, b), with no second fit: the p x r contraction T_A(*, b, *) of the
    original working subspace has sigma_1 = 1 at a converged component,
    and sigma_2/sigma_1 reaches 1 exactly when some a' orthogonal to a
    also has a' (x) b in the subspace.  The loading direction b is then
    shared (collinear loading columns), and the components spanning
    {a, a'} are fixed only up to a rotation.  The fit is flagged when
    1 - sigma_2/sigma_1 <= ``IDENTIFIABILITY_GAP_TOL`` for any component.
    The model is the same with or without the probe.
    """
    started = time.perf_counter()
    work_flat = extract_subspace(t, r)
    rng = np.random.default_rng(cfg.seed)
    p, k = t.p, t.k

    # _deflate returns a new basis, so the read-only rows need no copy.
    work = _unfoldings(work_flat, p, k)
    orig_unfold = work[0]
    components = []
    for j in range(r):
        starts = [
            (_sphere(rng, p), _sphere(rng, k))
            for _ in range(cfg.restarts_per_component)
        ]
        results = _power_iterate(
            *work,
            k,
            np.array([a0 for a0, _ in starts]),
            np.array([b0 for _, b0 in starts]),
            cfg.tol,
            cfg.max_iter,
        )
        best = None
        used = 0
        for result in results:
            if result is None:
                continue
            used += 1
            if best is None or result[2] > best[2] + _RESTART_TIE_TOL:
                best = result
        if best is None:
            raise DegenerateStartError(
                f"all {cfg.restarts_per_component} restarts degenerate "
                f"for component {j}"
            )
        a, b, _, iters, trace, conv = best
        (refined,) = _power_iterate(
            orig_unfold, orig_unfold.T, k, a[None], b[None], cfg.tol, cfg.max_iter,
            to_fixed_point=True,
        )
        if refined is not None:
            a, b, _, ref_iters, ref_trace, ref_conv = refined
            trace = trace + ref_trace
            iters += ref_iters
            conv = conv and ref_conv
        components.append((a, b, trace, iters, conv, used))
        if j < r - 1:
            work_flat = _deflate(work_flat, np.outer(b, a).ravel())
            work = _unfoldings(work_flat, p, k)

    A = np.column_stack([c[0] for c in components])
    B = solve_nnls(t, A)

    for j in range(r):
        if A[np.argmax(np.abs(A[:, j])), j] < 0:
            A[:, j] *= -1.0
    colsums = B.sum(axis=0)
    order = sorted(
        range(r),
        key=lambda j: (-colsums[j], int(np.argmax(np.abs(A[:, j]))), j),
    )
    A = A[:, order]
    B = B[:, order]
    components = [components[j] for j in order]

    context_ids = t.context_ids or tuple(f"c{i}" for i in range(k))
    model = McpcaModel(
        A=A,
        B=B,
        context_ids=context_ids,
        ordering_rule="loading-column-sum-desc",
        sign_rule="max-abs-entry-positive",
        seed=cfg.seed,
        converged=tuple(c[4] for c in components),
    )
    total, per_context = reconstruction_error(t, model)

    suspect = None
    if identifiability_probe:
        suspect = any(
            _identifiability_gap(orig_unfold, k, r, c[1]) <= IDENTIFIABILITY_GAP_TOL
            for c in components
        )

    report = FitReport(
        reconstruction_error=total,
        per_context_error=per_context,
        objective_trace=tuple(tuple(c[2]) for c in components),
        restarts_used=tuple(c[5] for c in components),
        iterations=tuple(c[3] for c in components),
        elapsed_seconds=time.perf_counter() - started,
        seed=cfg.seed,
        non_identifiable_suspect=suspect,
    )
    return model, report
