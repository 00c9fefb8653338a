"""Rank-r partially symmetric decomposition of a covariance tensor.

The fit proceeds in three stages:

1. extract the r-dimensional working subspace spanned by the top right
   singular vectors of the flattening [S_1 ... S_k].  That SVD depends
   only on the tensor: it runs once per tensor and is shared by every
   fit of it, whatever the rank or seed;
2. find component directions one at a time: power iterations maximize
   F(a, b) = ||T_A(a, b, *)||^2, the squared norm of the projection of
   the unit rank-one matrix a (x) b onto the working subspace.  Each
   power step (:func:`_power_step`) reads the subspace's unfolding
   twice: the contraction behind one step's b-update is carried into the
   next step's c-update.  Every step of both stages runs on the one
   unfolding of the original subspace, from one start at a time.
   Discovery (:func:`_discover`) works on the deflated subspace: the
   coefficient directions U of the components found so far are projected
   out of c, c <- (I - U U^T) c, until the ``tol`` test passes.  The
   discovered point's projected coefficients, normalized, then become
   U's next column.  Refinement (:func:`_refine`) takes the best
   restart, unprojected, to its floating-point fixed point, finishing
   with safeguarded Riemannian Newton steps (:func:`_newton_step`) once
   the power steps have settled and the Newton steps cost less.  No
   discovery waits for a refinement, so each refinement can run in a
   forked worker while the next component is discovered.  A refinement
   that lands on an earlier component keeps the discovered point.
   Refinement matters: with non-orthogonal components the deflated
   subspace no longer contains the remaining rank-one generators exactly,
   so maximizers drift by an amount that grows with the component
   correlations; re-running the iteration on the original subspace from
   the discovered point removes that bias.
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
subspace is held as r orthonormal rows in that order; :func:`_unfolding`
gives the unfolding the power iterations contract.

Fits are deterministic given (tensor, rank, config) at a fixed BLAS
thread count: restart points are drawn in order from a seeded generator,
and ties between restarts are broken by the earliest restart index.  A
refinement is a function of its start alone, so the fit does not depend
on how many workers refine.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import fork_pool
from .exceptions import (
    DegenerateStartError,
    DimensionMismatchError,
    GramSingularityError,
    RankDeficiencyError,
)
from .tensor_core import CovarianceTensor, binary_scale, fix_signs, flatten, frobenius

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

# A refined component whose rank-one element a (x) b has a cosine of at
# least this with an earlier component's has landed on that component,
# and keeps its discovered point instead (see docs/decisions.md).
_COLLISION_COS = 0.99

# A fit refines its components in forked workers, while this process
# discovers the next, once p * k * r * r reaches this: r refinements, each
# step of which reads the p * k * r entries of the subspace's unfolding.
# Below it the pool cost more than it overlapped in the measured shapes
# (docs/decisions.md, "Refining in workers").
PARALLEL_REFINE_MIN_WORK = 4_000_000

# Cap on the Lawson-Hanson solves of one NNLS row, per column of A
# (scipy.optimize.nnls uses the same 3r).
_NNLS_SOLVES_PER_COLUMN = 3


@dataclass(frozen=True)
class FitConfig:
    """Knobs for :func:`fit_mcpca`.

    ``tol`` (0 < tol < 1) bounds the successive cosine gap
    1 - |<x_new, x_old>| of both unit-vector iterates: a restart has
    converged, and its discovery stops, once the gap falls below it.
    Refinement continues past that point to the floating-point fixed
    point, within ``max_iter`` iterations, power and Newton steps alike.
    ``restarts_per_component`` random starts are drawn per component
    from ``seed`` and discovered one after another; the best goes on to
    refinement.  One start is the default: refinement takes it to a
    component of the original subspace, so further starts only choose
    the basin it starts from (see docs/decisions.md).
    """

    seed: int = 0
    restarts_per_component: int = 1
    tol: float = 1e-10
    max_iter: int = 500

    def __post_init__(self):
        if self.restarts_per_component < 1:
            raise ValueError("restarts_per_component must be >= 1")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError("tol must be finite and positive")
        if self.tol >= 1:
            # The test quantity step^2 / 2 = 1 - |cos| never exceeds 1.
            raise ValueError("tol must be below 1")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass(frozen=True)
class McpcaModel:
    """Fitted components A (p x r, unit columns) and loadings B (k x r, >= 0).

    Both must be finite.  That check is explicit because a NaN fails
    every comparison, so it would pass all the others.

    Columns are ordered by nonincreasing column sums of B and sign-fixed
    by :func:`~mcpca.tensor_core.fix_signs`, so each column of A has a
    positive entry of maximum magnitude.
    """

    A: np.ndarray
    B: np.ndarray
    context_ids: tuple[str, ...]
    seed: int
    converged: tuple[bool, ...]

    def __post_init__(self):
        # Copies: freezing the caller's arrays would change them.
        A = np.array(self.A, dtype=float)
        B = np.array(self.B, dtype=float)
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
        # The copy of A is dropped if fixing its signs flips a column.
        flipped = np.flatnonzero(fix_signs(A))
        if flipped.size:
            raise ValueError(f"column {flipped[0]} violates the sign convention")
        if len(self.context_ids) != B.shape[0]:
            raise DimensionMismatchError("one context id per row of B required")
        if len(self.converged) != A.shape[1]:
            raise DimensionMismatchError("one converged flag per component required")
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

    ``reconstruction_error`` (the Frobenius distance between the tensor
    and the model), ``per_context_error`` (one residual per context) and
    ``non_identifiable_suspect`` are computed on first read, not by the
    fit, so a caller that discards the report never pays for them.  To
    compute them the report holds, for as long as it lives, the tensor
    and model it was fitted from, the working subspace's unfolding and
    each component's loading direction b, and ``elapsed_seconds`` times
    the fit without them.  ``dataclasses.replace`` carries these over,
    and the copy computes the same values on its own first read; ``==``
    and the repr leave them out.
    ``objective_trace[j]`` lists the objective value at every iteration
    of component j's best restart (discovery followed by refinement, in
    final column order); it is nondecreasing within floating-point slack.
    ``iterations[j]`` counts every step of that restart, discovery and
    refinement: a power step, or a Newton step refinement takes, is one
    iteration (a Newton step it refuses is none), and adds the objective
    at its start to the trace.  The trace holds one value per step plus
    the final value of each stage, ``iterations[j] + 2`` in all.  When
    refinement lands on an earlier component and the discovered point is
    kept, both count discovery alone.
    ``non_identifiable_suspect`` tests each component for a loading
    direction b shared with a second component direction: the p x r
    contraction T_A(*, b, *) of the working subspace has sigma_1 = 1 at a
    converged component, and sigma_2/sigma_1 reaches 1 exactly when some
    a' orthogonal to a also has a' (x) b in the subspace, so the
    components spanning {a, a'} are fixed only up to a rotation.  It is
    True when 1 - sigma_2/sigma_1 <= ``IDENTIFIABILITY_GAP_TOL`` for any
    component.  The probe is deterministic: no second fit is run, and the
    flag is the same for every seed that recovers the same components.
    """

    objective_trace: tuple[tuple[float, ...], ...]
    restarts_used: tuple[int, ...]
    iterations: tuple[int, ...]
    elapsed_seconds: float
    seed: int
    # The tensor and model the residuals are computed from, and the
    # subspace's unfolding and the loading directions (one row each, in
    # column order) the identifiability probe reads.
    _fit: tuple[CovarianceTensor, McpcaModel, np.ndarray, np.ndarray] = field(
        repr=False, compare=False
    )

    @cached_property
    def _residuals(self) -> tuple[float, np.ndarray]:
        return reconstruction_error(*self._fit[:2])

    @cached_property
    def non_identifiable_suspect(self) -> bool:
        t, model, unfold, loadings = self._fit
        return any(
            _identifiability_gap(unfold, t.k, model.r, b) <= IDENTIFIABILITY_GAP_TOL
            for b in loadings
        )

    @property
    def reconstruction_error(self) -> float:
        return self._residuals[0]

    @property
    def per_context_error(self) -> np.ndarray:
        return self._residuals[1]


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


def _unfolding(flat, p, k):
    """Contiguous (p, k*m) unfolding of an (m, p*k) basis.

    ``unfold[alpha, i*m + j] == flat[j, i*p + alpha]``: the one conversion
    between the two layouts of a subspace.
    """
    m = flat.shape[0]
    return np.ascontiguousarray(flat.reshape(m, k, p).transpose(2, 1, 0).reshape(p, k * m))


def _aligned_step(x_new, x):
    """||x_new - sign(x_new . x) x|| between unit vectors, as a float."""
    d = x_new - math.copysign(1.0, np.dot(x_new, x)) * x
    return math.sqrt(np.dot(d, d))


def _power_step(unfold, a, b, c):
    """One power step from the unit point (a, b) along unit coefficients c.

    a <- normalize(T_A(*, b, c)), then b <- normalize(T_A(a, *, c)) at the
    new a.  The contraction M = T_A(a, *, *) behind the new b is returned
    with it, since the next step's coefficients b M come from it too: a
    step reads the (p, k*m) unfolding twice.  Returns (a, b, M, step), with
    the larger sign-aligned step ||x_new - sign(x_new . x) x|| of the two
    iterates (step^2 / 2 is 1 - |cos|, computed without cancellation), or
    None, without a warning, when a contraction vanishes.
    """
    k, m = b.shape[0], c.shape[0]
    a_new = unfold @ (b[:, None] * c).ravel()
    norm = math.sqrt(np.dot(a_new, a_new))
    if norm <= _DEGENERATE_NORM:
        return None
    a_new = a_new / norm
    m_a = (a_new @ unfold).reshape(k, m)
    b_new = m_a @ c
    norm = math.sqrt(np.dot(b_new, b_new))
    if norm <= _DEGENERATE_NORM:
        return None
    b_new = b_new / norm
    return a_new, b_new, m_a, max(_aligned_step(a_new, a), _aligned_step(b_new, b))


def _discover(unfold, taken, k, a, b, tol, max_iter, direction=None):
    """Discovery: one start, by power steps, on the working subspace.

    ``unfold`` is the (p, k*m) unfolding of the original subspace and the
    rows of ``taken`` (j, m) are orthonormal: the coefficient directions
    the components found so far take up.  The working subspace is the rest
    of the original one, so each step's coefficients c = T_A(a, b, *) are
    projected onto it, c <- (I - U U^T) c with U = taken^T, and the
    objective is ||(I - U U^T) c||^2.  That is the iteration on a deflated
    basis without building one: if the rows of Q are an orthonormal basis
    of the working subspace's coefficients, the deflated subspace
    contracts to Q c, and Q^T Q = I - U U^T.  Power steps
    (:func:`_power_step`) follow until step^2 / 2 falls below ``tol``, or
    for ``max_iter`` steps, converged only if that last step passed the
    test: two reads of the unfolding per step plus one before the first.

    Returns (a, b, objective, iterations, trace, converged), the trace
    holding the objective at the start of every step plus the final
    value, or None, without a warning, when a contraction vanishes.
    ``direction`` (m,), if given, receives the last projected coefficients
    normalized: the unit direction the returned point adds to the span of
    ``taken``, which deflates the discoveries after it.
    """
    m = unfold.shape[1] // k
    m_a = (a @ unfold).reshape(k, m)
    trace = []
    converged = False
    steps = 0
    while True:
        c = b @ m_a
        c = c - (taken @ c) @ taken
        sigma = math.sqrt(np.dot(c, c))
        trace.append(sigma * sigma)
        if converged or steps >= max_iter:
            if direction is not None:
                np.divide(c, sigma, out=direction)
            return a, b, trace[-1], steps, trace, converged
        if sigma <= _DEGENERATE_NORM:
            return None
        power = _power_step(unfold, a, b, c / sigma)
        if power is None:
            return None
        a, b, m_a, step = power
        steps += 1
        converged = 0.5 * step * step < tol


def _newton_step(unfold, a, b, m_a, c, trust):
    """One Riemannian Newton step for F(a, b) = ||c||^2 on S^{p-1} x S^{k-1}.

    ``c`` = T_A(a, b, *) and ``m_a`` = M = T_A(a, *, *) come from the loop.
    With P = T_A(*, b, *), F/2 has the Euclidean gradient (P c, M c) and
    Hessian blocks P P^T, M M^T and P M^T + T_A(*, *, c); on the spheres
    the Hessian is shifted by -F.  Since a^T P = b^T M = c^T, projecting
    onto the tangent spaces takes rank-one updates: P - a c^T, M - b c^T,
    and T_A(*, *, c) less its parts along a and b.  Given the value F in
    the normal directions, the Newton system -H xi = grad keeps xi
    tangent.  Its a-block F I - P P^T (projected P) is -F I plus rank m,
    so with u = -P^T xi_a / sqrt(F) the system reduces to one symmetric
    (m + k)-square system K [u; xi_b] = r (the Woodbury identity), and
    xi_a follows from u and xi_b.  K is positive definite exactly when -H
    is on the tangent space (its Schur complement is that of -H), which
    its Cholesky factor tests.  The step reads the unfolding three times:
    for P, for T_A(*, *, c) and for M at the new a.

    Returns (a, b, m_a, length), with the step's sign-aligned length, or
    None when the step is not taken: H is not negative definite, the step
    is longer than ``trust`` (then without the third read), or the new
    point lowers F by more than rounding: a relative ``_FIXED_POINT_STEP``,
    where F between power steps at the fixed point of the desk fit falls
    by 4 eps at most.
    """
    p, k, m = a.shape[0], b.shape[0], m_a.shape[1]
    f = np.dot(c, c)
    root = math.sqrt(f)
    pt = b @ unfold.reshape(p, k, m) - np.outer(a, c)
    mt = m_a - np.outer(b, c)
    grad_a, grad_b = pt @ c, mt @ c
    tc = (unfold.reshape(p * k, m) @ c).reshape(p, k)
    h_ab = pt @ mt.T + tc - np.outer(a, grad_b + f * b) - np.outer(grad_a, b)
    # K = F I - W^T W - diag(0, M M^T) with W = [P, -H_ab / sqrt(F)].
    w = np.concatenate([pt, h_ab / -root], axis=1)
    system = -(w.T @ w)
    system[m:, m:] -= mt @ mt.T
    system.flat[:: m + k + 1] += f
    try:
        np.linalg.cholesky(system)
    except np.linalg.LinAlgError:
        return None
    u_xi = np.linalg.solve(system, np.concatenate([np.zeros(m), grad_b]) - w.T @ grad_a / root)
    a_new = a + (grad_a - root * (w @ u_xi)) / f
    b_new = b + u_xi[m:]
    a_new /= math.sqrt(np.dot(a_new, a_new))
    b_new /= math.sqrt(np.dot(b_new, b_new))
    length = max(_aligned_step(a_new, a), _aligned_step(b_new, b))
    if length > trust:
        return None
    m_new = (a_new @ unfold).reshape(k, m)
    c_new = b_new @ m_new
    if np.dot(c_new, c_new) < f * (1.0 - _FIXED_POINT_STEP):
        return None
    return a_new, b_new, m_new, length


def _newton_trust(step, rho, last_rho, p, k, m, budget):
    """The longest Newton step to accept after a power step of length
    ``step``, or 0 to go on with power steps.

    ``rho`` and ``last_rho`` are the ratios of the last two pairs of
    successive power steps.  The power iteration has settled in its basin
    once rho < 1 and the ratios agree to within (1 - rho) / 2.  It then
    predicts a distance d = step * rho / (1 - rho) to its fixed point and
    log(_FIXED_POINT_STEP / step) / log(rho) further steps, capped by the
    ``budget`` of steps left.  j Newton steps take a distance below
    _FIXED_POINT_STEP ** 2**-j to the floor, and one power step confirms
    the fixed point.  Of the plans "t more power steps, then Newton" and
    "power steps only", the cheapest is chosen by floating-point
    operations counted from the sizes: a power step reads the (p, k*m)
    unfolding twice (4pkm); a Newton step reads it three times and forms,
    factors and solves the (m + k)-square system of :func:`_newton_step`
    (8pkm + p(m + k)^2 + k^2 m + (m + k)^3).  Newton steps start when the
    cheapest plan has t = 0.  A step may be as long as
    2 * step / (1 - rho): twice the distance to the fixed point from the
    point before the last power step.
    """
    if not (rho < 1.0 and abs(rho - last_rho) <= 0.5 * (1.0 - rho)):
        return 0.0
    distance = step * rho / (1.0 - rho)
    if not _FIXED_POINT_STEP < distance < 1.0:
        return 0.0
    power_cost = 4 * p * k * m
    newton_cost = 8 * p * k * m + p * (m + k) ** 2 + k * k * m + (m + k) ** 3
    newton_steps = max(1, math.ceil(math.log2(math.log(_FIXED_POINT_STEP) / math.log(distance))))
    cost = power_cost + newton_steps * newton_cost
    power_steps = min(math.log(_FIXED_POINT_STEP / step) / math.log(rho), budget)
    if newton_steps + 1 > budget or cost >= power_steps * power_cost:
        return 0.0
    for j in range(1, newton_steps):
        wait = math.ceil(math.log(_FIXED_POINT_STEP ** 0.5**j / distance) / math.log(rho))
        if (wait + 1) * power_cost + j * newton_cost < cost:
            return 0.0
    return 2.0 * step / (1.0 - rho)


def _refine(unfold, k, a, b, tol, max_iter):
    """Refinement: one start to its power-iteration fixed point.

    ``unfold`` is the (p, k*m) unfolding of the original subspace, ``a``
    (p,) and ``b`` (k,) a unit start.  The power step is discovery's
    (:func:`_power_step`) on the unprojected coefficients: two reads of the
    unfolding per step plus one before the first.

    Once the power steps have settled and Newton steps pay for themselves
    (:func:`_newton_trust`), Newton steps (:func:`_newton_step`) follow,
    each no longer than the one before, until one is at most the square
    root of ``_FIXED_POINT_STEP``; power steps take over again.  A Newton
    step that fails a safeguard is not taken, and power steps go on as
    before; after the j-th such refusal the next try waits 2^j power
    steps, so at most log2(``max_iter``) refused steps are paid for.
    Either kind of step counts as an iteration and adds its starting
    objective to the trace.  ``converged`` is set once step^2 / 2 falls
    below ``tol``, but the loop runs on until a power step is at most
    ``_FIXED_POINT_STEP`` or ``max_iter`` steps are taken: the point it
    returns is a fixed point of the power iteration, as before.

    Returns (a, b, objective, iterations, trace, converged) as
    :func:`_discover` does, or None, without a warning, when a contraction
    vanishes.
    """
    p, m = a.shape[0], unfold.shape[1] // k
    m_a = (a @ unfold).reshape(k, m)
    trace = []
    converged = False
    steps = 0
    # The last power step and its ratio to the one before (NaN until two
    # successive power steps give one); the longest Newton step to accept,
    # 0 while power steps are taken; and the Newton steps refused so far,
    # after the j-th of which 2^j power steps come before the next try.
    step = rho = math.nan
    trust = 0.0
    refused = retry = 0
    while True:
        c = b @ m_a
        sigma = math.sqrt(np.dot(c, c))
        trace.append(sigma * sigma)
        if step <= _FIXED_POINT_STEP or steps >= max_iter:
            return a, b, trace[-1], steps, trace, converged
        if sigma <= _DEGENERATE_NORM:
            return None
        if trust:
            newton = _newton_step(unfold, a, b, m_a, c, trust)
            if newton is not None:
                a, b, m_a, length = newton
                steps += 1
                converged = converged or 0.5 * length * length < tol
                trust = length if length * length > _FIXED_POINT_STEP else 0.0
                step = rho = math.nan
                continue
            refused += 1
            retry = steps + 2**refused
            trust = 0.0
        power = _power_step(unfold, a, b, c / sigma)
        if power is None:
            return None
        a, b, m_a, new_step = power
        last_rho, rho, step = rho, new_step / step, new_step
        steps += 1
        converged = converged or 0.5 * step * step < tol
        if steps >= retry:
            trust = _newton_trust(step, rho, last_rho, p, k, m, max_iter - steps)


def _overlap(a, b, found):
    """Largest |<a, a'> <b, b'>| over the rows [a', b'] of ``found``, the
    cosine between the rank-one elements a (x) b and a' (x) b'; 0 if none."""
    p = a.shape[0]
    return float(np.max(np.abs(found[:, :p] @ a) * np.abs(found[:, p:] @ b), initial=0.0))


def _draw_start(rng, p, k):
    """A unit start (a, b) from one draw of p + k normals.

    The a-start comes first, then the b-start, the order of two separate
    draws.  Each part is scaled by the square root of its own dot product,
    as ``np.linalg.norm`` would.
    """
    v = rng.standard_normal(p + k)
    a, b = v[:p], v[p:]
    return a / math.sqrt(np.dot(a, a)), b / math.sqrt(np.dot(b, b))


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
    per_context = frobenius(residual, axis=(1, 2))
    total = float(frobenius(per_context))
    return total, per_context


def fit_mcpca(
    t: CovarianceTensor, r: int, cfg: FitConfig = FitConfig()
) -> tuple[McpcaModel, FitReport]:
    """Fit the rank-r model: components by deflated power iterations with
    refinement, loadings by global non-negative least squares.

    Each component's refinement is one task of ``fork_pool.map_in_workers``,
    queued as soon as its discovery ends, while this process discovers the
    next: in forked workers once p * k * r * r reaches
    ``PARALLEL_REFINE_MIN_WORK``, CPUs // BLAS threads of them.  The fit
    is the same, bit for bit, whichever process refines.
    The report's residuals and identifiability flag are computed when
    they are first read (see :class:`FitReport`).
    """
    started = time.perf_counter()
    p, k = t.p, t.k
    unfold = _unfolding(extract_subspace(t, r), p, k)
    rng = np.random.default_rng(cfg.seed)

    discovered = []
    # Row j: the unit coefficient direction component j's discovered point
    # adds to the span of those before it, the normalized
    # (I - U U^T) T_A(a, b, *).
    taken = np.empty((r, r))

    def discoveries():
        for j in range(r):
            best = None
            used = 0
            for _ in range(cfg.restarts_per_component):
                a, b = _draw_start(rng, p, k)
                direction = np.empty(r)
                result = _discover(unfold, taken[:j], k, a, b, cfg.tol, cfg.max_iter, direction)
                if result is None:
                    continue
                used += 1
                if best is None or result[2] > best[2] + _RESTART_TIE_TOL:
                    best = result
                    taken[j] = direction
            if best is None:
                raise DegenerateStartError(
                    f"all {cfg.restarts_per_component} restarts degenerate "
                    f"for component {j}"
                )
            discovered.append((best, used))
            yield best[:2]

    refinements = fork_pool.map_in_workers(
        lambda start: _refine(unfold, k, *start, cfg.tol, cfg.max_iter),
        discoveries(),
        fork_pool.fit_workers(unfold.size * r, PARALLEL_REFINE_MIN_WORK),
    )

    components = []
    found = np.empty((r, p + k))
    for j, ((best, used), refined) in enumerate(zip(discovered, refinements)):
        a, b, _, iters, trace, conv = best
        # A refinement that climbs onto an earlier component is dropped:
        # the discovered point is kept.
        if refined is not None and _overlap(refined[0], refined[1], found[:j]) < _COLLISION_COS:
            a, b, _, ref_iters, ref_trace, ref_conv = refined
            trace = trace + ref_trace
            iters += ref_iters
            conv = conv and ref_conv
        found[j] = np.concatenate([a, b])
        components.append((a, b, trace, iters, conv, used))

    A = np.column_stack([c[0] for c in components])
    B = solve_nnls(t, A)

    fix_signs(A)
    # Exactly scaled, as the sums of B itself can overflow.
    colsums = (B / binary_scale(B)).sum(axis=0)
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
        seed=cfg.seed,
        converged=tuple(c[4] for c in components),
    )
    report = FitReport(
        objective_trace=tuple(tuple(c[2]) for c in components),
        restarts_used=tuple(c[5] for c in components),
        iterations=tuple(c[3] for c in components),
        elapsed_seconds=time.perf_counter() - started,
        seed=cfg.seed,
        _fit=(t, model, unfold, np.array([c[1] for c in components])),
    )
    return model, report
