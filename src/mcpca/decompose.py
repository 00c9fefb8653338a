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
   next step's c-update.  Every step of both stages runs on the
   unfolding of the original subspace (in a large fit, discovery's on its
   core, below), for a stack of starts at once:
   each of the two reads is one matrix product for every start of the
   stack, and a start that finishes leaves it.  Discovery
   (:func:`_discover`) works on the deflated subspace: the
   coefficient directions U of the components found so far are projected
   out of c, c <- (I - U U^T) c, until the ``tol`` test passes.  The
   discovered point's projected coefficients, normalized, then become
   U's next column.  In a large fit of one restart per component the rows
   of the next components step with the leading one, in a window, so each
   reaches the lead warm, and the steps read the core C = U_r^T unfold,
   (r, k*m), in place of the (p, k*m) unfolding: U_r holds the top-r left
   singular vectors of the same SVD, a start a enters as U_r^T a,
   normalized, and a discovered point a' leaves as U_r a'.  Every column
   of the unfolding lies in span(U_r) when the flattening has rank r, so
   the steps are then the same steps on an array r/p the size; otherwise
   they step on the unfolding's projection onto span(U_r).  A fit alone
   there folds each ``WINDOW_WIDTH`` directions it finds out of the core:
   the core's coefficient mode is mapped onto their orthogonal
   complement, so its m shrinks as components are found.
   Refinement (:func:`_refine`) then takes every component's best
   restart, unprojected, in one stack, on the full unfolding, to its
   floating-point fixed point (rank selection's fits, within ``tol``),
   finishing with safeguarded Riemannian Newton steps
   (:func:`_newton_step`) once the power steps have settled and the
   Newton steps cost less.  A refinement that lands on an earlier
   component keeps the discovered point.
   Refinement matters: with non-orthogonal components the deflated
   subspace no longer contains the remaining rank-one generators exactly,
   so maximizers drift by an amount that grows with the component
   correlations; re-running the iteration on the original subspace from
   the discovered point removes that bias, and with it whatever the core
   left out of the unfolding.
3. recompute all loadings globally by non-negative least squares against
   the original tensor, discarding the loadings implied by the power
   iterations.  Each context's problem is solved on its r x r normal
   equations G b = h_i, b >= 0, with G = (A^T A) o (A^T A) and
   h_i = diag(A^T S_i A), which have the same minimizer as the p^2 x r
   least-squares problem.  A Lawson-Hanson active-set solver in numpy
   works on (G, h_i) directly: no Cholesky factor, no scipy.  The
   loadings of every fit of a lockstep are solved together
   (:func:`_loadings`): one slice product gives every h_i, one batched
   solve warm-starts every context, and only the contexts whose warm
   start fails the KKT test go on to Lawson-Hanson.

Vectorization convention: a p x k matrix D and a vector in R^{p*k} are
identified by vec(D)[i*p + alpha] = D[alpha, i] (variable index fastest,
context index slowest), the column order of the flattening.  The working
subspace is held as r orthonormal rows in that order; :func:`_unfolding`
gives the unfolding the power iterations contract.

Fits are deterministic given (tensor, rank, config) at a fixed BLAS
thread count, and run in this process: restart points are drawn in order
from a seeded generator, and ties between restarts are broken by the
earliest restart index.  A row's arithmetic depends on the stack it is
stepped in: a stack of one start runs the matrix-vector products of a
single start, and a larger stack matrix-matrix products, which round
differently; a fit's loadings likewise depend on the fits they are
solved with.  The stacks are fixed by the fit's shape (the window's
width) and, in rank selection, by the other fits of its candidate
(:func:`_lockstep`), never by the CPU count.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .exceptions import (
    DimensionMismatchError,
    GramSingularityError,
    McpcaError,
    RankDeficiencyError,
)
from .tensor_core import CovarianceTensor, binary_scale, fix_signs, flatten, frobenius

# Singular values below RANK_RTOL * sigma_1 do not count toward the
# numerical rank of the flattening.
RANK_RTOL = 1e-12

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

# Refinement prices its steps per row of a fit's stack of m rows
# (:func:`_step_prices`).  A power step's two reads of the unfolding take
# this share of its time at one row; the rows of a stack share them.  The
# per-row time by stack size fits shared / L + own with a share of 0.85 at
# the desk shape and 0.91 at p=200, k=100, r=80 (docs/decisions.md).
_SHARED_READ = 0.85
# Work of one row's power step that does not grow with the sizes (the
# calls' fixed cost and the loop's bookkeeping), in flops; a Newton step's
# is four times it, the ratio of the two steps' one-row times where the
# flops are negligible (p=20, k=10).  The smallest value that keeps the
# p=40, k=20, r=20 fits on their Newton steps (docs/decisions.md).
_STEP_WORK = 250_000

# A refined component whose rank-one element a (x) b has a cosine of at
# least this with an earlier component's has landed on that component,
# and keeps its discovered point instead (see docs/decisions.md).
_COLLISION_COS = 0.99

# At one restart per component, discovery steps a fit's next WINDOW_WIDTH - 1
# components with the leading one from WINDOW_MIN_SIZE entries (p * k * r) of
# the unfolding on, where a fit gains 10-45%; below it rank selection's stacks
# lose up to 6% and small sampled fits would change their models
# (docs/decisions.md, "Discovery in a window").  The same gate moves
# discovery onto the core U_r^T unfold (docs/decisions.md, "Discovery on the
# core").
WINDOW_MIN_SIZE = 100_000
WINDOW_WIDTH = 8

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
    from ``seed`` and discovered together, each lead from its own start
    (no window, :func:`_discover`); the best goes on to refinement.  One
    start is the default: refinement takes it to a component of the
    original subspace, so further starts only choose the basin it starts
    from (see docs/decisions.md).
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
    ``restarts_used[j]`` counts component j's restarts, all of which are
    kept: ``restarts_per_component`` of its config.
    ``objective_trace[j]`` lists the objective value at every iteration
    of component j's best restart (discovery followed by refinement, in
    final column order); it is nondecreasing within floating-point slack.
    ``iterations[j]`` counts every step of that restart, discovery and
    refinement: a power step, or a Newton step refinement takes, is one
    iteration (a Newton step it refuses is none), and adds the objective
    at its start to the trace.  Discovery counts from when the restart
    leads its window, not the steps it takes behind the lead.  The trace
    holds one value per step plus the final value of each stage,
    ``iterations[j] + 2`` in all.  When
    refinement lands on an earlier component and the discovered point is
    kept, both count discovery alone.  Where the window opens, discovery's
    steps are the same steps on the smaller core U_r^T unfold
    (:func:`_lockstep`), so they count and trace alike; a trace's first
    value is then the objective at the start's projection onto span(U_r),
    normalized.
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
    s, vt, _ = flatten(t)
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


def _normalize(x):
    """The rows of ``x`` scaled to unit length, and the rows' norms as a
    list.  A stack of one row takes the same arithmetic without the array
    bookkeeping."""
    if len(x) == 1:
        norm = math.sqrt(np.dot(x[0], x[0]))
        return x / norm, [norm]
    norm = np.sqrt(np.vecdot(x, x))
    return x / norm[:, None], norm.tolist()


def _power_step(unfold, a, b, c):
    """One power step of every row of a stack of unit points (a, b) along
    its unit coefficients c.

    Row i of a (L, p), b (L, k) and c (L, m) is one iterate:
    a_i <- normalize(T_A(*, b_i, c_i)), then b_i <- normalize(T_A(a_i, *, c_i))
    at the new a_i.  The contractions M_i = T_A(a_i, *, *) behind the new b
    are returned with it, since the next step's coefficients b_i M_i come
    from them too: a step reads the (p, k*m) unfolding twice, in one
    product for all rows each time.  Neither iterate changes sign, as
    a . a_new is proportional to the objective and b . b_new to
    ||T_A(*, b, c)||, so ||x_new - x|| is the sign-aligned step, and
    step^2 / 2 is 1 - |cos| computed without cancellation.

    Returns (a, b, m_a, step): m_a is (L, k, m) and ``step`` lists the
    larger step of each row's two iterates.  When c is the row's own
    coefficients T_A(a, b, *), projected or not, normalized, both norms
    are at least s = <T_A(a, b, *), c>, the norm of what was normalized:
    ||T_A(*, b, c)|| >= <a, T_A(*, b, c)> = s and
    ||T_A(a_new, *, c)|| >= <b, T_A(a_new, *, c)> = ||T_A(*, b, c)||.
    So a row with s > 0 cannot vanish.  The bound does not cover
    discovery's rows behind a lead, which step along other coefficients
    (:func:`_discover`).
    """
    n, k = b.shape
    m = c.shape[1]
    # b_i (x) c_i, flattened: for one row the outer product of the two.
    bc = b.T * c if n == 1 else b[:, :, None] * c[:, None, :]
    a_new, _ = _normalize(bc.reshape(n, k * m) @ unfold.T)
    m_a = (a_new @ unfold).reshape(n, k, m)
    b_new, _ = _normalize(np.matvec(m_a, c))
    return a_new, b_new, m_a, _steps(a_new, a, b_new, b)


def _steps(a_new, a, b_new, b):
    """Per row, the larger of the steps ||a_new - a|| and ||b_new - b||, as
    a list of floats."""
    d, e = a_new - a, b_new - b
    if len(d) == 1:
        return [math.sqrt(max(np.dot(d[0], d[0]), np.dot(e[0], e[0])))]
    return [
        math.sqrt(max(x, y))
        for x, y in zip(np.vecdot(d, d).tolist(), np.vecdot(e, e).tolist())
    ]


def _discover(unfold, taken, k, a, b, cfg, width):
    """Discovery: the components of a stack of fits, one after another, each
    by power steps on the working subspace less the components before it.

    ``unfold`` is the (q, k*m) array the steps read: the original
    subspace's (p, k*m) unfolding, or its (r, k*m) core U_r^T unfold, on
    which a step is the same step in the coordinates a' = U_r^T a
    (:func:`_lockstep` chooses).  Fit f starts with the orthonormal
    coefficient directions ``taken[f]`` (j, m) projected out; a[f] (n, q)
    and b[f] (n, k) hold its unit starts in component order,
    ``cfg.restarts_per_component`` per component.  Each restart of a fit
    has a window of the rows of its next ``width`` components: one, or
    ``WINDOW_WIDTH`` where :func:`_lockstep` opens the window.  With more
    restarts, a losing restart's rows behind its lead could sit on the
    direction the winner takes and contract to exactly nothing once
    projected; in a window of one, every lead starts from its own random
    draw, whose contraction vanishes only on a null set.  The leading row
    runs the sequential iteration: its coefficients c = T_A(a, b, *) are
    projected, c <- (I - U U^T) c with U^T the fit's directions (the
    iteration on the deflated basis, without building one), and
    normalized alone.  Power steps (:func:`_power_step`)
    follow until step^2 / 2 falls below ``cfg.tol``, or for
    ``cfg.max_iter`` steps, converged only if that last step passed the
    test.  The rows behind the lead step on the coefficients one QR of the
    window's block makes orthogonal to those of the rows ahead, and count
    no step.  Once every lead has stopped, :func:`_pick` chooses among each
    fit's restarts, the unit coefficients join the fit's directions, and
    each window's next row leads, projected and normalized alone in the
    same round.  A round reads the unfolding twice, and the start of a
    component once more for the rows that enter.

    A stack of one fit with its window open folds its directions out
    instead, each ``width`` of them once they have joined: one QR gives
    an orthonormal basis Q of their complement in the current m
    coefficients, and one product each maps ``unfold``, seen as (q*k, m),
    and the held rows' M = T_A(a, *, *) to Q's coordinates.  Then
    T_A(*, b, Q c') is the folded array's T_A(*, b, c'), so the steps are
    the same steps with m - ``width`` coefficients, and only the
    directions found since the last fold are projected out.  A lockstep
    of several fits keeps ``unfold`` whole: it is read once for every
    fit, where folded arrays would be read once per fit.

    Returns per fit, per component, its restarts' results (a, b,
    objective, iterations, trace, converged, direction), a in the
    coordinates of ``unfold``'s rows, the trace holding
    the objective at the start of each step as lead plus the final value
    and ``direction`` the unit coefficients, in the m coordinates of the
    ``unfold`` given.  A lead's power steps never lower its objective
    (:func:`_power_step`).
    """
    fits, n, p = a.shape
    m = unfold.shape[1] // k
    restarts, tol, max_iter = cfg.restarts_per_component, cfg.tol, cfg.max_iter
    comps = n // restarts
    # Window w is restart w % restarts of fit w // restarts: its starts, in
    # component order, and the rows behind its lead once the lead stops.
    # The stack holds each window's rows in turn, its lead first.
    starts = [
        x.reshape(fits, comps, restarts, -1).swapaxes(1, 2).reshape(fits * restarts, comps, -1)
        for x in (a, b)
    ]
    windows = fits * restarts
    parked = [None] * windows
    j0 = taken.shape[1]
    taken = np.concatenate([taken, np.empty((fits, comps, m))], axis=1)
    found = [[] for _ in range(fits)]
    # A lone fit in a window folds its first ``folded`` directions out of
    # ``unfold``; its m coefficients are then coordinates along the
    # orthonormal columns of ``basis`` (None before the first fold).
    j, live, folded, basis = -1, [], 0, None
    while True:
        if not live:
            if j >= 0:
                for f in range(fits):
                    taken[f, j0 + j] = _pick(found[f][j])[6]
            j += 1
            if j == comps:
                return found
            for f in range(fits):
                found[f].append([None] * restarts)
            u = taken[:, folded : j0 + j]
            if basis is not None:
                u = u @ basis
            if fits == 1 < width <= u.shape[1]:
                perp = np.linalg.qr(u[0].T, mode="complete")[0][:, u.shape[1] :]
                unfold = (unfold.reshape(-1, m) @ perp).reshape(len(unfold), -1)
                parked = [x and (*x[:2], x[2] @ perp) for x in parked]
                basis = perp if basis is None else basis @ perp
                m, folded, u = perp.shape[1], j0 + j, u[:, :0]
            held = min(width - 1, comps - j) if j else 0
            entering = slice(j + held, min(comps, j + width))
            new_a, new_b = starts[0][:, entering], starts[1][:, entering]
            new_m = (new_a.reshape(-1, p) @ unfold).reshape(*new_a.shape[:2], k, m)
            if held:
                new_a, new_b, new_m = (
                    np.concatenate([np.stack([rest[x] for rest in parked]), new], 1)
                    for x, new in enumerate((new_a, new_b, new_m))
                )
            rows = new_a.shape[1]
            a_s, b_s, m_a = new_a.reshape(-1, p), new_b.reshape(-1, k), new_m.reshape(-1, k, m)
            u = np.repeat(u, restarts * rows, axis=0)
            live, converged = list(range(windows)), [False] * windows
            traces = [[] for _ in live]
            steps = 0
        c = np.vecmat(b_s, m_a)
        if j0 + j > folded:
            c -= np.vecmat(np.matvec(u, c), u)
        unit, sigma = _normalize(c[::rows])
        for trace, s in zip(traces, sigma):
            trace.append(s * s)
        if True in converged or steps >= max_iter:
            keep = []
            for pos, (w, s) in enumerate(zip(live, sigma)):
                if not (converged[pos] or steps >= max_iter):
                    keep.append(pos)
                    continue
                lead = pos * rows
                found[w // restarts][j][w % restarts] = (
                    a_s[lead].copy(), b_s[lead].copy(), s * s, steps, traces[pos],
                    converged[pos], unit[pos].copy() if basis is None else basis @ unit[pos],
                )
                parked[w] = tuple(x[lead + 1 : lead + rows] for x in (a_s, b_s, m_a))
            live, traces = [live[pos] for pos in keep], [traces[pos] for pos in keep]
            if not live:
                continue
            unit = unit[keep]
            keep = [pos * rows + i for pos in keep for i in range(rows)]
            a_s, b_s, m_a, c, u = (x[keep] for x in (a_s, b_s, m_a, c, u))
        if rows > 1:
            q, r = np.linalg.qr(c.reshape(len(live), rows, m).transpose(0, 2, 1))
            q *= np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]
            q[:, :, 0] = unit
            unit = q.transpose(0, 2, 1).reshape(-1, m)
        a_s, b_s, m_a, step = _power_step(unfold, a_s, b_s, unit)
        steps += 1
        converged = [0.5 * s * s < tol for s in step[::rows]]


def _pick(results):
    """The best of a component's restart results: a later restart replaces
    the best so far only when its objective is higher by more than
    ``_RESTART_TIE_TOL``, so ties go to the earliest."""
    best = results[0]
    for result in results[1:]:
        if result[2] > best[2] + _RESTART_TIE_TOL:
            best = result
    return best


def _positive_definite(systems):
    """The positions of the matrices of a stack that are positive definite,
    by their Cholesky factors.  numpy's stacked factorization fails for the
    whole stack when one matrix is not, so then each is factored alone."""
    try:
        np.linalg.cholesky(systems)
        return list(range(len(systems)))
    except np.linalg.LinAlgError:
        pass
    definite = []
    for pos, system in enumerate(systems):
        try:
            np.linalg.cholesky(system)
            definite.append(pos)
        except np.linalg.LinAlgError:
            pass
    return definite


def _newton_step(unfold, a, b, m_a, c, trust):
    """One Riemannian Newton step of every row of a stack, for
    F(a, b) = ||c||^2 on S^{p-1} x S^{k-1}.

    Rows are iterates as in :func:`_power_step`.  ``c`` = T_A(a, b, *) and
    ``m_a`` = M = T_A(a, *, *) come from the loop, and ``trust`` lists each
    row's longest step.  With P = T_A(*, b, *), F/2 has the Euclidean
    gradient (P c, M c) and Hessian blocks P P^T, M M^T and
    P M^T + T_A(*, *, c); on the spheres the Hessian is shifted by -F.
    Since a^T P = b^T M = c^T, projecting onto the tangent spaces takes
    rank-one updates: P - a c^T, M - b c^T, and T_A(*, *, c) less its parts
    along a and b.  Given the value F in the normal directions, the Newton
    system -H xi = grad keeps xi tangent.  Its a-block F I - P P^T
    (projected P) is -F I plus rank m, so with u = -P^T xi_a / sqrt(F) the
    system reduces to one symmetric (m + k)-square system K [u; xi_b] = r
    (the Woodbury identity), and xi_a follows from u and xi_b.  K is
    positive definite exactly when -H is on the tangent space (its Schur
    complement is that of -H), which its Cholesky factor tests, row by row
    (:func:`_positive_definite`).  The step reads the unfolding three
    times, each one product for the whole stack: for P, for T_A(*, *, c)
    and for M at the new a.

    A row's step is not taken when H is not negative definite, when it is
    longer than the row's trust (then without the third read), or when
    the new point lowers F by more than rounding: a relative
    ``_FIXED_POINT_STEP``, where F between power steps at the fixed point
    of the desk fit falls by 4 eps at most.  Returns (taken, a, b, m_a,
    length): the positions in the stack of the rows whose steps are
    taken, and their new points, contractions M and step lengths (a list),
    in that order.
    """
    n, p = a.shape
    k, m = b.shape[1], c.shape[1]
    f = np.vecdot(c, c)[:, None]
    root = np.sqrt(f)
    pt = (b @ unfold.reshape(p, k, m)).transpose(1, 0, 2) - a[:, :, None] * c[:, None, :]
    mt = m_a - b[:, :, None] * c[:, None, :]
    grad_a = np.matvec(pt, c)
    grad_b = np.matvec(mt, c)
    tc = (c @ unfold.reshape(p * k, m).T).reshape(n, p, k)
    h_ab = (
        pt @ mt.transpose(0, 2, 1)
        + tc
        - a[:, :, None] * (grad_b + f * b)[:, None, :]
        - grad_a[:, :, None] * b[:, None, :]
    )
    # K = F I - W^T W - diag(0, M M^T) with W = [P, -H_ab / sqrt(F)].
    w = np.concatenate([pt, h_ab / -root[:, :, None]], axis=2)
    system = -(w.transpose(0, 2, 1) @ w)
    system[:, m:, m:] -= mt @ mt.transpose(0, 2, 1)
    system.reshape(n, -1)[:, :: m + k + 1] += f
    taken = _positive_definite(system)
    if not taken:
        return taken, None, None, None, []
    if len(taken) < n:
        a, b, f, root, w, grad_a, grad_b, system = (
            x[taken] for x in (a, b, f, root, w, grad_a, grad_b, system)
        )
        trust = [trust[pos] for pos in taken]
    n = len(taken)
    rhs = np.concatenate([np.zeros((n, m)), grad_b], axis=1) - np.vecmat(grad_a, w) / root
    u_xi = np.linalg.solve(system, rhs[:, :, None]).reshape(n, m + k)
    a_new, _ = _normalize(a + (grad_a - root * np.matvec(w, u_xi)) / f)
    b_new, _ = _normalize(b + u_xi[:, m:])
    length = _steps(a_new, a, b_new, b)
    within = [q for q in range(n) if not length[q] > trust[q]]
    if len(within) < n:
        if not within:
            return [], None, None, None, []
        a_new, b_new, f = a_new[within], b_new[within], f[within]
        taken = [taken[q] for q in within]
        length = [length[q] for q in within]
    m_new = (a_new @ unfold).reshape(len(taken), k, m)
    c_new = np.vecmat(b_new, m_new)
    lower = (np.vecdot(c_new, c_new) < f[:, 0] * (1.0 - _FIXED_POINT_STEP)).tolist()
    if True in lower:
        kept = [q for q, drop in enumerate(lower) if not drop]
        a_new, b_new, m_new = a_new[kept], b_new[kept], m_new[kept]
        taken = [taken[q] for q in kept]
        length = [length[q] for q in kept]
    return taken, a_new, b_new, m_new, length


def _step_prices(p, k, m):
    """The prices (power, Newton) of one row's step in a fit's refinement
    stack of m rows, in flops counted from the sizes.

    A power step reads the (p, k*m) unfolding twice, 4pkm at one row; the
    rows of a stack share the reads, the ``_SHARED_READ`` part of it, so a
    row pays 4pkm * (_SHARED_READ / m + 1 - _SHARED_READ).  A Newton step's
    products and (m + k)-square factorizations are paid per row: it reads
    the unfolding three times and forms, factors and solves the system of
    :func:`_newton_step`, 8pkm + p(m + k)^2 + k^2 m + (m + k)^3.  Each
    adds its fixed work: ``_STEP_WORK`` for a power step, four times it
    for a Newton step.  The price depends on the fit's sizes alone, not on
    how many rows step together, so a fit refined among other fits follows
    the schedule it follows alone.
    """
    power = 4 * p * k * m * (_SHARED_READ / m + 1.0 - _SHARED_READ)
    newton = 8 * p * k * m + p * (m + k) ** 2 + k * k * m + (m + k) ** 3
    return power + _STEP_WORK, newton + 4 * _STEP_WORK


def _distance(step, rho, last_rho):
    """The distance step * rho / (1 - rho) to its fixed point a power
    iteration predicts once settled in its basin (rho < 1, and the last two
    step ratios within (1 - rho) / 2 of each other); infinite until then."""
    if not (rho < 1.0 and abs(rho - last_rho) <= 0.5 * (1.0 - rho)):
        return math.inf
    return step * rho / (1.0 - rho)


def _newton_trust(step, rho, last_rho, prices, budget):
    """The longest Newton step to accept after a power step of length
    ``step``, or 0 to go on with power steps.

    ``rho`` and ``last_rho`` are the ratios of the last two pairs of
    successive power steps.  Once the power iteration has settled in its
    basin, it predicts a distance d to its fixed point (:func:`_distance`)
    and log(_FIXED_POINT_STEP / step) / log(rho) further steps.  j Newton
    steps take a distance below _FIXED_POINT_STEP ** 2**-j to the floor,
    and one power step confirms the fixed point.  Of the plans "t more
    power steps, then Newton" and "power steps only" that reach the floor
    within the ``budget`` of steps left, the cheapest at ``prices``
    (:func:`_step_prices`) is chosen; power steps that would stop at the
    budget short of the floor are no plan.  Newton steps start when the
    cheapest plan has t = 0: at the desk shape a power step costs a row of
    the stack about a sixth of what it costs alone, so only slow rows
    (rho near 1) switch.  A step may be as long as 2 * step / (1 - rho):
    twice the distance to the fixed point from the point before the last
    power step.
    """
    distance = _distance(step, rho, last_rho)
    if not _FIXED_POINT_STEP < distance < 1.0:
        return 0.0
    power_cost, newton_cost = prices
    newton_steps = max(1, math.ceil(math.log2(math.log(_FIXED_POINT_STEP) / math.log(distance))))
    cost = power_cost + newton_steps * newton_cost
    power_steps = math.log(_FIXED_POINT_STEP / step) / math.log(rho)
    if newton_steps + 1 > budget or power_steps <= budget and cost >= power_steps * power_cost:
        return 0.0
    for j in range(1, newton_steps):
        wait = math.ceil(math.log(_FIXED_POINT_STEP ** 0.5**j / distance) / math.log(rho))
        if wait + 1 + j <= budget and (wait + 1) * power_cost + j * newton_cost < cost:
            return 0.0
    return 2.0 * step / (1.0 - rho)


def _refine(unfold, k, a, b, tol, max_iter, early=False):
    """Refinement: a stack of starts, in lockstep, to their power-iteration
    fixed points.

    ``unfold`` is the (p, k*m) unfolding of the original subspace, and a
    (L, p) and b (L, k) hold one unit start per row, each where a
    discovery lead stopped.
    The power step is discovery's (:func:`_power_step`) on the unprojected
    coefficients: two reads of the unfolding per step plus one before the
    first.

    Each row follows its own schedule.  Once its power steps have settled
    and Newton steps pay for themselves (:func:`_newton_trust`, at the
    prices of :func:`_step_prices` for a stack of m rows, the fit's own
    rank, however many rows this stack holds), Newton
    steps (:func:`_newton_step`) follow, each no longer than the one
    before, until one is at most the square root of
    ``_FIXED_POINT_STEP``; power steps take over again.  A Newton step
    that fails a safeguard is not taken, and the row takes a power step
    instead; after its j-th such refusal the next try waits 2^j power
    steps, so at most log2(``max_iter``) refused steps are paid for.
    Either kind of step counts as an iteration and adds its starting
    objective to the trace.  ``converged`` is set once step^2 / 2 falls
    below ``tol``, but a row runs on until a power step is at most
    ``_FIXED_POINT_STEP`` or ``max_iter`` steps are taken: the point it
    returns is a fixed point of the power iteration.  With ``early`` (rank
    selection) a row also returns, converged, once its power steps predict
    a distance d to its fixed point (:func:`_distance`) with d^2 / 2 below
    ``tol``: the |cos| of two columns at one fixed point then moves by
    about 2 d^2 at most (docs/decisions.md, "Rank selection stops at the
    precision it reads").  Every round, the
    rows whose Newton step is due take it together, and the others, those
    refused among them, take one power step together.

    Returns one entry per row, (a, b, objective, iterations, trace,
    converged) as :func:`_discover`'s without the direction.  No row's
    contraction vanishes: the unprojected contraction is at least the
    projected one discovery stopped at, a power step never lowers it
    (:func:`_power_step`), and :func:`_newton_step` refuses a step that
    lowers it by more than rounding.
    """
    m = unfold.shape[1] // k
    prices = _step_prices(a.shape[1], k, m)
    rows = list(range(a.shape[0]))
    results = [None] * len(rows)
    traces = [[] for _ in rows]
    schedules = [_Schedule() for _ in rows]
    m_a = (a @ unfold).reshape(len(rows), k, m)
    steps = 0
    while True:
        n = len(rows)
        c = np.vecmat(b, m_a)
        unit, sigma = _normalize(c)
        keep = []
        for pos, (i, s) in enumerate(zip(rows, sigma)):
            traces[i].append(s * s)
            near = early and schedules[pos].near
            if near or schedules[pos].step <= _FIXED_POINT_STEP or steps >= max_iter:
                results[i] = (a[pos].copy(), b[pos].copy(), s * s, steps, traces[i],
                              schedules[pos].converged or near)
            else:
                keep.append(pos)
        if len(keep) < n:
            if not keep:
                return results
            rows = [rows[pos] for pos in keep]
            schedules = [schedules[pos] for pos in keep]
            a, b, m_a, c, unit = (x[keep] for x in (a, b, m_a, c, unit))
            n = len(keep)
        power = range(n)
        newton = [pos for pos in power if schedules[pos].trust]
        if newton:
            rows_n = (a, b, m_a, c) if len(newton) == n else (a[newton], b[newton], m_a[newton], c[newton])
            taken, a_n, b_n, m_n, lengths = _newton_step(
                unfold, *rows_n, [schedules[pos].trust for pos in newton]
            )
            taken = [newton[q] for q in taken]
            for pos, length in zip(taken, lengths):
                schedules[pos].newton_taken(length, tol)
            for pos in set(newton).difference(taken):
                schedules[pos].newton_refused(steps)
            if len(taken) == n:
                a, b, m_a = a_n, b_n, m_n
                power = []
            elif taken:
                power = [pos for pos in power if pos not in set(taken)]
                # Arrays this loop made (round 0 takes no Newton step), so
                # no caller's array is written.
                a[taken], b[taken], m_a[taken] = a_n, b_n, m_n
        if len(power) == n:
            a, b, m_a, step = _power_step(unfold, a, b, unit)
        elif power:
            a_p, b_p, m_p, step = _power_step(unfold, a[power], b[power], unit[power])
            a[power], b[power], m_a[power] = a_p, b_p, m_p
        steps += 1
        for pos, new_step in zip(power, step if power else ()):
            schedules[pos].power_taken(new_step, tol, steps, prices, max_iter)


class _Schedule:
    """Where one refinement row stands between power and Newton steps.

    ``step`` is its last power step and ``rho`` that step's ratio to the
    one before (NaN until two successive power steps give one); ``near``
    whether they predict a distance d with d^2 / 2 below ``tol`` to the
    fixed point (:func:`_distance`; False after a Newton step); ``trust``
    the longest Newton step to accept, 0 while power steps are taken;
    ``refused`` the Newton steps refused so far, after the j-th of which
    2^j power steps come before the next try, at the step count
    ``retry``.
    """

    __slots__ = ("converged", "near", "step", "rho", "trust", "refused", "retry")

    def __init__(self):
        self.converged = self.near = False
        self.step = self.rho = math.nan
        self.trust = 0.0
        self.refused = self.retry = 0

    def power_taken(self, step, tol, steps, prices, max_iter):
        last_rho, self.rho, self.step = self.rho, step / self.step, step
        self.converged = self.converged or 0.5 * step * step < tol
        self.near = 0.5 * _distance(step, self.rho, last_rho) ** 2 < tol
        if steps >= self.retry:
            self.trust = _newton_trust(step, self.rho, last_rho, prices, max_iter - steps)

    def newton_taken(self, length, tol):
        self.converged = self.converged or 0.5 * length * length < tol
        self.trust = length if length * length > _FIXED_POINT_STEP else 0.0
        self.step = self.rho = math.nan
        self.near = False

    def newton_refused(self, steps):
        self.refused += 1
        self.retry = steps + 2**self.refused
        self.trust = 0.0


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
    """Solutions of G_f x = h over x >= 0 for a stack of fits f, one per row
    h of H_f: G is (n, r, r) and H (n, k, r).

    Each row minimizes x^T G_f x / 2 - h^T x for symmetric positive definite
    G_f, the normal equations of a non-negative least-squares problem.  A
    warm start solves on all indices and drops those with a non-positive
    solution until the rest are positive.  It runs for every row of every
    fit at once: outside a row's passive set its matrix holds identity rows
    and columns, so one batched solve serves every row.  The warm start
    ends at a feasible point.  One stacked test of the KKT conditions,
    whose G_f x is per row the product ``G_f @ x`` (``np.matvec``), finds
    the rows the warm start left short of their minimizer, and
    :func:`_nnls_fit` takes those, and only those, on to
    :func:`_lawson_hanson`.  The dual tolerance scales with h and G x
    (G = (A^T A) o (A^T A) and x are non-negative, so G x is the size of
    its own terms), so x(c h) = c x(h) for every c > 0.

    Returns per fit its (k, r) solutions, or the ``LinAlgError`` that ended
    them: a fit's failure leaves the other fits' solutions as they are.
    """
    n, k, r = H.shape
    X = np.zeros((n * k, r))
    passive = np.ones((n * k, r), dtype=bool)
    rows = np.arange(n * k)
    while rows.size:
        P = passive[rows]
        M = np.where(P[:, :, None] & P[:, None, :], G[rows // k], np.eye(r))
        S = np.linalg.solve(M, np.where(P, H.reshape(n * k, r)[rows], 0.0)[:, :, None])[:, :, 0]
        done = ((S > 0) | ~P).all(axis=1)
        X[rows[done]] = np.where(P, S, 0.0)[done]
        passive[rows] &= S > 0
        rows = rows[~done & passive[rows].any(axis=1)]
    X, passive = X.reshape(n, k, r), passive.reshape(n, k, r)
    tol = 10 * np.finfo(float).eps * r * np.maximum(
        np.abs(H).max(axis=2), (X @ G).max(axis=2)
    )
    short = np.where(passive, -np.inf, H - np.matvec(G[:, None], X)).max(axis=2) > tol
    results = []
    for f in range(n):
        try:
            results.append(_nnls_fit(G[f], H[f], X[f], passive[f], tol[f], short[f]))
        except np.linalg.LinAlgError as exc:
            results.append(exc)
    return results


def _nnls_fit(G, H, X, passive, tol, short):
    """One fit's solutions from its warm start X: each row ``short`` marks
    goes on to :func:`_lawson_hanson`, which may take
    ``_NNLS_SOLVES_PER_COLUMN`` * r solves, and the others keep X's."""
    max_iter = _NNLS_SOLVES_PER_COLUMN * G.shape[0]
    for i in np.flatnonzero(short):
        X[i] = _lawson_hanson(G, H[i], X[i], passive[i], tol[i], max_iter)
    return X


def _loadings(t: CovarianceTensor, A) -> list:
    """The NNLS loadings of every fit of a stack: per unit-column A_f of
    A (n, p, r), its (k, r) loadings, or the error that ended them.

    Each fit's Gram matrix G_f = (A_f^T A_f) o (A_f^T A_f) is checked by
    one batched condition number: a fit whose G_f is numerically singular
    gets a ``GramSingularityError`` naming its most collinear column pair.
    For the other fits, one product of the (k*p, p) slices with their A_f
    side by side gives every h_i = diag(A_f^T S_i A_f), and
    :func:`_nnls_gram` solves all of them together; a Lawson-Hanson
    ``LinAlgError`` is the entry of its own fit.  A stack of one runs the
    products of a fit alone.  A larger stack's slice product can round
    differently from the fits' own products, so a fit's loadings depend
    on the stack it is solved in, as its components do.
    """
    n, p, r = A.shape
    cross = A.transpose(0, 2, 1) @ A
    gram = cross**2
    results = [None] * n
    for f in np.flatnonzero(np.linalg.cond(gram) > GRAM_COND_LIMIT) if r > 1 else ():
        off = np.abs(cross[f]) - 2.0 * np.eye(r)
        i, j = np.unravel_index(np.argmax(off), off.shape)
        pair = (min(i, j), max(i, j))
        results[f] = GramSingularityError(
            f"components {pair[0]} and {pair[1]} are near-duplicates "
            f"(|cos| = {abs(cross[f, i, j]):.6f}); loadings are not determined",
            columns=pair,
        )
    fine = [f for f in range(n) if results[f] is None]
    if fine:
        if len(fine) < n:
            A, gram = A[fine], gram[fine]
        cols = A.transpose(1, 0, 2).reshape(p, len(fine) * r)
        sa = (t.slices.reshape(t.k * p, p) @ cols).reshape(t.k, p, len(fine), r)
        h = np.einsum("ipfj,pfj->fij", sa, cols.reshape(p, len(fine), r))
        for f, B in zip(fine, _nnls_gram(gram, h)):
            results[f] = B
    return results


def solve_nnls(t: CovarianceTensor, A) -> np.ndarray:
    """Non-negative loadings B minimizing ||S_i - sum_j B[i,j] a_j a_j^T||_F.

    The objective separates over contexts.  With D the p^2 x r design
    whose columns are the vectorized a_j a_j^T, only its r x r Gram
    matrix G = D^T D = (A^T A) o (A^T A) and h_i = D^T vec(S_i) =
    diag(A^T S_i A) enter: ||D b - vec(S_i)||^2 = b^T G b - 2 b^T h_i +
    ||S_i||^2, so each row is the solution of G b = h_i over b >= 0,
    found by the numpy active-set solver :func:`_nnls_gram` on (G, h_i),
    and D is never built.  This is the one-fit case of :func:`_loadings`,
    which a fit calls directly.  Raises ``GramSingularityError`` naming
    the most collinear column pair when G is numerically singular, and
    ``np.linalg.LinAlgError`` when a Lawson-Hanson loop reaches its cap.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != t.p:
        raise DimensionMismatchError(f"A must be {t.p} x r, got {A.shape}")
    norms = np.linalg.norm(A, axis=0)
    if np.abs(norms - 1.0).max() > 1e-8:
        raise ValueError("columns of A must have unit norm")
    (B,) = _loadings(t, A[None])
    if isinstance(B, Exception):
        raise B
    return B


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
    t: CovarianceTensor, r: int, cfg: FitConfig = FitConfig(), found=None
) -> tuple[McpcaModel, FitReport]:
    """Fit the rank-r model: components by deflated power iterations with
    refinement, loadings by global non-negative least squares.

    The fit runs in this process, its components discovered in windows
    (:func:`_discover`) and refined together in one stack.  The report's
    residuals and identifiability flag are computed when they are first
    read (see :class:`FitReport`).

    ``found``, when given, is this fit's entry of :func:`_lockstep` run
    for ``cfg.seed`` among other seeds of the same ``t``, ``r`` and
    ``cfg`` (rank selection fits a candidate's seeds so): the fit then
    takes its components and loadings from there, or raises the error
    that ended them, and only orders the columns.
    """
    if found is None:
        (found,) = _lockstep(t, r, cfg, [cfg.seed])
    if isinstance(found, Exception):
        raise found
    return _finish(t, cfg, *found)


def _lockstep(t: CovarianceTensor, r: int, cfg: FitConfig, seeds, early=False) -> list:
    """The fits of ``t`` at rank ``r`` with ``cfg`` at each of ``seeds``,
    run together: everything a fit does before it orders its columns.

    Each fit draws all its starts up front from its own generator, in
    component order, the order in which a fit alone draws them.  One
    :func:`_discover` stack discovers every fit's components.  From
    ``WINDOW_MIN_SIZE`` entries of the unfolding on, at one restart per
    component, it steps in windows of ``WINDOW_WIDTH`` on the core
    C = U_r^T unfold, built here once from the left singular vectors
    :func:`~mcpca.tensor_core.flatten` caches: each start a enters as
    U_r^T a, normalized, and each discovered a' leaves as U_r a'.  A fit
    alone folds its found directions out of C as it goes; the fits of a
    lockstep share C whole.  The
    one gate reads the full unfolding's size, so the core opens exactly
    where the window does; elsewhere discovery steps one row a window on
    the unfolding.  One :func:`_refine` stack then refines the best
    restart of each component on the full unfolding, in this process (with
    ``early``, rank selection's, to within ``cfg.tol`` of its fixed point).
    Each fit's collision guard (:func:`_guard`) then keeps or drops each
    refinement, and one :func:`_loadings` stack solves every fit's
    loadings.  A row's bits depend on the stack it is stepped or
    solved in, so on the seeds of the lockstep, but never on the CPU
    count.

    Returns, per seed, the (unfolding, components, loadings, start time)
    :func:`_finish` takes, or the error that ended the fit: a singular
    Gram matrix or a Lawson-Hanson ``LinAlgError`` ends only its own fit,
    and a rank the flattening cannot hold every fit.  ``ValueError`` for a
    rank outside [1, p].
    """
    started = time.perf_counter()
    p, k = t.p, t.k
    try:
        unfold = _unfolding(extract_subspace(t, r), p, k)
    except RankDeficiencyError as exc:
        return [exc] * len(seeds)
    restarts = cfg.restarts_per_component
    draws = [
        [_draw_start(rng, p, k) for _ in range(r * restarts)]
        for rng in map(np.random.default_rng, seeds)
    ]
    a, b = (np.array([[start[x] for start in fit] for fit in draws]) for x in (0, 1))
    taken = np.empty((len(seeds), 0, r))
    if unfold.size >= WINDOW_MIN_SIZE and restarts == 1:
        basis = flatten(t)[2][:, :r]
        a = _normalize((a @ basis).reshape(-1, r))[0].reshape(len(seeds), -1, r)
        fits = _discover(basis.T @ unfold, taken, k, a, b, cfg, WINDOW_WIDTH)
        fits = [[[(basis @ x[0], *x[1:]) for x in results] for results in fit] for fit in fits]
    else:
        fits = _discover(unfold, taken, k, a, b, cfg, 1)
    best = [_pick(results)[:2] for fit in fits for results in fit]
    rows = _refine(
        unfold, k, np.array([a for a, _ in best]), np.array([b for _, b in best]),
        cfg.tol, cfg.max_iter, early,
    )
    fits = [_guard(f, rows[pos * r : (pos + 1) * r], p + k) for pos, f in enumerate(fits)]
    A = np.array([np.column_stack([c[0] for c in f]) for f in fits])
    return [
        B if isinstance(B, Exception) else (unfold, f, B, started)
        for f, B in zip(fits, _loadings(t, A))
    ]


def _guard(discovered, refined, size):
    """The components of one fit: each component's best restart
    (:func:`_pick`), replaced by its refinement unless that climbs onto an
    earlier component, as (a, b, trace, iterations, converged, restarts
    used)."""
    components = []
    found = np.empty((len(discovered), size))
    for j, (results, refined_j) in enumerate(zip(discovered, refined)):
        a, b, _, iters, trace, conv = _pick(results)[:6]
        if _overlap(refined_j[0], refined_j[1], found[:j]) < _COLLISION_COS:
            a, b, _, ref_iters, ref_trace, ref_conv = refined_j
            trace = trace + ref_trace
            iters += ref_iters
            conv = conv and ref_conv
        found[j] = np.concatenate([a, b])
        components.append((a, b, trace, iters, conv, len(results)))
    return components


def _finish(t, cfg, unfold, components, B, started):
    """The (model, report) of one fit from its components (:func:`_guard`)
    and loadings: the columns sign-fixed and ordered."""
    k, r = t.k, len(components)
    A = np.column_stack([c[0] for c in components])
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
