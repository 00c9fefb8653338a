"""Component matching, cross-seed stability and rank selection.

The similarity between two component matrices is the mean absolute
cosine over greedily matched column pairs: true columns are visited in
order and each claims the unmatched recovered column with the largest
absolute cosine.  Greedy (not optimal-assignment) matching is used
deliberately so reported scores stay comparable across tools that do the
same.

Rank selection scores each candidate rank by the average match score
over pairs of fits run from independent seeds, and picks the largest
candidate whose average reaches the threshold.  The fits are independent
and run in forked worker processes (``fork_pool``), as many as the CPUs
hold at the BLAS thread count, with the same report as one after another
(docs/decisions.md, "Rank selection in parallel").
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .decompose import FitConfig, fit_mcpca
from .exceptions import DimensionMismatchError, McpcaError
from .tensor_core import CovarianceTensor, flatten

DEFAULT_THRESHOLD = 0.8
DEFAULT_SEED_PAIRS = 5

_MASK64 = (1 << 64) - 1

# Matched-cosine ties within this are broken by recovered-column index.
_TIE_TOL = 1e-12


def mix_seed(base: int, *indices: int) -> int:
    """Deterministically derive a seed from a base seed and indices.

    Folds each index into the state and applies the splitmix64 finalizer,
    so nearby (base, index) combinations give unrelated streams.  Pure
    integer arithmetic; stable across platforms.
    """
    x = base & _MASK64
    for v in indices:
        x = (x + 0x9E3779B97F4A7C15 + (v & _MASK64)) & _MASK64
        z = x
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        x = z ^ (z >> 31)
    return x


@dataclass(frozen=True)
class MatchResult:
    """Greedy matching of recovered to true columns.

    ``permutation[j]`` is the recovered column matched to true column j
    (0-based); ``signs[i]`` is the flip that makes recovered column i's
    matched cosine positive; ``per_pair_cosines`` are the matched
    absolute cosines in true-column order and ``ascore`` their mean.
    """

    permutation: tuple[int, ...]
    signs: tuple[int, ...]
    per_pair_cosines: tuple[float, ...]
    ascore: float


def ascore(A_true, A_rec) -> MatchResult:
    """Mean absolute cosine similarity under greedy column matching.

    Each matched |cos| is clipped at 1: rounding can put the cosine of
    equal unit columns just above 1, and a score never exceeds 1.
    """
    A_true = np.asarray(A_true, dtype=float)
    A_rec = np.asarray(A_rec, dtype=float)
    if A_true.ndim != 2 or A_true.shape != A_rec.shape:
        raise DimensionMismatchError(
            f"shapes {A_true.shape} and {A_rec.shape} must match"
        )
    for name, m in (("A_true", A_true), ("A_rec", A_rec)):
        if np.abs(np.linalg.norm(m, axis=0) - 1.0).max() > 1e-8:
            raise ValueError(f"columns of {name} must have unit norm")
    r = A_true.shape[1]
    cosines = A_true.T @ A_rec
    available = np.ones(r, dtype=bool)
    permutation = []
    signs = [1] * r
    matched = []
    for j in range(r):
        row = np.abs(cosines[j])
        best = max(row[i] for i in range(r) if available[i])
        choice = next(
            i for i in range(r) if available[i] and best - row[i] <= _TIE_TOL
        )
        available[choice] = False
        permutation.append(choice)
        signs[choice] = 1 if cosines[j, choice] >= 0 else -1
        matched.append(min(float(row[choice]), 1.0))
    return MatchResult(
        permutation=tuple(permutation),
        signs=tuple(signs),
        per_pair_cosines=tuple(matched),
        ascore=float(np.mean(matched)),
    )


@dataclass(frozen=True)
class RankSelectionReport:
    """Stability per candidate rank plus the scree of the flattening.

    ``scree`` holds the p singular values of the flattening, nonincreasing:
    those of the tensor's one cached SVD, the one every fit starts from.
    """

    candidates: tuple[int, ...]
    stability: tuple[float, ...]
    chosen: int | None
    threshold: float
    n_seed_pairs: int
    scree: tuple[float, ...]


# Tensors of this many entries (p * p * k) or more have their stability
# fits run by the worker processes of ``fork_pool``, imported only then:
# below it, the pool lost or broke even on 2 CPUs in nearly every measured
# shape (docs/decisions.md, "Rank selection in parallel").
PARALLEL_MIN_ENTRIES = 4_000

# The tensor the forked fit workers read, so no task pickles it.  It is
# set only while they run, and only in a process with no other threads.
_worker_tensor = None


def _components(t: CovarianceTensor, r: int, cfg: FitConfig):
    """Components A of one stability fit, or None when the fit fails."""
    try:
        return fit_mcpca(t, r, cfg)[0].A
    except (McpcaError, np.linalg.LinAlgError):
        return None


def _forked_components(task):
    return _components(_worker_tensor, *task)


def _blas_threads(cpus: int) -> int:
    """Threads each BLAS call may run on: ``OPENBLAS_NUM_THREADS``, else
    ``OMP_NUM_THREADS``, else OpenBLAS's default of one per CPU.  A value
    that is not a positive integer counts as unset."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            threads = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if threads > 0:
            return threads
    return cpus


def _fits_in_workers(t: CovarianceTensor, tasks) -> list | None:
    """``_components`` of each (rank, config) task from forked workers, or
    None to fit serially.  Each worker's BLAS runs its own threads, so
    there are as many workers as those threads fit on the CPUs.  A rank's
    fits that have not started are skipped once one of its fits fails."""
    if t.slices.size < PARALLEL_MIN_ENTRIES:
        return None
    from .fork_pool import cpu_count, map_in_workers, worker_count

    workers = min(worker_count() // _blas_threads(cpu_count()), len(tasks))
    if workers < 2:
        return None
    global _worker_tensor
    flatten(t)  # the workers inherit the cached SVD
    _worker_tensor = t
    try:
        return map_in_workers(_forked_components, tasks, workers, group=lambda task: task[0])
    finally:
        _worker_tensor = None


def _stability_fits(t: CovarianceTensor, candidates, n_seed_pairs: int, cfg: FitConfig) -> list:
    """Per candidate, the components of its fits (run 0 then run 1 of
    each pair, in pair order), or None when one of them fails.

    The fits run in forked workers, one task per fit.  For a small
    tensor, on one CPU, while other threads run, or when a worker dies,
    they run here one after another, each candidate's only up to its
    first failure.
    """
    if n_seed_pairs < 1:
        raise ValueError("n_seed_pairs must be >= 1")
    tasks = [
        (r, replace(cfg, seed=mix_seed(cfg.seed, pair, run)))
        for r in candidates
        for pair in range(n_seed_pairs)
        for run in range(2)
    ]
    fits = _fits_in_workers(t, tasks)
    per = 2 * n_seed_pairs
    out = []
    for i in range(0, len(tasks), per):
        if fits is None:
            models = []
            for task in tasks[i : i + per]:
                models.append(_components(t, *task))
                if models[-1] is None:
                    break
        else:
            models = fits[i : i + per]
        out.append(None if any(A is None for A in models) else models)
    return out


def _mean_match(models) -> float:
    """Mean ``ascore`` over the pairs of ``models``; 0 when a fit failed."""
    if models is None:
        return 0.0
    scores = [ascore(models[i], models[i + 1]).ascore for i in range(0, len(models), 2)]
    return float(np.mean(scores))


def stability_score(
    t: CovarianceTensor,
    r: int,
    n_seed_pairs: int = DEFAULT_SEED_PAIRS,
    cfg: FitConfig = FitConfig(),
) -> float:
    """Mean match score over pairs of fits from independent seeds.

    Pair seeds come from ``mix_seed(cfg.seed, pair, run)``.  Any fit
    failure (for example a rank-deficient flattening, or NNLS loadings
    that do not converge) scores 0: rank candidates near the numerical
    rank degrade instead of aborting.
    """
    return _mean_match(_stability_fits(t, [r], n_seed_pairs, cfg)[0])


def select_rank(
    t: CovarianceTensor,
    candidates,
    threshold: float = DEFAULT_THRESHOLD,
    n_seed_pairs: int = DEFAULT_SEED_PAIRS,
    cfg: FitConfig = FitConfig(),
) -> RankSelectionReport:
    """Pick the largest candidate rank whose stability reaches the threshold.

    Absence of a qualifying rank is a valid outcome (``chosen`` is None).
    The scree (singular values of the flattening) is attached for
    shortlisting candidates; no elbow detection is attempted.

    From ``PARALLEL_MIN_ENTRIES`` tensor entries on, every candidate's
    fits run as one batch in forked workers, CPUs // BLAS threads of
    them, one fit per task.  The report is ``==`` to the one the fits give
    one after another, which is how they run for a smaller tensor, when
    fewer than two workers fit (one CPU, or BLAS not pinned to fewer
    threads than the CPUs), without ``fork`` or while other threads run.  On that path a
    candidate's fits stop at its first failure; in workers at most
    ``workers - 1`` more of them run.
    """
    if not math.isfinite(threshold):
        raise ValueError(f"threshold must be finite, got {threshold}")
    candidates = [int(c) for c in candidates]
    if not candidates:
        raise ValueError("candidate list is empty")
    for c in candidates:
        if not 1 <= c <= t.p:
            raise ValueError(f"candidate rank {c} outside [1, p={t.p}]")
    stability = tuple(
        _mean_match(models) for models in _stability_fits(t, candidates, n_seed_pairs, cfg)
    )
    qualifying = [c for c, s in zip(candidates, stability) if s >= threshold]
    chosen = max(qualifying) if qualifying else None
    scree = tuple(float(s) for s in flatten(t)[0])
    return RankSelectionReport(
        candidates=tuple(candidates),
        stability=stability,
        chosen=chosen,
        threshold=float(threshold),
        n_seed_pairs=int(n_seed_pairs),
        scree=scree,
    )
