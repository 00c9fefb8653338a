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
from dataclasses import dataclass, replace

import numpy as np

from . import fork_pool
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


def _components(t: CovarianceTensor, r: int, cfg: FitConfig):
    """Components A of one stability fit, or None when the fit fails."""
    try:
        return fit_mcpca(t, r, cfg)[0].A
    except (McpcaError, np.linalg.LinAlgError):
        return None


def _stability_fits(t: CovarianceTensor, candidates, n_seed_pairs: int, cfg: FitConfig) -> list:
    """Per candidate, the components of its fits, run 0 then run 1 of each
    pair in pair order; None for a fit that failed.

    Every fit of every candidate runs, each one task of
    ``fork_pool.map_in_workers`` on ``fork_pool.fit_workers`` workers.
    """
    if n_seed_pairs < 1:
        raise ValueError("n_seed_pairs must be >= 1")
    tasks = [
        (r, replace(cfg, seed=mix_seed(cfg.seed, pair, run)))
        for r in candidates
        for pair in range(n_seed_pairs)
        for run in range(2)
    ]
    flatten(t)  # forked workers inherit the cached SVD
    fits = fork_pool.map_in_workers(
        lambda task: _components(t, *task), tasks, fork_pool.fit_workers(t.slices.size)
    )
    per = 2 * n_seed_pairs
    return [fits[i : i + per] for i in range(0, len(fits), per)]


def _mean_match(models) -> float:
    """Mean ``ascore`` over the pairs of ``models``; 0 when a fit failed."""
    if any(A is None for A in models):
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

    All 2 * ``n_seed_pairs`` fits of every candidate run, as one batch:
    in forked workers from ``fork_pool.PARALLEL_MIN_ENTRIES`` tensor
    entries on, CPUs // BLAS threads of them, one fit per task.  The
    report is ``==`` to the one the fits give one after another in this
    process, which is how they run for a smaller tensor, when fewer than
    two workers fit (one CPU, or BLAS not pinned to fewer threads than
    the CPUs), without ``fork``, while other threads run, inside a
    worker of another map or when a worker dies.
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
