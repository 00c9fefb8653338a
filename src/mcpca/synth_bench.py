"""Planted-model generators and the accuracy/runtime benchmark harness.

A planted model draws component directions by normalizing Gaussian
columns (or orthonormalizing them by QR) and sparse non-negative
loadings with a given density of nonzeros whose magnitudes are absolute
standard normals.  Datasets sample each context from the zero-mean
Gaussian with covariance A B_i A^T, drawn as A diag(sqrt(b_i)) z so
singular covariances cause no trouble.

Trials are deterministic given the master seed: per-trial generator,
sampling and fitting seeds are derived with :func:`mix_seed`, and
runtimes are measured around the fit call only.  In noiseless mode the
exact covariances A B_i A^T are decomposed instead of sampled ones; such
records carry N = 0.

Each trial (a grid point of a sweep) is one task of
``fork_pool.map_in_workers``: from ``fork_pool.PARALLEL_MIN_ENTRIES``
tensor entries on, the trials run in forked workers, CPUs // BLAS
threads of them, one trial at a time in each, so a recorded runtime
still times one fit with the CPU to itself.  The records are those of
the trials run one after another in this process, except
``runtime_seconds`` (docs/decisions.md, "Benchmark trials in parallel").
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields

import numpy as np

from . import fork_pool
from .baselines import jennrich, pca_stack
from .decompose import FitConfig, fit_mcpca
from .exceptions import DataFormatError, McpcaError
from .ingest import ContextDataset, build_tensor, load_matrix
from .model_select import ascore, mix_seed
from .tensor_core import CovarianceTensor, tensor_from_factors

KNOWN_METHODS = ("mcpca", "pca_stack", "jennrich")

# Tags separating the derived seed streams for model generation, data
# sampling and fitting.
_SEED_MODEL, _SEED_DATA, _SEED_FIT = 1, 2, 3


@dataclass(frozen=True)
class PlantedModel:
    """Ground-truth factors behind a synthetic covariance tensor."""

    A_true: np.ndarray
    B_true: np.ndarray
    seed: int

    def __post_init__(self):
        A = np.asarray(self.A_true, dtype=float)
        B = np.asarray(self.B_true, dtype=float)
        A.setflags(write=False)
        B.setflags(write=False)
        object.__setattr__(self, "A_true", A)
        object.__setattr__(self, "B_true", B)

    @property
    def p(self) -> int:
        return self.A_true.shape[0]

    @property
    def k(self) -> int:
        return self.B_true.shape[0]

    @property
    def r(self) -> int:
        return self.A_true.shape[1]


@dataclass(frozen=True)
class TrialRecord:
    method: str
    p: int
    k: int
    r: int
    N: int
    trial: int
    seed: int
    ascore: float
    runtime_seconds: float
    converged: bool


# A record file has one column per TrialRecord field, in field order; each
# field type has one text form.
RECORD_HEADER = tuple(f.name for f in fields(TrialRecord))
_FORMAT = {
    "str": str, "int": str, "float": repr, "bool": lambda v: "true" if v else "false"
}
_PARSE = {"str": str, "int": int, "float": float, "bool": lambda c: c == "true"}


@dataclass(frozen=True)
class BenchConfig:
    """Accuracy-trial protocol: fresh planted model and data per trial."""

    p: int = 100
    k: int = 50
    r: int = 60
    density: float = 0.2
    N: int = 1000
    n_trials: int = 40
    methods: tuple[str, ...] = KNOWN_METHODS
    seed: int = 0
    noiseless: bool = False
    orthonormal: bool = False


@dataclass(frozen=True)
class SweepConfig:
    """Sample-size sweep: one planted model, fresh data per grid point."""

    p: int = 100
    k: int = 50
    r: int = 60
    density: float = 0.2
    N_grid: tuple[int, ...] = (10, 100, 1000, 10000, 100000)
    methods: tuple[str, ...] = KNOWN_METHODS
    seed: int = 0
    orthonormal: bool = False


def _check_shape(p: int, k: int, r: int, density: float) -> None:
    if p < 1 or k < 1 or not 1 <= r <= p:
        raise ValueError(f"need p >= 1, k >= 1, 1 <= r <= p; got ({p}, {k}, {r})")
    if not 0 < density <= 1:
        raise ValueError(f"density must be in (0, 1], got {density}")


def _check_samples(N: int) -> None:
    if N < 2:
        raise ValueError(f"need N >= 2 samples per context, got {N}")


def generate_planted(
    p: int,
    k: int,
    r: int,
    density: float,
    orthonormal: bool = False,
    seed: int = 0,
) -> PlantedModel:
    """Draw unit-norm (or orthonormal) components and sparse loadings."""
    _check_shape(p, k, r, density)
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((p, r))
    if orthonormal:
        q, rr = np.linalg.qr(g)
        A = q * np.where(np.diag(rr) >= 0, 1.0, -1.0)
    else:
        A = g / np.linalg.norm(g, axis=0)
    mask = rng.random((k, r)) < density
    magnitudes = np.abs(rng.standard_normal((k, r)))
    B = np.where(mask, magnitudes, 0.0)
    return PlantedModel(A_true=A, B_true=B, seed=seed)


def exact_covariance_tensor(pm: PlantedModel) -> CovarianceTensor:
    """The noiseless tensor with slices A B_i A^T."""
    ids = tuple(f"c{i:04d}" for i in range(pm.k))
    return tensor_from_factors(pm.A_true, pm.B_true, context_ids=ids)


def sample_dataset(pm: PlantedModel, N: int, seed: int = 0) -> ContextDataset:
    """N Gaussian draws per context from N(0, A B_i A^T)."""
    _check_samples(N)
    rng = np.random.default_rng(seed)
    contexts = []
    scale = np.sqrt(pm.B_true)
    for i in range(pm.k):
        z = rng.standard_normal((N, pm.r))
        x = (z * scale[i]) @ pm.A_true.T
        # Read-only, so ContextDataset keeps it instead of copying it.
        x.setflags(write=False)
        contexts.append((f"c{i:04d}", x))
    return ContextDataset(tuple(contexts))


def load_external_components(path, p: int, r: int):
    """Read an externally computed component matrix (p rows, r columns).

    Columns are normalized to unit norm so the file may carry unscaled
    directions.
    """
    A = load_matrix(path)
    if A.shape[0] != p:
        raise DataFormatError(f"{path}: expected {p} rows, got {A.shape[0]}")
    if A.shape[1] != r:
        raise DataFormatError(f"{path}: expected {r} columns, got {A.shape[1]}")
    norms = np.linalg.norm(A, axis=0)
    if np.any(norms <= 0):
        raise DataFormatError(f"{path}: zero column in component matrix")
    return A / norms


def _parse_method(method):
    if method in KNOWN_METHODS:
        return method, None
    if method.startswith("external="):
        path = method.split("=", 1)[1]
        if not path:
            raise ValueError("external method needs a path: external=<file>")
        return "external", path
    raise ValueError(
        f"unknown method {method!r}; expected one of {KNOWN_METHODS} "
        f"or external=<file>"
    )


def _trial_records(methods, tensor, pm, N, trial, seed) -> list[TrialRecord]:
    """Fit each method to ``tensor``, one record each, timing the fit call
    only.  ``seed`` seeds the fits that draw random numbers."""
    records = []
    for method in methods:
        name, external_path = _parse_method(method)
        components = None
        converged = False
        started = time.perf_counter()
        try:
            if name == "mcpca":
                model, _ = fit_mcpca(tensor, pm.r, FitConfig(seed=seed))
                components = model.A
                converged = all(model.converged)
            elif name == "pca_stack":
                result = pca_stack(tensor, pm.r)
                components = result.A
                converged = not result.notes
            elif name == "jennrich":
                result = jennrich(tensor, pm.r, seed=seed)
                components = result.A
                converged = not result.notes
            else:
                components = load_external_components(external_path, pm.p, pm.r)
                converged = True
        except (McpcaError, np.linalg.LinAlgError):
            components = None
            converged = False
        runtime = time.perf_counter() - started
        score = 0.0 if components is None else ascore(pm.A_true, components).ascore
        records.append(
            TrialRecord(name, pm.p, pm.k, pm.r, N, trial, seed, score, runtime, converged)
        )
    return records


def _run_trial(cfg, trial, model_seed, N, key) -> list[TrialRecord]:
    """One task of the trial pool: the planted model of ``model_seed``, its
    exact tensor when ``N`` is 0 or the tensor of N samples per context,
    and a record per method of ``cfg``.  ``key`` (the trial, or N in a
    sweep) keys the sampling and fitting seeds."""
    pm = generate_planted(
        cfg.p, cfg.k, cfg.r, cfg.density, orthonormal=cfg.orthonormal, seed=model_seed
    )
    if N == 0:
        tensor = exact_covariance_tensor(pm)
    else:
        tensor = build_tensor(sample_dataset(pm, N, seed=mix_seed(cfg.seed, _SEED_DATA, key)))
    fit_seed = mix_seed(cfg.seed, _SEED_FIT, key)
    return _trial_records(cfg.methods, tensor, pm, N, trial, fit_seed)


def _map_trials(cfg, tasks) -> list[TrialRecord]:
    """The records of every trial in ``tasks``, in task order, each trial
    one task of ``fork_pool.map_in_workers``."""
    workers = fork_pool.fit_workers(cfg.p * cfg.p * cfg.k)
    per_trial = fork_pool.map_in_workers(lambda task: _run_trial(cfg, *task), tasks, workers)
    return [rec for records in per_trial for rec in records]


def run_accuracy_trials(cfg: BenchConfig) -> list[TrialRecord]:
    """Fresh planted model and dataset per trial; one record per method."""
    for method in cfg.methods:
        _parse_method(method)
    if cfg.n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    _check_shape(cfg.p, cfg.k, cfg.r, cfg.density)
    if not cfg.noiseless:
        _check_samples(cfg.N)
    N = 0 if cfg.noiseless else cfg.N
    tasks = [(t, mix_seed(cfg.seed, _SEED_MODEL, t), N, t) for t in range(cfg.n_trials)]
    return _map_trials(cfg, tasks)


def run_sample_sweep(cfg: SweepConfig) -> list[TrialRecord]:
    """One planted model, one fit per (N, method), records in grid order.

    Sampling and fitting seeds are keyed by the value of N (not the grid
    position), so repeated grid entries produce identical records.
    """
    for method in cfg.methods:
        _parse_method(method)
    if not cfg.N_grid:
        raise ValueError("N_grid is empty")
    if min(cfg.N_grid) < 2:
        raise ValueError("every N in the grid must be >= 2")
    if any(b < a for a, b in zip(cfg.N_grid, cfg.N_grid[1:])):
        raise ValueError("N_grid must be ascending")
    _check_shape(cfg.p, cfg.k, cfg.r, cfg.density)
    model_seed = mix_seed(cfg.seed, _SEED_MODEL)
    tasks = [(idx, model_seed, n, n) for idx, n in enumerate(cfg.N_grid)]
    return _map_trials(cfg, tasks)


def write_records(path, records) -> None:
    """Comma-delimited records with the fixed header, LF line endings."""
    lines = [",".join(RECORD_HEADER)]
    for rec in records:
        cells = (_FORMAT[f.type](getattr(rec, f.name)) for f in fields(TrialRecord))
        lines.append(",".join(cells))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_records(path) -> list[TrialRecord]:
    with open(path, encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if not lines or tuple(lines[0].split(",")) != RECORD_HEADER:
        raise DataFormatError(f"{path}: missing or wrong record header")
    records = []
    for ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) != len(RECORD_HEADER):
            raise DataFormatError(f"{path}: malformed record line {ln!r}")
        values = (_PARSE[f.type](c) for f, c in zip(fields(TrialRecord), cells))
        records.append(TrialRecord(*values))
    return records
