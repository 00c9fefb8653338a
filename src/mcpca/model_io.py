"""Versioned on-disk formats for fitted models and fit reports.

Model files are self-describing JSON with matrices embedded row-major.
Floats are written with Python's shortest round-trip formatting, so
serialize -> load -> serialize is byte-identical; the files are diffable
and safe to pin in regression tests.  The preprocessing block records
how training data were prepared (per-context centering, unbiased
covariance normalization, optional global PCA projection with its mean
and whether scores were whitened) so scoring can accept raw-dimension
data and replay the same chain.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .decompose import FitReport, McpcaModel
from .exceptions import DataFormatError

FORMAT_VERSION = 1

# The column order and sign convention every model is fitted under
# (see McpcaModel); files name them, and a file naming others is rejected.
ORDERING_RULE = "loading-column-sum-desc"
SIGN_RULE = "max-abs-entry-positive"


@dataclass(frozen=True)
class Preprocessing:
    """Transformations applied to training data before covariance building.

    ``projection`` has one row per principal component kept.
    """

    projection: np.ndarray | None = None
    pca_mean: np.ndarray | None = None

    def __post_init__(self):
        if (self.projection is None) != (self.pca_mean is None):
            raise ValueError("projection and pca_mean must be given together")
        if self.projection is not None:
            # Copies: freezing the caller's arrays would change them.
            proj = np.array(self.projection, dtype=float)
            mean = np.array(self.pca_mean, dtype=float)
            if proj.ndim != 2:
                raise ValueError("projection must be a matrix")
            if mean.shape != (proj.shape[1],):
                raise ValueError("pca_mean must match the projection's columns")
            if not (np.all(np.isfinite(proj)) and np.all(np.isfinite(mean))):
                raise ValueError("projection and pca_mean must be finite")
            proj.setflags(write=False)
            mean.setflags(write=False)
            object.__setattr__(self, "projection", proj)
            object.__setattr__(self, "pca_mean", mean)


def _matrix_rows(m) -> list[list[float]]:
    return [[float(x) for x in row] for row in np.asarray(m)]


def model_to_dict(model: McpcaModel, preprocessing: Preprocessing) -> dict:
    proj = preprocessing.projection
    return {
        "format_version": FORMAT_VERSION,
        "p": model.p,
        "k": model.k,
        "r": model.r,
        "context_ids": list(model.context_ids),
        "A": _matrix_rows(model.A),
        "B": _matrix_rows(model.B),
        "ordering_rule": ORDERING_RULE,
        "sign_rule": SIGN_RULE,
        "seed": model.seed,
        "converged": list(model.converged),
        "preprocessing": {
            "centering": "per-context",
            "covariance": "unbiased",
            "pca_components": None if proj is None else proj.shape[0],
            "pca_whitened": False,
            "projection": None if proj is None else _matrix_rows(proj),
            "pca_mean": (
                None
                if preprocessing.pca_mean is None
                else [float(x) for x in preprocessing.pca_mean]
            ),
        },
    }


def serialize_model(model: McpcaModel, preprocessing: Preprocessing) -> str:
    return json.dumps(model_to_dict(model, preprocessing), indent=2) + "\n"


def save_model(path, model: McpcaModel, preprocessing: Preprocessing = Preprocessing()):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(serialize_model(model, preprocessing))


def load_model(path) -> tuple[McpcaModel, Preprocessing]:
    """Read a model file, re-validating every model invariant."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(raw, dict) or raw.get("format_version") != FORMAT_VERSION:
        raise DataFormatError(
            f"{path}: missing or unsupported format_version "
            f"(expected {FORMAT_VERSION})"
        )
    try:
        A = np.asarray(raw["A"], dtype=float)
        B = np.asarray(raw["B"], dtype=float)
        if A.shape != (raw["p"], raw["r"]) or B.shape != (raw["k"], raw["r"]):
            raise DataFormatError(
                f"{path}: matrix shapes disagree with the declared p, k, r"
            )
        model = McpcaModel(
            A=A,
            B=B,
            context_ids=tuple(raw["context_ids"]),
            seed=int(raw["seed"]),
            converged=tuple(bool(c) for c in raw["converged"]),
        )
        pre = raw["preprocessing"]
        preprocessing = Preprocessing(
            projection=(
                None if pre["projection"] is None else np.asarray(pre["projection"])
            ),
            pca_mean=(
                None if pre["pca_mean"] is None else np.asarray(pre["pca_mean"])
            ),
        )
        proj = preprocessing.projection
        for block, field, value in (
            (raw, "ordering_rule", ORDERING_RULE),
            (raw, "sign_rule", SIGN_RULE),
            (pre, "pca_components", None if proj is None else proj.shape[0]),
        ):
            if block[field] != value:
                raise DataFormatError(
                    f"{path}: {field} must be {value!r}, got {block[field]!r}"
                )
    except KeyError as exc:
        raise DataFormatError(f"{path}: missing field {exc}") from exc
    except TypeError as exc:
        # A field of the wrong JSON type: null for the seed, a number for
        # the converged flags, a list for the preprocessing block.
        raise DataFormatError(f"{path}: malformed model file ({exc})") from exc
    return model, preprocessing


def report_to_dict(report: FitReport) -> dict:
    return {
        "reconstruction_error": float(report.reconstruction_error),
        "per_context_error": [float(x) for x in report.per_context_error],
        "objective_trace": [list(trace) for trace in report.objective_trace],
        "restarts_used": list(report.restarts_used),
        "iterations": list(report.iterations),
        "elapsed_seconds": float(report.elapsed_seconds),
        "seed": report.seed,
        "non_identifiable_suspect": report.non_identifiable_suspect,
        "metadata": {key: value for key, value in report.metadata},
    }


def save_report(path, report: FitReport):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(report_to_dict(report), indent=2) + "\n")
