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


# Field types are tested with type(), not isinstance(): JSON true and false
# load as bools, which isinstance() counts as ints.
def _is_number(value) -> bool:
    return type(value) in (int, float)


def _list_of(value, is_item, name, what):
    """``value`` if it is a JSON array of items passing ``is_item``."""
    if not (type(value) is list and all(map(is_item, value))):
        raise TypeError(f"{name} must be a list of {what}")
    return value


def _matrix(value, name) -> np.ndarray:
    is_row = lambda row: type(row) is list and all(map(_is_number, row))
    return np.array(_list_of(value, is_row, name, "rows of numbers"), dtype=float)


def load_model(path) -> tuple[McpcaModel, Preprocessing]:
    """Read a model file, re-validating every model invariant.

    Every field must have the JSON type the writer gives it, and none is
    coerced: an integer (not a bool) for the format version, the sizes and
    the seed, arrays of strings and of booleans for the context ids and
    the converged flags, arrays of numbers (integers read as floats) for
    the matrices, and the fixed rules as written.  Anything else raises
    ``DataFormatError``.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{path}: not valid JSON ({exc})") from exc
    except RecursionError as exc:
        # Arrays or objects nested beyond the parser's recursion limit.
        raise DataFormatError(f"{path}: JSON nested too deeply ({exc})") from exc
    version = raw.get("format_version") if isinstance(raw, dict) else None
    if type(version) is not int or version != FORMAT_VERSION:
        raise DataFormatError(
            f"{path}: missing or unsupported format_version "
            f"(expected {FORMAT_VERSION})"
        )
    try:
        A = _matrix(raw["A"], "A")
        B = _matrix(raw["B"], "B")
        sizes = [raw[name] for name in ("p", "k", "r")]
        if any(type(size) is not int for size in sizes):
            raise TypeError("p, k and r must be integers")
        p, k, r = sizes
        if r < 1:
            raise DataFormatError(f"{path}: r must be at least 1, got {r}")
        if A.shape != (p, r) or B.shape != (k, r):
            raise DataFormatError(
                f"{path}: matrix shapes disagree with the declared p, k, r"
            )
        if type(raw["seed"]) is not int:
            raise TypeError("seed must be an integer")
        ids = _list_of(raw["context_ids"], lambda c: type(c) is str, "context_ids", "strings")
        flags = _list_of(raw["converged"], lambda c: type(c) is bool, "converged", "booleans")
        model = McpcaModel(A=A, B=B, context_ids=ids, seed=raw["seed"], converged=flags)
        pre = raw["preprocessing"]
        projection, mean = pre["projection"], pre["pca_mean"]
        preprocessing = Preprocessing(
            projection=None if projection is None else _matrix(projection, "projection"),
            pca_mean=(
                None if mean is None
                else np.array(_list_of(mean, _is_number, "pca_mean", "numbers"), dtype=float)
            ),
        )
        proj = preprocessing.projection
        if proj is not None and proj.shape[0] != p:
            raise DataFormatError(f"{path}: projection has {proj.shape[0]} rows, p is {p}")
        for block, field, value in (
            (raw, "ordering_rule", ORDERING_RULE),
            (raw, "sign_rule", SIGN_RULE),
            (pre, "centering", "per-context"),
            (pre, "covariance", "unbiased"),
            (pre, "pca_components", None if proj is None else proj.shape[0]),
            (pre, "pca_whitened", False),
        ):
            # By type too: 4.0 and true equal 4 and 1.
            if type(block[field]) is not type(value) or block[field] != value:
                raise DataFormatError(
                    f"{path}: {field} must be {value!r}, got {block[field]!r}"
                )
    except KeyError as exc:
        raise DataFormatError(f"{path}: missing field {exc}") from exc
    except (TypeError, OverflowError) as exc:
        # A field of the wrong JSON type (null for the seed, a number for
        # the converged flags, a list for the preprocessing block), or an
        # integer beyond the float range in a matrix.
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
    }


def save_report(path, report: FitReport):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(report_to_dict(report), indent=2) + "\n")
