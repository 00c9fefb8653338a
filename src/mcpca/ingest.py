"""Loading per-context data, sample covariances and global PCA reduction.

Supported inputs are delimited text (comma or tab, auto-detected from the
first line, optional header row, UTF-8 with or without a byte-order mark):

* per-context-files: a directory with one file per context, context id =
  file stem, contexts ordered by lexicographic file name;
* long-table: a single file whose first column holds the context id
  (or the column named ``context`` when a header is present), contexts
  ordered by first appearance.

Covariances use each context's own mean and the unbiased 1/(n-1)
normalization.  Missing, non-numeric and non-finite values are rejected,
not imputed.

The numeric cells of a file are parsed in one ``np.loadtxt`` pass in C.
When numpy rejects a cell, the per-cell walk with Python's ``float``
runs instead: it accepts the cells ``float`` accepts (``1_0``, non-ASCII
digits) and otherwise raises the error naming the first bad cell by its
data row in the file and its column.  The walk covers every data line
in file order, in a long table before the rows are grouped by context.
Both paths give the same float64 bits, and every error message is the
one the cell walk gives.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .exceptions import DataFormatError, DimensionMismatchError
from .tensor_core import CovarianceTensor, stack_covariances


@dataclass(frozen=True)
class ContextDataset:
    """Ordered per-context data matrices over a shared variable set.

    ``contexts`` is a tuple of (context_id, X_i) pairs where every X_i is
    an n_i x p array with n_i >= 2.  ``variable_names``, when present,
    has length p.
    """

    contexts: tuple[tuple[str, np.ndarray], ...]
    variable_names: tuple[str, ...] | None = None

    def __post_init__(self):
        if not self.contexts:
            raise DataFormatError("dataset has no contexts")
        cleaned = []
        p = None
        for cid, x in self.contexts:
            arr = np.asarray(x, dtype=float)
            if arr.ndim != 2:
                raise DimensionMismatchError(f"context {cid!r} is not a matrix")
            if not np.all(np.isfinite(arr)):
                raise DataFormatError(f"context {cid!r} contains non-finite values")
            if p is None:
                p = arr.shape[1]
            elif arr.shape[1] != p:
                raise DimensionMismatchError(
                    f"context {cid!r} has {arr.shape[1]} variables, expected {p}"
                )
            if arr.shape[0] < 2:
                raise DataFormatError(
                    f"fewer than 2 samples in context {cid!r} "
                    f"(covariance needs n >= 2)"
                )
            arr = arr.copy()
            arr.setflags(write=False)
            cleaned.append((str(cid), arr))
        if p == 0:
            raise DataFormatError("dataset has zero variables")
        object.__setattr__(self, "contexts", tuple(cleaned))
        if self.variable_names is not None:
            names = tuple(str(n) for n in self.variable_names)
            if len(names) != p:
                raise DimensionMismatchError(
                    f"{len(names)} variable names for {p} variables"
                )
            object.__setattr__(self, "variable_names", names)

    @property
    def p(self) -> int:
        return self.contexts[0][1].shape[1]

    @property
    def k(self) -> int:
        return len(self.contexts)

    @property
    def context_ids(self) -> tuple[str, ...]:
        return tuple(cid for cid, _ in self.contexts)

    @property
    def sample_counts(self) -> tuple[int, ...]:
        return tuple(x.shape[0] for _, x in self.contexts)

    def pooled(self) -> np.ndarray:
        return np.vstack([x for _, x in self.contexts])


def _detect_delimiter(line: str) -> str:
    return "\t" if line.count("\t") >= line.count(",") else ","


def _is_numeric(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _split(line: str, delim: str) -> list[str]:
    return [c.strip() for c in line.split(delim)]


def parse_delimited(path) -> tuple[list[str] | None, list[str], str]:
    """Read a delimited text file: optional header, data lines, delimiter.

    Blank lines are dropped and the data lines are returned unsplit.  The
    delimiter (comma or tab) is detected from the first line.  A first
    row with any non-numeric cell beyond the first column is treated as a
    header, returned as its stripped cells.  Raises ``DataFormatError`` on
    empty input, ragged rows or a header without data rows.
    """
    with open(path, encoding="utf-8-sig") as fh:
        lines = [ln.rstrip("\r\n") for ln in fh if ln.strip()]
    if not lines:
        raise DataFormatError(f"{path}: empty input")
    delim = _detect_delimiter(lines[0])
    width = lines[0].count(delim) + 1
    for idx, ln in enumerate(lines):
        cells = ln.count(delim) + 1
        if cells != width:
            raise DataFormatError(
                f"{path}: ragged row {idx + 1} has {cells} cells, expected {width}"
            )
    first = _split(lines[0], delim)
    if any(not _is_numeric(c) for c in first[1:]) or (
        len(first) == 1 and not _is_numeric(first[0])
    ):
        if len(lines) == 1:
            raise DataFormatError(f"{path}: header but no data rows")
        return first, lines[1:], delim
    return None, lines, delim


def _parse_block(lines, delim, columns) -> np.ndarray | None:
    """``columns`` of ``lines`` as floats in one C pass, or None.

    None means numpy's reader rejected a cell.  Python's ``float`` accepts
    some of those (``1_0``, non-ASCII digits), so the caller then runs the
    cell walk, which returns its values or names the first bad cell.
    Comments and quoting are off: the cell walk accepts neither.  Callers
    check raggedness first, since ``usecols`` hides it.
    """
    try:
        return np.loadtxt(
            lines,
            delimiter=delim,
            comments=None,
            quotechar=None,
            dtype=float,
            ndmin=2,
            usecols=columns,
        )
    except ValueError:
        return None


def _numeric_matrix(path, rows, columns) -> np.ndarray:
    out = np.empty((len(rows), len(columns)), dtype=float)
    for i, row in enumerate(rows):
        for j, col in enumerate(columns):
            cell = row[col]
            if not _is_numeric(cell):
                raise DataFormatError(
                    f"{path}: non-numeric cell {cell!r} at row {i + 1}, column {col + 1}"
                )
            out[i, j] = float(cell)
    return out


def _numeric_lines(path, lines, delim, columns=None) -> np.ndarray:
    """``columns`` (default: all) of every data line, in file order, so a
    bad cell is named by its data row in the file."""
    if columns is None:
        columns = list(range(lines[0].count(delim) + 1))
    block = _parse_block(lines, delim, columns)
    if block is None:
        block = _numeric_matrix(path, [_split(ln, delim) for ln in lines], columns)
    return block


def _load_directory(path) -> ContextDataset:
    names = sorted(
        f for f in os.listdir(path) if os.path.isfile(os.path.join(path, f))
    )
    if not names:
        raise DataFormatError(f"{path}: directory contains no files")
    contexts = []
    variable_names = None
    for fname in names:
        fpath = os.path.join(path, fname)
        header, lines, delim = parse_delimited(fpath)
        matrix = _numeric_lines(fpath, lines, delim)
        stem = os.path.splitext(fname)[0]
        contexts.append((stem, matrix))
        if header is not None and variable_names is None:
            variable_names = tuple(header)
    return ContextDataset(tuple(contexts), variable_names=variable_names)


def _load_long_table(path) -> ContextDataset:
    header, lines, delim = parse_delimited(path)
    ctx_col = 0
    variable_names = None
    if header is not None:
        lowered = [h.lower() for h in header]
        if "context" in lowered:
            ctx_col = lowered.index("context")
        variable_names = tuple(h for j, h in enumerate(header) if j != ctx_col)
    width = lines[0].count(delim) + 1
    value_cols = [j for j in range(width) if j != ctx_col]
    if not value_cols:
        raise DataFormatError(f"{path}: no value columns besides the context id")
    # Row indices per context id, in order of first appearance.
    groups: dict[str, list[int]] = {}
    for i, ln in enumerate(lines):
        cid = ln.split(delim, ctx_col + 1)[ctx_col].strip()
        groups.setdefault(cid, []).append(i)
    block = _numeric_lines(path, lines, delim, value_cols)
    contexts = []
    for cid, idx in groups.items():
        matrix = block[idx]
        if matrix.shape[0] < 2:
            raise DataFormatError(
                f"{path}: fewer than 2 samples in context {cid!r}"
            )
        contexts.append((cid, matrix))
    return ContextDataset(tuple(contexts), variable_names=variable_names)


def load_contexts(path_spec, format) -> ContextDataset:
    """Load a dataset from disk.

    ``format`` is ``"per-context-files"`` (directory, one file per
    context) or ``"long-table"`` (single file with a context-id column).
    """
    if format == "per-context-files":
        if not os.path.isdir(path_spec):
            raise DataFormatError(f"{path_spec}: not a directory")
        return _load_directory(path_spec)
    if format == "long-table":
        if not os.path.isfile(path_spec):
            raise DataFormatError(f"{path_spec}: not a file")
        return _load_long_table(path_spec)
    raise ValueError(f"unknown format {format!r}")


def load_matrix(path) -> np.ndarray:
    """Load one delimited numeric matrix (no context column).

    Non-finite cells (``nan``, ``inf``, or a literal that overflows such
    as ``1e400``) are rejected, naming the first one by data row and
    column.
    """
    _, lines, delim = parse_delimited(path)
    out = _numeric_lines(path, lines, delim)
    finite = np.isfinite(out)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        cell = _split(lines[i], delim)[j]
        raise DataFormatError(
            f"{path}: non-finite cell {cell!r} at row {i + 1}, column {j + 1}"
        )
    return out


def sample_covariance(X) -> np.ndarray:
    """Unbiased sample covariance of the rows of X, centered per column."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise DimensionMismatchError("X must be an n x p matrix")
    n = X.shape[0]
    if n < 2:
        raise DataFormatError(f"need n >= 2 samples, got {n}")
    centered = X - X.mean(axis=0)
    cov = centered.T @ centered / (n - 1)
    return 0.5 * (cov + cov.T)


def global_pca_reduce(d: ContextDataset, n_components: int):
    """Project all contexts onto the top principal axes of the pooled data.

    The pooled data (all contexts stacked) is mean-centered and its top
    ``n_components`` eigenvectors are computed; each context's scores on
    those axes form the returned dataset.  Returns the reduced dataset
    and the projection matrix with orthonormal rows.  Row signs are fixed
    so the entry of largest magnitude in each row is positive.
    """
    pooled = d.pooled()
    total = pooled.shape[0]
    if not 1 <= n_components <= min(d.p, total):
        raise ValueError(
            f"n_components must be in [1, min(p={d.p}, samples={total})], "
            f"got {n_components}"
        )
    mean = pooled.mean(axis=0)
    centered = pooled - mean
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    projection = vt[:n_components].copy()
    for row in projection:
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1.0
    reduced = tuple(
        (cid, (x - mean) @ projection.T) for cid, x in d.contexts
    )
    names = tuple(f"pc{j + 1}" for j in range(n_components))
    return ContextDataset(reduced, variable_names=names), projection


def pooled_mean(d: ContextDataset) -> np.ndarray:
    """Mean of the pooled data; the offset used by global_pca_reduce."""
    return d.pooled().mean(axis=0)


def build_tensor(d: ContextDataset) -> CovarianceTensor:
    """Per-context sample covariances stacked in context order."""
    return stack_covariances(
        [sample_covariance(x) for _, x in d.contexts],
        context_ids=d.context_ids,
    )
