"""Loading per-context data, sample covariances and global PCA reduction.

Supported inputs are delimited text (comma or tab, auto-detected from the
first line, optional header row, UTF-8 with or without a byte-order mark).
The path type decides the layout:

* a directory holds one file per context, context id = file stem,
  contexts ordered by lexicographic file name;
* a file is a long table whose first column holds the context id (or
  the column named ``context`` when a header is present), contexts
  ordered by first appearance.

Covariances use each context's own mean and the unbiased 1/(n-1)
normalization.  Missing, non-numeric and non-finite values are rejected,
not imputed.

Every file is parsed from byte ranges, each by ``np.loadtxt`` in C.  A
single file of ``PARALLEL_MIN_BYTES`` or more is cut into one range per
worker process; the files of a directory are whole ranges.  Forked
workers (``fork_pool``) parse the ranges, one task each, and the blocks
are joined in file order with the float64 bits of one pass.

A file with a range that fails (a ragged row, a cell numpy rejects,
bytes that do not decode), or with no data row, is read again by
``parse_delimited`` and the per-cell walk with Python's ``float``: it
accepts the cells ``float`` accepts (``1_0``, non-ASCII digits) and
otherwise raises the error naming the first bad cell by its data row in
the file and its column.  The walk covers every data line in file order,
in a long table before the rows are grouped by context.  Both paths give
the same float64 bits, and every error message is the one the walk gives.
"""

from __future__ import annotations

import io
import os
from dataclasses import dataclass

import numpy as np

from . import fork_pool
from .exceptions import DataFormatError, DimensionMismatchError
from .tensor_core import CovarianceTensor, fix_signs, stack_covariances


@dataclass(frozen=True)
class ContextDataset:
    """Ordered per-context data matrices over a shared variable set.

    ``contexts`` is a tuple of (context_id, X_i) pairs where every X_i is
    an n_i x p array with n_i >= 2, under a context id no other pair has.
    The arrays are read-only: a writable one is copied, so the caller can
    change it without changing the dataset, and a read-only float64 one,
    as the loaders hand over, is kept as it is.
    """

    contexts: tuple[tuple[str, np.ndarray], ...]

    def __post_init__(self):
        if not self.contexts:
            raise DataFormatError("dataset has no contexts")
        cleaned = []
        seen = set()
        p = None
        for cid, x in self.contexts:
            cid = str(cid)
            if cid in seen:
                raise DataFormatError(f"duplicate context id {cid!r}")
            seen.add(cid)
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
            if arr.flags.writeable:
                arr = arr.copy()
                arr.setflags(write=False)
            cleaned.append((cid, arr))
        if p == 0:
            raise DataFormatError("dataset has zero variables")
        object.__setattr__(self, "contexts", tuple(cleaned))

    @property
    def p(self) -> int:
        return self.contexts[0][1].shape[1]

    @property
    def k(self) -> int:
        return len(self.contexts)

    @property
    def context_ids(self) -> tuple[str, ...]:
        return tuple(cid for cid, _ in self.contexts)

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


def _read_lines(fh) -> list[str]:
    """The non-blank lines of a text stream, without their line ends."""
    return [ln.rstrip("\r\n") for ln in fh if ln.strip()]


def _header(line: str, delim: str) -> list[str] | None:
    """The stripped cells of a first line that is a header, else None."""
    first = _split(line, delim)
    if any(not _is_numeric(c) for c in first[1:]) or (
        len(first) == 1 and not _is_numeric(first[0])
    ):
        return first
    return None


def _ragged_row(lines, delim, width) -> int | None:
    """Index of the first line without ``width`` cells, or None."""
    return next(
        (i for i, ln in enumerate(lines) if ln.count(delim) + 1 != width), None
    )


def parse_delimited(path) -> tuple[list[str] | None, list[str], str]:
    """Read a delimited text file: optional header, data lines, delimiter.

    Blank lines are dropped and the data lines are returned unsplit.  The
    delimiter (comma or tab) is detected from the first line.  A first
    row with any non-numeric cell beyond the first column is treated as a
    header, returned as its stripped cells.  Raises ``DataFormatError`` on
    empty input, ragged rows or a header without data rows.
    """
    with open(path, encoding="utf-8-sig") as fh:
        lines = _read_lines(fh)
    if not lines:
        raise DataFormatError(f"{path}: empty input")
    delim = _detect_delimiter(lines[0])
    width = lines[0].count(delim) + 1
    idx = _ragged_row(lines, delim, width)
    if idx is not None:
        cells = lines[idx].count(delim) + 1
        raise DataFormatError(
            f"{path}: ragged row {idx + 1} has {cells} cells, expected {width}"
        )
    header = _header(lines[0], delim)
    if header is None:
        return None, lines, delim
    if len(lines) == 1:
        raise DataFormatError(f"{path}: header but no data rows")
    return header, lines[1:], delim


def _parse_block(lines, delim, columns=None) -> np.ndarray | None:
    """``columns`` (default: all) of ``lines`` as floats in one C pass, or
    None.

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


def _context_column(header) -> int:
    """Index of the context-id column: the one a header names
    ``context``, else the first."""
    lowered = [h.lower() for h in header or ()]
    return lowered.index("context") if "context" in lowered else 0


def _walk(path, long_table: bool) -> tuple:
    """(block, context ids or None) of a file from
    ``parse_delimited`` and the cell walk, which raises every error."""
    header, lines, delim = parse_delimited(path)
    rows = [_split(ln, delim) for ln in lines]
    columns = range(len(rows[0]))
    ids = None
    if long_table:
        ctx_col = _context_column(header)
        columns = [j for j in columns if j != ctx_col]
        if not columns:
            raise DataFormatError(f"{path}: no value columns besides the context id")
        ids = [row[ctx_col] for row in rows]
    return _numeric_matrix(path, rows, columns), ids


def _parse_range(path, start, end, first, long_table) -> tuple | None:
    """(block, context ids or None) of the lines in bytes
    [``start``, ``end``) of a file, or None when a row is ragged, numpy
    rejects a cell or the bytes do not decode.

    ``end`` None reads to the end of the file.  A range at byte 0 takes
    the delimiter, width and header from its own first line, and gives
    None without one; a later range takes them from ``first``, the
    file's first line.
    """
    try:
        with open(path, "rb") as fh:
            fh.seek(start)
            raw = fh if end is None else io.BytesIO(fh.read(end - start))
            # Only a range at byte 0 can begin with the byte-order mark.
            with io.TextIOWrapper(raw, encoding="utf-8" if start else "utf-8-sig") as text:
                lines = _read_lines(text)
    except (OSError, UnicodeDecodeError):
        return None
    if not start:
        if not lines:
            return None
        first = lines[0]
    delim = _detect_delimiter(first)
    width = first.count(delim) + 1
    header = _header(first, delim)
    if not start and header is not None:
        del lines[0]
    if _ragged_row(lines, delim, width) is not None:
        return None
    columns = ids = None
    if long_table:
        ctx_col = _context_column(header)
        columns = [j for j in range(width) if j != ctx_col]
        if not columns:
            return None
        ids = [ln.split(delim, ctx_col + 1)[ctx_col].strip() for ln in lines]
    if not lines:
        return np.empty((0, len(columns or range(width)))), ids
    block = _parse_block(lines, delim, columns)
    return None if block is None else (block, ids)


def _file_ranges(path, size: int, n: int, long_table: bool) -> list[tuple]:
    """``_parse_range`` arguments of at most ``n`` byte ranges cutting a
    file of ``size`` bytes, each starting after a "\\n"; one range when
    the first line does not decode."""
    cuts = [0]
    try:
        with open(path, encoding="utf-8-sig") as fh:
            first = next((ln.rstrip("\r\n") for ln in fh if ln.strip()), None)
        with open(path, "rb") as fh:
            for i in range(1, n if first is not None else 1):
                target = max(i * size // n, cuts[-1])
                fh.seek(target)
                fh.readline()
                if fh.tell() < size:
                    cuts.append(fh.tell())
                    continue
                # The target lies in the last line: cut before that line.
                fh.seek(cuts[-1])
                cut = cuts[-1] + fh.read(target - cuts[-1]).rfind(b"\n") + 1
                if cut > cuts[-1]:
                    cuts.append(cut)
                break
    except (OSError, UnicodeDecodeError):
        return [(path, 0, None, None, long_table)]
    ends = cuts[1:] + [None]
    return [(path, start, end, first, long_table) for start, end in zip(cuts, ends)]


# A single file of this many bytes or more is cut into one byte range per
# worker process, and a directory of this many bytes in all has its files
# parsed by the workers: below it, starting them costs about as much as
# they save on 2 CPUs (docs/decisions.md, "Parsing in parallel").
PARALLEL_MIN_BYTES = 4_000_000


def _read(paths, long_table: bool) -> list[tuple]:
    """(block, context ids or None) of each file.

    The files are cut into byte ranges, each one task of
    ``fork_pool.map_in_workers``: forked workers parse them from
    ``PARALLEL_MIN_BYTES`` on, this process below it.  A file with a
    failed range or without data rows goes to the cell walk.
    """
    sizes = [os.path.getsize(p) for p in paths]
    workers = fork_pool.cpu_count() if sum(sizes) >= PARALLEL_MIN_BYTES else 1
    per_file = [[(p, 0, None, None, long_table)] for p in paths]
    if len(paths) == 1 and workers > 1:
        per_file = [_file_ranges(paths[0], sizes[0], workers, long_table)]
    ranges = [r for file_ranges in per_file for r in file_ranges]
    parsed = iter(fork_pool.map_in_workers(lambda r: _parse_range(*r), ranges, workers))
    out = []
    for path, file_ranges in zip(paths, per_file):
        pieces = [next(parsed) for _ in file_ranges]
        if any(p is None for p in pieces) or not sum(len(p[0]) for p in pieces):
            out.append(_walk(path, long_table))
        elif len(pieces) == 1:
            out.append(pieces[0])
        else:
            ids = [cid for p in pieces for cid in p[1]] if long_table else None
            out.append((np.concatenate([p[0] for p in pieces]), ids))
    return out


def _load_directory(path) -> ContextDataset:
    names = sorted(
        f for f in os.listdir(path) if os.path.isfile(os.path.join(path, f))
    )
    if not names:
        raise DataFormatError(f"{path}: directory contains no files")
    parsed = _read([os.path.join(path, f) for f in names], long_table=False)
    contexts = []
    for fname, (matrix, _) in zip(names, parsed):
        matrix.setflags(write=False)
        contexts.append((os.path.splitext(fname)[0], matrix))
    return ContextDataset(tuple(contexts))


def _load_long_table(path) -> ContextDataset:
    ((block, ids),) = _read([path], long_table=True)
    # Row indices per context id, in order of first appearance.
    groups: dict[str, list[int]] = {}
    for i, cid in enumerate(ids):
        groups.setdefault(cid, []).append(i)
    contexts = []
    for cid, idx in groups.items():
        matrix = block[idx]
        if matrix.shape[0] < 2:
            raise DataFormatError(
                f"{path}: fewer than 2 samples in context {cid!r}"
            )
        matrix.setflags(write=False)
        contexts.append((cid, matrix))
    return ContextDataset(tuple(contexts))


def load_contexts(path) -> ContextDataset:
    """Load a dataset from disk: a directory as one file per context, a
    file as a long table with a context-id column."""
    if os.path.isdir(path):
        return _load_directory(path)
    if os.path.isfile(path):
        return _load_long_table(path)
    raise DataFormatError(f"{path}: not a file or directory")


def load_matrix(path) -> np.ndarray:
    """Load one delimited numeric matrix (no context column).

    Non-finite cells (``nan``, ``inf``, or a literal that overflows such
    as ``1e400``) are rejected, naming the first one by data row and
    column.
    """
    ((out, _),) = _read([path], long_table=False)
    finite = np.isfinite(out)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        _, lines, delim = parse_delimited(path)
        cell = _split(lines[i], delim)[j]
        raise DataFormatError(
            f"{path}: non-finite cell {cell!r} at row {i + 1}, column {j + 1}"
        )
    return out


def sample_covariance(X) -> np.ndarray:
    """Unbiased sample covariance of the rows of X, centered per column.

    Finite cells near the float limit can give a covariance past it, and
    cells of tiny magnitude one whose entries are all subnormal or zero
    although the data vary, which loses relative precision; either
    raises ``DataFormatError``, without a floating-point warning.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise DimensionMismatchError("X must be an n x p matrix")
    n = X.shape[0]
    if n < 2:
        raise DataFormatError(f"need n >= 2 samples, got {n}")
    with np.errstate(over="ignore", invalid="ignore"):
        centered = X - X.mean(axis=0)
        cov = centered.T @ centered / (n - 1)
        cov = 0.5 * (cov + cov.T)
    if not np.isfinite(cov).all():
        raise DataFormatError("sample covariance overflows the floating-point range")
    if not (np.abs(cov) >= np.finfo(float).tiny).any() and centered.any():
        raise DataFormatError("sample covariance underflows the floating-point range")
    return cov


def global_pca_reduce(d: ContextDataset, n_components: int):
    """Project all contexts onto the top principal axes of the pooled data.

    The pooled data (all contexts stacked) is mean-centered and its top
    ``n_components`` eigenvectors are computed; each context's scores on
    those axes form the returned dataset.  Returns the reduced dataset,
    the projection matrix with orthonormal rows and the pooled mean the
    data were centered with.  Row signs are fixed
    as component signs are, by :func:`~mcpca.tensor_core.fix_signs`: the
    entry of largest magnitude in each row is positive.
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
    fix_signs(projection.T)
    reduced = tuple(
        (cid, (x - mean) @ projection.T) for cid, x in d.contexts
    )
    return ContextDataset(reduced), projection, mean


def build_tensor(d: ContextDataset) -> CovarianceTensor:
    """Per-context sample covariances stacked in context order.

    Raises ``DataFormatError`` naming the first context whose covariance
    overflows or underflows.
    """
    covariances = []
    for cid, x in d.contexts:
        try:
            covariances.append(sample_covariance(x))
        except DataFormatError as exc:
            raise DataFormatError(f"context {cid!r}: {exc}") from None
    return stack_covariances(covariances, context_ids=d.context_ids)
