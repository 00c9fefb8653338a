"""Parsing a large input in forked worker processes.

``ingest`` sends an input of ``PARALLEL_MIN_BYTES`` or more here, and
imports this module only then, so a CLI call on a small input pays
neither its import nor that of the process pool (``fork_pool``).  The
input is cut into contiguous chunks: the sorted files of a directory in
groups, one file in byte ranges that each start after a ``\\n``.  Each
worker opens its files or its range itself, parses it with the serial
path's rules and ``np.loadtxt``, and returns float64 blocks that the
parent joins in file order.  A chunk with a ragged row, a cell numpy
rejects or bytes that do not decode returns None, and so does the whole
parse: the caller then parses the input serially, which raises every
error with its one message.
"""

from __future__ import annotations

import io

import numpy as np

from . import fork_pool
from .exceptions import DataFormatError
from .ingest import (
    _context_column,
    _context_ids,
    _detect_delimiter,
    _header,
    _parse_block,
    _ragged_row,
    _read_lines,
    parse_delimited,
)


def _parse_files(paths) -> list | None:
    """Worker: (header, block) of each file, or None when one fails."""
    out = []
    for fpath in paths:
        try:
            header, lines, delim = parse_delimited(fpath)
        except (DataFormatError, UnicodeDecodeError, OSError):
            return None
        block = _parse_block(lines, delim)
        if block is None:
            return None
        out.append((header, block))
    return out


def _parse_range(task) -> tuple | None:
    """Worker: (block, context ids or None) of the lines in one byte range
    of a file, or None when a row is ragged, numpy rejects a cell or the
    bytes do not decode."""
    path, start, end, delim, width, columns, ctx_col, has_header = task
    try:
        with open(path, "rb") as fh:
            fh.seek(start)
            raw = io.BytesIO(fh.read(end - start))
        # Only the first range can begin with the byte-order mark.
        lines = _read_lines(
            io.TextIOWrapper(raw, encoding="utf-8-sig" if start == 0 else "utf-8")
        )
    except (OSError, UnicodeDecodeError):
        return None
    if has_header:
        if not lines:
            return None
        del lines[0]
    if _ragged_row(lines, delim, width) is not None:
        return None
    if not lines:
        block = np.empty((0, width if columns is None else len(columns)))
    else:
        block = _parse_block(lines, delim, columns)
        if block is None:
            return None
    ids = None if ctx_col is None else _context_ids(lines, delim, ctx_col)
    return block, ids


def _range_starts(path, size: int, n: int) -> list[int]:
    """Offsets cutting a file into at most ``n`` byte ranges, each starting
    after a "\\n": 0 first, ``size`` last."""
    cuts = [0]
    with open(path, "rb") as fh:
        for i in range(1, n):
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
    return cuts + [size]


def parse_file(path, size: int, long_table: bool):
    """(header, block, context ids or None) of a file of ``size`` bytes
    parsed in byte ranges, or None to parse it serially."""
    n = fork_pool.worker_count()
    if n < 2:
        return None
    try:
        with open(path, encoding="utf-8-sig") as fh:
            first = next((ln.rstrip("\r\n") for ln in fh if ln.strip()), None)
        if first is None:
            return None
        cuts = _range_starts(path, size, n)
    except (OSError, UnicodeDecodeError):
        return None
    if len(cuts) < 3:
        return None
    delim = _detect_delimiter(first)
    width = first.count(delim) + 1
    header = _header(first, delim)
    columns = ctx_col = None
    if long_table:
        ctx_col = _context_column(header)
        columns = [j for j in range(width) if j != ctx_col]
        if not columns:
            return None
    tasks = [
        (path, start, end, delim, width, columns, ctx_col, header is not None and start == 0)
        for start, end in zip(cuts, cuts[1:])
    ]
    parts = fork_pool.map_in_workers(_parse_range, tasks, len(tasks))
    if parts is None or any(part is None for part in parts):
        return None
    block = np.concatenate([b for b, _ in parts])
    if not len(block):
        return None
    ids = [cid for _, chunk in parts for cid in chunk] if long_table else None
    return header, block, ids


def parse_files(paths) -> list | None:
    """(header, block) of each file, the files split into contiguous groups
    parsed by workers, or None to parse them serially."""
    n = min(fork_pool.worker_count(), len(paths))
    if n < 2:
        return None
    groups = [paths[i * len(paths) // n : (i + 1) * len(paths) // n] for i in range(n)]
    parts = fork_pool.map_in_workers(_parse_files, groups, n)
    if parts is None or any(part is None for part in parts):
        return None
    return [parsed for part in parts for parsed in part]
