import multiprocessing
import os
import tempfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mcpca import (
    ContextDataset,
    DataFormatError,
    build_tensor,
    global_pca_reduce,
    load_contexts,
    sample_covariance,
)
from mcpca import fork_pool, ingest
from mcpca.ingest import load_matrix
from mcpca.exceptions import McpcaError


def _write(path, text):
    path.write_text(text, encoding="utf-8")


def test_dataset_copies_writable_arrays_only():
    x = np.arange(6.0).reshape(3, 2)
    ds = ContextDataset((("a", x),))
    x[0, 0] = 99.0
    assert ds.contexts[0][1][0, 0] == 0.0
    assert not ds.contexts[0][1].flags.writeable
    # A read-only float64 array, as the loaders hand over, is kept.
    x.setflags(write=False)
    assert ContextDataset((("a", x),)).contexts[0][1] is x


class TestLoadContexts:
    def test_directory_layout(self, tmp_path):
        _write(tmp_path / "c1.csv", "1,2\n3,4\n5,6\n")
        _write(tmp_path / "c2.csv", "1,0\n0,1\n2,2\n3,3\n")
        ds = load_contexts(tmp_path)
        assert ds.k == 2 and ds.p == 2
        assert ds.context_ids == ("c1", "c2")
        assert [len(x) for _, x in ds.contexts] == [3, 4]

    def test_directory_orders_lexicographically(self, tmp_path):
        _write(tmp_path / "b.csv", "1,1\n2,2\n")
        _write(tmp_path / "a.csv", "3,3\n4,4\n")
        ds = load_contexts(tmp_path)
        assert ds.context_ids == ("a", "b")

    def test_long_table_first_appearance_order(self, tmp_path):
        f = tmp_path / "data.csv"
        _write(f, "z,1,2\nz,3,4\nq,5,6\nq,7,8\n")
        ds = load_contexts(f)
        assert ds.context_ids == ("z", "q")
        np.testing.assert_array_equal(ds.contexts[0][1], [[1, 2], [3, 4]])

    def test_long_table_header_context_column(self, tmp_path):
        f = tmp_path / "data.csv"
        _write(f, "g1,context,g2\n1,a,2\n3,a,4\n5,b,6\n7,b,8\n")
        ds = load_contexts(f)
        assert ds.context_ids == ("a", "b")
        np.testing.assert_array_equal(ds.contexts[0][1], [[1, 2], [3, 4]])

    def test_single_sample_context_rejected(self, tmp_path):
        f = tmp_path / "data.csv"
        _write(f, "a,1,2\na,3,4\nb,5,6\n")
        with pytest.raises(DataFormatError, match="fewer than 2 samples"):
            load_contexts(f)

    def test_ragged_rows_rejected(self, tmp_path):
        _write(tmp_path / "c1.csv", "1,2,3\n4,5\n")
        with pytest.raises(DataFormatError, match="ragged"):
            load_contexts(tmp_path)

    def test_non_numeric_cell_rejected(self, tmp_path):
        _write(tmp_path / "c1.csv", "1,2\n3,oops\n")
        with pytest.raises(DataFormatError, match="non-numeric"):
            load_contexts(tmp_path)

    def test_long_table_bad_cell_named_by_file_row(self, tmp_path):
        # Contexts interleave: the bad cell is on data row 4 of the file
        # (header and blank line not counted), the second row of context b.
        f = tmp_path / "data.csv"
        _write(f, "ctx,x,y\na,1,2\n\nb,3,4\na,5,6\nb,7,oops\na,9,10\n")
        with pytest.raises(DataFormatError) as excinfo:
            load_contexts(f)
        assert str(excinfo.value) == (
            f"{f}: non-numeric cell 'oops' at row 4, column 3"
        )

    def test_empty_input_rejected(self, tmp_path):
        f = tmp_path / "data.csv"
        _write(f, "\n")
        with pytest.raises(DataFormatError, match="empty"):
            load_contexts(f)

    def test_tab_delimiter_detected(self, tmp_path):
        f = tmp_path / "data.tsv"
        _write(f, "a\t1\t2\na\t3\t4\n")
        ds = load_contexts(f)
        assert ds.p == 2

    def test_duplicate_context_id_rejected(self):
        x = np.arange(6.0).reshape(3, 2)
        with pytest.raises(DataFormatError) as excinfo:
            ContextDataset((("a", x), ("b", x), ("a", x)))
        assert str(excinfo.value) == "duplicate context id 'a'"

    def test_variable_names_are_not_a_field(self):
        x = np.arange(6.0).reshape(3, 2)
        with pytest.raises(TypeError):
            ContextDataset((("a", x),), variable_names=("g1", "g2"))

    def test_directory_files_with_one_stem_rejected(self, tmp_path):
        _write(tmp_path / "a.csv", "1,2\n3,4\n")
        _write(tmp_path / "a.tsv", "1\t2\n3\t5\n")
        _write(tmp_path / "b.csv", "1,2\n3,1\n")
        with pytest.raises(DataFormatError) as excinfo:
            load_contexts(tmp_path)
        assert str(excinfo.value) == "duplicate context id 'a'"

    def test_path_neither_file_nor_directory_rejected(self, tmp_path):
        path = tmp_path / "missing.csv"
        with pytest.raises(DataFormatError) as excinfo:
            load_contexts(path)
        assert str(excinfo.value) == f"{path}: not a file or directory"

    def test_load_matrix_header(self, tmp_path):
        f = tmp_path / "m.csv"
        _write(f, "x,y\n1,2\n3,4\n")
        np.testing.assert_array_equal(load_matrix(f), [[1, 2], [3, 4]])


class TestEncodingAndNonFinite:
    def test_bom_header_directory(self, tmp_path):
        (tmp_path / "c1.csv").write_text("\ufeffg1,g2\n1,2\n3,5\n", encoding="utf-8")
        ds = load_contexts(tmp_path)
        np.testing.assert_array_equal(ds.contexts[0][1], [[1, 2], [3, 5]])

    def test_bom_header_long_table(self, tmp_path):
        f = tmp_path / "data.csv"
        f.write_text("\ufeffg1,context,g2\n1,a,2\n3,a,5\n", encoding="utf-8")
        ds = load_contexts(f)
        assert ds.context_ids == ("a",)
        np.testing.assert_array_equal(ds.contexts[0][1], [[1, 2], [3, 5]])

    def test_bom_headerless_matrix(self, tmp_path):
        f = tmp_path / "m.csv"
        f.write_text("\ufeff1,2\n3,4\n", encoding="utf-8")
        np.testing.assert_array_equal(load_matrix(f), [[1, 2], [3, 4]])

    @pytest.mark.parametrize("cell", ["nan", "-inf", "1e400"])
    def test_load_matrix_rejects_non_finite(self, tmp_path, cell):
        f = tmp_path / "m.csv"
        _write(f, f"x,y\n1,2\n3, {cell}\n")
        with pytest.raises(DataFormatError) as info:
            load_matrix(f)
        assert str(info.value) == (
            f"{f}: non-finite cell {cell!r} at row 2, column 2"
        )


# --- reference: the cell-walk parser the C-parsed fast path must match ------


def _ref_is_numeric(token):
    try:
        float(token)
    except ValueError:
        return False
    return True


def _ref_parse_delimited(path):
    with open(path, encoding="utf-8") as fh:
        lines = [ln.rstrip("\r\n") for ln in fh if ln.strip()]
    if not lines:
        raise DataFormatError(f"{path}: empty input")
    delim = "\t" if lines[0].count("\t") >= lines[0].count(",") else ","
    rows = [[c.strip() for c in ln.split(delim)] for ln in lines]
    width = len(rows[0])
    for idx, row in enumerate(rows):
        if len(row) != width:
            raise DataFormatError(
                f"{path}: ragged row {idx + 1} has {len(row)} cells, expected {width}"
            )
    header = None
    first = rows[0]
    if any(not _ref_is_numeric(c) for c in first[1:]) or (
        len(first) == 1 and not _ref_is_numeric(first[0])
    ):
        header = first
        rows = rows[1:]
        if not rows:
            raise DataFormatError(f"{path}: header but no data rows")
    return header, rows


def _ref_numeric_matrix(path, rows, columns):
    out = np.empty((len(rows), len(columns)), dtype=float)
    for i, row in enumerate(rows):
        for j, col in enumerate(columns):
            cell = row[col]
            if not _ref_is_numeric(cell):
                raise DataFormatError(
                    f"{path}: non-numeric cell {cell!r} at row {i + 1}, column {col + 1}"
                )
            out[i, j] = float(cell)
    return out


def _ref_load_matrix(path):
    _, rows = _ref_parse_delimited(path)
    return _ref_numeric_matrix(path, rows, list(range(len(rows[0]))))


def _refload_contexts_table(path):
    header, rows = _ref_parse_delimited(path)
    ctx_col = 0
    if header is not None:
        lowered = [h.lower() for h in header]
        if "context" in lowered:
            ctx_col = lowered.index("context")
    value_cols = [j for j in range(len(rows[0])) if j != ctx_col]
    if not value_cols:
        raise DataFormatError(f"{path}: no value columns besides the context id")
    # Every data row is walked in file order before the rows are grouped,
    # so an error names the cell's data row in the file.
    values = _ref_numeric_matrix(path, rows, value_cols)
    groups = {}
    for i, row in enumerate(rows):
        groups.setdefault(row[ctx_col], []).append(i)
    contexts = []
    for cid, idx in groups.items():
        matrix = values[idx]
        if matrix.shape[0] < 2:
            raise DataFormatError(f"{path}: fewer than 2 samples in context {cid!r}")
        contexts.append((cid, matrix))
    return ContextDataset(tuple(contexts))


def _outcome(load, path):
    try:
        return load(path), None
    except McpcaError as exc:
        return None, exc


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_matches_cell_walk(text):
    """load_matrix and the long-table loader give the cell walk's float64
    bits, or its exception type and message; load_matrix additionally
    rejects the non-finite values the cell walk accepted, at the first
    one."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        path.write_bytes(text.encode("utf-8"))

        want, want_exc = _outcome(_ref_load_matrix, path)
        got, got_exc = _outcome(load_matrix, path)
        if want_exc is not None:
            assert type(got_exc) is type(want_exc)
            assert str(got_exc) == str(want_exc)
        elif np.isfinite(want).all():
            assert got_exc is None and _same_bits(got, want)
        else:
            i, j = np.argwhere(~np.isfinite(want))[0]
            assert isinstance(got_exc, DataFormatError)
            assert str(got_exc).endswith(f"at row {i + 1}, column {j + 1}")

        want, want_exc = _outcome(_refload_contexts_table, path)
        got, got_exc = _outcome(load_contexts, path)
        if want_exc is not None:
            assert type(got_exc) is type(want_exc)
            assert str(got_exc) == str(want_exc)
        else:
            assert got_exc is None
            assert got.context_ids == want.context_ids
            for (_, x), (_, y) in zip(got.contexts, want.contexts):
                assert _same_bits(x, y)


_TOKENS = [
    "nan", "-nan", "inf", "-Infinity", "1e400", "-1e400", "1e-400", "1_0",
    "\u0661", "\u0661.\u0665", "#1", "2#3", '"1"', "'1'", "", " ", " 4 ",
    "\xa06", "0x1p3", "1.", ".5", "1e", "+7", "1 2", "a", "ctx",
]
# Characters that end a line for str.splitlines; only \r also ends one for
# the text-mode reader.
_LINE_CHARS = [
    "1\r2", "\r", "\x0c", "3\x0c", "3\x0c4", "\x85", "4\x85", "4\x855",
    "\u2028", "5\u2028", "5\u20286",
]
_CELLS = st.one_of(
    st.sampled_from(_TOKENS),
    st.sampled_from(_LINE_CHARS),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**20, 10**20).map(str),
)
_IDS = st.sampled_from(["a", "b", " a", "a ", "", "context", "1", "nan"])
_NAMES = st.sampled_from(["g1", "g2", "Context", "context", "x", "1"])


@st.composite
def _delimited_files(draw):
    """Text of a delimited file: mostly well-formed, with every kind of
    defect the cell walk reports."""
    delim = draw(st.sampled_from([",", "\t"]))
    width = draw(st.integers(1, 4))
    lines = []
    if draw(st.booleans()):
        lines.append(delim.join(draw(st.lists(_NAMES, min_size=width, max_size=width))))
    with_ids = draw(st.booleans())
    exotic = draw(st.sampled_from([0.0, 0.05, 0.3]))
    for _ in range(draw(st.integers(1, 10))):
        w = width if draw(st.integers(0, 19)) else draw(st.integers(1, 5))
        cells = [
            draw(_CELLS) if draw(st.floats(0, 1)) < exotic else repr(draw(st.floats(-1e3, 1e3)))
            for _ in range(w)
        ]
        if with_ids:
            cells[0] = draw(st.sampled_from(["a", "b"])) if draw(st.booleans()) else draw(_IDS)
        lines.append(delim.join(cells))
        if not draw(st.integers(0, 9)):
            lines.append(draw(st.sampled_from(["", "  ", "\t"])))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + draw(st.sampled_from([newline, ""]))


@settings(
    max_examples=400,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(text=_delimited_files())
def test_fast_path_matches_cell_walk(text):
    _assert_matches_cell_walk(text)


@pytest.mark.parametrize("delim", [",", "\t"])
@pytest.mark.parametrize("token", _TOKENS)
@pytest.mark.parametrize("cell", [(1, 1), (2, 2)])
def test_each_token_matches_cell_walk(token, delim, cell):
    """One token in an otherwise numeric file, as a long table and as a
    matrix: no other cell can send the fast path to the cell walk."""
    rows = [["a", "1", "2"], ["a", "3", "4"], ["b", "5", "6"], ["b", "7", "8"]]
    rows[cell[0]][cell[1]] = token
    _assert_matches_cell_walk("".join(delim.join(r) + "\n" for r in rows))
    _assert_matches_cell_walk("".join(delim.join(r[1:]) + "\n" for r in rows))


# --- the chunked path: byte ranges parsed by workers ------------------------


@contextmanager
def _forced_chunks():
    """Parse every input in worker processes, at most two, whatever its
    size; on one CPU the input is still parsed serially."""
    cpus = min(fork_pool.cpu_count(), 2)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ingest, "PARALLEL_MIN_BYTES", 0)
        mp.setattr(fork_pool, "cpu_count", lambda: cpus)
        yield


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(text=_delimited_files())
def test_chunked_path_matches_cell_walk(text):
    with _forced_chunks():
        _assert_matches_cell_walk(text)


@contextmanager
def _counting_tasks():
    """Record the workers each load that maps its ranges to two or more
    workers asks for, at most one per range."""
    counts = []
    real = fork_pool.map_in_workers

    def counted(fn, tasks, workers):
        if min(workers, len(tasks)) >= 2:
            counts.append(min(workers, len(tasks)))
        return real(fn, tasks, workers)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fork_pool, "map_in_workers", counted)
        yield counts


def _result(load, path):
    try:
        return load(path), None
    except Exception as exc:  # every outcome is compared, errors included
        return None, exc


def _assert_same_as_serial(load, path, split=True):
    """The forced-chunk load gives the serial load's bits or its exception
    type and message, and leaves no worker process behind.  With ``split``
    and two CPUs, workers must have parsed the input."""
    want, want_exc = _result(load, path)
    with _forced_chunks(), _counting_tasks() as counts:
        got, got_exc = _result(load, path)
    assert multiprocessing.active_children() == []
    if split and fork_pool.cpu_count() >= 2:
        assert counts and min(counts) >= 2
    if want_exc is not None:
        assert type(got_exc) is type(want_exc)
        assert str(got_exc) == str(want_exc)
        return want_exc
    assert got_exc is None
    if isinstance(want, np.ndarray):
        assert _same_bits(got, want)
    else:
        assert got.context_ids == want.context_ids
        for (_, x), (_, y) in zip(got.contexts, want.contexts):
            assert _same_bits(x, y)
    return None


_ROWS = [f"{i}.5,{-i}.25,{i * i}e-3" for i in range(12)]


class TestChunkedPath:
    @pytest.mark.skipif(fork_pool.cpu_count() < 2, reason="one CPU parses serially")
    def test_two_lines_are_split(self, tmp_path):
        f = tmp_path / "m.csv"
        # The middle byte lies in the last line: the cut goes before it.
        _write(f, "1,2\n3,4.000000000000000000000\n")
        with _forced_chunks(), _counting_tasks() as counts:
            np.testing.assert_array_equal(load_matrix(f), [[1, 2], [3, 4]])
        assert counts == [2]

    def test_small_input_is_parsed_serially(self, tmp_path):
        f = tmp_path / "m.csv"
        _write(f, "".join(r + "\n" for r in _ROWS))
        with _counting_tasks() as counts:
            load_matrix(f)
        assert counts == []

    @pytest.mark.parametrize("row", range(len(_ROWS)))
    @pytest.mark.parametrize("defect", ["oops", "1,2,3,4", "1_0", "nan"])
    def test_defect_in_any_row(self, tmp_path, row, defect):
        lines = list(_ROWS)
        cells = lines[row].split(",")
        lines[row] = defect if "," in defect else ",".join([cells[0], defect, cells[2]])
        f = tmp_path / "m.csv"
        _write(f, "x,y,z\n" + "".join(ln + "\n" for ln in lines))
        exc = _assert_same_as_serial(load_matrix, f)
        assert (exc is None) == (defect == "1_0")
        ctx = tmp_path / "long.csv"
        _write(ctx, "".join(f"{'ab'[i % 2]},{ln}\n" for i, ln in enumerate(lines)))
        _assert_same_as_serial(load_contexts, ctx)

    @pytest.mark.parametrize("row", range(len(_ROWS)))
    @pytest.mark.parametrize(
        "newline", ["\r\n", "\r", "\n\n", "\n \t\x0c\n", "\x0c", "\x85", "\u2028"]
    )
    def test_line_end_after_any_row(self, tmp_path, row, newline):
        # A \r\n pair, a lone \r or a blank line at every offset, including
        # the one where the byte ranges meet.  \x0c, \x85 and \u2028 end a
        # line for str.splitlines only: the two rows they join are ragged.
        text = "".join(ln + (newline if i == row else "\n") for i, ln in enumerate(_ROWS))
        f = tmp_path / "m.csv"
        f.write_bytes(text.encode("utf-8"))
        exc = _assert_same_as_serial(load_matrix, f)
        assert (exc is None) == (newline[0] in "\r\n" or row == len(_ROWS) - 1)

    def test_interleaved_contexts_keep_first_appearance_order(self, tmp_path):
        ids = ["z", "q", "z", "m", "q", "z", "m", "q", "z", "m", "a", "a"]
        f = tmp_path / "long.csv"
        _write(f, "ctx,x,y,z\n" + "".join(f"{c},{r}\n" for c, r in zip(ids, _ROWS)))
        with _forced_chunks():
            ds = load_contexts(f)
        assert ds.context_ids == ("z", "q", "m", "a")
        assert [len(x) for _, x in ds.contexts] == [4, 3, 3, 2]
        _assert_same_as_serial(load_contexts, f)

    def test_single_sample_context_in_second_range(self, tmp_path):
        f = tmp_path / "long.csv"
        _write(f, "".join(f"a,{r}\n" for r in _ROWS) + f"b,{_ROWS[0]}\n")
        exc = _assert_same_as_serial(load_contexts, f)
        assert "fewer than 2 samples in context 'b'" in str(exc)

    @pytest.mark.parametrize("row", range(len(_ROWS)))
    def test_byte_order_mark_only_at_byte_zero(self, tmp_path, row):
        text = "".join(("\ufeff" if i == row else "") + ln + "\n" for i, ln in enumerate(_ROWS))
        f = tmp_path / "m.csv"
        f.write_bytes(text.encode("utf-8"))
        exc = _assert_same_as_serial(load_matrix, f)
        assert (exc is None) == (row == 0)

    @pytest.mark.parametrize("row", [0, 700, 1600])
    def test_undecodable_byte(self, tmp_path, row):
        # 1,800 rows of about 16 bytes: rows 700 and 1600 lie beyond the
        # 8 KiB the parent decodes to read the first line, in the first and
        # the second range.  A bad byte in that first block keeps the
        # parent from reading the delimiter, so the input is parsed
        # serially from the start.
        data = b"".join(ln.encode() + (b"\xff" if i == row else b"") + b"\n"
                        for i, ln in enumerate(_ROWS * 150))
        f = tmp_path / "m.csv"
        f.write_bytes(data)
        exc = _assert_same_as_serial(load_matrix, f, split=row > 0)
        assert isinstance(exc, UnicodeDecodeError)

    def test_header_without_data_rows(self, tmp_path):
        f = tmp_path / "m.csv"
        _write(f, "x,y,z\n\n\n\n\n\n")
        exc = _assert_same_as_serial(load_matrix, f)
        assert str(exc).endswith("header but no data rows")

    @pytest.mark.parametrize("bad", [None, 0, 3, 5])
    @pytest.mark.parametrize("defect", ["oops", "1_0", "ragged"])
    def test_directory_file_groups(self, tmp_path, bad, defect):
        for i in range(6):
            rows = _ROWS[i:i + 3]
            if i == bad:
                rows[1] = "1,2" if defect == "ragged" else f"1,{defect},3"
            _write(tmp_path / f"c{i}.csv", "x,y,z\n" + "".join(r + "\n" for r in rows))
        exc = _assert_same_as_serial(load_contexts, tmp_path)
        assert (exc is None) == (bad is None or defect == "1_0")

    @pytest.mark.parametrize("forced", [False, True])
    def test_cell_walk_reads_only_the_file_that_needs_it(self, tmp_path, forced):
        for i in range(6):
            rows = _ROWS[i:i + 3]
            if i == 3:
                rows[1] = "1,1_0,3"
            _write(tmp_path / f"c{i}.csv", "".join(r + "\n" for r in rows))
        walked = []
        real = ingest.parse_delimited

        def recorded(path):
            walked.append(Path(path).name)
            return real(path)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ingest, "parse_delimited", recorded)
            if forced:
                mp.setattr(ingest, "PARALLEL_MIN_BYTES", 0)
            ds = load_contexts(tmp_path)
        assert walked == ["c3.csv"]
        np.testing.assert_array_equal(ds.contexts[3][1][1], [1, 10, 3])

    @pytest.mark.skipif(fork_pool.cpu_count() < 2, reason="one CPU starts no pool")
    @pytest.mark.parametrize("layout", ["matrix", "long", "directory"])
    def test_dead_worker_gives_the_same_bits(self, tmp_path, monkeypatch, layout):
        # Every worker exits at its first range; the parent parses them all.
        if layout == "directory":
            for i in range(6):
                _write(tmp_path / f"c{i}.csv", "".join(r + "\n" for r in _ROWS[i:i + 3]))
            path, load = tmp_path, load_contexts
        else:
            path = tmp_path / "m.csv"
            lines = [f"{'ab'[i % 2]},{r}" if layout == "long" else r for i, r in enumerate(_ROWS)]
            _write(path, "".join(ln + "\n" for ln in lines))
            load = load_matrix if layout == "matrix" else load_contexts
        want, _ = _result(load, path)
        parent = os.getpid()
        real = ingest._parse_range

        def exit_in_child(*args):
            if os.getpid() != parent:
                os._exit(1)
            return real(*args)

        monkeypatch.setattr(ingest, "_parse_range", exit_in_child)
        with _forced_chunks(), _counting_tasks() as counts:
            got, exc = _result(load, path)
        assert exc is None and counts == [2]
        assert multiprocessing.active_children() == []
        if layout == "matrix":
            assert _same_bits(got, want)
        else:
            assert got.context_ids == want.context_ids
            for (_, x), (_, y) in zip(got.contexts, want.contexts):
                assert _same_bits(x, y)


class TestSampleCovariance:
    def test_two_point_case(self):
        X = np.array([[1.0, 0.0], [-1.0, 0.0]])
        np.testing.assert_allclose(
            sample_covariance(X), [[2.0, 0.0], [0.0, 0.0]], atol=1e-15
        )

    def test_constant_rows_give_zero(self):
        X = np.full((3, 2), 5.0)
        np.testing.assert_array_equal(sample_covariance(X), np.zeros((2, 2)))

    def test_underflow_is_rejected(self):
        # The centred data vary, but every product underflows to zero
        # (1e-165) or to a subnormal number, which keeps a few bits
        # (1e-160); from 1e-150 on the entries are normal numbers.
        X = np.array([[1.0, -2.0], [-1.0, 0.5], [0.5, 1.0]])
        for scale in (1e-165, 1e-160):
            with pytest.raises(DataFormatError, match="underflows"):
                sample_covariance(X * scale)
        assert np.abs(sample_covariance(X * 1e-150)).max() >= np.finfo(float).tiny

    def test_monte_carlo_diagonal(self):
        # Oracle: 1000 draws from N(0, diag(4, 1)) concentrate the sample
        # variances near (4, 1); 15% relative tolerance.
        rng = np.random.default_rng(2024)
        X = rng.standard_normal((1000, 2)) * np.sqrt([4.0, 1.0])
        S = sample_covariance(X)
        assert abs(S[0, 0] - 4.0) <= 0.15 * 4.0
        assert abs(S[1, 1] - 1.0) <= 0.15
        assert abs(S[0, 1]) <= 0.3

    def test_needs_two_samples(self):
        with pytest.raises(DataFormatError):
            sample_covariance(np.ones((1, 3)))

    def test_psd(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            S = sample_covariance(rng.standard_normal((8, 5)))
            eigvals = np.linalg.eigvalsh(S)
            assert eigvals.min() >= -1e-10 * np.trace(S)

    def test_translation_invariance(self):
        rng = np.random.default_rng(32)
        X = rng.standard_normal((20, 4))
        shifted = X + rng.standard_normal(4)
        np.testing.assert_allclose(
            sample_covariance(X), sample_covariance(shifted), atol=1e-12
        )


class TestGlobalPcaReduce:
    def test_full_rank_is_rotation(self):
        rng = np.random.default_rng(41)
        ds = ContextDataset(
            (("a", rng.standard_normal((30, 4))), ("b", rng.standard_normal((25, 4))))
        )
        reduced, projection, _ = global_pca_reduce(ds, 4)
        pooled = reduced.pooled()
        cov = sample_covariance(pooled)
        off = cov - np.diag(np.diag(cov))
        assert np.abs(off).max() < 1e-9
        np.testing.assert_allclose(projection @ projection.T, np.eye(4), atol=1e-12)

    def test_exact_plane_reconstruction(self):
        rng = np.random.default_rng(42)
        basis = np.linalg.qr(rng.standard_normal((5, 2)))[0]
        scores = rng.standard_normal((40, 2))
        X = scores @ basis.T
        ds = ContextDataset((("a", X[:20]), ("b", X[20:])))
        reduced, projection, mean = global_pca_reduce(ds, 2)
        rebuilt = reduced.pooled() @ projection + mean
        np.testing.assert_allclose(rebuilt, ds.pooled(), atol=1e-9)

    def test_recovers_planted_subspace(self):
        # Oracle: eigendecomposition of the pooled covariance; the planted
        # 3-dim subspace must be recovered to principal angles < 0.05 rad.
        rng = np.random.default_rng(43)
        basis = np.linalg.qr(rng.standard_normal((8, 3)))[0]
        latent = rng.standard_normal((200, 3)) * np.array([3.0, 2.0, 1.5])
        X = latent @ basis.T + 1e-3 * rng.standard_normal((200, 8))
        ds = ContextDataset((("a", X[:100]), ("b", X[100:])))
        _, projection, _ = global_pca_reduce(ds, 3)
        angles = np.arccos(np.clip(np.linalg.svd(projection @ basis)[1], 0, 1))
        assert angles.max() < 0.05
        pooled = ds.pooled() - ds.pooled().mean(axis=0)
        eigvals, eigvecs = np.linalg.eigh(pooled.T @ pooled / (len(pooled) - 1))
        oracle = eigvecs[:, np.argsort(eigvals)[::-1][:3]]
        oracle_angles = np.arccos(np.clip(np.linalg.svd(projection @ oracle)[1], 0, 1))
        assert oracle_angles.max() < 1e-9

    def test_out_of_range_components(self):
        ds = ContextDataset((("a", np.eye(3)),))
        with pytest.raises(ValueError):
            global_pca_reduce(ds, 4)


class TestBuildTensor:
    def test_single_context_composition(self):
        ds = ContextDataset((("only", np.array([[1.0, 0.0], [-1.0, 0.0]])),))
        t = build_tensor(ds)
        assert t.k == 1
        np.testing.assert_allclose(t.slices[0], [[2.0, 0.0], [0.0, 0.0]], atol=1e-15)

    def test_identical_contexts_identical_slices(self):
        rng = np.random.default_rng(51)
        X = rng.standard_normal((10, 3))
        t = build_tensor(ContextDataset((("a", X), ("b", X.copy()))))
        np.testing.assert_array_equal(t.slices[0], t.slices[1])

    def test_benchmark_default_scale_shape(self):
        from mcpca import generate_planted, sample_dataset

        pm = generate_planted(100, 50, 60, 0.2, seed=0)
        ds = sample_dataset(pm, 1000, seed=1)
        t = build_tensor(ds)
        assert t.slices.shape == (50, 100, 100)

    def test_projection_commutes_with_covariance(self):
        rng = np.random.default_rng(52)
        ds = ContextDataset(
            (("a", rng.standard_normal((30, 5))), ("b", rng.standard_normal((40, 5))))
        )
        reduced, projection, _ = global_pca_reduce(ds, 3)
        t_reduced = build_tensor(reduced)
        t_raw = build_tensor(ds)
        for i in range(2):
            np.testing.assert_allclose(
                t_reduced.slices[i],
                projection @ t_raw.slices[i] @ projection.T,
                atol=1e-10,
            )
