import contextlib
import csv
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import active_set_example, exact_sample_matrix, generate_identifiable

from mcpca import (
    ContextDataset,
    FitConfig,
    ascore,
    build_tensor,
    compute_diagnostics,
    fit_mcpca,
    global_pca_reduce,
    load_model,
    score_samples,
    tensor_from_factors,
)
from mcpca.cli import main
from mcpca import model_select
from mcpca.ingest import load_contexts, load_matrix
from mcpca.model_io import Preprocessing, save_model, serialize_model
from mcpca.synth_bench import RECORD_HEADER, BenchConfig, SweepConfig


def _write_dataset_dir(path, pm):
    """One CSV per context whose sample covariance equals the exact
    covariance of the planted model."""
    path.mkdir(exist_ok=True)
    exact = tensor_from_factors(pm.A_true, pm.B_true)
    for i in range(pm.k):
        X = exact_sample_matrix(exact.slices[i])
        np.savetxt(path / f"c{i:02d}.csv", X, delimiter=",")


@pytest.fixture
def planted_dir(tmp_path):
    pm = generate_identifiable(10, 5, 3, 0.8, seed=77)
    data_dir = tmp_path / "data"
    _write_dataset_dir(data_dir, pm)
    return pm, data_dir


def _assert_layouts_agree(work, table, fit_options, fitted):
    """The cells of the long ``table`` in ``work / "long.csv"``, whose fit
    with ``fit_options`` wrote ``fitted`` (the model's and the report's
    bytes), fit to the same bytes as a directory of per-context files; and
    diag writes the same table for the long table and for it with its
    context blocks reversed, since it pairs contexts by id."""
    header, *lines = table.splitlines()
    blocks = {}
    for line in lines:
        cid, values = line.split(",", 1)
        blocks.setdefault(cid, []).append(values + "\n")
    directory = work / "contexts"
    directory.mkdir()
    for cid, rows in blocks.items():
        (directory / f"{cid}.csv").write_text(
            header.split(",", 1)[1] + "\n" + "".join(rows), encoding="utf-8"
        )
    model = work / "model.json"
    assert _assert_cli_contract(
        ["fit", "--input", str(directory), *fit_options, "--output", str(model)],
        model, work / "model.json.report.json",
    ) == (0, fitted)
    model.write_bytes(fitted[0])
    reversed_table = work / "reversed.csv"
    reversed_table.write_text(
        header + "\n"
        + "".join(f"{cid},{row}" for cid in reversed(blocks) for row in blocks[cid]),
        encoding="utf-8",
    )
    diag = work / "diag.csv"
    outcomes = [
        _assert_cli_contract(
            ["diag", "--model", str(model), "--input", str(path), "--output", str(diag)],
            diag,
        )
        for path in (work / "long.csv", reversed_table)
    ]
    assert outcomes[1] == outcomes[0]


class TestFitCommand:
    def test_end_to_end_recovery(self, planted_dir, tmp_path, capsys):
        pm, data_dir = planted_dir
        model_path = tmp_path / "model.json"
        code = main(
            [
                "fit",
                "--input", str(data_dir),
                "--rank", "3",
                "--seed", "5",
                "--output", str(model_path),
            ]
        )
        assert code == 0
        model, preprocessing = load_model(model_path)
        assert ascore(pm.A_true, model.A).ascore >= 0.999
        assert preprocessing.projection is None
        report = json.loads((tmp_path / "model.json.report.json").read_text())
        assert report["reconstruction_error"] <= 1e-6

    def test_report_runs_identifiability_probe(self, planted_dir, tmp_path):
        pm, data_dir = planted_dir
        model_path = tmp_path / "model.json"
        code = main(
            ["fit", "--input", str(data_dir), "--rank", "3",
             "--output", str(model_path)]
        )
        assert code == 0
        report = json.loads((tmp_path / "model.json.report.json").read_text())
        assert report["non_identifiable_suspect"] is False

    @pytest.mark.parametrize("extra", [[], ["--pca-components", "4"]], ids=["raw", "pca"])
    def test_report_key_set(self, planted_dir, tmp_path, extra):
        # The preprocessing is the model file's to record, not the report's.
        _, data_dir = planted_dir
        model_path = tmp_path / "model.json"
        argv = ["fit", "--input", str(data_dir), "--rank", "3", "--output", str(model_path)]
        assert main(argv + extra) == 0
        report = json.loads((tmp_path / "model.json.report.json").read_text())
        assert sorted(report) == [
            "elapsed_seconds",
            "iterations",
            "non_identifiable_suspect",
            "objective_trace",
            "per_context_error",
            "reconstruction_error",
            "restarts_used",
            "seed",
        ]

    @pytest.mark.parametrize("report", ["model.json", "./sub/../model.json", "link.json"])
    def test_report_over_the_model_is_usage_error(self, tmp_path, capsys, report, monkeypatch):
        # The report used to overwrite the model.  The paths are compared
        # before any data is read: the input does not exist.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        os.symlink("model.json", tmp_path / "link.json")
        code = main(
            ["fit", "--input", "missing", "--rank", "3", "--output", "model.json",
             "--report", report]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            "error: usage: --report and --output name the same file\n"
        )
        assert not (tmp_path / "model.json").exists()

    def test_default_flags_are_the_library_defaults(self, planted_dir, tmp_path):
        # With no fit knobs on the command line, the model is the library
        # fit at FitConfig's defaults, bit for bit; select-rank reports
        # rank selection's default threshold and seed pairs.
        pm, data_dir = planted_dir
        model_path = tmp_path / "model.json"
        code = main(
            ["fit", "--input", str(data_dir), "--rank", "3", "--seed", "5",
             "--output", str(model_path)]
        )
        assert code == 0
        model, _ = load_model(model_path)
        expected, _ = fit_mcpca(build_tensor(load_contexts(data_dir)), 3, FitConfig(seed=5))
        np.testing.assert_array_equal(model.A, expected.A)
        np.testing.assert_array_equal(model.B, expected.B)
        select_path = tmp_path / "select.json"
        code = main(
            ["select-rank", "--input", str(data_dir), "--candidates", "2,3",
             "--output", str(select_path)]
        )
        assert code == 0
        report = json.loads(select_path.read_text())
        assert (report["threshold"], report["n_seed_pairs"]) == (
            model_select.DEFAULT_THRESHOLD, model_select.DEFAULT_SEED_PAIRS,
        )

    def test_rank_zero_is_usage_error(self, planted_dir, tmp_path, capsys):
        pm, data_dir = planted_dir
        code = main(
            ["fit", "--input", str(data_dir), "--rank", "0",
             "--output", str(tmp_path / "m.json")]
        )
        assert code == 2
        assert "usage" in capsys.readouterr().err

    def test_rank_above_p_is_input_error(self, planted_dir, tmp_path, capsys):
        pm, data_dir = planted_dir
        code = main(
            ["fit", "--input", str(data_dir), "--rank", "11",
             "--output", str(tmp_path / "m.json")]
        )
        assert code == 2
        assert "<= p" in capsys.readouterr().err

    def test_rank_beyond_numerical_rank_is_numerical_failure(
        self, planted_dir, tmp_path, capsys
    ):
        pm, data_dir = planted_dir
        code = main(
            ["fit", "--input", str(data_dir), "--rank", "7",
             "--output", str(tmp_path / "m.json")]
        )
        assert code == 3
        assert "rank" in capsys.readouterr().err

    def test_nan_tol_is_input_error(self, planted_dir, tmp_path, capsys):
        pm, data_dir = planted_dir
        out = tmp_path / "m.json"
        code = main(
            ["fit", "--input", str(data_dir), "--rank", "3", "--tol", "nan",
             "--output", str(out)]
        )
        assert code == 2
        assert capsys.readouterr().err == "error: tol must be finite and positive\n"
        assert not out.exists()

    def test_tol_of_one_or_more_is_input_error(self, planted_dir, tmp_path, capsys):
        pm, data_dir = planted_dir
        out = tmp_path / "m.json"
        code = main(
            ["fit", "--input", str(data_dir), "--rank", "3", "--tol", "2",
             "--output", str(out)]
        )
        assert code == 2
        assert capsys.readouterr().err == "error: tol must be below 1\n"
        assert not out.exists()

    def test_round_trip_byte_identical(self, planted_dir, tmp_path):
        pm, data_dir = planted_dir
        model_path = tmp_path / "model.json"
        main(
            ["fit", "--input", str(data_dir), "--rank", "3",
             "--seed", "5", "--output", str(model_path)]
        )
        original = model_path.read_bytes()
        model, preprocessing = load_model(model_path)
        assert serialize_model(model, preprocessing).encode() == original


# Cells a long table may hold besides moderate numbers: overflowing,
# non-finite, empty, non-numeric and subnormal.
_ODD_CELLS = ("1e308", "-1e308", "nan", "inf", "", "x", "1e-320")


@st.composite
def _long_tables(draw, odd_cells=True, min_rows=0):
    """A long table of 1-4 value columns and 1-3 contexts of ``min_rows``-6
    rows each; with ``odd_cells``, about one cell in ten is odd or any
    float."""
    odd = st.one_of(st.sampled_from(_ODD_CELLS), st.floats().map(repr))
    moderate = st.floats(-100, 100).map(repr)
    cell = st.integers(0, 19).flatmap(lambda i: odd if odd_cells and i < 2 else moderate)
    p = draw(st.integers(1, 4))
    lines = ["context," + ",".join(f"x{j}" for j in range(p))]
    for cid in "abc"[: draw(st.integers(1, 3))]:
        for _ in range(draw(st.integers(min_rows, 6))):
            lines.append(",".join([cid, *draw(st.lists(cell, min_size=p, max_size=p))]))
    return "\n".join(lines) + "\n"


def _run_cli(argv, outputs):
    """(exit code, stdout, stderr, warnings, bytes or None of each output
    file) of one ``main(argv)``, the output files then removed.  A report's
    ``elapsed_seconds`` and a record file's ``runtime_seconds`` column are
    blanked, the values a rerun may change."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    written = []
    for output in outputs:
        written.append(output.read_bytes() if output.exists() else None)
        if written[-1] is not None:
            output.unlink()
            written[-1] = re.sub(rb'"elapsed_seconds": [^,\n]*', b"", written[-1])
            if written[-1].startswith(",".join(RECORD_HEADER).encode() + b"\n"):
                written[-1] = re.sub(rb"(?m)^((?:[^,\n]*,){8})[^,\n]*", rb"\1", written[-1])
    return code, out.getvalue(), err.getvalue(), [str(w.message) for w in caught], written


def _assert_cli_contract(argv, *outputs) -> tuple[int, list]:
    """Run ``main(argv)`` twice and check the CLI contract: an exit code in
    {0, 2, 3}, no warning, one ``error:`` or ``numerical failure:`` stderr
    line and no output file on a non-zero exit, every output file on exit
    0, and the same outcome and bytes from both runs.  Returns the exit
    code and the files' bytes; the files are removed."""
    first = _run_cli(argv, outputs)
    second = _run_cli(argv, outputs)
    code, _, err, caught, written = first
    assert caught == []
    assert code in (0, 2, 3)
    if code == 0:
        assert err == "" and None not in written
    else:
        assert err.count("\n") == 1 and err.endswith("\n")
        assert err.startswith(("error: ", "numerical failure: "))
        assert written == [None] * len(outputs)
    assert second == first
    return code, written


class TestSelectRankCommand:
    def test_chooses_planted_rank(self, planted_dir, tmp_path):
        pm, data_dir = planted_dir
        out = tmp_path / "rank.json"
        code = main(
            ["select-rank", "--input", str(data_dir),
             "--candidates", "2,3,4,5", "--output", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["chosen"] == 3
        assert report["threshold"] == 0.8
        assert report["n_seed_pairs"] == 5
        assert len(report["scree"]) == 10

    def test_nan_threshold_is_input_error(self, planted_dir, tmp_path, capsys):
        pm, data_dir = planted_dir
        out = tmp_path / "r.json"
        code = main(
            ["select-rank", "--input", str(data_dir), "--candidates", "2,3",
             "--threshold", "nan", "--output", str(out)]
        )
        assert code == 2
        assert capsys.readouterr().err == "error: threshold must be finite, got nan\n"
        assert not out.exists()

    def test_nnls_failure_scores_zero(self, planted_dir, tmp_path, monkeypatch):
        # The NNLS cap raises LinAlgError: every candidate scores 0, and
        # the command still writes its report.
        import mcpca.decompose

        def capped(*args):
            raise np.linalg.LinAlgError("NNLS did not converge")

        monkeypatch.setattr(mcpca.decompose, "_lawson_hanson", capped)
        pm, data_dir = planted_dir
        out = tmp_path / "rank.json"
        code = main(
            ["select-rank", "--input", str(data_dir), "--candidates", "2,3",
             "--n-seed-pairs", "2", "--output", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["stability"] == [0.0, 0.0]
        assert report["chosen"] is None

    @settings(max_examples=90, deadline=None, derandomize=True)
    @given(
        table=_long_tables(),
        candidates=st.lists(st.integers(1, 4), min_size=1, max_size=3),
        pairs=st.integers(1, 2),
        seed=st.integers(0, 3),
        chain=st.booleans(),
    )
    def test_generated_tables_keep_the_cli_contract(self, table, candidates, pairs, seed, chain):
        # select-rank on the table; with ``chain``, fit at the first
        # candidate instead and, when that succeeds, load the model, score
        # the table's value columns and check the other layout and
        # context order (``_assert_layouts_agree``), diag included.
        with tempfile.TemporaryDirectory() as work:
            work = Path(work)
            data = work / "long.csv"
            data.write_text(table, encoding="utf-8")
            if not chain:
                output = work / "rank.json"
                _assert_cli_contract(
                    ["select-rank", "--input", str(data),
                     "--candidates", ",".join(map(str, candidates)),
                     "--n-seed-pairs", str(pairs), "--seed", str(seed),
                     "--output", str(output)],
                    output,
                )
                return
            model = work / "model.json"
            options = ["--rank", str(candidates[0]), "--seed", str(seed)]
            code, written = _assert_cli_contract(
                ["fit", "--input", str(data), *options, "--output", str(model)],
                model, work / "model.json.report.json",
            )
            if code != 0:
                return
            model.write_bytes(written[0])
            load_model(model)
            matrix = work / "values.csv"
            matrix.write_text(
                "".join(line.split(",", 1)[1] + "\n" for line in table.splitlines()),
                encoding="utf-8",
            )
            scores = work / "scores.csv"
            _assert_cli_contract(
                ["score", "--model", str(model), "--data", str(matrix), "--output", str(scores)],
                scores,
            )
            _assert_layouts_agree(work, table, options, written)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        table=_long_tables(odd_cells=False, min_rows=2),
        rank=st.integers(1, 2),
        seed=st.integers(0, 3),
    )
    def test_generated_fits_agree_across_layouts_and_orders(self, table, rank, seed):
        # Tables of moderate cells and two or more rows per context, which
        # fit far more often than the ones above.
        with tempfile.TemporaryDirectory() as work:
            work = Path(work)
            data = work / "long.csv"
            data.write_text(table, encoding="utf-8")
            model = work / "model.json"
            options = ["--rank", str(rank), "--seed", str(seed)]
            code, written = _assert_cli_contract(
                ["fit", "--input", str(data), *options, "--output", str(model)],
                model, work / "model.json.report.json",
            )
            if code == 0:
                _assert_layouts_agree(work, table, options, written)

    def test_empty_candidates_usage_error(self, planted_dir, tmp_path):
        pm, data_dir = planted_dir
        code = main(
            ["select-rank", "--input", str(data_dir),
             "--candidates", ",", "--output", str(tmp_path / "r.json")]
        )
        assert code == 2


# JSON values of every type, to put where a field or element of another
# type belongs.
_JSON_VALUES = (None, True, False, 0, 7, 1.5, -0.0, "x", "", [], {}, [1.0], ["a"], [[1.0]])


@pytest.fixture(scope="module")
def model_files(tmp_path_factory):
    """A dataset directory and the JSON of two models fitted to it, one of
    them on 4 principal components."""
    work = tmp_path_factory.mktemp("models")
    data_dir = work / "data"
    _write_dataset_dir(data_dir, generate_identifiable(10, 5, 3, 0.8, seed=77))
    models = []
    for extra in ([], ["--pca-components", "4"]):
        path = work / f"model{len(models)}.json"
        argv = ["fit", "--input", str(data_dir), "--rank", "3", "--output", str(path)]
        assert main(argv + extra) == 0
        models.append(json.loads(path.read_text(encoding="utf-8")))
    return data_dir, models


@st.composite
def _malformed_models(draw, raw):
    """``raw`` with one field, or one element of an array field, changed:
    removed, given a value of another JSON type, or given another shape
    (an element fewer or more, a ragged row, or wrapped in one more
    array).  Integer and float are one type where a float is written."""
    raw = json.loads(json.dumps(raw))
    block = draw(st.sampled_from([raw, raw["preprocessing"]]))
    field = draw(st.sampled_from(sorted(block)))
    value = block[field]
    kinds = ["missing", "type"] + ["element", "shape"] * isinstance(value, list)
    kind = draw(st.sampled_from(kinds))
    if kind == "missing":
        del block[field]
        return raw
    if kind == "element":
        block, field = value, draw(st.integers(0, len(value) - 1))
        if isinstance(value[field], list) and draw(st.booleans()):
            block, field = value[field], draw(st.integers(0, len(value[field]) - 1))
        value = block[field]
    if kind in ("type", "element"):
        same = (int, float) if type(value) is float else (type(value),)
        block[field] = draw(st.sampled_from([v for v in _JSON_VALUES if type(v) not in same]))
        return raw
    shapes = [value[:-1], value + value[-1:], [value]]
    if isinstance(value[0], list):
        shapes.append([value[0][:-1], *value[1:]])
    block[field] = draw(st.sampled_from(shapes))
    return raw


class TestMalformedModelFiles:
    """``score`` and ``diag`` on generated malformed model files: each exits
    2 with one error line, the unchanged file 0."""

    def _runs(self, data_dir, model):
        yield ["score", "--model", str(model), "--data", str(data_dir / "c00.csv")]
        yield ["diag", "--model", str(model), "--input", str(data_dir)]

    @pytest.mark.parametrize("which", [0, 1], ids=["raw", "pca"])
    def test_unchanged_file_exits_zero(self, model_files, which):
        data_dir, models = model_files
        with tempfile.TemporaryDirectory() as work:
            model = Path(work) / "model.json"
            model.write_text(json.dumps(models[which], indent=2) + "\n", encoding="utf-8")
            assert serialize_model(*load_model(model)) == model.read_text(encoding="utf-8")
            for argv in self._runs(data_dir, model):
                output = Path(work) / "out.csv"
                assert _assert_cli_contract(argv + ["--output", str(output)], output)[0] == 0

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_generated_malformed_files_exit_two(self, model_files, data):
        data_dir, models = model_files
        raw = data.draw(_malformed_models(models[data.draw(st.integers(0, 1))]))
        with tempfile.TemporaryDirectory() as work:
            model = Path(work) / "model.json"
            model.write_text(json.dumps(raw, indent=2) + "\n", encoding="utf-8")
            for argv in self._runs(data_dir, model):
                output = Path(work) / "out.csv"
                assert _assert_cli_contract(argv + ["--output", str(output)], output)[0] == 2


class TestScoreCommand:
    def test_training_context_matches_library_scores(
        self, planted_dir, tmp_path
    ):
        pm, data_dir = planted_dir
        model_path = tmp_path / "model.json"
        main(
            ["fit", "--input", str(data_dir), "--rank", "3",
             "--seed", "5", "--output", str(model_path)]
        )
        data_file = data_dir / "c00.csv"
        out = tmp_path / "scores.csv"
        code = main(
            ["score", "--model", str(model_path), "--data", str(data_file),
             "--output", str(out)]
        )
        assert code == 0
        written = load_matrix(out)
        model, _ = load_model(model_path)
        expected = score_samples(model, load_matrix(data_file))
        np.testing.assert_allclose(written, expected, atol=1e-10)
        header = out.read_text().splitlines()[0]
        assert header == "mcpc1,mcpc2,mcpc3"

    def test_wrong_column_count_rejected(self, planted_dir, tmp_path, capsys):
        pm, data_dir = planted_dir
        model_path = tmp_path / "model.json"
        main(
            ["fit", "--input", str(data_dir), "--rank", "3",
             "--seed", "5", "--output", str(model_path)]
        )
        bad = tmp_path / "bad.csv"
        np.savetxt(bad, np.zeros((3, 4)), delimiter=",")
        code = main(
            ["score", "--model", str(model_path), "--data", str(bad),
             "--output", str(tmp_path / "s.csv")]
        )
        assert code == 2

    def test_stored_projection_matches_manual_pipeline(self, tmp_path):
        rng = np.random.default_rng(123)
        contexts = tuple(
            (f"c{i}", rng.standard_normal((30, 8))) for i in range(3)
        )
        data_dir = tmp_path / "raw"
        data_dir.mkdir()
        for cid, x in contexts:
            np.savetxt(data_dir / f"{cid}.csv", x, delimiter=",")
        model_path = tmp_path / "model.json"
        code = main(
            ["fit", "--input", str(data_dir), "--rank", "2", "--seed", "1",
             "--pca-components", "4", "--output", str(model_path)]
        )
        assert code == 0
        raw_file = data_dir / "c0.csv"
        out = tmp_path / "scores.csv"
        assert (
            main(
                ["score", "--model", str(model_path), "--data",
                 str(raw_file), "--output", str(out)]
            )
            == 0
        )
        written = load_matrix(out)

        # Manual two-step pipeline: reduce with the library, then score.
        dataset = ContextDataset(contexts)
        reduced, projection, _ = global_pca_reduce(dataset, 4)
        model, preprocessing = load_model(model_path)
        np.testing.assert_allclose(preprocessing.projection, projection, atol=1e-10)
        expected = score_samples(model, reduced.contexts[0][1])
        np.testing.assert_allclose(written, expected, atol=1e-10)


class TestRawDataOnly:
    """score and diag take raw samples, which the model's stored
    projection maps to the fitted coordinates, whatever its width."""

    def test_projection_onto_all_p_axes(self, planted_dir, tmp_path):
        _, data_dir = planted_dir
        model_path = tmp_path / "model.json"
        assert main(
            ["fit", "--input", str(data_dir), "--rank", "3", "--seed", "5",
             "--pca-components", "10", "--output", str(model_path)]
        ) == 0
        model, preprocessing = load_model(model_path)
        assert preprocessing.projection.shape == (10, 10)
        scores = tmp_path / "scores.csv"
        raw = data_dir / "c00.csv"
        assert main(
            ["score", "--model", str(model_path), "--data", str(raw), "--output", str(scores)]
        ) == 0
        reduced = (load_matrix(raw) - preprocessing.pca_mean) @ preprocessing.projection.T
        np.testing.assert_array_equal(load_matrix(scores), score_samples(model, reduced))
        diag = tmp_path / "diag.csv"
        assert main(
            ["diag", "--model", str(model_path), "--input", str(data_dir), "--output", str(diag)]
        ) == 0
        assert [row.split(",")[0] for row in diag.read_text().splitlines()[1:]] == list(
            model.context_ids
        )

    def test_components_above_p_is_input_error(self, planted_dir, tmp_path, capsys):
        _, data_dir = planted_dir
        model_path = tmp_path / "model.json"
        code = main(
            ["fit", "--input", str(data_dir), "--rank", "3",
             "--pca-components", "11", "--output", str(model_path)]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith(
            "error: n_components must be in [1, min(p=10, "
        )
        assert not model_path.exists()

    @pytest.mark.parametrize("command", ["score", "diag"])
    def test_reduced_data_is_input_error(self, planted_dir, tmp_path, capsys, command):
        _, data_dir = planted_dir
        model_path = tmp_path / "model.json"
        assert main(
            ["fit", "--input", str(data_dir), "--rank", "3",
             "--pca-components", "4", "--output", str(model_path)]
        ) == 0
        reduced, _, _ = global_pca_reduce(load_contexts(data_dir), 4)
        reduced_dir = tmp_path / "reduced"
        reduced_dir.mkdir()
        for cid, x in reduced.contexts:
            np.savetxt(reduced_dir / f"{cid}.csv", x, delimiter=",")
        data = ["--data", str(reduced_dir / "c00.csv")]
        if command == "diag":
            data = ["--input", str(reduced_dir)]
        capsys.readouterr()
        out = tmp_path / "out.csv"
        code = main([command, "--model", str(model_path), *data, "--output", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: data has 4 columns; the model's projection takes 10 raw variables\n"
        )
        assert not out.exists()


class TestExitCodes:
    @pytest.fixture
    def model_path(self, planted_dir, tmp_path):
        _, data_dir = planted_dir
        path = tmp_path / "model.json"
        assert main(
            ["fit", "--input", str(data_dir), "--rank", "3",
             "--seed", "5", "--output", str(path)]
        ) == 0
        return path

    def test_non_finite_score_data_is_input_error(
        self, model_path, tmp_path, capsys
    ):
        data = tmp_path / "nan.csv"
        rows = ["1" + ",1" * 9] * 3
        rows[1] = "1,nan" + ",1" * 8
        data.write_text("\n".join(rows) + "\n")
        out = tmp_path / "s.csv"
        code = main(
            ["score", "--model", str(model_path), "--data", str(data),
             "--output", str(out)]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {data}: non-finite cell 'nan' at row 2, column 2\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("command", ["fit", "select-rank"])
    def test_covariance_overflow_is_input_error(self, command, tmp_path, capsys):
        # Every cell is finite, but context a's covariance passes the float
        # limit: an input error naming the context, with no warning (the
        # suite turns RuntimeWarnings into errors).
        data = tmp_path / "long.csv"
        data.write_text("context,x,y\na,1e308,1\na,-1e308,2\na,0,3\nb,1,2\nb,3,1\nb,2,2\n")
        out = tmp_path / "out.json"
        flags = ["--rank", "1"] if command == "fit" else ["--candidates", "1"]
        code = main([command, "--input", str(data), *flags, "--output", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: context 'a': sample covariance overflows the floating-point range\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("command", ["fit", "select-rank"])
    def test_covariance_underflow_is_input_error(self, command, tmp_path, capsys):
        # Three contexts of standard-normal data scaled by 1e-165: every
        # covariance entry underflows to zero, an input error naming the
        # first context.  Scaled by 1e-160 every entry is subnormal (the
        # largest 6.6e-321, off by a relative 3.1e-4), the same error.
        # Scaled by 1e-150 (entries off by 1.1e-16) the same data fit.
        rows = np.random.default_rng(0).standard_normal((18, 2))
        flags = ["--rank", "2"] if command == "fit" else ["--candidates", "1,2"]
        for scale, want in ((1e-165, 2), (1e-160, 2), (1e-150, 0)):
            data = tmp_path / f"long{scale}.csv"
            data.write_text("context,x,y\n" + "".join(
                f"{'abc'[i // 6]},{float(x) * scale!r},{float(y) * scale!r}\n"
                for i, (x, y) in enumerate(rows)
            ))
            out = tmp_path / "out.json"
            code = main([command, "--input", str(data), *flags, "--output", str(out)])
            err = capsys.readouterr().err
            assert code == want
            assert out.exists() == (want == 0)
        assert err == ""
        for scale in (1e-165, 1e-160):
            data = tmp_path / f"long{scale}.csv"
            main([command, "--input", str(data), *flags, "--output", str(out)])
            assert capsys.readouterr().err == (
                "error: context 'a': sample covariance underflows the floating-point range\n"
            )

    @pytest.mark.parametrize("table", [
        "context,x0\na,0.0\na,1.6375474301492827e+77\n",
        "context,x0,x1\na,0.0,0.0\na,9e+153,1e+154\n",
        "context,x0,x1,x2\na,0.0,0.0,0.0\na,0.0,0.0,5e+153\n"
        "b,5e+153,-4e+153,-9e+153\nb,-1e+153,8e+153,4e+153\n",
    ], ids=["1e77", "1e154", "loadings-1e307"])
    def test_diag_near_the_float_limit(self, table, tmp_path):
        # Covariances near 1e154 and 1e307, whose squares (and in the last
        # table the loading column sum) pass the float limit: fit and diag
        # exit 0 without a warning (RuntimeWarnings are errors), with every
        # explained ratio a fraction.
        data = tmp_path / "long.csv"
        data.write_text(table)
        model, out = tmp_path / "m.json", tmp_path / "d.csv"
        assert main(["fit", "--input", str(data), "--rank", "1", "--output", str(model)]) == 0
        assert main(["diag", "--model", str(model), "--input", str(data), "--output", str(out)]) == 0
        for row in out.read_text().splitlines()[1:]:
            assert 0.0 < float(row.split(",")[2]) <= 1.0 + 1e-12

    @pytest.mark.parametrize("missing", ["--model", "--data", "--output"])
    def test_unreadable_or_unwritable_file_is_input_error(
        self, missing, model_path, planted_dir, tmp_path, capsys
    ):
        _, data_dir = planted_dir
        paths = {
            "--model": str(model_path),
            "--data": str(data_dir / "c00.csv"),
            "--output": str(tmp_path / "scores.csv"),
        }
        paths[missing] = str(tmp_path / "no_such_dir" / "file")
        argv = ["score"]
        for flag, path in paths.items():
            argv += [flag, path]
        capsys.readouterr()
        code = main(argv)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "No such file or directory" in err

    @staticmethod
    def _input_argv(command, model_path, data_path, tmp_path):
        extra = {"fit": ["--rank", "3"], "select-rank": ["--candidates", "3"],
                 "diag": ["--model", str(model_path)]}[command]
        return [command, "--input", str(data_path), *extra, "--output", str(tmp_path / "out")]

    @pytest.mark.parametrize("command", ["fit", "select-rank", "diag"])
    def test_format_flag_is_usage_error(self, command, model_path, planted_dir, tmp_path, capsys):
        # The path type decides the layout; there is no flag to name it.
        argv = self._input_argv(command, model_path, planted_dir[1], tmp_path)
        capsys.readouterr()
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--format", "long-table"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --format long-table" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["fit", "select-rank", "diag"])
    def test_missing_input_is_input_error(self, command, model_path, tmp_path, capsys):
        missing = tmp_path / "no_such_data"
        capsys.readouterr()
        assert main(self._input_argv(command, model_path, missing, tmp_path)) == 2
        assert capsys.readouterr().err == f"error: {missing}: not a file or directory\n"
        assert not (tmp_path / "out").exists()

    def test_duplicate_context_id_is_input_error(self, planted_dir, tmp_path, capsys):
        _, data_dir = planted_dir
        (data_dir / "c00.tsv").write_text((data_dir / "c01.csv").read_text().replace(",", "\t"))
        capsys.readouterr()
        code = main(["fit", "--input", str(data_dir), "--rank", "3",
                     "--output", str(tmp_path / "model.json")])
        assert code == 2
        assert capsys.readouterr().err == "error: duplicate context id 'c00'\n"

    @pytest.mark.parametrize("factor", ["A", "B"])
    def test_nan_model_file_is_input_error(
        self, factor, model_path, planted_dir, tmp_path, capsys
    ):
        raw = json.loads(model_path.read_text())
        raw[factor][0][0] = float("nan")
        model_path.write_text(json.dumps(raw))
        _, data_dir = planted_dir
        capsys.readouterr()
        code = main(
            ["score", "--model", str(model_path), "--data",
             str(data_dir / "c00.csv"), "--output", str(tmp_path / "s.csv")]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {factor} contains non-finite entries\n"
        )

    @pytest.mark.parametrize(
        "field, value",
        [("converged", 5), ("seed", None), ("preprocessing", []),
         ("seed", "7"), ("seed", 1.5), ("seed", True), ("context_ids", "ab"),
         ("converged", "tt")],
    )
    def test_malformed_model_file_is_input_error(
        self, field, value, model_path, planted_dir, tmp_path, capsys
    ):
        # Well-formed JSON with a field of the wrong type, which is not
        # coerced: "7", 1.5 and true are no seed, and "ab" and "tt" are no
        # lists of context ids or flags.
        raw = json.loads(model_path.read_text())
        raw[field] = value
        model_path.write_text(json.dumps(raw))
        _, data_dir = planted_dir
        capsys.readouterr()
        code = main(
            ["score", "--model", str(model_path), "--data",
             str(data_dir / "c00.csv"), "--output", str(tmp_path / "s.csv")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {model_path}: malformed model file (")
        assert err.count("\n") == 1 and err.endswith(")\n")

    @pytest.mark.parametrize("command", ["score", "diag"])
    def test_rank_zero_model_file_is_input_error(
        self, command, model_path, planted_dir, tmp_path, capsys
    ):
        # Consistent shapes with no component: numpy's own message on an
        # empty reduction used to name neither the file nor the field.
        raw = json.loads(model_path.read_text())
        raw.update(r=0, A=[[] for _ in raw["A"]], B=[[] for _ in raw["B"]], converged=[])
        model_path.write_text(json.dumps(raw))
        _, data_dir = planted_dir
        data = ["--data", str(data_dir / "c00.csv")] if command == "score" else [
            "--input", str(data_dir)]
        capsys.readouterr()
        code = main([command, "--model", str(model_path), *data,
                     "--output", str(tmp_path / "out.csv")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {model_path}: r must be at least 1, got 0\n"
        )

    @pytest.mark.parametrize(
        "block, field, value",
        [
            (None, "ordering_rule", "loading-column-sum-asc"),
            (None, "sign_rule", "max-abs-entry-negative"),
            ("preprocessing", "pca_components", 5),
            ("preprocessing", "pca_components", 4.5),
        ],
    )
    def test_model_file_rule_mismatch_is_input_error(
        self, block, field, value, planted_dir, tmp_path, capsys
    ):
        # The model was fitted under fixed rules on 4 principal components.
        _, data_dir = planted_dir
        model_path = tmp_path / "model.json"
        assert main(
            ["fit", "--input", str(data_dir), "--rank", "3", "--seed", "5",
             "--pca-components", "4", "--output", str(model_path)]
        ) == 0
        raw = json.loads(model_path.read_text())
        (raw[block] if block else raw)[field] = value
        model_path.write_text(json.dumps(raw))
        capsys.readouterr()
        code = main(
            ["score", "--model", str(model_path), "--data",
             str(data_dir / "c00.csv"), "--output", str(tmp_path / "s.csv")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {model_path}: {field} ")

    def test_linalg_failure_is_numerical(
        self, model_path, planted_dir, tmp_path, monkeypatch, capsys
    ):
        import mcpca.cli

        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(mcpca.cli, "score_samples", no_convergence)
        _, data_dir = planted_dir
        code = main(
            ["score", "--model", str(model_path), "--data",
             str(data_dir / "c00.csv"), "--output", str(tmp_path / "s.csv")]
        )
        assert code == 3
        assert capsys.readouterr().err == (
            "numerical failure: SVD did not converge\n"
        )

    def test_nnls_iteration_cap_is_numerical(self, tmp_path, monkeypatch, capsys):
        # The last context's loadings need Lawson-Hanson solves after the
        # warm start, so a cap of none makes the fit fail.
        import mcpca.decompose

        A, B, extra = active_set_example()
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        slices = list(tensor_from_factors(A, B).slices) + [0.01 * extra]
        for i, cov in enumerate(slices):
            np.savetxt(data_dir / f"c{i:02d}.csv", exact_sample_matrix(cov), delimiter=",")
        argv = ["fit", "--input", str(data_dir), "--rank", "4", "--seed", "5",
                "--output", str(tmp_path / "model.json")]
        assert main(argv) == 0
        capsys.readouterr()
        monkeypatch.setattr(mcpca.decompose, "_NNLS_SOLVES_PER_COLUMN", 0)
        assert main(argv) == 3
        assert capsys.readouterr().err == (
            "numerical failure: NNLS for the loadings did not converge in 0 "
            "active-set solves\n"
        )


@pytest.mark.parametrize("module", ["mcpca", "mcpca.cli"])
def test_import_loads_no_scipy(module):
    # scipy costs about 0.7 s per fresh interpreter; no CLI call needs it.
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (
        f"import sys, {module}\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True,
    ).stdout
    assert out == "[]\n"


@pytest.mark.parametrize("module", ["mcpca", "mcpca.cli", "mcpca.model_select"])
def test_import_loads_no_process_pool(module):
    # A fresh import of multiprocessing.pool costs about 27 ms; only a large
    # input, parsed in worker processes, and rank selection on a large
    # tensor, fitted in worker processes, need it.
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (
        f"import sys, {module}\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.split('.')[0] in ('multiprocessing', 'concurrent')))"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True,
    ).stdout
    assert out == "[]\n"


class TestDiagCommand:
    def test_exact_model_table(self, planted_dir, tmp_path):
        pm, data_dir = planted_dir
        model_path = tmp_path / "model.json"
        main(
            ["fit", "--input", str(data_dir), "--rank", "3",
             "--seed", "5", "--output", str(model_path)]
        )
        out = tmp_path / "diag.csv"
        code = main(
            ["diag", "--model", str(model_path), "--input", str(data_dir),
             "--output", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == (
            "context,reconstruction_error,explained_ratio,"
            "uncorrelatedness,kl_loss,kl_status"
        )
        assert len(lines) == 1 + pm.k
        for line in lines[1:]:
            cells = line.split(",")
            assert float(cells[1]) <= 1e-6
            assert abs(float(cells[2]) - 1.0) <= 1e-6

    def test_non_pd_context_flagged_exit_zero(self, tmp_path):
        rng = np.random.default_rng(9)
        # Second context is constant: zero covariance, non-PD projection.
        contexts = (
            ("a", rng.standard_normal((20, 4))),
            ("b", np.ones((5, 4))),
        )
        data_dir = tmp_path / "raw"
        data_dir.mkdir()
        for cid, x in contexts:
            np.savetxt(data_dir / f"{cid}.csv", x, delimiter=",")
        model_path = tmp_path / "model.json"
        assert (
            main(
                ["fit", "--input", str(data_dir), "--rank", "2",
                 "--seed", "2", "--output", str(model_path)]
            )
            == 0
        )
        out = tmp_path / "diag.csv"
        assert (
            main(
                ["diag", "--model", str(model_path), "--input",
                 str(data_dir), "--output", str(out)]
            )
            == 0
        )
        rows = [ln.split(",") for ln in out.read_text().splitlines()[1:]]
        status = {row[0]: row[5] for row in rows}
        assert status["b"] == "non-pd"

    def test_contexts_paired_by_id(self, tmp_path):
        # The long table lists its contexts c, b, a; the directory sorts
        # them a, b, c.  Either way each row is the id's, in model order.
        rng = np.random.default_rng(4)
        samples = {cid: rng.standard_normal((12, 4)) * (1 + i) for i, cid in enumerate("cba")}
        table = tmp_path / "long.csv"
        table.write_text("".join(
            f"{cid}," + ",".join(map(repr, row)) + "\n"
            for cid, x in samples.items() for row in x.tolist()
        ))
        data_dir = tmp_path / "dir"
        data_dir.mkdir()
        for cid, x in samples.items():
            (data_dir / f"{cid}.csv").write_text(
                "".join(",".join(map(repr, row)) + "\n" for row in x.tolist())
            )
        model_path = tmp_path / "model.json"
        assert main(["fit", "--input", str(table), "--rank", "2", "--output", str(model_path)]) == 0
        tables = []
        for path in (table, data_dir):
            out = tmp_path / "diag.csv"
            assert main(["diag", "--model", str(model_path), "--input", str(path),
                         "--output", str(out)]) == 0
            tables.append(out.read_text())
        assert tables[1] == tables[0]
        assert [row.split(",")[0] for row in tables[0].splitlines()[1:]] == ["c", "b", "a"]

    def test_ids_with_commas_quotes_or_line_breaks_are_quoted(self, tmp_path):
        # An id with a comma used to give its row one cell too many.  Ids
        # come from file stems, which may hold any of these characters.
        rng = np.random.default_rng(6)
        ids = ["a,b", 'say "hi"', "two\nlines", "c", "d"]
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        for cid in ids:
            np.savetxt(data_dir / f"{cid}.csv", rng.standard_normal((30, 4)), delimiter=",")
        model_path = tmp_path / "model.json"
        assert main(["fit", "--input", str(data_dir), "--rank", "2",
                     "--output", str(model_path)]) == 0
        out = tmp_path / "diag.csv"
        assert main(["diag", "--model", str(model_path), "--input", str(data_dir),
                     "--output", str(out)]) == 0
        with open(out, encoding="utf-8", newline="") as fh:
            header, *rows = csv.reader(fh)
        assert [row[0] for row in rows] == sorted(ids)
        assert all(len(row) == len(header) == 6 for row in rows)
        text = out.read_text(encoding="utf-8")
        assert '\n"a,b",' in text and '\n"say ""hi""",' in text
        assert "\nc," in text and "\nd," in text

    @pytest.mark.parametrize(
        "files, model_ids, message",
        [
            ("c00 c01 c02 c03 x", None, "context 'c04' is not in the data"),
            ("c00 c01 c02 c03", None, "context 'c04' is not in the data"),
            ("c00 c01 c02 c03 c04 c05", None, "context 'c05' is not in the model"),
            ("c00 c01 c02 c03", "c00 c00 c01 c02 c03", "duplicate context id 'c00'"),
        ],
        ids=["renamed", "fewer", "more", "repeated"],
    )
    def test_context_ids_that_differ_are_input_error(
        self, planted_dir, tmp_path, capsys, files, model_ids, message
    ):
        # The model has contexts c00-c04; the data have ``files``, each a
        # copy of one of the model's contexts.
        _, data_dir = planted_dir
        model_path = tmp_path / "model.json"
        assert main(["fit", "--input", str(data_dir), "--rank", "3", "--output", str(model_path)]) == 0
        if model_ids:
            raw = json.loads(model_path.read_text())
            raw["context_ids"] = model_ids.split()
            model_path.write_text(json.dumps(raw))
        other = tmp_path / "other"
        other.mkdir()
        for i, name in enumerate(files.split()):
            (other / f"{name}.csv").write_bytes((data_dir / f"c{i % 5:02d}.csv").read_bytes())
        capsys.readouterr()
        out = tmp_path / "diag.csv"
        code = main(["diag", "--model", str(model_path), "--input", str(other),
                     "--output", str(out)])
        assert (code, capsys.readouterr().err) == (2, f"error: {message}\n")
        assert not out.exists()


@st.composite
def _bench_argv(draw, work):
    """``mcpca bench`` flags in either mode, at shapes on both sides of
    ``fork_pool.PARALLEL_MIN_ENTRIES`` (p * p * k of 108, 256, 4,000 and
    4,096).  In about three draws of seven every value is in range; in
    each other one, one of r, density, N (or the N grid) and the methods
    is out of range or malformed."""
    bad = draw(st.sampled_from([None] * 3 + ["r", "density", "N", "methods"]))

    def pick(field, good, wrong):
        return draw(st.sampled_from(wrong if field == bad else good))

    p, k = draw(st.sampled_from([(6, 3), (8, 4), (20, 10), (16, 16)]))
    methods = pick("methods", ["mcpca", "mcpca,pca_stack,jennrich",
                               f"pca_stack,external={work / 'A.csv'}"],
                   [f"external={work / 'missing.csv'}", "external=", "magic", ","])
    argv = ["bench", "--p", str(p), "--k", str(k),
            "--r", str(pick("r", [1, 2, 3], [0, -1, p + 1])),
            "--density", pick("density", ["0.6", "1.0"], ["0.0", "1.5", "nan"]),
            "--methods", methods, "--seed", str(draw(st.integers(0, 3)))]
    if draw(st.booleans()):
        grid = pick("N", ["30,60", "60,60"], ["", "1,60", "60,30", "x"])
        argv += ["--mode", "sweep", "--N-grid", grid]
    else:
        argv += ["--mode", "accuracy", "--trials", str(draw(st.integers(1, 3))),
                 "--N", str(pick("N", [40], [1, 0]))]
        argv += ["--noiseless"] * (bad != "N" and draw(st.booleans()))
    return argv + ["--orthonormal"] * draw(st.booleans())


class TestBenchCommand:
    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_generated_argv_keep_the_cli_contract(self, data):
        with tempfile.TemporaryDirectory() as work:
            work = Path(work)
            # Two unnormalized components of 20 variables: the external
            # method scores them at p = 20, r = 2, and records a failure
            # at any other shape.
            np.savetxt(work / "A.csv", np.arange(1.0, 41.0).reshape(20, 2), delimiter=",")
            argv = data.draw(_bench_argv(work))
            output = work / "records.csv"
            _assert_cli_contract(argv + ["--output", str(output)], output)

    def test_accuracy_record_count(self, tmp_path):
        out = tmp_path / "records.csv"
        code = main(
            ["bench", "--mode", "accuracy", "--p", "8", "--k", "4",
             "--r", "2", "--density", "0.9", "--N", "100",
             "--trials", "3", "--methods", "mcpca,pca_stack",
             "--seed", "1", "--output", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 3 * 2

    def test_sweep_mode(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(
            ["bench", "--mode", "sweep", "--p", "8", "--k", "4", "--r", "2",
             "--density", "0.9", "--N-grid", "50,100", "--methods", "mcpca",
             "--seed", "2", "--output", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 2

    def test_zero_trials_usage_error(self, tmp_path):
        code = main(
            ["bench", "--mode", "accuracy", "--trials", "0",
             "--output", str(tmp_path / "r.csv")]
        )
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["--methods", ","],
        ["--mode", "sweep", "--methods", " ,"],
        ["--mode", "sweep", "--noiseless", "--N-grid", "5"],
    ], ids=["no-methods", "sweep-no-methods", "sweep-noiseless"])
    def test_empty_methods_or_noiseless_sweep_usage_error(self, argv, tmp_path, capsys):
        # Each used to exit 0: a header-only table, or a sweep that
        # sampled N = 5 although --noiseless was given.
        out = tmp_path / "r.csv"
        code = main(["bench", "--p", "6", "--k", "3", "--r", "2", "--trials", "1",
                     *argv, "--output", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_default_flags_are_the_config_defaults(self):
        from mcpca.cli import build_parser

        args = build_parser().parse_args(["bench", "--output", "x.csv"])
        accuracy, sweep = BenchConfig(), SweepConfig()
        for config in (accuracy, sweep):
            assert (args.p, args.k, args.r, args.density, args.seed) == (
                config.p, config.k, config.r, config.density, config.seed,
            )
            assert tuple(args.methods.split(",")) == config.methods
        assert (args.N, args.trials) == (accuracy.N, accuracy.n_trials)
        assert tuple(int(n) for n in args.N_grid.split(",")) == sweep.N_grid

    def test_default_flags_match_protocol(self):
        from mcpca.cli import build_parser

        args = build_parser().parse_args(["bench", "--output", "x.csv"])
        assert (args.p, args.k, args.r) == (100, 50, 60)
        assert args.density == 0.2
        assert args.N == 1000
        assert args.trials == 40
        assert args.N_grid == "10,100,1000,10000,100000"


def test_model_file_rejects_corruption(tmp_path):
    pm = generate_identifiable(6, 3, 2, 0.9, seed=50)
    t = tensor_from_factors(pm.A_true, pm.B_true)
    model, _ = fit_mcpca(t, 2, FitConfig(seed=0))
    path = tmp_path / "model.json"
    save_model(path, model, Preprocessing())
    raw = json.loads(path.read_text())
    raw["B"][0][0] = -1.0
    path.write_text(json.dumps(raw))
    with pytest.raises(ValueError):
        load_model(path)


@pytest.mark.parametrize("field", ["projection", "pca_mean"])
def test_preprocessing_rejects_non_finite(field):
    values = {"projection": np.eye(2, 3), "pca_mean": np.zeros(3)}
    values[field][0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        Preprocessing(**values)
