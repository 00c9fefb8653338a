"""Command-line front end: fit, select-rank, score, diag, bench.

Each input has one accepted form: ``--input`` is a directory of
per-context files or a long-table file, as the path type says, and
``score`` and ``diag`` take raw samples (a model's stored projection maps
them); ``diag`` pairs the data's contexts with the model's by id.

Exit codes: 0 on success, 2 on usage or input errors (including files
that cannot be read or written), 3 on numerical failures (rank
deficiency, singular Gram matrix, a linear-algebra routine that does not
converge).
All output tables are UTF-8, comma-delimited with a header row and LF
line endings; ``diag`` quotes a context id that holds a comma, a quote
or a line break, RFC 4180-style.  Benchmark trials run in forked
workers, one trial at a time in each and no more workers than the CPUs
hold at the BLAS thread count, so each recorded runtime is still the
fit alone.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import __version__
from .diagnostics import compute_diagnostics, score_samples
from .decompose import FitConfig, fit_mcpca, reconstruction_error
from .exceptions import (
    DataFormatError,
    DegeneracyError,
    DimensionMismatchError,
    AsymmetricInputError,
    GramSingularityError,
    RankDeficiencyError,
)
from .ingest import (
    ContextDataset,
    build_tensor,
    global_pca_reduce,
    load_contexts,
    load_matrix,
)
from .model_io import Preprocessing, load_model, save_model, save_report
from .model_select import DEFAULT_SEED_PAIRS, DEFAULT_THRESHOLD, select_rank
from .synth_bench import (
    BenchConfig,
    SweepConfig,
    run_accuracy_trials,
    run_sample_sweep,
    write_records,
)

_INPUT_ERRORS = (
    DataFormatError,
    DimensionMismatchError,
    AsymmetricInputError,
    ValueError,
    OSError,
)
# LinAlgError subclasses ValueError, so main() tests these first.
_NUMERICAL_ERRORS = (
    RankDeficiencyError,
    GramSingularityError,
    DegeneracyError,
    np.linalg.LinAlgError,
)


def _apply_stored_projection(X, preprocessing: Preprocessing):
    """Raw samples ``X`` in the coordinates the model was fitted in."""
    proj = preprocessing.projection
    if proj is None:
        return X
    if X.shape[1] != proj.shape[1]:
        raise DimensionMismatchError(
            f"data has {X.shape[1]} columns; the model's projection takes "
            f"{proj.shape[1]} raw variables"
        )
    return (X - preprocessing.pca_mean) @ proj.T


def _quote(cell: str) -> str:
    """``cell`` as an RFC 4180 field: quoted, with doubled quotes, only
    when it holds a comma, a quote or a line break."""
    if any(c in cell for c in ',"\r\n'):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _write_table(path, header, rows):
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def cmd_fit(args) -> int:
    if args.rank < 1:
        raise ValueError("usage: --rank must be a positive integer")
    report_path = args.report or args.output + ".report.json"
    if os.path.realpath(report_path) == os.path.realpath(args.output):
        raise ValueError("usage: --report and --output name the same file")
    dataset = load_contexts(args.input)
    preprocessing = Preprocessing()
    if args.pca_components is not None:
        dataset, projection, mean = global_pca_reduce(dataset, args.pca_components)
        preprocessing = Preprocessing(projection=projection, pca_mean=mean)
    tensor = build_tensor(dataset)
    cfg = FitConfig(
        seed=args.seed,
        restarts_per_component=args.restarts,
        tol=args.tol,
        max_iter=args.max_iter,
    )
    model, report = fit_mcpca(tensor, args.rank, cfg)
    save_model(args.output, model, preprocessing)
    save_report(report_path, report)
    print(f"wrote {args.output} and {report_path}")
    return 0


def cmd_select_rank(args) -> int:
    candidates = [int(c) for c in args.candidates.split(",") if c.strip()]
    if not candidates:
        raise ValueError("usage: --candidates must list at least one rank")
    tensor = build_tensor(load_contexts(args.input))
    report = select_rank(
        tensor,
        candidates,
        threshold=args.threshold,
        n_seed_pairs=args.n_seed_pairs,
        cfg=FitConfig(seed=args.seed),
    )
    with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(dataclasses.asdict(report), indent=2) + "\n")
    print(f"chosen rank: {report.chosen}")
    return 0


def cmd_score(args) -> int:
    model, preprocessing = load_model(args.model)
    X = load_matrix(args.data)
    X = _apply_stored_projection(X, preprocessing)
    scores = score_samples(model, X)
    header = [f"mcpc{j + 1}" for j in range(model.r)]
    rows = [[repr(float(v)) for v in row] for row in scores]
    _write_table(args.output, header, rows)
    print(f"wrote {args.output} ({scores.shape[0]} rows)")
    return 0


def cmd_diag(args) -> int:
    model, preprocessing = load_model(args.model)
    dataset = load_contexts(args.input)
    unknown = set(dataset.context_ids).symmetric_difference(model.context_ids)
    if unknown:
        cid = min(unknown)
        side = "data" if cid in model.context_ids else "model"
        raise DataFormatError(f"context {cid!r} is not in the {side}")
    samples = dict(dataset.contexts)
    # In the model's order; a model file that repeats an id fails here.
    contexts = tuple(
        (cid, _apply_stored_projection(samples[cid], preprocessing))
        for cid in model.context_ids
    )
    tensor = build_tensor(ContextDataset(contexts))
    diag = compute_diagnostics(tensor, model)
    _, per_context = reconstruction_error(tensor, model)
    header = [
        "context",
        "reconstruction_error",
        "explained_ratio",
        "uncorrelatedness",
        "kl_loss",
        "kl_status",
    ]
    rows = []
    for i, cid in enumerate(model.context_ids):
        kl = diag.kl_loss[i]
        rows.append(
            [
                _quote(cid),
                repr(float(per_context[i])),
                repr(float(diag.explained_ratio[i])),
                repr(float(diag.uncorrelatedness[i])),
                "" if kl is None else repr(float(kl)),
                "non-pd" if kl is None else "ok",
            ]
        )
    _write_table(args.output, header, rows)
    print(f"wrote {args.output}")
    return 0


def cmd_bench(args) -> int:
    methods = tuple(m.strip() for m in args.methods.split(",") if m.strip())
    if args.mode == "accuracy":
        cfg = BenchConfig(
            p=args.p,
            k=args.k,
            r=args.r,
            density=args.density,
            N=args.N,
            n_trials=args.trials,
            methods=methods,
            seed=args.seed,
            noiseless=args.noiseless,
            orthonormal=args.orthonormal,
        )
        records = run_accuracy_trials(cfg)
    else:
        if args.noiseless:
            raise ValueError("usage: --noiseless applies to --mode accuracy only")
        grid = tuple(int(n) for n in args.N_grid.split(",") if n.strip())
        cfg = SweepConfig(
            p=args.p,
            k=args.k,
            r=args.r,
            density=args.density,
            N_grid=grid,
            methods=methods,
            seed=args.seed,
            orthonormal=args.orthonormal,
        )
        records = run_sample_sweep(cfg)
    write_records(args.output, records)
    print(f"wrote {args.output} ({len(records)} records)")
    return 0


_INPUT_HELP = "a directory of per-context files, or a long-table file"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mcpca",
        description=(
            "Decompose per-context covariance matrices into shared components "
            "and non-negative context loadings."
        ),
    )
    parser.add_argument("--version", action="version", version=f"mcpca {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)
    defaults = FitConfig()

    fit = commands.add_parser("fit", help="fit a model and write model/report files")
    fit.add_argument("--input", required=True, help=_INPUT_HELP)
    fit.add_argument("--rank", type=int, required=True)
    fit.add_argument("--seed", type=int, default=defaults.seed)
    fit.add_argument("--restarts", type=int, default=defaults.restarts_per_component)
    fit.add_argument("--tol", type=float, default=defaults.tol)
    fit.add_argument("--max-iter", type=int, default=defaults.max_iter)
    fit.add_argument(
        "--pca-components",
        type=int,
        default=None,
        help="reduce to this many pooled principal components first",
    )
    fit.add_argument("--output", required=True, help="model file to write")
    fit.add_argument("--report", default=None, help="report file (default: <output>.report.json)")
    fit.set_defaults(func=cmd_fit)

    select = commands.add_parser("select-rank", help="stability-based rank selection")
    select.add_argument("--input", required=True, help=_INPUT_HELP)
    select.add_argument("--candidates", required=True, help="comma-separated ranks")
    select.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD)
    select.add_argument("--n-seed-pairs", type=int, default=DEFAULT_SEED_PAIRS)
    select.add_argument("--seed", type=int, default=defaults.seed)
    select.add_argument("--output", required=True)
    select.set_defaults(func=cmd_select_rank)

    score = commands.add_parser("score", help="project samples onto the components")
    score.add_argument("--model", required=True)
    score.add_argument("--data", required=True, help="delimited sample matrix")
    score.add_argument("--output", required=True)
    score.set_defaults(func=cmd_score)

    diag = commands.add_parser("diag", help="per-context diagnostics table")
    diag.add_argument("--model", required=True)
    diag.add_argument("--input", required=True, help=_INPUT_HELP)
    diag.add_argument("--output", required=True)
    diag.set_defaults(func=cmd_diag)

    bench = commands.add_parser("bench", help="synthetic accuracy/runtime benchmarks")
    # Both modes share the shape, methods and seed defaults (a test pins it).
    accuracy, sweep = BenchConfig(), SweepConfig()
    bench.add_argument("--mode", choices=["accuracy", "sweep"], default="accuracy")
    bench.add_argument("--p", type=int, default=accuracy.p)
    bench.add_argument("--k", type=int, default=accuracy.k)
    bench.add_argument("--r", type=int, default=accuracy.r)
    bench.add_argument("--density", type=float, default=accuracy.density)
    bench.add_argument("--N", type=int, default=accuracy.N)
    bench.add_argument(
        "--N-grid",
        default=",".join(map(str, sweep.N_grid)),
        help="comma-separated sample sizes for sweep mode",
    )
    bench.add_argument("--trials", type=int, default=accuracy.n_trials)
    bench.add_argument("--methods", default=",".join(accuracy.methods))
    bench.add_argument("--seed", type=int, default=accuracy.seed)
    bench.add_argument("--noiseless", action="store_true")
    bench.add_argument("--orthonormal", action="store_true")
    bench.add_argument("--output", required=True)
    bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
