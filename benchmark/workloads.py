"""The benchmark's workloads: inputs made from a seed, timed user-facing
calls, and the checks that make a run fail when an output is wrong.

A workload has three parts.  ``prepare`` makes the inputs (timed as
``gen_s``, the benchmark's cost, not the program's).  ``unit`` makes one
repetition of the user-facing calls, each timed by ``Bench.timed``, checks
their outputs and returns the repetition's value for ``wall_s``.  ``finish``
runs the checks that span repetitions.  Every shape lives in ``SHAPES`` so
the smoke tests can run the same code on tiny inputs.
"""

from __future__ import annotations

import io
import os

import numpy as np

from mcpca import decompose, model_select
from mcpca.decompose import FitConfig
from mcpca.ingest import build_tensor
from mcpca.model_io import load_model, serialize_model
from mcpca.model_select import ascore
from mcpca.synth_bench import generate_planted, read_records, sample_dataset
from mcpca.tensor_core import tensor_from_factors

SHAPES = {
    "cli-ingest": {"p": 100, "k": 50, "r": 8, "N": 1000, "score_contexts": 10},
    "fit-desk": {"p": 100, "k": 50, "r": 60, "N": 1000, "small": (20, 10, 8, 0.5)},
    "select-rank": {"p": 100, "k": 50, "r": 12, "N": 1000, "candidates": (4, 8, 12, 16)},
    "bench-trials": {"p": 40, "k": 20, "r": 20, "trials": 8},
}
DENSITY = 0.2

# Seed-stream tags, so the model, the samples and each bench call draw
# from unrelated generators.
_MODEL, _DATA, _SMALL, _BENCH = 1, 2, 3, 4


def derive(seed: int, *tags: int) -> int:
    return int(np.random.SeedSequence([seed, *tags]).generate_state(1)[0])


def _planted_data(seed, shape):
    pm = generate_planted(shape["p"], shape["k"], shape["r"], DENSITY, seed=derive(seed, _MODEL))
    return pm, sample_dataset(pm, shape["N"], seed=derive(seed, _DATA))


def _format_rows(x) -> str:
    buf = io.StringIO()
    np.savetxt(buf, x, fmt="%.17g", delimiter=",")
    return buf.getvalue()


def _read_table(path):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


class Workload:
    name = ""
    min_reps = 1

    def finish(self, bench, state):
        """Checks that span the repetitions of a run."""


class CliIngest(Workload):
    """``mcpca fit`` on a directory of CSVs, then ``score`` and ``diag``."""

    name = "cli-ingest"

    def prepare(self, bench, shape):
        pm, ds = _planted_data(bench.seed, shape)
        work = bench.work
        ctx_dir = os.path.join(work, "contexts")
        os.makedirs(ctx_dir)
        long_path = os.path.join(work, "long.csv")
        with open(long_path, "w", encoding="utf-8") as long_fh:
            for cid, x in ds.contexts:
                text = _format_rows(x)
                with open(os.path.join(ctx_dir, f"{cid}.csv"), "w", encoding="utf-8") as fh:
                    fh.write(text)
                long_fh.writelines(f"{cid},{line}\n" for line in text.splitlines())
        score_x = np.vstack([x for _, x in ds.contexts[: shape["score_contexts"]]])
        score_path = os.path.join(work, "score.csv")
        with open(score_path, "w", encoding="utf-8") as fh:
            fh.write(_format_rows(score_x))
        return {
            "shape": shape,
            "planted": pm,
            "dataset": ds,
            "dir": ctx_dir,
            "long": long_path,
            "score": score_path,
            "score_x": score_x,
        }

    def reference(self, bench, state):
        """Library fit of the in-memory data: the CLI must match it bit for bit."""
        if "ref" not in state:
            with bench.tally.call("reference fit_mcpca"):
                t = build_tensor(state["dataset"])
                state["ref"], _ = decompose.fit_mcpca(t, state["shape"]["r"], FitConfig(seed=bench.seed))
        return state.get("ref")

    def unit(self, bench, state, rep):
        shape = state["shape"]
        ref = self.reference(bench, state)
        model_path = os.path.join(bench.work, f"model{rep}.json")
        scores_path = os.path.join(bench.work, f"scores{rep}.csv")
        diag_path = os.path.join(bench.work, f"diag{rep}.csv")
        wall = 0.0

        with bench.tally.call("mcpca fit") as problems:
            fit_argv = ["fit", "--input", state["dir"], "--rank", str(shape["r"]),
                        "--seed", str(bench.seed), "--output", model_path]
            with bench.timed("fit_s") as t:
                bench.cli(fit_argv, problems)
            wall += t.seconds
            if not problems:
                with open(model_path, encoding="utf-8") as fh:
                    text = fh.read()
                model, pre = load_model(model_path)
                if not (np.array_equal(model.A, ref.A) and np.array_equal(model.B, ref.B)):
                    problems.append("A or B differs from the library fit of the same data")
                if serialize_model(model, pre) != text:
                    problems.append("save -> load -> serialize is not byte-identical")
                bench.ascores.append(ascore(state["planted"].A_true, model.A).ascore)

        with bench.tally.call("mcpca score") as problems:
            score_argv = ["score", "--model", model_path, "--data", state["score"],
                          "--output", scores_path]
            with bench.timed("score_s") as t:
                bench.cli(score_argv, problems)
            wall += t.seconds
            if not problems:
                header, rows = _read_table(scores_path)
                got = np.array(rows, dtype=float)
                want = state["score_x"] @ np.linalg.pinv(ref.A).T
                if len(header) != shape["r"] or got.shape != want.shape:
                    problems.append(f"score table is {got.shape}, expected {want.shape}")
                elif np.abs(got - want).max() > 1e-8 * np.abs(want).max():
                    problems.append("scores differ from X @ pinv(A).T")

        with bench.tally.call("mcpca diag") as problems:
            diag_argv = ["diag", "--model", model_path, "--input", state["long"],
                         "--output", diag_path]
            with bench.timed("diag_s") as t:
                bench.cli(diag_argv, problems)
            wall += t.seconds
            if not problems:
                _, rows = _read_table(diag_path)
                ids = [row[0] for row in rows]
                if ids != list(state["dataset"].context_ids):
                    problems.append(f"diag table has {len(rows)} rows, expected {shape['k']} in context order")
        return wall


class FitDesk(Workload):
    """``fit_mcpca`` on the sampled desk tensor, built before timing."""

    name = "fit-desk"
    min_reps = 2

    def prepare(self, bench, shape):
        pm, ds = _planted_data(bench.seed, shape)
        return {"shape": shape, "planted": pm, "tensor": build_tensor(ds), "models": []}

    def unit(self, bench, state, rep):
        with bench.tally.call("fit_mcpca desk") as problems:
            with bench.timed("fit_s") as t:
                model, _ = decompose.fit_mcpca(state["tensor"], state["shape"]["r"], FitConfig(seed=bench.seed))
            if not (np.all(np.isfinite(model.A)) and np.all(np.isfinite(model.B))):
                problems.append("model has non-finite entries")
            if state["models"]:
                first = state["models"][0]
                if not (np.array_equal(model.A, first.A) and np.array_equal(model.B, first.B)):
                    problems.append("model differs from the first repeat of the same fit")
            else:
                bench.ascores.append(ascore(state["planted"].A_true, model.A).ascore)
            state["models"].append(model)
        return t.seconds

    def finish(self, bench, state):
        """Noiseless exact recovery at the small shape, as acceptance criterion 1."""
        p, k, r, density = state["shape"]["small"]
        pm = _identifiable(p, k, r, density, derive(bench.seed, _SMALL))
        with bench.tally.call("fit_mcpca noiseless") as problems:
            model, _ = decompose.fit_mcpca(tensor_from_factors(pm.A_true, pm.B_true), r, FitConfig(seed=bench.seed))
            match = ascore(pm.A_true, model.A)
            b_err = float(np.abs(model.B[:, match.permutation] - pm.B_true).max())
            if match.ascore < 0.999 or b_err > 1e-6:
                problems.append(f"noiseless recovery: ascore {match.ascore:.6f}, max |dB| {b_err:.2e}")


def _identifiable(p, k, r, density, seed):
    """First planted draw at or after ``seed`` whose loading columns are
    nonzero and pairwise |cos| < 0.98: the input class of acceptance
    criterion 1, where exact recovery is defined."""
    while True:
        pm = generate_planted(p, k, r, density, seed=seed)
        norms = np.linalg.norm(pm.B_true, axis=0)
        if norms.min() > 1e-9:
            unit = pm.B_true / norms
            if np.abs(unit.T @ unit - np.eye(r)).max() < 0.98:
                return pm
        seed += 1


class SelectRank(Workload):
    """``select_rank`` over candidates around the planted rank."""

    name = "select-rank"

    def prepare(self, bench, shape):
        _, ds = _planted_data(bench.seed, shape)
        return {"shape": shape, "tensor": build_tensor(ds), "reports": []}

    def unit(self, bench, state, rep):
        shape = state["shape"]
        with bench.tally.call("select_rank") as problems:
            with bench.timed("select_rank_s") as t:
                report = model_select.select_rank(state["tensor"], list(shape["candidates"]), n_seed_pairs=5)
            if report.chosen != shape["r"]:
                problems.append(f"chosen rank {report.chosen}, expected {shape['r']}")
            if report.stability[-1] != 0.0:
                problems.append(f"candidate {shape['candidates'][-1]} above the data rank scored {report.stability[-1]}")
            if state["reports"] and report != state["reports"][0]:
                problems.append("report differs from the first repeat")
            if report.chosen is not None and not state["reports"]:
                bench.ascores.append(report.stability[report.candidates.index(report.chosen)])
            state["reports"].append(report)
        return t.seconds


class BenchTrials(Workload):
    """``mcpca bench`` accuracy trials with every method."""

    name = "bench-trials"
    methods = ("mcpca", "pca_stack", "jennrich")

    def prepare(self, bench, shape):
        return {"shape": shape}

    def unit(self, bench, state, rep):
        shape = state["shape"]
        out = os.path.join(bench.work, f"records{rep}.csv")
        argv = ["bench", "--mode", "accuracy", "--p", str(shape["p"]), "--k", str(shape["k"]),
                "--r", str(shape["r"]), "--trials", str(shape["trials"]),
                "--methods", ",".join(self.methods), "--seed", str(derive(bench.seed, _BENCH, rep)),
                "--output", out]
        fitted = 0
        with bench.tally.call("mcpca bench") as problems:
            with bench.timed("bench_s") as t:
                bench.cli(argv, problems)
            if not problems:
                records = read_records(out)
                expected = [(trial, m) for trial in range(shape["trials"]) for m in self.methods]
                if [(rec.trial, rec.method) for rec in records] != expected:
                    problems.append(f"{len(records)} records, expected trials x methods = {len(expected)}")
                shapes = {(rec.p, rec.k, rec.r) for rec in records}
                if shapes != {(shape["p"], shape["k"], shape["r"])}:
                    problems.append(f"records carry shapes {sorted(shapes)}")
                mcpca_scores = [rec.ascore for rec in records if rec.method == "mcpca"]
                bench.ascores.extend(mcpca_scores)
                # A trial whose planted loadings have an all-zero column is
                # rank deficient: its fit fails at once and records Ascore 0.
                fitted = sum(score > 0.0 for score in mcpca_scores)
        # Seconds per fitted trial: the share of such draws varies with the
        # seed, and a failed fit costs next to nothing.
        return t.seconds / max(fitted, 1)


WORKLOADS = {w.name: w for w in (CliIngest(), FitDesk(), SelectRank(), BenchTrials())}
