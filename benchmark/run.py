"""Benchmark of the mcpca package, run from the root of a checkout.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmark/run.py --workload all --seed N --seconds S

One run makes its inputs from ``--seed``, repeats the workload's
user-facing calls for about ``--seconds`` seconds, checks every output and
prints, as its last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The lines before it describe the
machine, the seed and every timing.  ``--workload all`` runs each workload
in a fresh process and prints one row per workload.

The program runs as shipped from ``src/`` with BLAS and OpenMP pinned to one
thread.  Scratch files go to ``.bench_work/`` and traces to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path

import tracer as tracing

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# Pinned before numpy is imported; children inherit the environment.
for _var in THREAD_VARS:
    os.environ[_var] = "1"
os.environ.pop("MCPCA_THREADS", None)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
SELF_SUM_RTOL = 0.01

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ascore", "ratio"),
    ("success_rate", "ratio"),
)


class Timer:
    seconds = 0.0


class Tally:
    """Calls into the program, and those that raised, exited non-zero or
    failed an output check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    @contextmanager
    def call(self, what):
        self.attempted += 1
        problems: list[str] = []
        try:
            yield problems
        except Exception as exc:
            problems.append(f"raised {type(exc).__name__}: {exc}")
            raise
        finally:
            if problems:
                self.failed += 1
                self.failures.append(f"{what}: {'; '.join(problems)}")


class Bench:
    """What a workload needs: seed, scratch directory, timers, the CLI and,
    in a traced repetition, the tracer."""

    def __init__(self, seed: int, work: str):
        self.seed = seed
        self.work = work
        self.tally = Tally()
        self.stages: dict[str, list[float]] = defaultdict(list)
        self.ascores: list[float] = []
        self.child_rss_mb: list[float] = []
        self.tracer = None
        self._children = 0
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        )

    @contextmanager
    def timed(self, stage: str):
        timer = Timer()
        span = self.tracer.span(f"bench.{stage}") if self.tracer else nullcontext()
        with span:
            start = time.perf_counter()
            try:
                yield timer
            finally:
                timer.seconds = time.perf_counter() - start
        self.stages[stage].append(timer.seconds)

    def cli(self, argv: list[str], problems: list[str]) -> None:
        """Run ``mcpca`` in a fresh interpreter; a non-zero exit is a problem."""
        if self.tracer is None:
            self._spawn([sys.executable, "-m", "mcpca.cli", *argv], problems)
            return
        self._children += 1
        spans = os.path.join(self.work, f"spans{self._children}.json")
        with self.tracer.span("cli.process") as parent:
            cmd = [sys.executable, str(BENCH_DIR / "traced_cli.py"), spans,
                   self.tracer.run_id, parent, *argv]
            self._spawn(cmd, problems)
        if os.path.exists(spans):
            self.tracer.merge(spans)

    def _spawn(self, cmd, problems):
        """Run ``cmd`` to completion and record the child's own peak RSS."""
        with open(os.path.join(self.work, "stderr.txt"), "w+", encoding="utf-8") as err:
            proc = subprocess.Popen(cmd, env=self.env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            tail = err.read().strip().splitlines()[-1:] or [""]
        self.child_rss_mb.append(usage.ru_maxrss / 1024.0)
        if proc.returncode != 0:
            problems.append(f"exit {proc.returncode}: {tail[0]}")


def environment(seed: int) -> dict:
    import numpy
    import scipy

    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the layout of the build report differs across numpy versions
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in (*THREAD_VARS, "MCPCA_THREADS")},
        "seed": seed,
    }


def setup_seconds(env) -> list[float]:
    """Fresh-interpreter ``import mcpca.cli``, which every CLI call pays."""
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import mcpca.cli"], env=env, cwd=ROOT, check=True)
        samples.append(time.perf_counter() - start)
    return samples


def peak_rss_mb(bench) -> float:
    """Peak RSS of the process that ran the repetition's calls: the largest
    CLI child, or this process for library calls."""
    if bench.child_rss_mb:
        return max(bench.child_rss_mb)
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def traced_unit(workload, bench, state, out_dir):
    """One untraced and one traced repetition of the same inputs."""
    untraced = workload.unit(bench, state, 0)
    tracer = tracing.Tracer(run_id=f"{workload.name}-{bench.seed}-{os.getpid()}")
    tracing.install(tracer)
    bench.tracer = tracer
    try:
        traced = workload.unit(bench, state, 0)
    finally:
        tracer.uninstall()
        bench.tracer = None
    tracer.dump(out_dir / f"trace-{workload.name}-seed{bench.seed}.json")
    values = tracing.layer_metrics(tracer.spans, tracer.counts)
    wall = sum(s["end"] - s["start"] for s in tracer.spans if s["parent"] is None)
    self_sum = sum(tracing.self_times(tracer.spans).values())
    values.update({
        "trace.wall_s": wall,
        "trace.untraced_wall_s": untraced_wall(bench),
        "trace.overhead": wall / untraced_wall(bench),
        "trace.spans": len(tracer.spans),
    })
    harness = []
    if abs(self_sum - wall) > SELF_SUM_RTOL * wall:
        harness.append(f"self times sum to {self_sum:.6f} s, wall is {wall:.6f} s")
    return values, harness, {"self_sum_s": self_sum, "unit_values": [untraced, traced]}


def untraced_wall(bench) -> float:
    """User-facing seconds of the first repetition (the untraced one)."""
    return sum(samples[0] for samples in bench.stages.values())


def run_one(args) -> int:
    from workloads import SHAPES, WORKLOADS

    workload = WORKLOADS[args.workload]
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(args.seed, str(work))
    info = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
            "env": environment(args.seed)}
    harness: list[str] = []
    walls: list[float] = []
    metrics: dict[str, float] = {}
    try:
        setup = setup_seconds(bench.env)
        info["setup_s"] = setup
        start = time.perf_counter()
        state = workload.prepare(bench, SHAPES[args.workload])
        info["gen_s"] = time.perf_counter() - start
        if args.trace:
            metrics, harness, info["trace_check"] = traced_unit(workload, bench, state, out_dir)
        else:
            spent = 0.0
            rss = []
            while True:
                start = time.perf_counter()
                bench.child_rss_mb = []
                walls.append(workload.unit(bench, state, len(walls)))
                rss.append(peak_rss_mb(bench))
                last = time.perf_counter() - start
                spent += last
                if len(walls) >= workload.min_reps and spent + last > args.seconds:
                    break
            metrics = {
                "wall_s": statistics.median(walls),
                "setup_s": statistics.median(setup),
                "peak_rss_mb": statistics.median(rss),
                "ascore": statistics.median(bench.ascores) if bench.ascores else 0.0,
            }
        workload.finish(bench, state)
    except Exception as exc:  # a raising call ends the run; the tally already counts it
        harness.append(f"run aborted: {type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    tally = bench.tally
    attempted = max(tally.attempted, 1)
    if not args.trace:
        metrics["success_rate"] = 1.0 - tally.failed / attempted
    info.update({
        "walls": walls,
        "stages": dict(bench.stages),
        "stage_medians": {k: statistics.median(v) for k, v in bench.stages.items()},
        "error_rate": tally.failed / attempted,
        "failures": tally.failures,
        "harness_errors": harness,
    })
    correct = tally.failed == 0 and not harness and tally.attempted > 0
    units = dict(END_TO_END) if not args.trace else {n: u for n, u, _ in tracing.PER_LAYER}
    print("info " + json.dumps(info))
    for name, value in metrics.items():
        print(f"{name:40s} {value:14.6f} {units[name]}")
    for problem in tally.failures + harness:
        print(f"FAILED {problem}", file=sys.stderr)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }
    print(json.dumps(result))
    return 0 if correct else 1


# The nine user-facing numbers of the summary table, and where each lives.
SUMMARY = ("setup_s", "fit_s", "score_s", "diag_s", "select_rank_s", "bench_s",
           "peak_rss_mb", "ascore", "error_rate")


def run_all(args) -> int:
    """Each workload in a fresh process; one summary row per workload."""
    from workloads import WORKLOADS

    rows = []
    ok = True
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        info = next((json.loads(ln[5:]) for ln in lines if ln.startswith("info ")), {})
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
        ok = ok and proc.returncode == 0 and result.get("correct", False)
        values = {k: v["value"] for k, v in result.get("metrics", {}).items()}
        values.update(info.get("stage_medians", {}))
        values["setup_s"] = statistics.median(info["setup_s"]) if "setup_s" in info else None
        values["error_rate"] = info.get("error_rate")
        rows.append((name, values))
        sys.stderr.write(proc.stderr)
    units = {"peak_rss_mb": "MB", "ascore": "ratio", "error_rate": "ratio"}
    print(f"{'workload':14s}" + "".join(f"{m + ' [' + units.get(m, 's') + ']':>20s}" for m in SUMMARY))
    for name, values in rows:
        cells = ("-" if values.get(m) is None else f"{values[m]:.4f}" for m in SUMMARY)
        print(f"{name:14s}" + "".join(f"{c:>20s}" for c in cells))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "mcpca" / "__init__.py").is_file():
        print(f"error: {SRC / 'mcpca'} not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import mcpca
    from workloads import WORKLOADS

    if Path(mcpca.__file__).resolve().parent != (SRC / "mcpca").resolve():
        print(f"error: imported mcpca from {mcpca.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)} or all",
              file=sys.stderr)
        return 2
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
