"""Model drift: the fits of a base revision against those of the work tree.

usage: python .github/model_drift.py BASE

Writes fixed inputs once, with the work tree's generators: sampled
tensors at the desk shape (p=100, k=50, r=60) and at the rank-selection
shape (p=100, k=50, r=12), at two seeds each, and at the large shape
(p=200, k=100, r=80) and a planted-rank-30 shape (p=100, k=50, r=30)
at one.  The sampled tensors have the model's rank exactly, so two more
inputs add full-rank noise: per context, the sample covariance of
isotropic Gaussian rows (drawn from their own seed stream), whose share
of ||T|| the generating child prints.  One is the seed-101 desk tensor
with noise of standard deviation 0.3, one the seed-101 rank-selection
tensor with noise of the same standard deviation, and one a p=400,
k=50, r=40 tensor with noise of standard deviation 0.035, about 1% of
||T||.  Then
fits every input in one child process per tree, the package imported
from that tree's ``src/``: the base revision is checked out in a
temporary ``git worktree``.  Each input is fitted at its ranks: the
model's own, except the rank-30 tensor, which is fitted at ranks 20 and
25, below the flattening's rank, where discovery's path picks the
basin.  The rank-selection tensors, noisy or not, go through
``select_rank`` over ranks 4, 8, 12 and 16, and the rank-30 tensor over
ranks 20, 25 and 30, whose candidates fit in lockstep above the
discovery window's gate.  Rank selection refines its fits only until
their power steps place them within ``tol`` of their fixed points, so
its stabilities move in low digits when refinement changes; the noisy
rank-selection tensor's rows converge slowest, so it moves most.
The seed-101 desk tensor is also fitted with two restarts per component,
the one fit that takes the restart path.

Prints, per fit, the largest |dA| and |dB| between the trees (columns
matched by their largest |cos|), whether the ``converged`` flags and the
column order are equal (and, for the restart fit, ``restarts_used``),
and, per ``select_rank`` run, whether the two reports are equal.
Drift is reported, never judged: the exit status is non-zero only when
a child process fails.  The BLAS thread count is inherited, so pin it
for bits that repeat.
"""

import json
import os
import subprocess
import sys
import tempfile

import numpy as np

# (name, p, k, r, samples per context, noise standard deviation, seeds,
# ranks fitted, select_rank candidates); density 0.2 for every model.
INPUTS = (
    ("desk", 100, 50, 60, 1000, 0.0, (101, 102), (60,), ()),
    ("desk-noise", 100, 50, 60, 1000, 0.3, (101,), (60,), ()),
    ("select-rank", 100, 50, 12, 1000, 0.0, (101, 102), (12,), (4, 8, 12, 16)),
    ("select-rank-noise", 100, 50, 12, 1000, 0.3, (101,), (12,), (4, 8, 12, 16)),
    ("large", 200, 100, 80, 1000, 0.0, (101,), (80,), ()),
    ("rank-30", 100, 50, 30, 1000, 0.0, (101,), (20, 25), (20, 25, 30)),
    ("p400-noise", 400, 50, 40, 1000, 0.035, (101,), (40,), ()),
)
# (input, rank, restarts per component) of the fit with more than one restart.
RESTART_FIT = ("desk-101", 60, 2)


def generate(work):
    """Child: write every input tensor's slices to ``work``."""
    from mcpca import build_tensor, generate_planted, sample_dataset

    for name, p, k, r, n, sd, seeds, _, _ in INPUTS:
        for seed in seeds:
            pm = generate_planted(p, k, r, 0.2, seed=seed)
            slices = build_tensor(sample_dataset(pm, n, seed=seed + 1000)).slices
            if sd:
                rng = np.random.default_rng(seed + 2000)
                noise = np.empty_like(slices)
                for i in range(k):
                    z = sd * rng.standard_normal((n, p))
                    noise[i] = z.T @ z / n
                share = np.linalg.norm(noise) / np.linalg.norm(slices)
                print(f"{name}-{seed}: the noise is {share:.1%} of ||T||")
                slices = slices + noise
            np.save(os.path.join(work, f"{name}-{seed}.npy"), slices)


def fit(work, out):
    """Child: fit every input with the package on ``sys.path`` and write
    the models to ``out``.npz and the rank-selection reports to
    ``out``.json."""
    from dataclasses import asdict

    from mcpca import CovarianceTensor, FitConfig, fit_mcpca, select_rank

    models, reports = {}, {}
    for name, _, _, _, _, _, seeds, ranks, candidates in INPUTS:
        for seed in seeds:
            key = f"{name}-{seed}"
            t = CovarianceTensor(np.load(os.path.join(work, f"{key}.npy")))
            for r in ranks:
                model, _ = fit_mcpca(t, r, FitConfig(seed=seed))
                models[f"{key}-r{r}-A"], models[f"{key}-r{r}-B"] = model.A, model.B
                models[f"{key}-r{r}-converged"] = np.array(model.converged)
            if candidates:
                reports[key] = asdict(select_rank(t, candidates, cfg=FitConfig(seed=seed)))
    key, r, restarts = RESTART_FIT
    t = CovarianceTensor(np.load(os.path.join(work, f"{key}.npy")))
    model, report = fit_mcpca(t, r, FitConfig(seed=101, restarts_per_component=restarts))
    key = f"{key}-r{r}-restarts-{restarts}"
    models[f"{key}-A"], models[f"{key}-B"] = model.A, model.B
    models[f"{key}-converged"] = np.array(model.converged)
    models[f"{key}-restarts_used"] = np.array(report.restarts_used)
    np.savez(out + ".npz", **models)
    with open(out + ".json", "w", encoding="utf-8") as fh:
        json.dump(reports, fh)


def child(mode, tree, *args):
    """Run this script in ``mode`` with ``tree``'s package; True if it exited 0."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), mode, *args], env=env)
    if proc.returncode:
        print(f"model drift: the {mode} child for {tree} exited {proc.returncode}")
    return proc.returncode == 0


def drift(base, head, key, fields=("converged",)):
    """One line: the drift of the fit ``key``, and whether each per-column
    array of ``fields`` and the column order are equal."""
    A0, A1 = base[f"{key}-A"], head[f"{key}-A"]
    order = np.argmax(np.abs(A0.T @ A1), axis=1)
    signs = np.sign(np.sum(A0 * A1[:, order], axis=0))
    dA = np.abs(A1[:, order] * signs - A0).max()
    dB = np.abs(head[f"{key}-B"][:, order] - base[f"{key}-B"]).max()
    equal = [np.array_equal(head[f"{key}-{x}"][order], base[f"{key}-{x}"]) for x in fields]
    equal.append(np.array_equal(order, np.arange(A0.shape[1])))
    same = ", ".join(
        f"{x} {'equal' if eq else 'DIFFERENT'}" for x, eq in zip((*fields, "column order"), equal)
    )
    return f"{key}: max |dA| {dA:.3g}, max |dB| {dB:.3g}, {same}"


def compare(base_out, head_out):
    base, head = np.load(base_out + ".npz"), np.load(head_out + ".npz")
    for name, _, _, _, _, _, seeds, ranks, _ in INPUTS:
        for seed in seeds:
            for r in ranks:
                print(drift(base, head, f"{name}-{seed}-r{r}"))
    key, r, restarts = RESTART_FIT
    print(drift(base, head, f"{key}-r{r}-restarts-{restarts}", ("converged", "restarts_used")))
    reports = []
    for out in (base_out, head_out):
        with open(out + ".json", encoding="utf-8") as fh:
            reports.append(json.load(fh))
    for key, report in reports[0].items():
        other = reports[1][key]
        if report == other:
            print(f"{key} select_rank report: equal")
        else:
            diff = max(abs(x - y) for x, y in zip(report["stability"], other["stability"]))
            print(
                f"{key} select_rank report: DIFFERENT (chosen {report['chosen']} -> "
                f"{other['chosen']}, largest stability change {diff:.3g})"
            )


def main(base):
    root = subprocess.run(["git", "rev-parse", "--show-toplevel"], capture_output=True,
                          text=True, check=True).stdout.strip()
    with tempfile.TemporaryDirectory() as work:
        tree = os.path.join(work, "base")
        subprocess.run(["git", "-C", root, "worktree", "add", "--quiet", "--detach", tree, base],
                       check=True)
        try:
            ok = child("generate", root, work)
            outs = [os.path.join(work, "base-fits"), os.path.join(work, "head-fits")]
            ok = ok and child("fit", tree, work, outs[0]) and child("fit", root, work, outs[1])
            if ok:
                print(f"model drift, {base} -> work tree:")
                compare(*outs)
        finally:
            subprocess.run(["git", "-C", root, "worktree", "remove", "--force", tree], check=True)
    return 0 if ok else 1


if __name__ == "__main__":
    if sys.argv[1:2] == ["generate"]:
        generate(sys.argv[2])
    elif sys.argv[1:2] == ["fit"]:
        fit(*sys.argv[2:4])
    elif len(sys.argv) == 2:
        sys.exit(main(sys.argv[1]))
    else:
        sys.exit(__doc__)
