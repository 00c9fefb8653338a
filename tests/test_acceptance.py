"""Acceptance suite: one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they complete.  Criteria and tolerances are pinned here; nothing is
deferred to later calibration.
"""

import dataclasses
import json
import time

import numpy as np
import pytest

from helpers import (
    duplicated_column_model,
    exact_sample_matrix,
    generate_identifiable,
)

from mcpca import (
    BenchConfig,
    ContextDataset,
    CovarianceTensor,
    FitConfig,
    SweepConfig,
    ascore,
    fit_mcpca,
    global_pca_reduce,
    jennrich,
    kl_loss,
    load_model,
    model_dimension,
    pca_stack,
    run_accuracy_trials,
    run_sample_sweep,
    sample_dataset,
    select_rank,
    stability_score,
    tensor_from_factors,
)
from mcpca import build_tensor, score_samples
from mcpca.cli import main
from mcpca.ingest import load_matrix
from mcpca.model_io import serialize_model


def _report(number, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} [{name}]: {status} ({detail})", flush=True)
    return ok


def _criterion_one_instances():
    ranks = [(3, 8, 15)[i % 3] for i in range(20)]
    return [
        generate_identifiable(20, 10, r, 0.5, seed=41000 + 257 * i)
        for i, r in enumerate(ranks)
    ]


def test_criterion_1_noiseless_exact_recovery():
    started = time.perf_counter()
    worst_ascore = 1.0
    worst_b_err = 0.0
    for pm in _criterion_one_instances():
        t = tensor_from_factors(pm.A_true, pm.B_true)
        model, _ = fit_mcpca(t, pm.r, FitConfig(seed=7))
        match = ascore(pm.A_true, model.A)
        worst_ascore = min(worst_ascore, match.ascore)
        b_err = np.abs(model.B[:, match.permutation] - pm.B_true).max()
        worst_b_err = max(worst_b_err, b_err)
    elapsed = time.perf_counter() - started
    ok = worst_ascore >= 0.999 and worst_b_err <= 1e-6 and elapsed < 10.0
    assert _report(
        1,
        "noiseless exact recovery",
        ok,
        f"worst ascore {worst_ascore:.6f}, worst |B err| {worst_b_err:.2e}, "
        f"{elapsed:.1f}s over 20 models",
    )


def test_criterion_2_oracle_equivalence():
    worst_vs_planted = 1.0
    worst_vs_each_other = 1.0
    for pm in _criterion_one_instances():
        t = tensor_from_factors(pm.A_true, pm.B_true)
        model, _ = fit_mcpca(t, pm.r, FitConfig(seed=7))
        oracle = jennrich(t, pm.r, seed=13)
        worst_vs_planted = min(
            worst_vs_planted,
            ascore(pm.A_true, model.A).ascore,
            ascore(pm.A_true, oracle.A).ascore,
        )
        worst_vs_each_other = min(
            worst_vs_each_other, ascore(oracle.A, model.A).ascore
        )
    ok = worst_vs_planted >= 0.999 and worst_vs_each_other >= 0.999
    assert _report(
        2,
        "oracle equivalence",
        ok,
        f"worst vs planted {worst_vs_planted:.6f}, "
        f"worst mcpca~jennrich {worst_vs_each_other:.6f}",
    )


def test_criterion_3_full_scale_synthetic_run():
    started = time.perf_counter()
    cfg = BenchConfig(
        p=100, k=50, r=60, density=0.2, N=1000, n_trials=5,
        methods=("mcpca", "pca_stack"), seed=2026,
    )
    records = run_accuracy_trials(cfg)
    elapsed = time.perf_counter() - started
    mcpca_scores = [r.ascore for r in records if r.method == "mcpca"]
    stack_scores = [r.ascore for r in records if r.method == "pca_stack"]
    median = float(np.median(mcpca_scores))
    ordering = all(a > b for a, b in zip(mcpca_scores, stack_scores))
    ok = median >= 0.95 and ordering and elapsed < 300.0
    assert _report(
        3,
        "full-scale synthetic run",
        ok,
        f"median mcpca {median:.4f}, pca_stack "
        f"{[round(s, 3) for s in stack_scores]}, ordering {ordering}, "
        f"{elapsed:.0f}s",
    )


def test_criterion_4_sample_complexity_trend():
    started = time.perf_counter()
    grid = (100, 1000, 10000)
    per_n = {n: [] for n in grid}
    for rep in range(5):
        cfg = SweepConfig(
            p=20, k=10, r=8, density=0.5, N_grid=grid,
            methods=("mcpca",), seed=300 + rep,
        )
        for rec in run_sample_sweep(cfg):
            per_n[rec.N].append(rec.ascore)
    medians = [float(np.median(per_n[n])) for n in grid]
    elapsed = time.perf_counter() - started
    nondecreasing = all(a <= b for a, b in zip(medians, medians[1:]))
    slope = float(
        np.polyfit(np.log(grid), np.log([1 - m for m in medians]), 1)[0]
    )
    ok = nondecreasing and slope <= -0.5 and elapsed < 180.0
    assert _report(
        4,
        "sample-complexity trend",
        ok,
        f"medians {[round(m, 5) for m in medians]}, slope {slope:.2f}, "
        f"{elapsed:.0f}s",
    )


def test_criterion_5_rank_selection():
    started = time.perf_counter()
    hits = 0
    for rep in range(10):
        pm = generate_identifiable(20, 10, 3, 0.5, seed=9000 + 17 * rep)
        t = tensor_from_factors(pm.A_true, pm.B_true)
        report = select_rank(
            t, [2, 3, 4, 5], threshold=0.8, n_seed_pairs=5,
            cfg=FitConfig(seed=rep),
        )
        hits += report.chosen == 3
    elapsed = time.perf_counter() - started
    ok = hits >= 9 and elapsed < 120.0
    assert _report(
        5, "rank selection", ok, f"chose 3 in {hits}/10, {elapsed:.0f}s"
    )


def test_criterion_6_invariant_suite():
    failures = []

    pm = generate_identifiable(12, 6, 4, 1.0, seed=600)
    t = tensor_from_factors(pm.A_true, pm.B_true)
    cfg = FitConfig(seed=3)
    model, report = fit_mcpca(t, 4, cfg)

    if not model.B.min() >= 0.0:
        failures.append("B non-negativity")
    if not np.abs(np.linalg.norm(model.A, axis=0) - 1.0).max() <= 1e-10:
        failures.append("unit columns")
    for trace in report.objective_trace:
        if np.any(np.diff(np.asarray(trace)) < -1e-9):
            failures.append("objective monotonicity")
            break

    model2, report2 = fit_mcpca(t, 4, cfg)
    if not (
        np.array_equal(model.A, model2.A)
        and np.array_equal(model.B, model2.B)
        and report.objective_trace == report2.objective_trace
    ):
        failures.append("determinism")

    # Sampled fit: non-negativity and monotonicity must also hold on
    # noisy input, where loadings do hit the constraint boundary.
    noisy = build_tensor(sample_dataset(pm, 300, seed=601))
    noisy_model, noisy_report = fit_mcpca(noisy, 4, cfg)
    if not noisy_model.B.min() >= 0.0:
        failures.append("B non-negativity (sampled)")
    for trace in noisy_report.objective_trace:
        if np.any(np.diff(np.asarray(trace)) < -1e-9):
            failures.append("objective monotonicity (sampled)")
            break

    c = 2.5
    scaled_model, _ = fit_mcpca(
        CovarianceTensor(c * t.slices, context_ids=t.context_ids), 4, cfg
    )
    match = ascore(model.A, scaled_model.A)
    if not (
        match.ascore >= 1 - 1e-8
        and np.allclose(
            scaled_model.B[:, match.permutation],
            c * model.B,
            rtol=1e-8,
            atol=1e-8 * c * model.B.max(),
        )
    ):
        failures.append("scaling equivariance")

    perm = np.array([4, 2, 0, 5, 1, 3])
    permuted_model, _ = fit_mcpca(CovarianceTensor(t.slices[perm]), 4, cfg)
    match = ascore(model.A, permuted_model.A)
    if not (
        match.ascore >= 1 - 1e-8
        and np.allclose(
            permuted_model.B[:, match.permutation], model.B[perm], atol=1e-8
        )
    ):
        failures.append("permutation equivariance")

    pinv = np.linalg.pinv(model.A)
    kl = kl_loss(t, model)
    for i in range(t.k):
        proj = pinv @ t.slices[i] @ pinv.T
        off = proj - np.diag(np.diag(proj))
        if np.abs(off).max() > 1e-8 * np.trace(t.slices[i]):
            failures.append("uncorrelatedness on exact model")
            break
    if not all(v is not None and -1e-10 <= v <= 1e-8 for v in kl):
        failures.append("kl_loss on exact model")
    noisy_kl = [v for v in kl_loss(noisy, noisy_model) if v is not None]
    if not all(v >= -1e-10 for v in noisy_kl):
        failures.append("kl_loss non-negativity")

    if model_dimension(100, 50, 60) != 8940:
        failures.append("model_dimension")

    ident = ascore(model.A, model.A)
    if abs(ident.ascore - 1.0) > 1e-12:
        failures.append("ascore identity")
    rng = np.random.default_rng(602)
    perm_cols = rng.permutation(4)
    signs = rng.choice([-1.0, 1.0], size=4)
    shuffled = ascore(model.A, model.A[:, perm_cols] * signs)
    if abs(shuffled.ascore - 1.0) > 1e-12:
        failures.append("ascore permutation/sign invariance")

    ok = not failures
    assert _report(
        6,
        "invariant suite",
        ok,
        "all invariants hold" if ok else "failed: " + ", ".join(failures),
    )


def test_criterion_7_non_identifiability_detection():
    # Detection is the fit's identifiability probe, which needs no second
    # fit: it flags a component whose loading direction is shared with a
    # second component direction.  Cross-seed stability cannot detect a
    # duplicated column through a fixed threshold: deflation returns an
    # orthonormal frame of the degenerate plane, which bounds the mean
    # stability below by ((r-2) + sqrt(2))/r = 0.805 at r=3, and exact
    # decompositions of the plane average 0.926.  Stability must still
    # drop strictly, within that band.  See docs/decisions.md.
    r = 3
    floor = ((r - 2) + np.sqrt(2)) / r
    duplicated = []
    perturbed = []
    dup_flags = []
    pert_flags = []
    for rep in range(3):
        cfg = FitConfig(seed=rep)
        pm_dup = duplicated_column_model(20, 10, r, 0.8, seed=700 + rep)
        t_dup = tensor_from_factors(pm_dup.A_true, pm_dup.B_true)
        duplicated.append(stability_score(t_dup, r, n_seed_pairs=5, cfg=cfg))
        dup_flags.append(fit_mcpca(t_dup, r, cfg)[1].non_identifiable_suspect)
        rng = np.random.default_rng(800 + rep)
        B = pm_dup.B_true.copy()
        B[:, 1] = np.abs(B[:, 1] * (1.0 + 0.1 * rng.standard_normal(10)))
        t_pert = tensor_from_factors(pm_dup.A_true, B)
        perturbed.append(stability_score(t_pert, r, n_seed_pairs=5, cfg=cfg))
        pert_flags.append(fit_mcpca(t_pert, r, cfg)[1].non_identifiable_suspect)
    detect = all(flag is True for flag in dup_flags) and all(
        flag is False for flag in pert_flags
    )
    drop = all(
        floor - 1e-9 <= d < s - 1e-3 for d, s in zip(duplicated, perturbed)
    )
    stable = all(s >= 0.95 for s in perturbed)
    ok = detect and drop and stable
    assert _report(
        7,
        "non-identifiability detection",
        ok,
        f"probe flags duplicated {dup_flags} (need all True), "
        f"perturbed {pert_flags} (need all False); "
        f"duplicated stability {[round(s, 3) for s in duplicated]} "
        f"(need in [{floor:.3f}, perturbed - 1e-3)), "
        f"perturbed {[round(s, 3) for s in perturbed]} (need >= 0.95)",
    )


def test_criterion_8_pca_stack_contrast():
    wins = 0
    for rep in range(10):
        pm = generate_identifiable(20, 10, 5, 0.5, seed=8100 + 31 * rep)
        t = tensor_from_factors(pm.A_true, pm.B_true)
        model, _ = fit_mcpca(t, 5, FitConfig(seed=rep))
        stacked = pca_stack(t, 5)
        wins += (
            ascore(pm.A_true, stacked.A).ascore
            < ascore(pm.A_true, model.A).ascore
        )
    ok = wins >= 9
    assert _report(
        8, "pca-stack contrast", ok, f"mcpca above pca_stack in {wins}/10"
    )


def test_criterion_9_file_format_round_trip(tmp_path):
    rng = np.random.default_rng(900)
    data_dir = tmp_path / "raw"
    data_dir.mkdir()
    contexts = tuple((f"c{i}", rng.standard_normal((40, 8))) for i in range(3))
    for cid, x in contexts:
        np.savetxt(data_dir / f"{cid}.csv", x, delimiter=",")
    model_path = tmp_path / "model.json"
    code = main(
        ["fit", "--input", str(data_dir), "--rank", "2", "--seed", "4",
         "--pca-components", "5", "--output", str(model_path)]
    )
    round_trip_ok = False
    two_path_ok = False
    if code == 0:
        original = model_path.read_bytes()
        model, preprocessing = load_model(model_path)
        round_trip_ok = serialize_model(model, preprocessing).encode() == original

        out = tmp_path / "scores.csv"
        score_code = main(
            ["score", "--model", str(model_path),
             "--data", str(data_dir / "c0.csv"), "--output", str(out)]
        )
        if score_code == 0:
            written = load_matrix(out)
            reduced, _, _ = global_pca_reduce(ContextDataset(contexts), 5)
            manual = score_samples(model, reduced.contexts[0][1])
            two_path_ok = bool(np.abs(written - manual).max() <= 1e-10)
    ok = round_trip_ok and two_path_ok
    assert _report(
        9,
        "file-format round trip",
        ok,
        f"byte-identical {round_trip_ok}, two-path score equality {two_path_ok}",
    )
