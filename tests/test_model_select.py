import multiprocessing
import os
import signal
import threading
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from helpers import active_set_example, benchmark_tensor, generate_identifiable

from mcpca import (
    CovarianceTensor,
    DimensionMismatchError,
    FitConfig,
    GramSingularityError,
    RankDeficiencyError,
    ascore,
    build_tensor,
    decompose,
    fit_mcpca,
    fork_pool,
    mix_seed,
    model_select,
    sample_dataset,
    select_rank,
    stability_score,
    tensor_from_factors,
)


def _unit_columns(rng, p, r):
    A = rng.standard_normal((p, r))
    return A / np.linalg.norm(A, axis=0)


class TestAscore:
    def test_identity(self):
        A = _unit_columns(np.random.default_rng(1), 6, 3)
        result = ascore(A, A)
        assert result.ascore == pytest.approx(1.0, abs=1e-12)
        assert result.permutation == (0, 1, 2)
        assert result.signs == (1, 1, 1)

    def test_equal_matrices_score_exactly_one(self):
        # Every self-cosine of this matrix rounds to 1 + 2**-52.
        A = _unit_columns(np.random.default_rng(18), 10, 4)
        result = ascore(A, A)
        assert result.per_pair_cosines == (1.0, 1.0, 1.0, 1.0)
        assert result.ascore == 1.0

    def test_permutation_and_sign(self):
        e1 = np.array([1.0, 0.0])
        e2 = np.array([0.0, 1.0])
        result = ascore(np.column_stack([e1, e2]), np.column_stack([e2, -e1]))
        assert result.ascore == pytest.approx(1.0)
        assert result.permutation == (1, 0)
        assert result.signs == (1, -1)

    def test_single_oblique_pair(self):
        e1 = np.array([1.0, 0.0])
        mixed = np.array([1.0, 1.0]) / np.sqrt(2)
        result = ascore(e1[:, None], mixed[:, None])
        assert result.ascore == pytest.approx(1 / np.sqrt(2), abs=1e-12)

    def test_invariant_to_recovered_permutation_and_signs(self):
        # Rearranging the recovered argument never changes the score:
        # the greedy pass picks the same pairs under new labels.
        rng = np.random.default_rng(2)
        A = _unit_columns(rng, 7, 4)
        Arec = _unit_columns(rng, 7, 4)
        base = ascore(A, Arec).ascore
        for _ in range(5):
            perm = rng.permutation(4)
            signs = rng.choice([-1.0, 1.0], size=4)
            assert ascore(A, Arec[:, perm] * signs).ascore == pytest.approx(
                base, abs=1e-12
            )

    def test_invariant_to_true_permutation_near_identity(self):
        # Permuting the true argument preserves the score whenever the
        # matching is unambiguous (each true column has a clear partner).
        # With genuinely conflicting candidates, greedy visit order can
        # change the assignment, so no blanket invariance holds there.
        rng = np.random.default_rng(3)
        A = _unit_columns(rng, 9, 4)
        Arec = A + 0.05 * rng.standard_normal((9, 4))
        Arec /= np.linalg.norm(Arec, axis=0)
        base = ascore(A, Arec).ascore
        for _ in range(5):
            perm = rng.permutation(4)
            signs = rng.choice([-1.0, 1.0], size=4)
            assert ascore(A[:, perm] * signs, Arec).ascore == pytest.approx(
                base, abs=1e-12
            )

    def test_tie_broken_by_lowest_index(self):
        e1 = np.array([1.0, 0.0, 0.0])
        c1 = np.array([1.0, 1.0, 0.0]) / np.sqrt(2)
        c2 = np.array([1.0, -1.0, 0.0]) / np.sqrt(2)
        result = ascore(
            np.column_stack([e1, e1 * 0 + np.array([0.0, 0.0, 1.0])]),
            np.column_stack([c1, c2]),
        )
        assert result.permutation[0] == 0

    def test_shape_mismatch(self):
        rng = np.random.default_rng(3)
        with pytest.raises(DimensionMismatchError):
            ascore(_unit_columns(rng, 5, 2), _unit_columns(rng, 5, 3))

    def test_requires_unit_columns(self):
        rng = np.random.default_rng(4)
        A = _unit_columns(rng, 5, 2)
        with pytest.raises(ValueError):
            ascore(A, 2.0 * A)


class TestMixSeed:
    def test_deterministic_and_distinct(self):
        seen = {mix_seed(42, pair, run) for pair in range(10) for run in range(2)}
        assert len(seen) == 20
        assert mix_seed(42, 3, 1) == mix_seed(42, 3, 1)

    def test_base_seed_matters(self):
        assert mix_seed(1, 0) != mix_seed(2, 0)


class TestStabilityScore:
    def test_noiseless_true_rank_is_stable(self):
        pm = generate_identifiable(10, 6, 3, 0.7, seed=5)
        t = tensor_from_factors(pm.A_true, pm.B_true)
        score = stability_score(t, 3, n_seed_pairs=3, cfg=FitConfig(seed=0))
        assert score >= 0.99

    def test_rank_beyond_numerical_rank_scores_zero(self):
        pm = generate_identifiable(10, 6, 3, 0.7, seed=6)
        t = tensor_from_factors(pm.A_true, pm.B_true)
        assert stability_score(t, 5, n_seed_pairs=2, cfg=FitConfig(seed=0)) == 0.0

    def test_deterministic(self):
        pm = generate_identifiable(8, 5, 2, 0.8, seed=7)
        t = tensor_from_factors(pm.A_true, pm.B_true)
        cfg = FitConfig(seed=9)
        assert stability_score(t, 2, 2, cfg) == stability_score(t, 2, 2, cfg)

    def test_in_unit_interval(self):
        pm = generate_identifiable(8, 5, 2, 0.8, seed=8)
        t = tensor_from_factors(pm.A_true, pm.B_true)
        s = stability_score(t, 2, 2, FitConfig(seed=1))
        assert 0.0 <= s <= 1.0

    def test_every_config_field_reaches_the_fits(self, monkeypatch):
        import mcpca.model_select

        configs = []
        real = mcpca.model_select.fit_mcpca

        def record(t, r, cfg, found):
            configs.append(cfg)
            return real(t, r, cfg, found)

        monkeypatch.setattr(mcpca.model_select, "fit_mcpca", record)
        pm = generate_identifiable(8, 5, 2, 0.8, seed=9)
        t = tensor_from_factors(pm.A_true, pm.B_true)
        cfg = FitConfig(seed=4, restarts_per_component=3, tol=1e-12, max_iter=50)
        stability_score(t, 2, n_seed_pairs=2, cfg=cfg)
        assert configs == [
            replace(cfg, seed=mix_seed(4, pair, run))
            for pair in range(2)
            for run in range(2)
        ]

    def test_duplicated_column_less_stable_than_clean(self):
        # A collinear loading pair leaves a one-parameter family of valid
        # decompositions; different seeds land at different points of it,
        # so stability drops strictly below the identifiable baseline.
        # The drop is bounded, though: deflation returns an orthogonal
        # frame of the degenerate plane, which floors each matched cosine
        # at 1/sqrt(2) (see docs/decisions.md).
        from helpers import duplicated_column_model

        pm_clean = generate_identifiable(20, 10, 3, 0.8, seed=104)
        pm_dup = duplicated_column_model(20, 10, 3, 0.8, seed=104)
        t_clean = tensor_from_factors(pm_clean.A_true, pm_clean.B_true)
        t_dup = tensor_from_factors(pm_dup.A_true, pm_dup.B_true)
        cfg = FitConfig(seed=3)
        s_clean = stability_score(t_clean, 3, n_seed_pairs=5, cfg=cfg)
        s_dup = stability_score(t_dup, 3, n_seed_pairs=5, cfg=cfg)
        assert s_clean >= 0.999
        assert s_dup < s_clean - 1e-3
        assert s_dup >= (1 + 2 / np.sqrt(2)) / 3 - 1e-9


class TestSelectRank:
    def test_planted_rank_three(self):
        pm = generate_identifiable(12, 6, 3, 0.7, seed=10)
        t = tensor_from_factors(pm.A_true, pm.B_true)
        report = select_rank(
            t, [2, 3, 4, 5], threshold=0.8, n_seed_pairs=5, cfg=FitConfig(seed=0)
        )
        assert report.chosen == 3
        assert report.stability[report.candidates.index(4)] == 0.0
        assert report.stability[report.candidates.index(5)] == 0.0
        assert len(report.scree) == min(12, 12 * 6)

    def test_single_candidate_rank_one(self):
        pm = generate_identifiable(8, 5, 3, 0.8, seed=11)
        t = tensor_from_factors(pm.A_true, pm.B_true)
        report = select_rank(t, [1], threshold=0.8, n_seed_pairs=3, cfg=FitConfig(seed=1))
        assert report.chosen == 1

    def test_unreachable_threshold(self):
        pm = generate_identifiable(8, 5, 2, 0.8, seed=12)
        t = tensor_from_factors(pm.A_true, pm.B_true)
        report = select_rank(t, [1, 2], threshold=1.01, n_seed_pairs=2, cfg=FitConfig(seed=2))
        assert report.chosen is None

    def test_empty_candidates_rejected(self):
        pm = generate_identifiable(8, 5, 2, 0.8, seed=13)
        t = tensor_from_factors(pm.A_true, pm.B_true)
        with pytest.raises(ValueError):
            select_rank(t, [], cfg=FitConfig(seed=0))

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_threshold_rejected(self, threshold):
        pm = generate_identifiable(8, 5, 2, 0.8, seed=13)
        t = tensor_from_factors(pm.A_true, pm.B_true)
        with pytest.raises(ValueError, match="threshold must be finite"):
            select_rank(t, [1, 2], threshold=threshold, cfg=FitConfig(seed=0))

    def test_chosen_is_largest_qualifying(self):
        pm = generate_identifiable(12, 6, 4, 0.7, seed=14)
        t = tensor_from_factors(pm.A_true, pm.B_true)
        report = select_rank(
            t, [2, 3, 4], threshold=0.8, n_seed_pairs=3, cfg=FitConfig(seed=3)
        )
        qualifying = [
            c
            for c, s in zip(report.candidates, report.stability)
            if s >= report.threshold
        ]
        assert report.chosen == max(qualifying)


class TestOneFlatteningSvd:
    def test_select_rank_and_later_fits_share_one_svd(self, monkeypatch):
        # Every fit, every rank candidate and the scree read the tensor's
        # one SVD of the p x p*k flattening.
        pm = generate_identifiable(10, 6, 3, 0.7, seed=15)
        t = tensor_from_factors(pm.A_true, pm.B_true)
        svd = np.linalg.svd
        shapes = []

        def counted(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        flattening = (t.p, t.p * t.k)
        select_rank(t, [2, 3, 5], n_seed_pairs=2, cfg=FitConfig(seed=0))
        assert shapes.count(flattening) == 1
        shapes.clear()
        fit_mcpca(t, 3, FitConfig(seed=1))
        assert shapes.count(flattening) == 0

    def test_scree_is_the_singular_values_of_the_flattening(self):
        pm = generate_identifiable(12, 6, 4, 0.7, seed=16)
        t = tensor_from_factors(pm.A_true, pm.B_true)
        report = select_rank(t, [3, 4], n_seed_pairs=1, cfg=FitConfig(seed=0))
        oracle = np.linalg.svd(np.hstack(list(t.slices)), compute_uv=False)
        assert len(report.scree) == t.p
        assert np.abs(np.array(report.scree) - oracle).max() <= 1e-12 * oracle[0]


# --- the stability fits in forked worker processes ---------------------------


@contextmanager
def _serial():
    """Every fit in this process, as on one CPU."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fork_pool, "cpu_count", lambda: 1)
        yield


@contextmanager
def _pooled():
    """The fits in two worker processes, whatever the tensor's size; record
    the worker count of each map rank selection starts (not the maps of
    its fits, which run inside it)."""
    pools = []
    real = fork_pool.map_in_workers

    def counted(fn, tasks, workers):
        if fork_pool._fn is None:
            pools.append(workers)
        return real(fn, tasks, workers)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fork_pool, "PARALLEL_MIN_ENTRIES", 0)
        mp.setattr(fork_pool, "cpu_count", lambda: 2)
        mp.setattr(fork_pool, "map_in_workers", counted)
        mp.setenv("OPENBLAS_NUM_THREADS", "1")
        yield pools


def _serial_and_pooled(t, candidates, n_seed_pairs=3, cfg=FitConfig(seed=0)):
    """The report on the serial path, and the one from two workers, which
    must have fitted, leaving no process behind."""
    with _serial():
        serial = select_rank(t, candidates, n_seed_pairs=n_seed_pairs, cfg=cfg)
    with _pooled() as pools:
        pooled = select_rank(t, candidates, n_seed_pairs=n_seed_pairs, cfg=cfg)
    assert multiprocessing.active_children() == []
    assert pools == [2]
    return serial, pooled


def _found_tensor():
    """Off-model context whose rank-4 fits raise GramSingularityError
    without the collision guard."""
    A, B, _ = active_set_example()
    W = np.random.default_rng(334).standard_normal((10, 2))
    return CovarianceTensor(
        np.concatenate([tensor_from_factors(A, B).slices, (W @ W.T)[None]])
    )


def _fits_log(monkeypatch, log, fail):
    """Append "rank seed" to ``log`` for every stability fit, from whichever
    process runs it.  The fit ``fail`` == (rank, seed) raises."""
    real = model_select.fit_mcpca

    def fit(t, r, cfg, found):
        with open(log, "a") as fh:
            fh.write(f"{r} {cfg.seed}\n")
        if (r, cfg.seed) == fail:
            raise GramSingularityError("planted failure")
        return real(t, r, cfg, found)

    monkeypatch.setattr(model_select, "fit_mcpca", fit)


def _fits_per_rank(log):
    counts = {}
    for line in log.read_text().splitlines():
        r = int(line.split()[0])
        counts[r] = counts.get(r, 0) + 1
    log.unlink()
    return counts


@pytest.mark.skipif(fork_pool.cpu_count() < 2, reason="one CPU fits serially")
class TestFitsInWorkers:
    def test_noiseless_and_above_the_numerical_rank(self):
        pm = generate_identifiable(12, 6, 3, 0.7, seed=10)
        t = tensor_from_factors(pm.A_true, pm.B_true)
        with pytest.raises(RankDeficiencyError):
            fit_mcpca(t, 4, FitConfig(seed=mix_seed(0, 0, 0)))
        serial, pooled = _serial_and_pooled(t, [2, 3, 4, 5], n_seed_pairs=2)
        assert pooled == serial
        assert pooled.stability[2:] == (0.0, 0.0)

    def test_sampled(self):
        pm = generate_identifiable(10, 6, 3, 0.7, seed=5)
        t = build_tensor(sample_dataset(pm, 200, seed=1))
        serial, pooled = _serial_and_pooled(t, [2, 3, 4], cfg=FitConfig(seed=7))
        assert pooled == serial
        assert pooled.chosen == 3

    def test_gram_singular_candidate(self, monkeypatch):
        # Without the collision guard (patched before the pool forks) the
        # rank-4 fits of the off-model tensor raise GramSingularityError.
        monkeypatch.setattr(decompose, "_COLLISION_COS", 2.0)
        t = _found_tensor()
        with pytest.raises(GramSingularityError):
            fit_mcpca(t, 4, FitConfig(seed=mix_seed(0, 0, 0)))
        serial, pooled = _serial_and_pooled(t, [4], n_seed_pairs=1)
        assert pooled == serial
        assert pooled.stability == (0.0,)

    def test_stability_score_matches_serial(self):
        pm = generate_identifiable(10, 6, 3, 0.7, seed=5)
        t = tensor_from_factors(pm.A_true, pm.B_true)
        with _serial():
            want = stability_score(t, 3, n_seed_pairs=3, cfg=FitConfig(seed=2))
        with _pooled() as pools:
            got = stability_score(t, 3, n_seed_pairs=3, cfg=FitConfig(seed=2))
        assert pools == [2]
        assert got == want

    def test_candidate_scores_alone_as_among_others(self):
        # A candidate's fits run as one lockstep of its own seeds, so its
        # stability is the same scored alone or beside other candidates,
        # in this process or in a worker.
        pm = generate_identifiable(10, 6, 3, 0.7, seed=5)
        t = build_tensor(sample_dataset(pm, 200, seed=1))
        cfg = FitConfig(seed=7)
        serial, pooled = _serial_and_pooled(t, [2, 3, 4], cfg=cfg)
        assert pooled == serial
        for r, stability in zip(serial.candidates, serial.stability):
            with _serial():
                assert stability_score(t, r, n_seed_pairs=3, cfg=cfg) == stability
            with _pooled():
                assert stability_score(t, r, n_seed_pairs=3, cfg=cfg) == stability

    def test_stability_fits_compute_no_residuals(self, monkeypatch):
        # Patched before the pool forks, so a worker that read a fit's
        # residuals or identifiability flag would raise too.
        pm = generate_identifiable(10, 6, 3, 0.7, seed=5)
        t = build_tensor(sample_dataset(pm, 200, seed=1))
        cfg = FitConfig(seed=7)
        with _serial():
            report = select_rank(t, [2, 3, 4], n_seed_pairs=3, cfg=cfg)
            score = stability_score(t, 3, n_seed_pairs=3, cfg=cfg)

        def unread(*args):
            raise AssertionError("a stability fit computed a report value")

        monkeypatch.setattr(decompose, "reconstruction_error", unread)
        monkeypatch.setattr(decompose, "_identifiability_gap", unread)
        assert _serial_and_pooled(t, [2, 3, 4], cfg=cfg) == (report, report)
        with _serial():
            assert stability_score(t, 3, n_seed_pairs=3, cfg=cfg) == score
        with _pooled() as pools:
            assert stability_score(t, 3, n_seed_pairs=3, cfg=cfg) == score
        assert pools == [2]

    def test_nnls_failure_scores_zero(self, monkeypatch):
        # The solver's cap raises LinAlgError, not an McpcaError, here in
        # each fit's solve of the stacked loadings; patched before the pool
        # forks, so the workers fail the same way.
        def capped(*args):
            raise np.linalg.LinAlgError("NNLS did not converge")

        monkeypatch.setattr(decompose, "_nnls_fit", capped)
        pm = generate_identifiable(10, 6, 3, 0.7, seed=5)
        t = tensor_from_factors(pm.A_true, pm.B_true)
        serial, pooled = _serial_and_pooled(t, [2, 3])
        assert pooled == serial
        assert pooled.stability == (0.0, 0.0)
        assert pooled.chosen is None

    def test_killed_worker_falls_back_to_serial(self, monkeypatch):
        pm = generate_identifiable(12, 6, 3, 0.7, seed=10)
        t = tensor_from_factors(pm.A_true, pm.B_true)
        with _serial():
            want = select_rank(t, [2, 3], n_seed_pairs=2, cfg=FitConfig(seed=0))
        parent = os.getpid()
        real = model_select._candidate_components
        victim = mix_seed(0, 1, 0)

        in_parent = []

        def components(t, r, cfg, seeds):
            if os.getpid() != parent and r == 3 and victim in seeds:
                os.kill(os.getpid(), signal.SIGKILL)
            if os.getpid() == parent:
                in_parent.append((r, seeds))
            return real(t, r, cfg, seeds)

        monkeypatch.setattr(model_select, "_candidate_components", components)
        with _pooled() as pools:
            got = select_rank(t, [2, 3], n_seed_pairs=2, cfg=FitConfig(seed=0))
        assert multiprocessing.active_children() == []
        assert pools == [2]
        # The serial path refitted every task: both candidates, largest
        # first, with all eight fits.
        seeds = [mix_seed(0, pair, run) for pair in range(2) for run in range(2)]
        assert in_parent == [(3, seeds), (2, seeds)]
        assert got == want

    def test_exiting_worker_falls_back_to_serial(self, monkeypatch):
        # Every worker exits at its first fit, as os._exit leaves a process.
        pm = generate_identifiable(12, 6, 3, 0.7, seed=10)
        t = tensor_from_factors(pm.A_true, pm.B_true)
        with _serial():
            want = select_rank(t, [2, 3], n_seed_pairs=2, cfg=FitConfig(seed=0))
        parent = os.getpid()
        real = model_select._candidate_components

        def components(t, r, cfg, seeds):
            if os.getpid() != parent:
                os._exit(1)
            return real(t, r, cfg, seeds)

        monkeypatch.setattr(model_select, "_candidate_components", components)
        with _pooled() as pools:
            got = select_rank(t, [2, 3], n_seed_pairs=2, cfg=FitConfig(seed=0))
        assert multiprocessing.active_children() == []
        assert pools == [2]
        assert got == want

    def test_small_tensor_fits_serially(self):
        # Below the threshold the map gets one worker, so it starts none.
        pm = generate_identifiable(10, 6, 3, 0.7, seed=5)
        t = tensor_from_factors(pm.A_true, pm.B_true)
        assert t.slices.size < fork_pool.PARALLEL_MIN_ENTRIES
        pools = []
        real = fork_pool.map_in_workers

        def counted(fn, tasks, workers):
            if fork_pool._fn is None:  # not a fit's map inside it
                pools.append(workers)
            return real(fn, tasks, workers)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fork_pool, "cpu_count", lambda: 2)
            mp.setattr(fork_pool, "map_in_workers", counted)
            mp.setenv("OPENBLAS_NUM_THREADS", "1")
            select_rank(t, [2, 3], n_seed_pairs=2, cfg=FitConfig(seed=0))
        assert pools == [1]

    def test_other_thread_selects_serial_path(self, monkeypatch):
        # Two workers are asked for, but every fit runs in this process.
        pm = generate_identifiable(10, 6, 3, 0.7, seed=5)
        t = tensor_from_factors(pm.A_true, pm.B_true)
        with _serial():
            want = select_rank(t, [2, 3], n_seed_pairs=2, cfg=FitConfig(seed=0))
        parent = os.getpid()
        real = model_select._candidate_components
        fitted_in = []

        def components(t, r, cfg, seeds):
            fitted_in.append((os.getpid(), r, len(seeds)))
            return real(t, r, cfg, seeds)

        monkeypatch.setattr(model_select, "_candidate_components", components)
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            with _pooled() as pools:
                got = select_rank(t, [2, 3], n_seed_pairs=2, cfg=FitConfig(seed=0))
        finally:
            release.set()
            other.join(timeout=10)
        assert not other.is_alive()
        assert pools == [2]
        assert fitted_in == [(parent, 3, 4), (parent, 2, 4)]
        assert multiprocessing.active_children() == []
        assert got == want

    def test_worker_error_propagates_and_joins(self, monkeypatch):
        def broken(t, r, cfg, found):
            raise ValueError("not a fit failure")

        monkeypatch.setattr(model_select, "fit_mcpca", broken)
        pm = generate_identifiable(8, 5, 2, 0.8, seed=9)
        t = tensor_from_factors(pm.A_true, pm.B_true)
        with _pooled(), pytest.raises(ValueError, match="not a fit failure"):
            select_rank(t, [1, 2], n_seed_pairs=2, cfg=FitConfig(seed=0))
        assert multiprocessing.active_children() == []

    def test_failing_candidate_runs_every_fit(self, monkeypatch, tmp_path):
        # The third fit of rank 3 fails: both paths still run all ten fits
        # of each rank, and rank 3 scores 0.
        pm = generate_identifiable(12, 6, 3, 0.7, seed=10)
        t = tensor_from_factors(pm.A_true, pm.B_true)
        log = tmp_path / "fits"
        _fits_log(monkeypatch, log, fail=(3, mix_seed(0, 1, 0)))
        cfg = FitConfig(seed=0)
        with _serial():
            serial = select_rank(t, [3, 2], n_seed_pairs=5, cfg=cfg)
        serial_fits = _fits_per_rank(log)
        with _pooled() as pools:
            pooled = select_rank(t, [3, 2], n_seed_pairs=5, cfg=cfg)
        pooled_fits = _fits_per_rank(log)
        assert multiprocessing.active_children() == []
        assert pools == [2]
        assert pooled == serial
        assert pooled.stability[0] == 0.0
        assert serial_fits == {3: 10, 2: 10}
        assert pooled_fits == {3: 10, 2: 10}


@pytest.mark.parametrize(
    "env, cpus, workers",
    [
        ({"OPENBLAS_NUM_THREADS": "1"}, 2, 2),
        ({"OMP_NUM_THREADS": "1"}, 2, 2),
        ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 4, 2),
        ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 2, None),
        ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "one"}, 2, None),
        ({}, 2, None),
        ({}, 1, None),
    ],
)
def test_pool_size_follows_blas_threads(monkeypatch, env, cpus, workers):
    # CPUs // BLAS threads workers, BLAS threads read as OpenBLAS reads
    # them; unset (one per CPU) or below two workers (None), the map gets
    # one worker and the fits run here.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    pm = generate_identifiable(10, 6, 3, 0.7, seed=5)
    t = tensor_from_factors(pm.A_true, pm.B_true)
    with _serial():
        want = select_rank(t, [2, 3], n_seed_pairs=2, cfg=FitConfig(seed=0))
    pools = []
    real = fork_pool.map_in_workers

    def in_process(fn, tasks, count):
        if fork_pool._fn is None:  # not a fit's map inside it
            pools.append(count)
        return real(fn, tasks, 1)

    monkeypatch.setattr(fork_pool, "PARALLEL_MIN_ENTRIES", 0)
    monkeypatch.setattr(fork_pool, "cpu_count", lambda: cpus)
    monkeypatch.setattr(fork_pool, "map_in_workers", in_process)
    got = select_rank(t, [2, 3], n_seed_pairs=2, cfg=FitConfig(seed=0))
    assert pools == [workers or 1]
    assert got == want


# --- rank selection's early refinement ---------------------------------------


def _criterion_five_inputs():
    for rep in range(10):
        pm = generate_identifiable(20, 10, 3, 0.5, seed=9000 + 17 * rep)
        yield tensor_from_factors(pm.A_true, pm.B_true), [2, 3, 4, 5], FitConfig(seed=rep)


def _selected(t, candidates, cfg, early):
    """The report of ``select_rank`` in this process with the early stop
    (as it runs) or with every lockstep refined to its fixed point, and the
    components of each candidate's fits."""
    components = {}
    real_components = model_select._candidate_components
    real_lockstep = decompose._lockstep

    def recorded(t, r, cfg, seeds):
        components[r] = real_components(t, r, cfg, seeds)
        return components[r]

    with _serial(), pytest.MonkeyPatch.context() as mp:
        mp.setattr(model_select, "_candidate_components", recorded)
        if not early:
            mp.setattr(
                model_select, "_lockstep", lambda t, r, cfg, seeds, early: real_lockstep(t, r, cfg, seeds)
            )
        report = select_rank(t, candidates, n_seed_pairs=5, cfg=cfg)
    return report, [components[r] for r in candidates]


@pytest.mark.parametrize(
    "inputs",
    [_criterion_five_inputs, lambda: [(benchmark_tensor(101, 100, 50, 12), [4, 8, 12, 16], FitConfig())]],
    ids=["criterion-5", "select-rank-101"],
)
def test_early_locksteps_decide_as_fixed_point_locksteps(inputs):
    # Rank selection's fits stop once their power steps place them within
    # tol of their fixed points: each A within 1e-4 of the fixed point's
    # after column matching, each stability within 1e-8, the same rank.
    for t, candidates, cfg in inputs():
        early, early_fits = _selected(t, candidates, cfg, early=True)
        fixed, fixed_fits = _selected(t, candidates, cfg, early=False)
        assert early.chosen == fixed.chosen
        np.testing.assert_allclose(early.stability, fixed.stability, rtol=0, atol=1e-8)
        for got_fits, want_fits in zip(early_fits, fixed_fits):
            for got, want in zip(got_fits, want_fits):
                assert (got is None) == (want is None)
                if want is not None:
                    match = ascore(want, got)
                    perm = list(match.permutation)
                    signs = np.array([match.signs[j] for j in perm])
                    assert np.abs(got[:, perm] * signs - want).max() <= 1e-4
