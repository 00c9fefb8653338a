import dataclasses
import multiprocessing
import os
from contextlib import contextmanager

import numpy as np
import pytest

from mcpca import (
    BenchConfig,
    ContextDataset,
    SweepConfig,
    TrialRecord,
    ascore,
    build_tensor,
    exact_covariance_tensor,
    fork_pool,
    generate_planted,
    ingest,
    run_accuracy_trials,
    run_sample_sweep,
    sample_dataset,
    synth_bench,
)
from mcpca.synth_bench import (
    RECORD_HEADER,
    load_external_components,
    read_records,
    write_records,
)


class TestGeneratePlanted:
    def test_full_density_has_no_zeros(self):
        pm = generate_planted(10, 8, 4, density=1.0, seed=0)
        assert np.all(pm.B_true > 0)

    def test_orthonormal_components(self):
        pm = generate_planted(12, 5, 6, density=0.5, orthonormal=True, seed=1)
        np.testing.assert_allclose(
            pm.A_true.T @ pm.A_true, np.eye(6), atol=1e-10
        )

    def test_unit_columns_without_orthonormality(self):
        pm = generate_planted(12, 5, 6, density=0.5, seed=2)
        np.testing.assert_allclose(
            np.linalg.norm(pm.A_true, axis=0), 1.0, atol=1e-12
        )

    def test_default_scale_sparsity_band(self):
        # Binomial(3000, 0.8) 99% band for the zero fraction at density 0.2.
        pm = generate_planted(100, 50, 60, density=0.2, seed=3)
        zero_fraction = np.mean(pm.B_true == 0.0)
        assert 0.76 <= zero_fraction <= 0.84

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            generate_planted(5, 3, 2, density=0.0, seed=0)
        with pytest.raises(ValueError):
            generate_planted(5, 3, 6, density=0.5, seed=0)


class TestSampleDataset:
    def test_zero_loading_context_is_zero(self):
        pm = generate_planted(6, 3, 2, density=1.0, seed=4)
        B = pm.B_true.copy()
        B[1] = 0.0
        pm = dataclasses.replace(pm, B_true=B)
        ds = sample_dataset(pm, 10, seed=5)
        np.testing.assert_array_equal(ds.contexts[1][1], 0.0)

    def test_rank_one_axis_support(self):
        a = np.zeros(4)
        a[0] = 1.0
        pm = dataclasses.replace(
            generate_planted(4, 2, 1, density=1.0, seed=6),
            A_true=a[:, None],
            B_true=np.ones((2, 1)),
        )
        ds = sample_dataset(pm, 50, seed=7)
        for _, x in ds.contexts:
            cov = np.cov(x, rowvar=False)
            assert np.abs(cov[1:, 1:]).max() <= 1e-20

    def test_large_sample_concentration(self):
        # Monte-Carlo check: at N = 1e5 the sample covariances sit within
        # 5% relative Frobenius error of the population covariances.
        pm = generate_planted(5, 3, 2, density=1.0, seed=8)
        ds = sample_dataset(pm, 100000, seed=9)
        t = build_tensor(ds)
        exact = exact_covariance_tensor(pm)
        for i in range(3):
            err = np.linalg.norm(t.slices[i] - exact.slices[i])
            assert err <= 0.05 * np.linalg.norm(exact.slices[i])

    def test_contexts_are_kept_not_copied(self, monkeypatch):
        import mcpca.synth_bench

        pm = generate_planted(6, 3, 2, density=1.0, seed=11)
        rng = np.random.default_rng(12)
        scale = np.sqrt(pm.B_true)
        expected = [(rng.standard_normal((20, 2)) * scale[i]) @ pm.A_true.T for i in range(3)]
        given = []

        def recorded(contexts):
            given.extend(x for _, x in contexts)
            return ContextDataset(contexts)

        monkeypatch.setattr(mcpca.synth_bench, "ContextDataset", recorded)
        ds = sample_dataset(pm, 20, seed=12)
        for (_, x), sampled, want in zip(ds.contexts, given, expected, strict=True):
            assert x is sampled and not x.flags.writeable
            np.testing.assert_array_equal(x, want)

    def test_sample_count_validated(self):
        pm = generate_planted(4, 2, 2, density=1.0, seed=10)
        with pytest.raises(ValueError):
            sample_dataset(pm, 1, seed=0)


class TestAccuracyTrials:
    def test_noiseless_single_trial(self):
        cfg = BenchConfig(
            p=12, k=6, r=3, density=0.7, N=100, n_trials=1,
            methods=("mcpca",), seed=11, noiseless=True,
        )
        (record,) = run_accuracy_trials(cfg)
        assert record.ascore >= 0.999
        assert record.N == 0  # noiseless records carry N = 0
        assert record.converged

    def test_nnls_failure_scores_zero(self, monkeypatch):
        # The NNLS cap raises LinAlgError, not an McpcaError, in the fit's
        # solve of its loadings: the fit's record scores 0 and the other
        # methods still run.
        import mcpca.decompose

        def capped(*args):
            raise np.linalg.LinAlgError("NNLS did not converge")

        monkeypatch.setattr(mcpca.decompose, "_nnls_fit", capped)
        cfg = BenchConfig(
            p=12, k=6, r=3, density=0.7, N=100, n_trials=1,
            methods=("mcpca", "pca_stack"), seed=11, noiseless=True,
        )
        fit, stack = run_accuracy_trials(cfg)
        assert (fit.method, fit.ascore, fit.converged) == ("mcpca", 0.0, False)
        assert stack.method == "pca_stack" and stack.ascore > 0.0

    def test_empty_methods_rejected(self):
        # Before any trial runs: an empty method list used to give no
        # records and no error.
        cfg = BenchConfig(
            p=6, k=3, r=2, density=1.0, N=50, n_trials=2, methods=(), seed=12
        )
        with pytest.raises(ValueError, match="methods is empty"):
            run_accuracy_trials(cfg)

    def test_sampled_ordering_mcpca_above_pca_stack(self):
        cfg = BenchConfig(
            p=30, k=12, r=10, density=0.4, N=500, n_trials=2,
            methods=("mcpca", "pca_stack"), seed=13,
        )
        records = run_accuracy_trials(cfg)
        by_trial = {}
        for rec in records:
            by_trial.setdefault(rec.trial, {})[rec.method] = rec.ascore
        for scores in by_trial.values():
            assert scores["mcpca"] > scores["pca_stack"]

    def test_determinism_excluding_runtime(self, monkeypatch):
        # The second run also shows that no trial reads a fit's residuals
        # or identifiability flag.
        import mcpca.decompose

        def unread(*args):
            raise AssertionError("a trial fit computed a report value")

        cfg = BenchConfig(
            p=10, k=5, r=3, density=0.6, N=200, n_trials=2,
            methods=("mcpca", "jennrich"), seed=14,
        )
        first = run_accuracy_trials(cfg)
        monkeypatch.setattr(mcpca.decompose, "reconstruction_error", unread)
        monkeypatch.setattr(mcpca.decompose, "_identifiability_gap", unread)
        second = run_accuracy_trials(cfg)
        strip = lambda rec: dataclasses.replace(rec, runtime_seconds=0.0)
        assert [strip(r) for r in first] == [strip(r) for r in second]

    def test_unknown_method_rejected(self):
        cfg = BenchConfig(methods=("magic",), n_trials=1)
        with pytest.raises(ValueError):
            run_accuracy_trials(cfg)

    def test_trial_count_validated(self):
        cfg = BenchConfig(methods=("mcpca",), n_trials=0)
        with pytest.raises(ValueError):
            run_accuracy_trials(cfg)


class TestSampleSweep:
    def test_ascore_increases_with_n(self):
        cfg = SweepConfig(
            p=20, k=10, r=8, density=0.5, N_grid=(100, 1000, 10000),
            methods=("mcpca",), seed=15,
        )
        records = run_sample_sweep(cfg)
        scores = [rec.ascore for rec in records]
        assert scores == sorted(scores)
        assert [rec.N for rec in records] == [100, 1000, 10000]

    def test_duplicate_grid_entries_identical_records(self):
        cfg = SweepConfig(
            p=8, k=4, r=2, density=0.8, N_grid=(200, 200),
            methods=("mcpca",), seed=16,
        )
        first, second = run_sample_sweep(cfg)
        strip = lambda rec: dataclasses.replace(
            rec, runtime_seconds=0.0, trial=0
        )
        assert strip(first) == strip(second)

    def test_grid_validated(self):
        with pytest.raises(ValueError):
            run_sample_sweep(SweepConfig(N_grid=(100, 50), methods=("mcpca",)))
        with pytest.raises(ValueError):
            run_sample_sweep(SweepConfig(N_grid=(1, 100), methods=("mcpca",)))

    def test_empty_methods_rejected(self):
        cfg = SweepConfig(p=6, k=3, r=2, density=1.0, N_grid=(50,), methods=())
        with pytest.raises(ValueError, match="methods is empty"):
            run_sample_sweep(cfg)


class TestRecordFiles:
    def test_golden_text(self, tmp_path):
        # The exact bytes of a record file: booleans, a 64-bit seed, a
        # float whose repr needs 17 significant digits and N = 0.
        records = [
            TrialRecord("mcpca", 100, 50, 60, 1000, 0, 2**64 - 1,
                        0.1 + 0.2, 1.5, True),
            TrialRecord("external", 6, 3, 2, 0, 1, 7, 1.0, 2.5e-05, False),
        ]
        path = tmp_path / "records.csv"
        write_records(path, records)
        assert path.read_bytes() == (
            b"method,p,k,r,N,trial,seed,ascore,runtime_seconds,converged\n"
            b"mcpca,100,50,60,1000,0,18446744073709551615,"
            b"0.30000000000000004,1.5,true\n"
            b"external,6,3,2,0,1,7,1.0,2.5e-05,false\n"
        )
        assert read_records(path) == records

    def test_round_trip(self, tmp_path):
        cfg = BenchConfig(
            p=8, k=4, r=2, density=0.9, N=100, n_trials=1,
            methods=("mcpca", "pca_stack"), seed=17,
        )
        records = run_accuracy_trials(cfg)
        path = tmp_path / "records.csv"
        write_records(path, records)
        text = path.read_text(encoding="utf-8")
        assert text.splitlines()[0] == ",".join(RECORD_HEADER)
        assert read_records(path) == records

    def test_external_components_scored(self, tmp_path):
        from mcpca import mix_seed

        # Write the components the harness's own trial model will use
        # (trial 0's model seed derives from the master seed).
        pm = generate_planted(6, 3, 2, density=1.0, seed=mix_seed(19, 1, 0))
        path = tmp_path / "components.csv"
        np.savetxt(path, 2.5 * pm.A_true, delimiter=",")  # unnormalized on purpose
        loaded = load_external_components(path, p=6, r=2)
        assert ascore(pm.A_true, loaded).ascore >= 1 - 1e-9
        cfg = BenchConfig(
            p=6, k=3, r=2, density=1.0, N=100, n_trials=1,
            methods=(f"external={path}",), seed=19, noiseless=True,
        )
        (record,) = run_accuracy_trials(cfg)
        assert record.method == "external"
        assert record.ascore >= 1 - 1e-9


# --- the trials in forked worker processes -----------------------------------


def _strip(records):
    return [dataclasses.replace(rec, runtime_seconds=0.0) for rec in records]


@contextmanager
def _serial():
    """Every trial in this process, as on one CPU."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fork_pool, "cpu_count", lambda: 1)
        yield


@contextmanager
def _pooled():
    """The trials in two worker processes, whatever the shape; record the
    worker count of each map of trials (not the maps of their fits, which
    run inside it) and each fork of this process."""
    pools, forks = [], []
    real_map, real_fork = fork_pool.map_in_workers, os.fork

    def counted(fn, tasks, workers):
        if fork_pool._fn is None:
            pools.append(workers)
        return real_map(fn, tasks, workers)

    def fork():
        forks.append(1)
        return real_fork()

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fork_pool, "PARALLEL_MIN_ENTRIES", 0)
        mp.setattr(fork_pool, "cpu_count", lambda: 2)
        mp.setattr(fork_pool, "map_in_workers", counted)
        mp.setattr(os, "fork", fork)
        mp.setenv("OPENBLAS_NUM_THREADS", "1")
        yield pools, forks
    assert multiprocessing.active_children() == []


_ALL = ("mcpca", "pca_stack", "jennrich")


class TestTrialPool:
    @pytest.mark.parametrize("cfg", [
        BenchConfig(p=10, k=5, r=3, density=0.6, N=200, n_trials=3, methods=_ALL, seed=21),
        BenchConfig(p=10, k=5, r=3, density=0.6, n_trials=3, methods=_ALL, seed=22,
                    noiseless=True),
        BenchConfig(p=10, k=5, r=3, density=0.6, N=200, n_trials=3, methods=_ALL, seed=23,
                    orthonormal=True),
        SweepConfig(p=10, k=5, r=3, density=0.6, N_grid=(50, 200, 200), methods=_ALL,
                    seed=24),
    ], ids=["sampled", "noiseless", "orthonormal", "sweep"])
    def test_records_match_the_serial_run(self, cfg):
        run = run_sample_sweep if isinstance(cfg, SweepConfig) else run_accuracy_trials
        with _serial():
            serial = run(cfg)
        with _pooled() as (pools, forks):
            pooled = run(cfg)
        assert pools == [2] and len(forks) == 2
        assert _strip(pooled) == _strip(serial)
        assert [rec.trial for rec in pooled] == [t for t in range(3) for _ in _ALL]

    def test_external_records_match_the_serial_run(self, tmp_path, monkeypatch):
        # Every byte range of the components file is one task of its own
        # map, which runs inside a worker of the trial pool.
        path = tmp_path / "components.csv"
        np.savetxt(path, np.random.default_rng(25).standard_normal((10, 3)), delimiter=",")
        monkeypatch.setattr(ingest, "PARALLEL_MIN_BYTES", 0)
        cfg = BenchConfig(p=10, k=5, r=3, density=0.6, N=200, n_trials=3,
                          methods=("mcpca", f"external={path}"), seed=26)
        with _serial():
            serial = run_accuracy_trials(cfg)
        with _pooled() as (pools, forks):
            pooled = run_accuracy_trials(cfg)
        assert pools == [2] and len(forks) == 2
        assert _strip(pooled) == _strip(serial)
        assert [rec.method for rec in pooled] == ["mcpca", "external"] * 3

    def test_exiting_workers_give_the_same_records(self, monkeypatch):
        # Every worker exits at its first trial; this process runs them all.
        cfg = BenchConfig(p=10, k=5, r=3, density=0.6, N=200, n_trials=3, methods=_ALL,
                          seed=27)
        with _serial():
            serial = run_accuracy_trials(cfg)
        parent = os.getpid()
        real = synth_bench._run_trial

        def exiting(*args):
            if os.getpid() != parent:
                os._exit(1)
            return real(*args)

        monkeypatch.setattr(synth_bench, "_run_trial", exiting)
        with _pooled() as (pools, forks):
            pooled = run_accuracy_trials(cfg)
        assert pools == [2] and forks
        assert _strip(pooled) == _strip(serial)

    def test_trial_error_propagates(self, monkeypatch):
        real = synth_bench._trial_records

        def broken(methods, tensor, pm, N, trial, seed):
            if trial == 1:
                raise ValueError("not a fit failure in trial 1")
            return real(methods, tensor, pm, N, trial, seed)

        monkeypatch.setattr(synth_bench, "_trial_records", broken)
        cfg = BenchConfig(p=10, k=5, r=3, density=0.6, N=200, n_trials=3, methods=_ALL,
                          seed=28)
        with _pooled() as (pools, forks), pytest.raises(ValueError, match="trial 1"):
            run_accuracy_trials(cfg)
        assert pools == [2] and forks

    @pytest.mark.parametrize("p, k, workers", [(8, 4, 1), (20, 10, 2)])
    def test_pool_size_follows_tensor_entries(self, monkeypatch, p, k, workers):
        # Below fork_pool.PARALLEL_MIN_ENTRIES (p * p * k) the map gets one
        # worker, so it starts none; from there on, CPUs // BLAS threads.
        pools = []

        def in_process(fn, tasks, count):
            pools.append(count)
            return [fn(task) for task in tasks]

        monkeypatch.setattr(fork_pool, "cpu_count", lambda: 2)
        monkeypatch.setattr(fork_pool, "map_in_workers", in_process)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        cfg = BenchConfig(p=p, k=k, r=2, density=0.9, N=50, n_trials=2, methods=("pca_stack",))
        assert len(run_accuracy_trials(cfg)) == 2
        assert pools == [workers]
        assert (p * p * k >= fork_pool.PARALLEL_MIN_ENTRIES) == (workers == 2)

    @pytest.mark.parametrize("cfg, match", [
        (BenchConfig(p=40, k=20, r=41, n_trials=2), "1 <= r <= p"),
        (BenchConfig(p=40, k=20, r=4, density=0.0, n_trials=2), "density"),
        (BenchConfig(p=40, k=20, r=4, N=1, n_trials=2), "N >= 2"),
        (SweepConfig(p=40, k=20, r=41, N_grid=(10, 20)), "1 <= r <= p"),
    ], ids=["r", "density", "N", "sweep-r"])
    def test_shape_checked_before_any_worker(self, monkeypatch, cfg, match):
        pools = []
        monkeypatch.setattr(fork_pool, "map_in_workers", lambda *args: pools.append(args))
        run = run_sample_sweep if isinstance(cfg, SweepConfig) else run_accuracy_trials
        with pytest.raises(ValueError, match=match):
            run(cfg)
        assert pools == []
