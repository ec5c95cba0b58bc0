"""Tests for CP-ALS over multiple MTTKRP backends."""

import tracemalloc

import numpy as np
import pytest

from repro.core.amped import AmpedMTTKRP
from repro.core.config import AmpedConfig
from repro.cpd.als import cp_als
from repro.cpd.norms import factor_match_score
from repro.errors import ConvergenceError, ReproError
from repro.tensor.coo import SparseTensorCOO
from repro.tensor.generate import lowrank_coo, random_coo, zipf_coo
from repro.tensor.io_v2 import write_shard_cache_v2
from repro.tensor.kernelreg import available_kernels


class TestConvergence:
    def test_fit_is_monotone_nondecreasing(self, fitted_tensor):
        res = cp_als(fitted_tensor, rank=4, n_iters=15, tol=0.0, seed=0)
        fits = np.array(res.fits)
        # ALS cannot decrease the objective; allow float jitter
        assert (np.diff(fits) > -1e-8).all()

    def test_good_fit_on_lowrank_data(self, fitted_tensor):
        res = cp_als(fitted_tensor, rank=4, n_iters=30, seed=0)
        assert res.final_fit > 0.9

    def test_tolerance_stops_early(self, fitted_tensor):
        res = cp_als(fitted_tensor, rank=4, n_iters=100, tol=1e-3, seed=0)
        assert res.converged
        assert res.n_iters < 100

    def test_model_shape(self, fitted_tensor):
        res = cp_als(fitted_tensor, rank=3, n_iters=5, seed=0)
        assert res.model.shape == fitted_tensor.shape
        assert res.model.rank == 3
        # arrange() guarantees descending weights
        assert (np.diff(res.model.weights) <= 1e-12).all()

    def test_exact_recovery_of_noiseless_lowrank(self):
        t = lowrank_coo((15, 12, 10), 900, rank=2, noise=0.0, seed=4)
        res = cp_als(t, rank=2, n_iters=60, tol=1e-12, seed=1)
        assert res.final_fit > 0.99

    def test_callback_streams_fits_and_stops_cooperatively(
        self, fitted_tensor
    ):
        """The service hook: callback sees every sweep's fit, and
        returning True stops the run at the sweep boundary."""
        seen = []

        def watch(it, fit):
            seen.append((it, fit))
            return len(seen) >= 3

        res = cp_als(
            fitted_tensor, rank=4, n_iters=50, tol=0.0, seed=0, callback=watch
        )
        assert res.n_iters == 3
        assert not res.converged  # stopped, not converged
        assert seen == [(i, f) for i, f in enumerate(res.fits)]
        # the completed sweeps match an uninterrupted run exactly
        full = cp_als(fitted_tensor, rank=4, n_iters=50, tol=0.0, seed=0)
        assert res.fits == pytest.approx(full.fits[:3], rel=0, abs=0)

    def test_convergence_wins_over_callback(self, fitted_tensor):
        # tol stops before the callback would: converged stays True
        res = cp_als(
            fitted_tensor, rank=4, n_iters=100, tol=1e-3, seed=0,
            callback=lambda it, fit: False,
        )
        assert res.converged


class TestBackends:
    def test_amped_backend_matches_reference_fit(self, fitted_tensor):
        ref = cp_als(fitted_tensor, rank=3, n_iters=8, tol=0.0, seed=5)
        ex = AmpedMTTKRP(
            fitted_tensor, AmpedConfig(n_gpus=4, rank=3, shards_per_gpu=2)
        )
        via_amped = cp_als(
            fitted_tensor, rank=3, n_iters=8, tol=0.0, seed=5, mttkrp=ex.mttkrp
        )
        assert via_amped.fits == pytest.approx(ref.fits, rel=1e-9)
        assert (
            factor_match_score(
                [np.asarray(f) for f in ref.model.factors],
                [np.asarray(f) for f in via_amped.model.factors],
            )
            == pytest.approx(1.0)
        )

    def test_custom_initial_factors(self, fitted_tensor, make_factors):
        init = make_factors(fitted_tensor.shape, rank=3, seed=8)
        res = cp_als(fitted_tensor, rank=3, n_iters=3, factors=init, tol=0.0)
        assert res.n_iters == 3


def _with_duplicates(tensor: SparseTensorCOO) -> SparseTensorCOO:
    """``tensor`` plus a second copy of every third element (new values)."""
    dup = np.arange(0, tensor.nnz, 3)
    return SparseTensorCOO(
        np.concatenate([tensor.indices, tensor.indices[dup]]),
        np.concatenate([tensor.values, 0.5 - tensor.values[dup]]),
        tensor.shape,
    )


class TestFitFromLastMTTKRP:
    """The per-sweep fit comes from the last mode's MTTKRP and the Grams;
    the nonzero-pass ``fit_sparse`` is its oracle."""

    @pytest.fixture(params=["distinct", "duplicates"])
    def tensor(self, request):
        t = zipf_coo((30, 20, 25), 900, exponents=(1.1, 0.7, 0.9), seed=13)
        return t if request.param == "distinct" else _with_duplicates(t)

    @pytest.fixture(params=["reference", "amped-numpy", "amped-cc"])
    def mttkrp(self, request, tensor):
        if request.param == "reference":
            yield None
            return
        kernel = request.param.split("-")[1]
        if kernel not in available_kernels():
            pytest.skip(f"{kernel} kernel tier unavailable on this host")
        config = AmpedConfig(n_gpus=2, rank=3, shards_per_gpu=2, kernel=kernel)
        with AmpedMTTKRP(tensor, config) as ex:
            yield ex.mttkrp

    @pytest.mark.parametrize("n_iters", [1, 2, 3])
    def test_final_fit_matches_nonzero_pass(self, tensor, mttkrp, n_iters):
        res = cp_als(
            tensor, rank=3, n_iters=n_iters, tol=0.0, seed=2, mttkrp=mttkrp
        )
        assert res.n_iters == n_iters
        assert res.final_fit == pytest.approx(
            res.model.fit_sparse(tensor), rel=0, abs=1e-12
        )


class TestOutOfCoreResidency:
    """An out-of-core CP-ALS never allocates O(nnz · rank) host memory: the
    fit no longer reads the cache's nonzeros outside the streaming engine."""

    NNZ = 50_000
    RANK = 8

    @pytest.fixture(scope="class")
    def tensor(self):
        return random_coo((400, 300, 200), self.NNZ, seed=17)

    @pytest.mark.parametrize("codec", ["none", "zlib"])
    def test_peak_stays_below_the_old_fit_accumulator(
        self, tensor, tmp_path, codec
    ):
        path = tmp_path / "cache.npz"
        write_shard_cache_v2(tensor, path, codec=codec, chunk_nnz=4096)
        config = AmpedConfig(
            rank=self.RANK, out_of_core=True, shard_cache=str(path)
        )
        with AmpedMTTKRP.from_shard_cache(path, config) as ex:
            tracemalloc.start()
            try:
                res = cp_als(
                    ex.tensor, self.RANK, mttkrp=ex.mttkrp,
                    n_iters=2, tol=0.0, seed=3,
                )
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert res.n_iters == 2 and np.isfinite(res.final_fit)
        assert peak < tensor.nnz * self.RANK * 8, peak


class TestErrors:
    def test_zero_tensor_rejected(self):
        t = SparseTensorCOO(np.empty((0, 2), dtype=np.int64), np.empty(0), (3, 3))
        with pytest.raises(ConvergenceError):
            cp_als(t, rank=2)

    def test_bad_args(self, fitted_tensor):
        with pytest.raises(ReproError):
            cp_als(fitted_tensor, rank=0)
        with pytest.raises(ReproError):
            cp_als(fitted_tensor, rank=2, n_iters=0)
        with pytest.raises(ReproError):
            cp_als(fitted_tensor, rank=2, factors=[np.zeros((2, 2))])
