"""Property-based tests for CP decomposition components."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpd.als import cp_als
from repro.cpd.ktensor import KruskalTensor
from repro.cpd.norms import factor_match_score, normalize_columns
from repro.tensor.coo import SparseTensorCOO


@st.composite
def kruskal_models(draw):
    nmodes = draw(st.integers(2, 4))
    rank = draw(st.integers(1, 4))
    shape = tuple(draw(st.integers(1, 8)) for _ in range(nmodes))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.1, 5.0, rank)
    factors = tuple(rng.standard_normal((s, rank)) for s in shape)
    return KruskalTensor(weights, factors)


class TestKruskalProperties:
    @given(kruskal_models())
    @settings(max_examples=40, deadline=None)
    def test_norm_identity_matches_dense(self, model):
        """The cross-Gram norm formula equals the dense Frobenius norm."""
        assert np.isclose(
            model.norm(), np.linalg.norm(model.full().ravel()), atol=1e-8
        )

    @given(kruskal_models())
    @settings(max_examples=40, deadline=None)
    def test_values_at_consistent_with_full(self, model):
        coords = np.argwhere(np.ones(model.shape, dtype=bool)).astype(np.int64)
        vals = model.values_at(coords)
        assert np.allclose(vals, model.full()[tuple(coords.T)], atol=1e-9)

    @given(kruskal_models(), st.floats(0.1, 10.0))
    @settings(max_examples=30, deadline=None)
    def test_norm_scales_linearly_with_weights(self, model, alpha):
        scaled = KruskalTensor(model.weights * alpha, model.factors)
        assert np.isclose(scaled.norm(), alpha * model.norm(), rtol=1e-9)

    @given(kruskal_models())
    @settings(max_examples=30, deadline=None)
    def test_arrange_preserves_model(self, model):
        """Component reordering must not change the represented tensor."""
        assert np.allclose(model.arrange().full(), model.full(), atol=1e-9)


@st.composite
def sparse_tensors(draw):
    """Small COO tensors; coordinates may repeat (duplicates are kept)."""
    nmodes = draw(st.integers(2, 4))
    shape = tuple(draw(st.integers(1, 8)) for _ in range(nmodes))
    nnz = draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    indices = np.stack([rng.integers(0, s, nnz) for s in shape], axis=1)
    values = rng.standard_normal(nnz)
    values[0] = 1.0 + abs(values[0])  # never the all-zero tensor
    return SparseTensorCOO(indices, values, shape)


class TestALSFitProperties:
    @given(
        sparse_tensors(),
        st.integers(1, 4),
        st.integers(1, 3),
        st.sampled_from(["random", "nvecs"]),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_sweep_fit_matches_nonzero_pass(
        self, tensor, rank, n_iters, init, seed
    ):
        """The fit cp_als derives from the last MTTKRP and the Grams equals
        the nonzero-pass fit of the model it returns.

        Compared as the relative squared residual ``(1 - fit)² =
        ||X - M||² / ||X||²`` that both formulas compute before the square
        root: near an exact fit (tiny shapes, rank ≥ nnz) the root turns
        1e-16 of round-off into ~1e-8 of fit for either formula alike.
        """
        res = cp_als(
            tensor, rank, n_iters=n_iters, tol=0.0, init=init, seed=seed
        )
        oracle = res.model.fit_sparse(tensor)
        assert np.isclose(
            (1.0 - res.final_fit) ** 2, (1.0 - oracle) ** 2, rtol=0, atol=1e-12
        )


class TestNormalizationProperties:
    @given(
        st.integers(1, 20),
        st.integers(1, 6),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_normalize_reconstructs(self, rows, cols, seed):
        m = np.random.default_rng(seed).standard_normal((rows, cols))
        normed, norms = normalize_columns(m)
        assert np.allclose(normed * norms, m, atol=1e-9)
        nonzero = np.linalg.norm(m, axis=0) > 0
        assert np.allclose(
            np.linalg.norm(normed[:, nonzero], axis=0), 1.0, atol=1e-9
        )

    @given(kruskal_models())
    @settings(max_examples=30, deadline=None)
    def test_fms_reflexive_and_permutation_invariant(self, model):
        factors = [np.asarray(f) for f in model.factors]
        if any(np.linalg.norm(f, axis=0).min() == 0 for f in factors):
            return  # degenerate zero column: congruence undefined
        assert factor_match_score(factors, factors) > 0.999
        perm = np.random.default_rng(0).permutation(model.rank)
        permuted = [f[:, perm] for f in factors]
        assert factor_match_score(factors, permuted) > 0.999
