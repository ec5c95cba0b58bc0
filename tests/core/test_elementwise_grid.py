"""Tests for the threadblock elementwise computation (Algorithm 2)."""

import numpy as np
import pytest

from repro.core.elementwise import threadblock_ec
from repro.errors import ReproError
from repro.tensor.reference import mttkrp_coo_reference


class TestThreadblockEC:
    @pytest.mark.parametrize("p", [1, 3, 32, 1000])
    def test_batch_size_independence(self, small_tensor, make_factors, p):
        """Algorithm 2's result must not depend on P (threadblock columns)."""
        factors = make_factors(small_tensor.shape)
        out = np.zeros((small_tensor.shape[0], 6))
        threadblock_ec(
            small_tensor.indices,
            small_tensor.values,
            factors,
            0,
            out,
            threadblock_cols=p,
        )
        ref = mttkrp_coo_reference(small_tensor, factors, 0)
        assert np.allclose(out, ref)

    def test_invalid_cols(self, small_tensor, make_factors):
        with pytest.raises(ReproError):
            threadblock_ec(
                small_tensor.indices,
                small_tensor.values,
                make_factors(small_tensor.shape),
                0,
                np.zeros((small_tensor.shape[0], 6)),
                threadblock_cols=0,
            )
