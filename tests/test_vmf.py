"""Tests for the unit-sphere projection primitives."""

import numpy as np
import pytest

from vmfcl.errors import DegenerateFeature, DimensionError
from vmfcl.vmf import normalize, normalize_rows


class TestNormalize:
    def test_scales_by_inverse_norm(self):
        np.testing.assert_allclose(normalize([3.0, 4.0]), [0.6, 0.8], rtol=0, atol=1e-15)

    def test_identity_on_unit_vector(self):
        v = np.array([1.0, 0.0, 0.0])
        np.testing.assert_array_equal(normalize(v), v)

    def test_zero_vector_rejected(self):
        with pytest.raises(DegenerateFeature):
            normalize([0.0, 0.0])

    def test_one_dimensional_rejected(self):
        with pytest.raises(DimensionError):
            normalize([2.0])

    def test_bitwise_idempotent(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            v = rng.standard_normal(rng.integers(2, 20)) * 10.0 ** float(rng.integers(-6, 6))
            once = normalize(v)
            np.testing.assert_array_equal(normalize(once), once)

    def test_rows_variant_matches(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((50, 7))
        rows = normalize_rows(x)
        for i in range(50):
            np.testing.assert_allclose(rows[i], normalize(x[i]), rtol=0, atol=1e-14)

    def test_rows_variant_rejects_zero_row(self):
        with pytest.raises(DegenerateFeature):
            normalize_rows(np.array([[1.0, 0.0], [0.0, 0.0]]))

    def test_rows_variant_rejects_an_infinite_norm(self):
        # finite entries whose squares overflow: dividing by the inf norm gave zeros
        for row in ([1e300, 1e300], [1e160, 1.0]):
            with np.errstate(over="ignore"), pytest.raises(DegenerateFeature, match="row 1 has norm inf"):
                normalize_rows(np.array([[0.6, 0.8], row]))

    def test_infinite_norm_rejected(self):
        with np.errstate(over="ignore"), pytest.raises(DegenerateFeature):
            normalize([1e160, 1.0])
