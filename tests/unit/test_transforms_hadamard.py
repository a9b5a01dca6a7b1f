"""Unit tests for repro.transforms.hadamard."""

import numpy as np
import pytest

from repro.exceptions import InvalidDomainError
from repro.transforms.hadamard import (
    fast_walsh_hadamard_transform,
    hadamard_entries,
    hadamard_entry,
    hadamard_matrix,
    inverse_fast_walsh_hadamard_transform,
    is_power_of_two,
    next_power_of_two,
)


class TestIsPowerOfTwo:
    @pytest.mark.parametrize("value", [1, 2, 4, 8, 1024, 1 << 20])
    def test_powers(self, value):
        assert is_power_of_two(value)

    @pytest.mark.parametrize("value", [0, -2, 3, 6, 12, 1000])
    def test_non_powers(self, value):
        assert not is_power_of_two(value)


class TestNextPowerOfTwo:
    def test_smallest_power_not_below_value(self):
        for value in range(1, 1 << 12):
            power = next_power_of_two(value)
            assert is_power_of_two(power) and power // 2 < value <= power

    @pytest.mark.parametrize("value", [0, 1, np.int64(1)])
    def test_small_values_give_one(self, value):
        assert next_power_of_two(value) == 1


class TestHadamardMatrix:
    def test_paper_example_d8(self):
        # Figure 1 of the paper: the D = 8 Hadamard matrix (unnormalised).
        matrix = hadamard_matrix(8)
        expected_row_1 = np.array([1, -1, 1, -1, 1, -1, 1, -1])
        expected_row_3 = np.array([1, -1, -1, 1, 1, -1, -1, 1])
        np.testing.assert_array_equal(matrix[1], expected_row_1)
        np.testing.assert_array_equal(matrix[3], expected_row_3)

    def test_orthogonality(self):
        matrix = hadamard_matrix(16)
        np.testing.assert_array_equal(matrix @ matrix, 16 * np.eye(16, dtype=np.int64))

    def test_normalized_is_orthonormal(self):
        matrix = hadamard_matrix(8, normalized=True)
        np.testing.assert_allclose(matrix @ matrix.T, np.eye(8), atol=1e-12)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(InvalidDomainError):
            hadamard_matrix(6)


class TestHadamardEntries:
    def test_matches_matrix(self):
        matrix = hadamard_matrix(16)
        rows, cols = np.meshgrid(np.arange(16), np.arange(16), indexing="ij")
        entries = hadamard_entries(rows.ravel(), cols.ravel()).reshape(16, 16)
        np.testing.assert_array_equal(entries, matrix)

    def test_scalar_entry(self):
        assert hadamard_entry(0, 5) == 1
        assert hadamard_entry(3, 1) == -1

    def test_negative_index_rejected(self):
        with pytest.raises(InvalidDomainError):
            hadamard_entry(-1, 2)


class TestFastTransform:
    def test_matches_matrix_multiplication(self, rng):
        size = 32
        vector = rng.normal(size=size)
        expected = hadamard_matrix(size) @ vector
        np.testing.assert_allclose(fast_walsh_hadamard_transform(vector), expected, atol=1e-9)

    def test_inverse_roundtrip(self, rng):
        vector = rng.normal(size=64)
        transformed = fast_walsh_hadamard_transform(vector)
        np.testing.assert_allclose(
            inverse_fast_walsh_hadamard_transform(transformed), vector, atol=1e-9
        )

    def test_one_hot_transform_is_matrix_column(self):
        size = 16
        for item in (0, 3, 15):
            one_hot = np.zeros(size)
            one_hot[item] = 1.0
            np.testing.assert_allclose(
                fast_walsh_hadamard_transform(one_hot), hadamard_matrix(size)[:, item]
            )

    def test_input_not_modified(self):
        vector = np.ones(8)
        fast_walsh_hadamard_transform(vector)
        np.testing.assert_array_equal(vector, np.ones(8))

    def test_rejects_bad_shapes(self):
        with pytest.raises(InvalidDomainError):
            fast_walsh_hadamard_transform(np.ones((4, 4)))
        with pytest.raises(InvalidDomainError):
            fast_walsh_hadamard_transform(np.ones(6))
