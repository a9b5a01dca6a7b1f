"""Unit tests for the flat range-query mechanism."""

from pathlib import Path

import numpy as np
import pytest

from repro.core.flat import FlatMechanism
from repro.exceptions import ConfigurationError, InvalidQueryError, NotFittedError
from repro.persist import snapshots
from repro.persist.format import unpack_snapshot


class TestLifecycle:
    def test_not_fitted_errors(self):
        mechanism = FlatMechanism(1.0, 32)
        assert not mechanism.is_fitted
        with pytest.raises(NotFittedError):
            mechanism.answer_range(0, 3)
        with pytest.raises(NotFittedError):
            mechanism.estimate_frequencies()

    def test_fit_counts_sets_population(self, small_counts):
        mechanism = FlatMechanism(1.0, small_counts.shape[0])
        mechanism.fit_counts(small_counts, random_state=0)
        assert mechanism.is_fitted
        assert mechanism.n_users == int(small_counts.sum())

    def test_fit_items_equivalent_population(self, rng):
        items = rng.integers(0, 16, size=1000)
        mechanism = FlatMechanism(1.0, 16).fit_items(items, random_state=1)
        assert mechanism.n_users == 1000

    def test_default_name_mentions_oracle(self):
        assert "OUE" in FlatMechanism(1.0, 8).name
        assert "HRR" in FlatMechanism(1.0, 8, oracle="hrr").name


class TestAnswers:
    def test_range_answers_are_prefix_differences(self, small_counts):
        mechanism = FlatMechanism(1.1, small_counts.shape[0])
        mechanism.fit_counts(small_counts, random_state=0)
        frequencies = mechanism.estimate_frequencies()
        assert mechanism.answer_range(3, 10) == pytest.approx(frequencies[3:11].sum())

    def test_full_domain_close_to_one(self, small_counts):
        mechanism = FlatMechanism(1.1, small_counts.shape[0])
        mechanism.fit_counts(small_counts, random_state=0)
        assert mechanism.answer_range(0, small_counts.shape[0] - 1) == pytest.approx(1.0, abs=0.1)

    def test_accuracy_on_large_population(self, medium_counts):
        domain = medium_counts.shape[0]
        mechanism = FlatMechanism(1.1, domain).fit_counts(medium_counts, random_state=3)
        truth = medium_counts[10:21].sum() / medium_counts.sum()
        assert mechanism.answer_range(10, 20) == pytest.approx(truth, abs=0.05)

    def test_answer_ranges_vectorised_matches_scalar(self, small_counts):
        mechanism = FlatMechanism(1.0, small_counts.shape[0])
        mechanism.fit_counts(small_counts, random_state=0)
        queries = np.array([[0, 5], [3, 3], [10, 63]])
        vectorised = mechanism.answer_ranges(queries)
        scalar = [mechanism.answer_range(a, b) for a, b in queries]
        np.testing.assert_allclose(vectorised, scalar)

    def test_estimate_cdf_reuses_prefix_bit_exactly(self, small_counts):
        """The CDF is the materialized prefix array, not a re-derivation."""
        mechanism = FlatMechanism(1.0, small_counts.shape[0])
        mechanism.fit_counts(small_counts, random_state=0)
        np.testing.assert_array_equal(
            mechanism.estimate_cdf(), np.cumsum(mechanism.estimate_frequencies())
        )
        assert mechanism.estimate_cdf().shape == (small_counts.shape[0],)

    def test_invalid_queries(self, small_counts):
        mechanism = FlatMechanism(1.0, small_counts.shape[0])
        mechanism.fit_counts(small_counts, random_state=0)
        with pytest.raises(InvalidQueryError):
            mechanism.answer_range(5, 4)
        with pytest.raises(InvalidQueryError):
            mechanism.answer_range(0, 64)
        with pytest.raises(InvalidQueryError):
            mechanism.answer_ranges(np.array([[0, 64]]))

    def test_answer_variances_are_linear(self, small_counts):
        """Fact 1: a length-``r`` range has variance ``r V_F``."""
        mechanism = FlatMechanism(1.0, small_counts.shape[0])
        mechanism.fit_counts(small_counts, random_state=0)
        short, long = mechanism.answer_variances([[3, 3], [10, 19]])
        assert long == pytest.approx(10 * short)
        assert short == mechanism.oracle.theoretical_variance(mechanism.n_users)

    def test_per_user_mode(self, rng):
        items = rng.integers(0, 8, size=2000)
        mechanism = FlatMechanism(2.0, 8).fit_items(items, random_state=rng, mode="per_user")
        truth = np.bincount(items, minlength=8) / 2000
        np.testing.assert_allclose(mechanism.estimate_frequencies(), truth, atol=0.08)

    def test_malformed_query_array_raises_invalid_query(self, small_counts):
        # Regression: the prefix-sum fast path used to raise a bare
        # ValueError, breaking the library's exception taxonomy.
        mechanism = FlatMechanism(1.0, small_counts.shape[0])
        mechanism.fit_counts(small_counts, random_state=0)
        with pytest.raises(InvalidQueryError):
            mechanism.answer_ranges(np.array([1, 2, 3]))
        with pytest.raises(InvalidQueryError):
            mechanism.answer_ranges(np.zeros((2, 3), dtype=np.int64))

    def test_float_items_rejected(self):
        # Regression: float arrays used to be silently truncated by
        # astype(int64) — item 2.9 became 2 with no error.
        mechanism = FlatMechanism(1.0, 8)
        with pytest.raises(InvalidQueryError):
            mechanism.fit_items(np.array([0.0, 1.5, 2.9]))
        with pytest.raises(InvalidQueryError):
            mechanism.fit_items(np.array([1.0, 2.0]))  # integral values, float dtype
        # Integer dtypes of any width stay accepted.
        mechanism.fit_items(np.array([1, 2, 3], dtype=np.int16), random_state=0)
        assert mechanism.n_users == 3

    def test_bool_items_still_accepted(self):
        # Booleans cast to 0/1 without loss, so they keep working (e.g. a
        # binary indicator attribute over a two-item domain).
        mechanism = FlatMechanism(1.0, 2)
        mechanism.fit_items(np.array([True, False, True]), random_state=0)
        assert mechanism.n_users == 3

    @pytest.mark.parametrize(
        "rows", [[[5, 4]], [[-1, 3]], [[0, 64]], [[0, 1000]], [[0.0, 2.0]], [[True, 3]], [0, 3]]
    )
    def test_answer_variances_refuse_rows_outside_the_domain(self, rows, small_counts):
        """The variance surface shares the answer surface's query gate."""
        mechanism = FlatMechanism(1.0, 64)
        mechanism.fit_counts(small_counts, random_state=0)
        with pytest.raises(InvalidQueryError):
            mechanism.answer_variances(rows)
        with pytest.raises(InvalidQueryError):
            mechanism.answer_ranges(rows)

    def test_answer_variances_take_numpy_rows(self, small_counts):
        mechanism = FlatMechanism(1.0, 64)
        mechanism.fit_counts(small_counts, random_state=0)
        rows = np.array([[0, 4], [0, 63], [7, 7]], dtype=np.int32)
        variances = mechanism.answer_variances(rows)
        assert np.array_equal(variances, mechanism.answer_variances(rows.tolist()))
        assert variances[1] == 64 * variances[2]

    def test_answer_variances_at_an_expected_population(self):
        """Unfitted, the surface needs ``n_users=``; the one label gets
        every user."""
        mechanism = FlatMechanism(1.0, 64, oracle="hrr")
        with pytest.raises(NotFittedError):
            mechanism.answer_variances([[0, 9]])
        for bad in (0, -3, 2.5, True):
            with pytest.raises(ConfigurationError):
                mechanism.answer_variances([[0, 9]], n_users=bad)
        assert mechanism.answer_variances([[0, 9]], n_users=1000)[0] == pytest.approx(
            10 * mechanism.oracle.theoretical_variance(1000)
        )


OLD_LAYOUT_SNAPSHOT = Path(__file__).with_name("flat_oue_accumulator_layout.snap")


class TestOneLabelSkeleton:
    """Flat is the one-label case of the collection skeleton: its state is
    one label's accumulator plus that label's user count, snapshotted in the
    label-keyed layout every mechanism shares."""

    def test_level_sampled_base_class_is_gone(self):
        with pytest.raises(ImportError):
            from repro.core.base import LevelSampledMechanism  # noqa: F401

    def test_flat_has_no_level_user_counts(self):
        mechanism = FlatMechanism(1.0, 8).fit_items(np.arange(8), random_state=0)
        assert not hasattr(mechanism, "level_user_counts")

    @pytest.mark.parametrize("mode", ["aggregate", "per_user"])
    def test_snapshot_holds_one_label(self, mode):
        mechanism = FlatMechanism(1.0, 8).fit_items(np.arange(8), random_state=0, mode=mode)
        mechanism.partial_fit(np.arange(5), random_state=1, mode=mode)
        state = mechanism.state_dict()
        assert sorted(state) == ["accumulators", "level_user_counts", "n_users"]
        assert list(state["accumulators"]) == ["1"]
        assert state["level_user_counts"].tolist() == [13]
        assert int(state["accumulators"]["1"]["n_users"]) == int(state["n_users"]) == 13

    def test_fitted_single_accumulator_layout_is_refused(self):
        data = OLD_LAYOUT_SNAPSHOT.read_bytes()
        header, arrays = unpack_snapshot(data)
        assert header["config"]["kind"] == "flat"
        assert sorted(arrays) == ["accumulator/n_users", "accumulator/ones", "n_users"]
        with pytest.raises(ConfigurationError, match="holds no accumulators"):
            snapshots.from_bytes(data)
        template = FlatMechanism(1.1, 64).fit_items(np.arange(64), random_state=0)
        answers = template.estimate_frequencies()
        with pytest.raises(ConfigurationError):
            snapshots.from_bytes(data, template=template)
        assert template.n_users == 64
        np.testing.assert_array_equal(template.estimate_frequencies(), answers)
