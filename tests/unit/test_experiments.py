"""Unit tests for the experiment harness (config, runner, reporting)."""

import numpy as np
import pytest

from repro.data.workloads import all_range_queries
from repro.exceptions import ConfigurationError
from repro.experiments.config import LAPTOP_SCALE, PAPER_SCALE, DataConfig, ExperimentConfig
from repro.experiments.reporting import format_table, pivot_by_epsilon, render_results
from repro.experiments.runner import CellResult, evaluate_mechanism, run_epsilon_grid


class TestConfig:
    def test_paper_scale_matches_paper(self):
        assert PAPER_SCALE.n_users == 1 << 26
        assert PAPER_SCALE.repetitions == 5
        assert (1 << 22) in PAPER_SCALE.domain_sizes

    def test_laptop_scale_is_smaller(self):
        assert LAPTOP_SCALE.n_users < PAPER_SCALE.n_users

    def test_data_config_counts(self):
        config = DataConfig(center_fraction=0.4)
        counts = config.counts(128, 10_000)
        assert counts.sum() == 10_000
        assert abs(int(np.argmax(counts)) - 51) <= 2  # mode near P * D

    def test_scaled_override(self):
        config = LAPTOP_SCALE.scaled(n_users=1000, repetitions=1)
        assert config.n_users == 1000
        assert config.repetitions == 1
        # The original is untouched (frozen dataclass).
        assert LAPTOP_SCALE.n_users != 1000

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(n_users=0)
        with pytest.raises(ConfigurationError):
            ExperimentConfig(repetitions=0)
        with pytest.raises(ConfigurationError):
            ExperimentConfig(workers=0)

    def test_workers_default_serial(self):
        assert LAPTOP_SCALE.workers == 1


class TestRunner:
    @pytest.fixture
    def counts(self):
        return DataConfig().counts(64, 50_000)

    @pytest.fixture
    def workload(self):
        return all_range_queries(64)

    def test_evaluate_mechanism_fields(self, counts, workload):
        cell = evaluate_mechanism(
            "hhc_4", counts, workload, epsilon=1.1, repetitions=2, random_state=0
        )
        assert cell.mechanism == "hhc_4"
        assert cell.domain_size == 64
        assert cell.n_users == 50_000
        assert cell.repetitions == 2
        assert cell.mse_mean > 0
        assert cell.scaled_mse == pytest.approx(cell.mse_mean * 1000)
        assert cell.as_dict()["workload"] == workload.name

    def test_evaluate_mechanism_deterministic_given_seed(self, counts, workload):
        first = evaluate_mechanism("haar", counts, workload, 1.0, repetitions=2, random_state=9)
        second = evaluate_mechanism("haar", counts, workload, 1.0, repetitions=2, random_state=9)
        assert first.mse_mean == pytest.approx(second.mse_mean)

    def test_evaluate_mechanism_kwargs_forwarded(self, counts, workload):
        cell = evaluate_mechanism(
            "hhc_4",
            counts,
            workload,
            epsilon=1.0,
            repetitions=1,
            random_state=0,
            mechanism_kwargs={"budget_strategy": "splitting"},
        )
        assert cell.mse_mean > 0

    def test_repetitions_validation(self, counts, workload):
        with pytest.raises(ConfigurationError):
            evaluate_mechanism("haar", counts, workload, 1.0, repetitions=0)

    def test_run_epsilon_grid_shape(self, counts, workload):
        results = run_epsilon_grid(
            ["hhc_4", "haar"], counts, workload, epsilons=[0.5, 1.0], repetitions=1, random_state=0
        )
        assert len(results) == 4
        assert {cell.epsilon for cell in results} == {0.5, 1.0}
        assert {cell.mechanism for cell in results} == {"hhc_4", "haar"}

    def test_run_epsilon_grid_accepts_generators(self, counts, workload):
        # Regression: `len(list(epsilons))` used to exhaust generator inputs
        # before the sweep loops ran, silently returning too few results.
        lazy = run_epsilon_grid(
            (spec for spec in ["hhc_4", "haar"]),
            counts,
            workload,
            epsilons=(eps for eps in [0.5, 1.0]),
            repetitions=1,
            random_state=0,
        )
        eager = run_epsilon_grid(
            ["hhc_4", "haar"], counts, workload, epsilons=[0.5, 1.0], repetitions=1, random_state=0
        )
        assert len(lazy) == len(eager) == 4
        assert [cell.mse_mean for cell in lazy] == [cell.mse_mean for cell in eager]

    def test_workers_validation(self, counts, workload):
        with pytest.raises(ConfigurationError):
            evaluate_mechanism("haar", counts, workload, 1.0, workers=0)
        with pytest.raises(ConfigurationError):
            run_epsilon_grid(
                ["haar"], counts, workload, epsilons=[1.0], workers=0
            )

    def test_transport_keyword_removed_from_evaluate(self, counts, workload):
        # One worker transport (the pickle initializer): nothing to choose.
        with pytest.raises(TypeError):
            evaluate_mechanism("haar", counts, workload, 1.0, workers=2, transport="shm")

    def test_transport_keyword_removed_from_grid(self, counts, workload):
        with pytest.raises(TypeError):
            run_epsilon_grid(
                ["haar"], counts, workload, epsilons=[1.0], workers=2, transport="shm"
            )

    def test_error_decreases_with_epsilon(self, counts, workload):
        results = run_epsilon_grid(
            ["hhc_4"], counts, workload, epsilons=[0.2, 1.4], repetitions=3, random_state=1
        )
        by_eps = {cell.epsilon: cell.mse_mean for cell in results}
        assert by_eps[1.4] < by_eps[0.2]


class TestParallelRunner:
    """workers > 1 fans out across processes, bit-identically to serial."""

    @pytest.fixture
    def counts(self):
        return DataConfig().counts(32, 20_000)

    @pytest.fixture
    def workload(self):
        return all_range_queries(32)

    def test_parallel_grid_bit_identical_to_serial(self, counts, workload):
        kwargs = dict(
            counts=counts,
            workload=workload,
            epsilons=[0.5, 1.1],
            repetitions=2,
            random_state=42,
        )
        specs = ["flat_oue", "hhc_4", "haar"]
        serial = run_epsilon_grid(specs, workers=1, **kwargs)
        parallel = run_epsilon_grid(specs, workers=4, **kwargs)
        assert serial == parallel  # CellResults compare field-exact

    @pytest.mark.parametrize("spec", ["hhc_4", "flat_oue"])
    def test_parallel_evaluate_bit_identical_to_serial(self, spec, counts, workload):
        serial = evaluate_mechanism(
            spec, counts, workload, 1.0, repetitions=3, random_state=5, workers=1
        )
        parallel = evaluate_mechanism(
            spec, counts, workload, 1.0, repetitions=3, random_state=5, workers=3
        )
        assert serial == parallel

    def test_parallel_results_ordered_like_serial(self, counts, workload):
        results = run_epsilon_grid(
            ["hhc_4", "haar"],
            counts,
            workload,
            epsilons=[0.5, 1.1],
            repetitions=1,
            random_state=0,
            workers=2,
        )
        layout = [(cell.epsilon, cell.mechanism) for cell in results]
        assert layout == [
            (0.5, "hhc_4"),
            (0.5, "haar"),
            (1.1, "hhc_4"),
            (1.1, "haar"),
        ]


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 2.5], ["xx", 3]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "a" in lines[0] and "bb" in lines[0]

    def test_pivot_by_epsilon(self):
        cells = [
            CellResult("m1", 0.5, 64, 100, "w", 0.1, 0.0, 1),
            CellResult("m2", 0.5, 64, 100, "w", 0.2, 0.0, 1),
            CellResult("m1", 1.0, 64, 100, "w", 0.05, 0.0, 1),
        ]
        pivot = pivot_by_epsilon(cells)
        assert set(pivot) == {0.5, 1.0}
        assert set(pivot[0.5]) == {"m1", "m2"}

    def test_render_results_marks_best(self):
        cells = [
            CellResult("m1", 0.5, 64, 100, "w", 0.1, 0.0, 1),
            CellResult("m2", 0.5, 64, 100, "w", 0.2, 0.0, 1),
        ]
        text = render_results(cells)
        assert "100.000*" in text  # m1's scaled MSE marked as the row best
        assert "200.000" in text

    def test_render_empty(self):
        assert render_results([]) == "(no results)"
