"""Unit tests for the generation-keyed answer cache (repro.core.cache).

Covers the cache data structure itself, the read-surface hooks every
mechanism family gained, and the architectural guard that keeps the cache
out of write paths (the LDP-R003 discipline: ``partial_fit`` /
``merge_from`` / ``fit_*`` / ``load_state_dict`` bodies never touch
``_answer_cache`` — invalidation happens by generation-key unreachability,
never by explicit write-path calls).
"""

import ast
import pathlib

import numpy as np
import pytest

from repro.core.cache import DEFAULT_ANSWER_CACHE_SIZE, MISS, AnswerCache
from repro.core.factory import mechanism_from_spec
from repro.data.workloads import random_boxes
from repro.exceptions import ConfigurationError

DOMAIN = 64
SIDE = 16
SPECS = ["flat_oue", "hh_4", "hhc_4", "haar"]


class TestAnswerCache:
    def test_miss_then_hit(self):
        cache = AnswerCache(maxsize=4)
        assert cache.get(0, "a") is MISS
        cache.put(0, "a", 1.5)
        assert cache.get(0, "a") == 1.5
        assert cache.stats() == {
            "hits": 1, "misses": 1, "evictions": 0, "size": 1, "maxsize": 4,
        }

    def test_generation_partitions_the_keyspace(self):
        cache = AnswerCache(maxsize=4)
        cache.put(0, "a", 1.0)
        assert cache.get(1, "a") is MISS
        cache.put(1, "a", 2.0)
        assert cache.get(0, "a") == 1.0
        assert cache.get(1, "a") == 2.0

    def test_lru_eviction_order(self):
        cache = AnswerCache(maxsize=2)
        cache.put(0, "a", 1)
        cache.put(0, "b", 2)
        cache.get(0, "a")  # refresh "a" -> "b" is now LRU
        cache.put(0, "c", 3)
        assert cache.get(0, "b") is MISS
        assert cache.get(0, "a") == 1
        assert cache.get(0, "c") == 3
        assert cache.stats()["evictions"] == 1

    def test_arrays_copied_on_put_and_get(self):
        cache = AnswerCache(maxsize=4)
        stored = np.array([1.0, 2.0])
        cache.put(0, "a", stored)
        stored[0] = 99.0  # caller mutates its copy after the put
        first = cache.get(0, "a")
        np.testing.assert_array_equal(first, [1.0, 2.0])
        first[1] = 99.0  # and mutates a hit result
        np.testing.assert_array_equal(cache.get(0, "a"), [1.0, 2.0])

    def test_maxsize_zero_disables(self):
        cache = AnswerCache(maxsize=0)
        cache.put(0, "a", 1)
        assert cache.get(0, "a") is MISS
        assert len(cache) == 0
        # A disabled cache does not even count misses: get is a pure bypass.
        assert cache.stats()["misses"] == 0

    def test_resize_evicts_and_disables(self):
        cache = AnswerCache(maxsize=8)
        for index in range(6):
            cache.put(0, index, index)
        cache.resize(2)
        assert len(cache) == 2
        assert cache.stats()["evictions"] == 4
        cache.resize(0)
        assert len(cache) == 0
        assert cache.maxsize == 0

    def test_clear_preserves_counters(self):
        cache = AnswerCache(maxsize=4)
        cache.put(0, "a", 1)
        cache.get(0, "a")
        cache.clear()
        assert len(cache) == 0
        assert cache.stats()["hits"] == 1

    @pytest.mark.parametrize("bad", [-1, 1.5, "8", None])
    def test_invalid_maxsize_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            AnswerCache(maxsize=bad)
        with pytest.raises(ConfigurationError):
            AnswerCache().resize(bad)

    def test_default_size(self):
        assert AnswerCache().maxsize == DEFAULT_ANSWER_CACHE_SIZE


def _fitted(spec, domain=DOMAIN, users=3000):
    mechanism = mechanism_from_spec(spec, epsilon=1.1, domain_size=domain)
    items = np.random.default_rng(17).integers(
        0, getattr(mechanism, "flat_domain_size", mechanism.domain_size), size=users
    )
    return mechanism.fit_items(items, random_state=18).materialize()


class TestMechanismCaching:
    @pytest.mark.parametrize("spec", SPECS)
    def test_repeated_ranges_hit_and_stay_bit_identical(self, spec):
        mechanism = _fitted(spec)
        queries = np.sort(
            np.random.default_rng(19).integers(0, DOMAIN, size=(16, 2)), axis=1
        )
        first = mechanism.answer_ranges(queries)
        second = mechanism.answer_ranges(queries)
        np.testing.assert_array_equal(first, second)
        stats = mechanism.answer_cache_stats()
        assert stats["hits"] >= 1
        assert stats["misses"] >= 1

    @pytest.mark.parametrize("spec", SPECS)
    def test_scalar_and_quantile_surfaces_cache(self, spec):
        mechanism = _fitted(spec)
        assert mechanism.answer_range(3, 40) == mechanism.answer_range(3, 40)
        assert mechanism.quantiles((0.25, 0.75)) == mechanism.quantiles((0.25, 0.75))
        assert mechanism.answer_cache_stats()["hits"] >= 2

    def test_box_surfaces_cache(self):
        grid = mechanism_from_spec("grid2d_2", epsilon=1.1, domain_size=SIDE)
        points = np.random.default_rng(20).integers(0, SIDE, size=(3000, 2))
        grid.fit_points(points, random_state=21).materialize()
        boxes = random_boxes(SIDE, 12, dims=2, random_state=22)
        np.testing.assert_array_equal(
            grid.answer_boxes(boxes), grid.answer_boxes(boxes)
        )
        assert grid.answer_box(((0, 4), (2, 9))) == grid.answer_box(((0, 4), (2, 9)))
        assert grid.answer_cache_stats()["hits"] >= 2

    def test_write_invalidates_by_generation(self):
        mechanism = _fitted("hhc_4")
        before = mechanism.answer_range(0, 30)
        generation = mechanism.ingest_generation
        mechanism.partial_fit(
            np.random.default_rng(23).integers(0, DOMAIN, size=500),
            np.random.default_rng(24),
        )
        assert mechanism.ingest_generation == generation + 1
        mechanism.answer_range(0, 30)
        # The stale entry is unreachable under the new generation: the read
        # recomputed (a fresh miss) instead of serving the old answer, and
        # both generations' entries coexist until the LRU ages them out.
        stats = mechanism.answer_cache_stats()
        assert stats["misses"] >= 2
        assert stats["hits"] == 0
        assert stats["size"] == 2
        assert isinstance(before, float)

    def test_set_answer_cache_size_zero_disables(self):
        mechanism = _fitted("flat_oue")
        mechanism.set_answer_cache_size(0)
        queries = np.array([[0, 10], [5, 20]], dtype=np.int64)
        mechanism.answer_ranges(queries)
        mechanism.answer_ranges(queries)
        stats = mechanism.answer_cache_stats()
        assert stats == {
            "hits": 0, "misses": 0, "evictions": 0, "size": 0, "maxsize": 0,
        }

    def test_invalid_query_not_cached(self):
        mechanism = _fitted("hh_4")
        from repro.exceptions import InvalidQueryError

        with pytest.raises(InvalidQueryError):
            mechanism.answer_range(10, 5)
        assert mechanism.answer_cache_stats()["size"] == 0

    def test_resized_cache_serves_repeats(self):
        mechanism = _fitted("hhc_4")
        mechanism.set_answer_cache_size(7)
        assert mechanism.answer_cache_stats()["maxsize"] == 7
        first = mechanism.answer_range(2, 30)
        assert mechanism.answer_range(2, 30) == first
        assert mechanism.answer_cache_stats()["hits"] >= 1


class TestWritePathDiscipline:
    """Cache reads must never occur inside write paths (LDP-R003's spirit):
    invalidation works *only* because writes never consult the cache — they
    bump the generation and move on."""

    WRITE_PREFIXES = ("partial_fit", "merge_from", "fit_", "submit", "load_state_dict")

    def test_no_write_path_touches_the_answer_cache(self):
        src = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"
        offenders = []
        for path in sorted(src.rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if not node.name.startswith(self.WRITE_PREFIXES):
                    continue
                for inner in ast.walk(node):
                    if (
                        isinstance(inner, ast.Attribute)
                        and inner.attr == "_answer_cache"
                    ):
                        offenders.append(f"{path.name}:{node.name}")
        assert offenders == []
