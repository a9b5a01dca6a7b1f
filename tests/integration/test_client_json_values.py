"""``ServiceClient`` sends list input as the JSON values it holds.

The client used to serialise every list through ``np.asarray(x).tolist()``,
which turns a bool mixed into numbers into a number: ``[0.5, True]``
became ``[0.5, 1.0]`` and ``[[0, True]]`` became ``[[0, 1]]``, so the
server answered what it refuses when the bool arrives as a JSON bool.  A
bool in list input must now reach the server as a JSON bool and get its
typed 400, on every JSON endpoint.  ``np.ndarray`` input keeps its one
``tolist()``.
"""

import json

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.service import HttpServerThread, ServiceClient
from repro.service.client import _json_values
from repro.streaming import ShardedCollector

DOMAIN = 64
EPSILON = 1.0


def _collector(spec="flat_oue", domain=DOMAIN):
    return ShardedCollector(spec, epsilon=EPSILON, domain_size=domain, random_state=5)


class TestJsonValues:
    @pytest.mark.parametrize(
        "values, expected",
        [
            ([0.5, True], [0.5, True]),
            ([[0, True]], [[0, True]]),
            ((0, np.True_, np.int64(3), np.float64(0.25)), [0, True, 3, 0.25]),
            ([np.array([1, 2]), (3, False)], [[1, 2], [3, False]]),
            (range(3), [0, 1, 2]),
            ([["0.5", 1]], [["0.5", 1]]),
        ],
    )
    def test_lists_keep_each_entry_type(self, values, expected):
        converted = _json_values(values)
        assert json.dumps(converted) == json.dumps(expected)

    def test_arrays_take_one_tolist(self):
        array = np.array([[0, 1], [2, 3]])
        assert _json_values(array) == array.tolist()
        assert json.dumps(_json_values(np.array([True, False]))) == "[true, false]"


class TestBoolsAreRefused:
    def test_query_surfaces_refuse_a_bool_among_numbers(self):
        with HttpServerThread(_collector()) as server:
            with ServiceClient(*server.address) as client:
                assert client.post_batch_retrying(np.arange(DOMAIN)).status == 202
                for ask in (
                    lambda: client.query_quantiles([0.5, True]),
                    lambda: client.query_quantiles((np.False_, 0.5)),
                    lambda: client.query_ranges([[0, True]]),
                    lambda: client.query_ranges([(2, 5), [True, 9]]),
                ):
                    with pytest.raises(ConfigurationError, match="HTTP 400"):
                        ask()
                # The same values without the bool are answered.
                assert len(client.query_quantiles([0.5, 1])) == 2
                assert client.query_ranges([[0, 1]]).shape == (1,)
                assert client.query_ranges(np.array([[0, 1]])).shape == (1,)

    def test_query_boxes_refuses_a_bool_among_numbers(self):
        with HttpServerThread(_collector("grid2d_2", 8)) as server:
            with ServiceClient(*server.address) as client:
                assert client.post_points([[1, 2], [3, 4]]).status == 202
                with pytest.raises(ConfigurationError, match="HTTP 400"):
                    client.query_boxes([[0, True, 0, 7]])
                assert client.query_boxes([[0, 1, 0, 7]]).shape == (1,)

    def test_submissions_refuse_a_bool_among_numbers(self):
        with HttpServerThread(_collector()) as server:
            with ServiceClient(*server.address) as client:
                refused = client.post_batch([3, True, 5])
                accepted = client.post_batch([3, 1, 5])
            stats = server.stats()
        assert refused.status == 400
        assert accepted.status == 202
        assert (stats["submitted_batches"], stats["submitted_users"]) == (1, 3)

    def test_points_refuse_a_bool_among_numbers(self):
        with HttpServerThread(_collector("grid2d_2", 8)) as server:
            with ServiceClient(*server.address) as client:
                refused = client.post_points([[1, True], [2, 3]])
                accepted = client.post_points([[1, 1], [2, 3]])
        assert refused.status == 400
        assert accepted.status == 202
