"""Sharded, batched and streaming LDP collection.

The paper's protocols are presented one-shot: the whole population is
available up front and a single aggregator decodes all reports at once.  At
industry scale that assumption breaks — reports from millions of users
arrive in batches, land on many ingestion shards, and analysts want answers
before collection is "done".  LDP aggregation is naturally *mergeable*: an
aggregator's state is a sum of per-report contributions, so collection can
be split arbitrarily across time (batches) and space (shards) and reduced by
adding sufficient statistics, with estimates identical in distribution to a
one-shot fit of the union population.

This package is the serving-side of that observation, built on two layers
underneath it:

* every frequency oracle exposes a mergeable
  :class:`~repro.frequency_oracles.accumulators.OracleAccumulator`
  (``add`` / ``add_counts`` / ``merge`` / ``estimate``) over its sufficient
  statistic — column sums for OUE/SUE, support tallies for OLH, symbol
  histograms for GRR, coefficient sums for HRR;
* every :class:`~repro.core.base.RangeQueryMechanism` (flat,
  hierarchical histograms, Haar wavelets, N-d grids) exposes incremental
  collection (:meth:`~repro.core.base.RangeQueryMechanism.partial_fit`)
  and shard combination (:meth:`~repro.core.base.RangeQueryMechanism.merge_from`).

:class:`ShardedCollector` ties the layers together: it places report
batches round-robin on ``K`` shards, which are independent random streams,
folds every batch into one accumulated mechanism with its shard's stream,
and reduces that state into a fresh queryable mechanism.  Because the
statistics are exact sums, the one state equals the merge of ``K``
per-shard states bit for bit.

Example
-------
>>> import numpy as np
>>> from repro.streaming import ShardedCollector
>>> items = np.random.default_rng(0).integers(0, 1024, size=300_000)
>>> collector = ShardedCollector(
...     "hhc_4", epsilon=1.1, domain_size=1024, n_shards=4, random_state=7
... )
>>> for batch in np.array_split(items, 30):      # e.g. arrival order
...     _ = collector.submit(batch)
>>> mechanism = collector.reduce()               # merged, ready to query
>>> answer = mechanism.answer_range(100, 500)

Privacy note: sharding changes nothing about the guarantee — each user still
sends exactly one ``epsilon``-LDP report; shards only choose the random
stream that simulates it.

Beyond this module: :meth:`ShardedCollector.checkpoint` /
:meth:`~ShardedCollector.restore` give crash recovery through
:mod:`repro.persist`, and :mod:`repro.service` adds the asynchronous
multi-producer ingestion tier and its HTTP front on top.
"""

from repro.streaming.evaluation import one_shot_vs_sharded
from repro.streaming.sharded import ShardedCollector

__all__ = ["ShardedCollector", "one_shot_vs_sharded"]
