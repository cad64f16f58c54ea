"""A trace priced in slices through one session equals one whole-trace call.

``PerformanceModel.run`` prices a whole :class:`~repro.core.access.Trace`
with one ``price`` call, but the pricing session stays a stream API: cut
the same trace into one ``price`` call per phase and every scheme must
return the same per-phase traffic, the same ``finish()`` tail and the
same scheme and cache state.  These tests pin that on real DNN
inference/training and graph traces; the Hypothesis differential in
``test_batch_pricing.py`` pins it on random cuts.
"""

from __future__ import annotations

from dataclasses import astuple

import numpy as np

from repro.core.access import COLUMN_DTYPES, AccessBatch
from repro.core.schemes import scheme_suite
from repro.sim.runner import SCHEMES, dnn_workload, graph_workload


def _slice(batch: AccessBatch, start: int, stop: int) -> AccessBatch:
    return AccessBatch(*(getattr(batch, name)[start:stop]
                         for name, _ in COLUMN_DTYPES))


def _priced(scheme, calls) -> tuple:
    """Per-phase traffic, ``finish()`` and final state of one session."""
    scheme.reset()
    with scheme.pricing_session() as session:
        tables = [session.price(batch, offsets).table
                  for batch, offsets in calls]
    tail = astuple(scheme.finish())
    cache = getattr(scheme, "cache", None)
    state = [scheme.stats.as_dict()]
    if cache is not None:
        state += [cache.stats.as_dict(), cache.contents()]
    return np.concatenate(tables), tail, state


def _assert_streamed_equals_batched(workload):
    trace = workload.trace
    bounds = trace.offsets.tolist()
    per_phase = [(_slice(trace.batch, start, stop), [0, stop - start])
                 for start, stop in zip(bounds, bounds[1:])]
    batched = scheme_suite(workload.protected_bytes)
    streamed = scheme_suite(workload.protected_bytes)
    for name in SCHEMES:
        whole = _priced(batched[name], [(trace.batch, trace.offsets)])
        sliced = _priced(streamed[name], per_phase)
        assert np.array_equal(whole[0], sliced[0]), name
        assert whole[1:] == sliced[1:], name


class TestStreamedEqualsBatched:
    def test_dnn_inference(self):
        _assert_streamed_equals_batched(
            dnn_workload("AlexNet", "Cloud", use_cache=False))

    def test_dnn_training(self):
        _assert_streamed_equals_batched(
            dnn_workload("AlexNet", "Cloud", training=True, use_cache=False))

    def test_graph_pagerank(self):
        _assert_streamed_equals_batched(
            graph_workload("google-plus", "PR", scale_divisor=512,
                           use_cache=False))
