"""Benchmark: the D-SOFT seed index behind Fig. 16's tile factors.

Builds the full-size chr1 index (the largest of the figure's three) and
filters chr1/PacBio's probe reads through it — the per-chromosome work
of one ``gact`` profile.  ``bench_trend.py`` tracks it under the
``seed_index`` filter term; the assertions are deterministic (entry and
candidate counts), never wall-clock bounds, because tier-1 collects
this directory too.
"""

from __future__ import annotations

from repro.genome.dsoft import DsoftConfig, SeedIndex, dsoft_filter
from repro.genome.sequences import PACBIO, make_reference, simulate_reads

PROBE_READS = 4  # fig16's full-size probe count


def test_seed_index_build(benchmark):
    config = DsoftConfig()
    reference = make_reference("chr1")
    reads = simulate_reads(reference, PACBIO, PROBE_READS, seed=11)

    def build_and_filter():
        index = SeedIndex(reference, config.seed_length)
        return index, [len(dsoft_filter(index, read.bases, config))
                       for read in reads]

    index, candidates = benchmark(build_and_filter)
    assert index.table_entries == len(reference) - config.seed_length + 1
    assert index.table_entries == 243_110
    assert candidates == [2, 1, 2, 2]
