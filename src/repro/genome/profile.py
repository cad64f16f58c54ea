"""Pure config → profile entry point for the GACT functional pipeline.

Fig. 16's timing model is parameterized by a *measured* quantity: the
average number of candidate tiles D-SOFT emits per read for a given
(chromosome, sequencer) pair.  Measuring it means building a seed index
over the synthetic reference and filtering simulated reads — by far the
most expensive part of the figure.  This module packages that
measurement as a pure function of hashable configuration, so the
scheduler can treat the result as a content-addressed artifact: equal
inputs always produce an equal, JSON-serializable profile, and a warm
cache restores it instead of re-running the pipeline.
"""

from __future__ import annotations

from functools import lru_cache

from repro.genome.dsoft import DsoftConfig, SeedIndex, dsoft_filter
from repro.genome.sequences import SEQUENCERS, make_reference, simulate_reads


@lru_cache(maxsize=4)
def reference_index(chromosome: str, seed_length: int) -> SeedIndex:
    """The seed index over ``chromosome``'s synthetic reference.

    A pure function of its arguments, so it is memoized like
    :func:`~repro.graph.graphlily.tile_edge_counts`: Fig. 16's nine
    profiles share one index per chromosome.  The reference and the
    index arrays are read-only.
    """
    reference = make_reference(chromosome)
    reference.flags.writeable = False
    return SeedIndex(reference, seed_length)


def measure_tile_profile(
    chromosome: str,
    sequencer: str,
    n_probe_reads: int,
    config: DsoftConfig | None = None,
    seed: int = 11,
) -> dict:
    """Run the functional D-SOFT pipeline and profile its candidate load.

    Deterministic in its arguments (the read simulator and reference are
    seeded), returning only JSON-primitive values — the contract that
    lets the result live in the shared artifact cache.  ``tiles_per_read``
    is the factor Fig. 16 feeds into
    :func:`~repro.genome.darwin.simulate_gact_workload`.
    """
    config = config or DsoftConfig()
    index = reference_index(chromosome, config.seed_length)
    reference = index.reference
    profile = SEQUENCERS[sequencer]
    reads = simulate_reads(reference, profile, n_probe_reads, seed=seed)
    candidates = [len(dsoft_filter(index, read.bases, config)) for read in reads]
    return {
        "chromosome": chromosome,
        "sequencer": sequencer,
        "n_probe_reads": n_probe_reads,
        "seed": seed,
        "reference_bases": int(len(reference)),
        "seed_table_entries": int(index.table_entries),
        "candidates_per_read": candidates,
        "tiles_per_read": max(1.0, sum(candidates) / len(candidates)),
    }
