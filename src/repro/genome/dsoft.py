"""D-SOFT: seed-based candidate filtration (Darwin's first stage).

D-SOFT counts, per diagonal band of the (reference, query) alignment
plane, how many *distinct query bases* are covered by exact seed hits; a
band whose covered-base count reaches the threshold ``h`` yields a
candidate position for GACT extension.  This is the software half of
Darwin (the paper runs it on the CPU); we implement it functionally so
the pipeline produces real candidates and realistic tile counts.
Sequences are 1-D ``uint8`` arrays; a seed is the raw bytes of one
length-``k`` window, so any byte alphabet works.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from repro.common.errors import ConfigError


def _check_seed_length(seed_length: int) -> None:
    if not 4 <= seed_length <= 31:
        raise ConfigError(f"seed length must be in [4, 31], got {seed_length}")


def _window_keys(sequence: np.ndarray, k: int, what: str) -> np.ndarray:
    """Every length-``k`` window of ``sequence`` as one ``np.void`` key
    (void keys compare as raw bytes: equal keys ⟺ equal windows).

    Only a 1-D ``uint8`` array's elements are single symbols; the windows
    of any other array would mix the bytes of neighbouring elements.
    """
    if not (isinstance(sequence, np.ndarray) and sequence.ndim == 1
            and sequence.dtype == np.uint8):
        raise ConfigError(f"{what} must be a 1-D uint8 array, got "
                          f"{getattr(sequence, 'dtype', type(sequence))} "
                          f"of shape {getattr(sequence, 'shape', None)}")
    key = np.dtype((np.void, k))
    if len(sequence) < k:
        return np.empty(0, dtype=key)
    windows = np.lib.stride_tricks.sliding_window_view(sequence, k)
    return np.ascontiguousarray(windows).view(key).ravel()


@dataclass(frozen=True)
class DsoftConfig:
    """Seed and filtration parameters (defaults follow Darwin, scaled)."""

    seed_length: int = 12
    #: Query positions sampled every ``stride`` bases.
    stride: int = 4
    #: Diagonal band width in bases.
    band: int = 64
    #: Minimum distinct query bases covered by hits in one band.
    threshold: int = 24

    def __post_init__(self) -> None:
        _check_seed_length(self.seed_length)
        if min(self.stride, self.band, self.threshold) < 1:
            raise ConfigError(f"stride, band and threshold must be >= 1: {self}")

    def cache_key(self) -> tuple:
        """Stable primitive tuple for content-addressed artifact keys.

        Fields are spelled out (never ``astuple``) so a dataclass
        reordering cannot silently change the key of every cached
        D-SOFT measurement.
        """
        return ("dsoft", self.seed_length, self.stride, self.band,
                self.threshold)


class SeedIndex:
    """Exact k-mer position index over a reference sequence.

    Two parallel arrays: every reference window's ``np.void`` key in
    sorted order, and the window's start position beside it.  The sort
    is stable, so each k-mer's positions are one ascending run; a lookup
    is a pair of binary searches for the run's ends.
    """

    def __init__(self, reference: np.ndarray, seed_length: int) -> None:
        _check_seed_length(seed_length)
        self.seed_length = seed_length
        self.reference = reference
        keys = _window_keys(reference, seed_length, "reference")
        self._positions = np.argsort(keys, kind="stable")
        self._keys = keys[self._positions]
        self._positions.flags.writeable = False
        self._keys.flags.writeable = False

    def _runs(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``[start, end)`` of each key's run in the position column."""
        return (np.searchsorted(self._keys, keys, side="left"),
                np.searchsorted(self._keys, keys, side="right"))

    def lookup(self, seed: bytes) -> list[int]:
        """Ascending reference positions of ``seed``, as a fresh list
        (``[]`` when it is absent or not ``seed_length`` bytes long)."""
        if len(seed) != self.seed_length:
            return []
        starts, ends = self._runs(np.frombuffer(seed, dtype=self._keys.dtype))
        return self._positions[starts[0]:ends[0]].tolist()

    @property
    def table_entries(self) -> int:
        return len(self._positions)


@dataclass(frozen=True)
class Candidate:
    """A filtered candidate alignment position."""

    reference_position: int
    query_position: int
    covered_bases: int


def dsoft_filter(index: SeedIndex, query: np.ndarray,
                 config: DsoftConfig | None = None) -> list[Candidate]:
    """Candidate (reference, query) anchor positions for one query read.

    The seeds (every ``stride``-th query window) are resolved in one pair
    of binary searches; their hits are binned in (query, reference) order.
    """
    config = config or DsoftConfig()
    k = index.seed_length
    starts, ends = index._runs(_window_keys(query, k, "query")[::config.stride])
    positions = index._positions
    #: band id -> set of covered query offsets (distinct-base counting)
    covered: dict[int, set[int]] = defaultdict(set)
    anchors: dict[int, tuple[int, int]] = {}
    for q_pos, start, end in zip(range(0, len(query) - k + 1, config.stride),
                                 starts.tolist(), ends.tolist()):
        for r_pos in positions[start:end].tolist():
            band = (r_pos - q_pos) // config.band
            bucket = covered[band]
            bucket.update(range(q_pos, q_pos + k))
            if band not in anchors or r_pos < anchors[band][0]:
                anchors[band] = (r_pos, q_pos)
    candidates = []
    for band, bases in covered.items():
        if len(bases) >= config.threshold:
            r_pos, q_pos = anchors[band]
            candidates.append(
                Candidate(reference_position=r_pos, query_position=q_pos,
                          covered_bases=len(bases))
            )
    candidates.sort(key=lambda c: (-c.covered_bases, c.reference_position))
    return candidates
