"""Genome substrate: sequences, D-SOFT, GACT, Darwin timing."""

from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ConfigError
from repro.genome.darwin import darwin_vn_state, simulate_gact_workload
from repro.genome.dsoft import Candidate, DsoftConfig, SeedIndex, dsoft_filter
from repro.genome.gact import GactConfig, GactTimingModel, align_tile
from repro.genome.profile import measure_tile_profile, reference_index
from repro.genome.sequences import (
    CHROMOSOMES,
    PACBIO,
    SEQUENCERS,
    make_reference,
    reference_length,
    simulate_reads,
)


class TestSequences:
    def test_reference_deterministic(self):
        assert np.array_equal(make_reference("chrY"), make_reference("chrY"))

    def test_reference_lengths_scaled(self):
        assert reference_length("chr1") == 248_956_422 // 1024

    def test_unknown_chromosome(self):
        with pytest.raises(ConfigError):
            make_reference("chr99")

    def test_reference_alphabet(self):
        ref = make_reference("chrY")
        assert set(ref.tolist()) <= set(b"ACGT")

    def test_reads_sample_reference(self):
        ref = make_reference("chrY")
        reads = simulate_reads(ref, PACBIO, 5, seed=1)
        assert len(reads) == 5
        for read in reads:
            assert 0 <= read.origin < len(ref)

    def test_error_rates_visible_in_length(self):
        """Insertions and deletions shift the read length distribution."""
        ref = make_reference("chrY")
        reads = simulate_reads(ref, PACBIO, 20, seed=2)
        lengths = np.array([len(r.bases) for r in reads])
        expected = PACBIO.read_length * (1 + PACBIO.insertion - PACBIO.deletion)
        assert abs(lengths.mean() - expected) < 0.05 * PACBIO.read_length

    def test_noisier_profile_diverges_more(self):
        """Alignment score against the true origin drops with error rate
        (positional identity would mislead under indels, so align)."""
        ref = make_reference("chrY")
        clean = simulate_reads(ref, PACBIO, 4, seed=3)
        noisy = simulate_reads(ref, SEQUENCERS["ONT1D"], 4, seed=3)

        def score(read):
            fragment = ref[read.origin : read.origin + 120]
            return align_tile(fragment, read.bases[:120]).score

        assert np.mean([score(r) for r in noisy]) < np.mean(
            [score(r) for r in clean]
        )

    def test_profiles_cover_three_sequencers(self):
        assert set(SEQUENCERS) == {"PacBio", "ONT2D", "ONT1D"}
        assert len(CHROMOSOMES) == 3


class TestDsoft:
    @pytest.fixture(scope="class")
    def index(self):
        ref = make_reference("chrY")[:20_000]
        return SeedIndex(ref, DsoftConfig().seed_length)

    def test_exact_fragment_found_at_origin(self, index):
        ref = index.reference
        query = ref[5_000:5_400]
        candidates = dsoft_filter(index, query)
        assert candidates
        best = candidates[0]
        assert abs(best.reference_position - 5_000) < DsoftConfig().band * 2

    def test_noisy_read_still_found(self, index):
        ref = index.reference
        reads = simulate_reads(ref, PACBIO, 3, seed=5)
        hits = 0
        for read in reads:
            candidates = dsoft_filter(index, read.bases[:400])
            if any(abs(c.reference_position - read.origin) < 256 for c in candidates):
                hits += 1
        assert hits >= 2  # noisy, but most reads anchor correctly

    def test_random_query_filtered_out(self, index):
        rng = np.random.default_rng(6)
        junk = np.frombuffer(b"ACGT", dtype=np.uint8)[rng.integers(0, 4, 400)]
        candidates = dsoft_filter(index, junk)
        assert len(candidates) <= 1  # threshold rejects noise

    def test_short_query_no_candidates(self, index):
        assert dsoft_filter(index, index.reference[:4]) == []

    def test_seed_length_validation(self):
        with pytest.raises(ConfigError):
            SeedIndex(make_reference("chrY")[:100], seed_length=2)

    @pytest.mark.parametrize(("field", "value"), [
        ("stride", 0), ("stride", -4), ("band", 0), ("threshold", 0),
        ("seed_length", 3), ("seed_length", 32),
    ])
    def test_config_validation(self, field, value):
        """A non-positive stride would walk the query backwards (zero
        candidates); zero band or stride crashed mid-filter."""
        with pytest.raises(ConfigError):
            DsoftConfig(**{field: value})

    def test_non_uint8_sequences_rejected(self, index):
        """Any other dtype's windows would mix neighbouring elements'
        bytes: an int64 reference silently indexed its raw buffer."""
        wide = index.reference[:5_000].astype(np.int64)
        with pytest.raises(ConfigError):
            SeedIndex(wide, DsoftConfig().seed_length)
        with pytest.raises(ConfigError):
            SeedIndex(index.reference[:5_000].reshape(50, 100), 12)
        with pytest.raises(ConfigError):
            SeedIndex(index.reference[:5_000].tobytes(), 12)
        with pytest.raises(ConfigError):
            dsoft_filter(index, wide[100:500])


class TestGactAlignment:
    def test_perfect_match_all_m(self):
        seq = np.frombuffer(b"ACGTACGTACGT", dtype=np.uint8)
        result = align_tile(seq, seq)
        assert result.traceback == b"M" * len(seq)
        assert result.score == GactConfig().match * len(seq)

    def test_single_mismatch(self):
        ref = np.frombuffer(b"ACGTACGT", dtype=np.uint8)
        query = ref.copy()
        query[3] = ord("C")
        result = align_tile(ref, query)
        assert result.traceback == b"M" * 8
        assert result.score == 7 * GactConfig().match + GactConfig().mismatch

    def test_deletion_produces_d(self):
        ref = np.frombuffer(b"ACGTACGT", dtype=np.uint8)
        query = np.delete(ref, 4)
        result = align_tile(ref, query)
        assert result.traceback.count(b"D") == 1
        assert len(result.traceback) == 8

    def test_insertion_produces_i(self):
        ref = np.frombuffer(b"ACGTACGT", dtype=np.uint8)
        query = np.insert(ref, 4, ord("T"))
        result = align_tile(ref, query)
        assert result.traceback.count(b"I") == 1

    def test_empty_tile(self):
        result = align_tile(np.array([], dtype=np.uint8), np.array([], dtype=np.uint8))
        assert result.traceback == b""

    def test_traceback_consumes_both_sequences(self):
        ref = np.frombuffer(b"AACCGGTTAACC", dtype=np.uint8)
        query = np.frombuffer(b"AACGGTTTAAC", dtype=np.uint8)
        result = align_tile(ref, query)
        ops = result.traceback
        assert ops.count(b"M") + ops.count(b"D") == len(ref)
        assert ops.count(b"M") + ops.count(b"I") == len(query)


class TestGactTiming:
    def test_tile_cycles_scale_with_tile(self):
        small = GactTimingModel(config=GactConfig(tile_bases=256, overlap=32))
        large = GactTimingModel(config=GactConfig(tile_bases=512, overlap=32))
        assert large.tile_compute_cycles() > 2 * small.tile_compute_cycles()

    def test_tiles_for_read_overlap(self):
        model = GactTimingModel(config=GactConfig(tile_bases=512, overlap=128))
        assert model.tiles_for_read(1024) == 3  # step = 384

    def test_overlap_validation(self):
        with pytest.raises(ConfigError):
            GactConfig(tile_bases=128, overlap=128)


class TestDarwinSimulation:
    def test_scheme_ordering(self):
        res = simulate_gact_workload(500, "PacBio",
                                     schemes=("NP", "BP", "MGX_VN", "MGX_MAC"))
        assert res["NP"].total_cycles < res["MGX_VN"].total_cycles
        assert res["MGX_VN"].total_cycles < res["MGX_MAC"].total_cycles
        assert res["MGX_MAC"].total_cycles < res["BP"].total_cycles

    def test_paper_band_bp(self):
        """BP ≈ 1.10–1.20× (paper avg 1.14)."""
        res = simulate_gact_workload(500, "PacBio")
        ratio = res["BP"].total_cycles / res["NP"].total_cycles
        assert 1.08 < ratio < 1.20

    def test_paper_band_mgx_vn(self):
        """MGX_VN ≈ 1.02–1.07× (paper avg 1.04)."""
        res = simulate_gact_workload(500, "PacBio")
        ratio = res["MGX_VN"].total_cycles / res["NP"].total_cycles
        assert 1.01 < ratio < 1.08

    def test_traffic_bands(self):
        """Traffic: BP +34%, MGX_VN +12.5% (§VII-A)."""
        res = simulate_gact_workload(500, "ONT2D")
        bp = res["BP"].total_bytes / res["NP"].total_bytes
        vn = res["MGX_VN"].total_bytes / res["NP"].total_bytes
        assert 1.28 < bp < 1.40
        assert 1.10 < vn < 1.15

    def test_noisier_reads_write_more_traceback(self):
        """Indel-heavy profiles lengthen traceback paths per tile."""
        clean = simulate_gact_workload(500, "ONT2D")
        noisy = simulate_gact_workload(500, "ONT1D")
        assert noisy["NP"].data_bytes > clean["NP"].data_bytes

    def test_unknown_scheme(self):
        with pytest.raises(ConfigError):
            simulate_gact_workload(10, "PacBio", schemes=("SGX",))

    def test_reads_validation(self):
        with pytest.raises(ConfigError):
            simulate_gact_workload(0, "PacBio")

    def test_vn_state_is_16_bytes(self):
        assert darwin_vn_state().state_bytes == 16


def _naive_index(reference: np.ndarray, k: int) -> dict[bytes, list[int]]:
    """The per-position dict build: window bytes -> ascending positions."""
    view = reference.tobytes()
    naive: dict[bytes, list[int]] = {}
    for position in range(len(reference) - k + 1):
        naive.setdefault(view[position:position + k], []).append(position)
    return naive


def _naive_dsoft_filter(naive: dict[bytes, list[int]], k: int,
                        query: np.ndarray,
                        config: DsoftConfig) -> list[Candidate]:
    """The per-seed D-SOFT loop over a dict index (the reference oracle)."""
    if len(query) < k:
        return []
    view = query.tobytes()
    covered: dict[int, set[int]] = defaultdict(set)
    anchors: dict[int, tuple[int, int]] = {}
    for q_pos in range(0, len(query) - k + 1, config.stride):
        for r_pos in naive.get(view[q_pos:q_pos + k], []):
            band = (r_pos - q_pos) // config.band
            covered[band].update(range(q_pos, q_pos + k))
            if band not in anchors or r_pos < anchors[band][0]:
                anchors[band] = (r_pos, q_pos)
    candidates = [
        Candidate(reference_position=anchors[band][0],
                  query_position=anchors[band][1], covered_bases=len(bases))
        for band, bases in covered.items() if len(bases) >= config.threshold
    ]
    candidates.sort(key=lambda c: (-c.covered_bases, c.reference_position))
    return candidates


@st.composite
def _dsoft_case(draw):
    """A small reference over 2–6 byte symbols, a mutated query and a
    valid config (small alphabets and seeds make repeated k-mers and
    multi-hit bands common)."""
    symbols = draw(st.lists(st.sampled_from(b"ACGT") | st.integers(0, 255),
                            min_size=2, max_size=6, unique=True))
    k = draw(st.integers(4, 8) | st.integers(4, 31))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    alphabet = np.array(symbols, dtype=np.uint8)
    reference = alphabet[rng.integers(0, len(alphabet),
                                      draw(st.integers(0, 400)))]
    start = draw(st.integers(0, len(reference)))
    query = list(reference[start:start + draw(st.integers(0, 200))])
    for _ in range(draw(st.integers(0, 12))):
        position = int(rng.integers(0, len(query) + 1))
        symbol = draw(st.sampled_from(symbols) | st.integers(0, 255))
        mutation = draw(st.sampled_from(("sub", "ins", "del")))
        if mutation == "ins" or position == len(query):
            query.insert(position, symbol)
        elif mutation == "sub":
            query[position] = symbol
        else:
            del query[position]
    config = DsoftConfig(seed_length=k, stride=draw(st.integers(1, 8)),
                         band=draw(st.integers(1, 64)),
                         threshold=draw(st.integers(1, 40)))
    return reference, np.array(query, dtype=np.uint8), config


class TestSeedIndexPinning:
    """The sorted-array index and its batched seed resolution ≡ the
    per-position dict build and the per-seed filter loop."""

    def test_matches_naive_construction(self):
        reference = make_reference("chr1")[:6000]
        k = DsoftConfig().seed_length
        index = SeedIndex(reference, k)
        naive = _naive_index(reference, k)
        for seed, positions in naive.items():
            assert index.lookup(seed) == positions
        assert index.table_entries == len(reference) - k + 1
        assert index.table_entries == sum(len(v) for v in naive.values())

    def test_lookup_miss_and_short_reference(self):
        reference = make_reference("chrY")[:40]
        index = SeedIndex(reference, 31)
        assert index.table_entries == 10
        assert index.lookup(b"\x00" * 31) == []
        empty = SeedIndex(reference[:5], 12)
        assert empty.table_entries == 0

    def test_lookup_returns_fresh_list(self):
        reference = make_reference("chrY")[:5000]
        index = SeedIndex(reference, DsoftConfig().seed_length)
        seed = reference[100:112].tobytes()
        index.lookup(seed).append(-1)
        assert index.lookup(seed) == [100]

    @settings(max_examples=150, deadline=None)
    @given(_dsoft_case())
    def test_differential_against_dict_oracle(self, case):
        reference, query, config = case
        k = config.seed_length
        index = SeedIndex(reference, k)
        naive = _naive_index(reference, k)
        assert index.table_entries == max(0, len(reference) - k + 1)
        view = reference.tobytes()
        for position in range(len(reference) - k + 1):
            seed = view[position:position + k]
            assert index.lookup(seed) == naive[seed]
            assert index.lookup(seed[:-1]) == []
            assert index.lookup(seed + seed[:1]) == []
        for position in range(len(query) - k + 1):
            seed = query[position:position + k].tobytes()
            assert index.lookup(seed) == naive.get(seed, [])
        assert index.lookup(b"") == []
        assert (dsoft_filter(index, query, config)
                == _naive_dsoft_filter(naive, k, query, config))


#: Full-size Fig. 16 profiles at 4 probe reads: (candidates_per_read,
#: tiles_per_read, seed_table_entries) — the measured tile factors the
#: figure's timing model consumes.
FIG16_PROFILES = {
    ("chr1", "PacBio"): ([2, 1, 2, 2], 1.75, 243_110),
    ("chr1", "ONT2D"): ([1, 1, 1, 1], 1.0, 243_110),
    ("chr1", "ONT1D"): ([1, 1, 1, 1], 1.0, 243_110),
    ("chrX", "PacBio"): ([2, 2, 2, 1], 1.75, 152_372),
    ("chrX", "ONT2D"): ([1, 1, 1, 1], 1.0, 152_372),
    ("chrX", "ONT1D"): ([1, 2, 1, 1], 1.25, 152_372),
    ("chrY", "PacBio"): ([2, 2, 2, 1], 1.75, 55_875),
    ("chrY", "ONT2D"): ([1, 2, 1, 1], 1.25, 55_875),
    ("chrY", "ONT1D"): ([1, 1, 1, 1], 1.0, 55_875),
}


@pytest.mark.parametrize(("chromosome", "sequencer"), list(FIG16_PROFILES))
def test_fig16_profile_pinned(chromosome, sequencer):
    profile = measure_tile_profile(chromosome, sequencer, 4)
    assert (profile["candidates_per_read"], profile["tiles_per_read"],
            profile["seed_table_entries"]) == FIG16_PROFILES[
                (chromosome, sequencer)]


def test_fig16_profiles_share_one_index_per_chromosome(monkeypatch):
    """The nine Fig. 16 profiles build one read-only seed index per
    (chromosome, seed length), not one per profile."""
    built = []
    real_init = SeedIndex.__init__

    def counting_init(self, reference, seed_length):
        built.append((len(reference), seed_length))
        real_init(self, reference, seed_length)

    monkeypatch.setattr(SeedIndex, "__init__", counting_init)
    reference_index.cache_clear()
    for chromosome, sequencer in FIG16_PROFILES:
        measure_tile_profile(chromosome, sequencer, 4)
    assert len(built) == 3
    index = reference_index("chrY", DsoftConfig().seed_length)
    for array in (index.reference, index._keys, index._positions):
        assert not array.flags.writeable
