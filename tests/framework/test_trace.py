"""Tests for memory-trace construction."""

import numpy as np
import pytest

from repro.framework.trace import AddressSpace, Region, TraceBuilder


class TestAddressSpace:
    def test_regions_disjoint(self):
        space = AddressSpace()
        a = space.region("a", 1000, 8)
        b = space.region("b", 1000, 8)
        a_blocks = a.block_of(np.arange(1000))
        b_blocks = b.block_of(np.arange(1000))
        assert set(a_blocks.tolist()).isdisjoint(b_blocks.tolist())

    def test_duplicate_name_rejected(self):
        space = AddressSpace()
        space.region("a", 10, 8)
        with pytest.raises(ValueError):
            space.region("a", 10, 8)

    def test_block_of_packs_elements(self):
        region = Region("r", base=0, element_bytes=8)
        blocks = region.block_of(np.arange(16))
        assert blocks[:8].tolist() == [0] * 8
        assert blocks[8:].tolist() == [1] * 8

    def test_wider_elements_pack_fewer(self):
        region = Region("r", base=0, element_bytes=16)
        blocks = region.block_of(np.arange(8))
        assert blocks.tolist() == [0, 0, 0, 0, 1, 1, 1, 1]


class TestTraceBuilder:
    def test_key_ordering(self):
        space = AddressSpace()
        r = space.region("p", 100, 64)  # one block per element
        builder = TraceBuilder()
        builder.add(r, np.array([0, 2]), np.array([0.0, 2.0]))
        builder.add(r, np.array([1]), np.array([1.0]))
        trace = builder.build()
        base = r.block_of(np.array([0]))[0]
        assert trace.blocks.tolist() == [base, base + 1, base + 2]

    def test_run_length_compression(self):
        space = AddressSpace()
        r = space.region("p", 100, 8)
        builder = TraceBuilder()
        # Elements 0..7 share one block: compresses into a single run.
        builder.add(r, np.arange(8), np.arange(8, dtype=float))
        trace = builder.build()
        assert len(trace) == 1
        assert trace.accesses == 8
        assert trace.total_accesses == 8

    def test_no_compression_across_write_flag(self):
        space = AddressSpace()
        r = space.region("p", 100, 8)
        builder = TraceBuilder()
        builder.add(r, np.array([0]), np.array([0.0]), write=False)
        builder.add(r, np.array([1]), np.array([1.0]), write=True)
        trace = builder.build()
        assert len(trace) == 2
        assert trace.writes.tolist() == [False, True]

    def test_no_compression_across_cores(self):
        space = AddressSpace()
        r = space.region("p", 100, 8)
        builder = TraceBuilder()
        builder.add(r, np.array([0]), np.array([0.0]), core=0)
        builder.add(r, np.array([1]), np.array([1.0]), core=1)
        trace = builder.build()
        assert len(trace) == 2
        assert trace.cores.tolist() == [0, 1]

    def test_per_access_cores_array(self):
        space = AddressSpace()
        r = space.region("p", 100, 64)
        builder = TraceBuilder()
        builder.add(r, np.array([0, 1]), np.array([0.0, 1.0]), core=np.array([3, 5]))
        trace = builder.build()
        assert trace.cores.tolist() == [3, 5]

    def test_empty_build(self):
        trace = TraceBuilder().build()
        assert len(trace) == 0
        assert trace.total_accesses == 0

    def test_keys_must_align(self):
        space = AddressSpace()
        r = space.region("p", 10, 8)
        with pytest.raises(ValueError):
            TraceBuilder().add(r, np.array([0, 1]), np.array([0.0]))

    def test_interleaving_two_streams(self):
        space = AddressSpace()
        prop = space.region("prop", 100, 64)
        edge = space.region("edge", 100, 64)
        builder = TraceBuilder()
        # Property reads at integer keys, edge stream just before each.
        builder.add(prop, np.array([5, 6]), np.array([0.0, 1.0]))
        builder.add(edge, np.array([0, 1]), np.array([-0.5, 0.5]))
        trace = builder.build()
        expected = [
            edge.block_of(np.array([0]))[0],
            prop.block_of(np.array([5]))[0],
            edge.block_of(np.array([1]))[0],
            prop.block_of(np.array([6]))[0],
        ]
        assert trace.blocks.tolist() == expected


class TestStreamingTrace:
    """Chunked delivery with seam re-merging vs the monolithic trace."""

    @staticmethod
    def _random_trace(n, seed, block_range=20):
        """A trace plus the per-run multiplicities its total sums."""
        from repro.framework.trace import MemoryTrace

        rng = np.random.default_rng(seed)
        counts = rng.integers(1, 5, size=n)
        trace = MemoryTrace(
            blocks=rng.integers(0, block_range, size=n),
            writes=rng.random(n) < 0.4,
            cores=rng.integers(0, 4, size=n),
            accesses=int(counts.sum()),
        )
        return trace, counts

    @staticmethod
    def _split_uncompressed(trace, counts, cuts):
        """Re-chunk a trace at arbitrary cut points WITHOUT merging runs
        across the cuts — exactly what an independent per-chunk producer
        emits when a run straddles a chunk seam."""
        from repro.framework.trace import MemoryTrace

        pieces = []
        bounds = [0, *sorted(cuts), len(trace)]
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            pieces.append(
                MemoryTrace(
                    trace.blocks[lo:hi],
                    trace.writes[lo:hi],
                    trace.cores[lo:hi],
                    int(counts[lo:hi].sum()),
                )
            )
        return pieces

    def test_seams_remerged_bitwise(self):
        from repro.framework.trace import StreamingTrace

        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            trace, counts = self._random_trace(
                int(rng.integers(1, 120)), seed, block_range=5
            )
            n_cuts = int(rng.integers(0, 6))
            cuts = rng.integers(0, len(trace) + 1, size=n_cuts).tolist()
            pieces = self._split_uncompressed(trace, counts, cuts)
            streaming = StreamingTrace(lambda p=pieces: iter(p))
            materialized = streaming.materialize()
            # The split broke no intra-chunk compression, so re-merging the
            # seams must reproduce the original runs only where the split
            # actually severed a run; everywhere else order is untouched.
            # Re-compress both sides for a canonical comparison.
            def canonical(t):
                if len(t) == 0:
                    return (np.array([], dtype=np.int64),) * 3
                change = np.empty(len(t), dtype=bool)
                change[0] = True
                change[1:] = (
                    (t.blocks[1:] != t.blocks[:-1])
                    | (t.writes[1:] != t.writes[:-1])
                    | (t.cores[1:] != t.cores[:-1])
                )
                idx = np.flatnonzero(change)
                return (t.blocks[idx], t.writes[idx], t.cores[idx])

            ref = canonical(trace)
            got = canonical(materialized)
            for a, b in zip(ref, got):
                assert np.array_equal(a, b), seed
            assert materialized.accesses == trace.accesses, seed

    def test_seam_run_kept_once(self):
        from repro.framework.trace import MemoryTrace, StreamingTrace

        def piece(blocks):
            return MemoryTrace(
                np.array(blocks), np.zeros(len(blocks), bool),
                np.zeros(len(blocks), np.uint8), len(blocks),
            )

        cases = [
            ([[1, 2], [2, 3]], [1, 2, 3]),
            ([[1, 2], [2], [2, 3, 4]], [1, 2, 3, 4]),
            ([[1, 2], [], [2, 3]], [1, 2, 3]),
            ([[1, 2], [2]], [1, 2]),
        ]
        for pieces, runs in cases:
            streamed = StreamingTrace(lambda p=pieces: map(piece, p)).materialize()
            assert streamed.blocks.tolist() == runs
            assert streamed.accesses == sum(map(len, pieces))

    def test_windows_yield_no_seam_chunks(self):
        """Each window is yielded whole, minus a first run that continues
        the previous window: no one-run chunk per seam."""
        from repro.apps import make_app
        from tests.conftest import make_random_graph

        graph = make_random_graph(20_000, 160_000, seed=3)
        app = make_app("PR")
        streamed = app.trace_streaming(graph, app.plan(graph), chunk_edges=2**14).trace
        yields = sum(1 for _ in streamed.chunks())
        assert streamed.chunks_streamed > 4
        assert yields <= streamed.chunks_streamed

    def test_counters_track_consumption(self):
        from repro.framework.trace import StreamingTrace

        trace, counts = self._random_trace(50, seed=7)
        pieces = self._split_uncompressed(trace, counts, [10, 30])
        streaming = StreamingTrace(lambda: iter(pieces))
        streaming.materialize()
        assert streaming.accesses_streamed == trace.total_accesses
        assert streaming.chunks_streamed == 3
        assert streaming.peak_chunk_runs <= max(len(p) for p in pieces)

    def test_refactory_restreams(self):
        """The factory is re-invocable: a second pass sees the same trace."""
        from repro.framework.trace import StreamingTrace

        trace, counts = self._random_trace(40, seed=9)
        pieces = self._split_uncompressed(trace, counts, [7, 14, 21, 28, 35])
        streaming = StreamingTrace(lambda: iter(pieces))
        first = streaming.materialize()
        second = streaming.materialize()
        for a, b in zip(first.packed(), second.packed()):
            assert a.tobytes() == b.tobytes()
