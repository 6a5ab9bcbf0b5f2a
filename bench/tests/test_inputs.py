"""Seed determinism of the generated uploads and of the serve traffic."""

from __future__ import annotations

import numpy as np

from benchlib.inputs import (
    BLOCK_REQUESTS,
    COLD_PAIRS_PER_BLOCK,
    FIG6_TECHNIQUES,
    ServeTraffic,
    analog_payload,
)
from repro.graph import from_edges
from repro.graph.generators.datasets import load_dataset
from repro.serve.pipeline import upload_graph_key

SCALE = 0.05
NAMES = ("kr", "lj", "road")


def _digests(seed: int) -> list[str]:
    return [upload_graph_key(analog_payload(name, seed, SCALE)) for name in NAMES]


def test_same_seed_same_upload_digests():
    assert _digests(3) == _digests(3)


def test_other_seed_other_upload_digests():
    ours, theirs = _digests(3), _digests(4)
    assert all(a != b for a, b in zip(ours, theirs))


def test_seed_zero_is_the_stock_analog():
    for name in NAMES:
        payload = analog_payload(name, 0, SCALE)
        for weighted in (False, True):
            stock = load_dataset(name, scale=SCALE, weighted=weighted)
            ours = from_edges(
                payload["num_vertices"],
                payload["edges"],
                payload["weights"] if weighted else None,
            )
            assert ours.num_vertices == stock.num_vertices
            for a, b in zip(ours.edge_array(), stock.edge_array()):
                np.testing.assert_array_equal(a, b)
            if weighted:
                np.testing.assert_array_equal(ours.out_weights, stock.out_weights)


def _stream(seed: int, blocks: int = 3) -> list:
    traffic = ServeTraffic(seed)
    return [traffic.prewarm, *(traffic.block(k) for k in range(blocks))]


def test_same_seed_same_requests():
    assert _stream(5) == _stream(5)


def test_other_seed_other_requests():
    ours, theirs = _stream(5), _stream(6)
    assert all(a != b for a, b in zip(ours, theirs))


def test_block_mix():
    traffic = ServeTraffic(0)
    seen: set[int] = set()
    for k in range(4):
        block = traffic.block(k)
        assert len(block) == BLOCK_REQUESTS
        cold = [i for i, r in enumerate(block) if r.cold is not None]
        assert len(cold) == 2 * COLD_PAIRS_PER_BLOCK
        # Each cold job is sent twice back to back, and never again later.
        for first, second in zip(cold[::2], cold[1::2]):
            assert second == first + 1 and block[first] == block[second]
            assert block[first].cold not in seen
            seen.add(block[first].cold)
        warm = [r for r in block if r.cold is None]
        assert set(warm) <= set(traffic.prewarm)


def test_cold_jobs_draw_every_fig6_ordering():
    traffic = ServeTraffic(0)
    drawn = {traffic.cold_job(i).technique for i in range(16 * COLD_PAIRS_PER_BLOCK)}
    assert drawn == set(FIG6_TECHNIQUES)
