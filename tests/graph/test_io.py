"""Graph persistence round-trips."""

import numpy as np
import pytest

from repro.graph.csr import Graph
from repro.graph.io import load_edge_list, load_npz, save_edge_list, save_npz
from tests.conftest import make_random_graph


class TestMmapSaveLoad:
    def test_roundtrip_eager(self, tmp_path):
        g = make_random_graph(seed=21)
        g.save(tmp_path)
        assert Graph.load(tmp_path, mmap=False) == g

    def test_roundtrip_mapped(self, tmp_path):
        g = make_random_graph(weighted=True, seed=22)
        g.save(tmp_path)
        loaded = Graph.load(tmp_path, mmap=True)
        assert loaded == g
        assert isinstance(loaded.out_targets, np.memmap)
        assert not loaded.out_targets.flags.writeable
        assert isinstance(loaded.out_weights, np.memmap)

    def test_inconsistent_metadata_rejected(self, tmp_path):
        g = make_random_graph(seed=25)
        g.save(tmp_path)
        meta = tmp_path / "meta.json"
        meta.write_text(meta.read_text().replace(
            f'"num_edges": {g.num_edges}', f'"num_edges": {g.num_edges + 1}'
        ))
        with pytest.raises(ValueError, match="inconsistent"):
            Graph.load(tmp_path, mmap=False)

    def test_nbytes_counts_every_array(self):
        g = make_random_graph(weighted=True, seed=26)
        expected = sum(
            getattr(g, n).nbytes
            for n in (
                "out_offsets", "out_targets", "in_offsets", "in_sources",
                "out_weights", "in_weights",
            )
        )
        assert g.nbytes() == expected


class TestNpz:
    def test_roundtrip(self, tmp_path):
        g = make_random_graph(seed=11)
        path = tmp_path / "g.npz"
        save_npz(g, path)
        assert load_npz(path) == g

    def test_weighted_roundtrip(self, tmp_path):
        g = make_random_graph(weighted=True, seed=12)
        path = tmp_path / "g.npz"
        save_npz(g, path)
        loaded = load_npz(path)
        assert loaded == g
        assert loaded.is_weighted


class TestEdgeList:
    def test_roundtrip(self, tmp_path):
        g = make_random_graph(seed=13)
        path = tmp_path / "g.txt"
        save_edge_list(g, path)
        assert load_edge_list(path) == g

    def test_weighted_roundtrip(self, tmp_path):
        g = make_random_graph(weighted=True, seed=14)
        path = tmp_path / "g.txt"
        save_edge_list(g, path)
        loaded = load_edge_list(path)
        assert loaded == g

    def test_isolated_high_vertex_survives(self, tmp_path):
        from repro.graph import from_edges

        g = from_edges(10, np.array([(0, 1)]))
        path = tmp_path / "g.txt"
        save_edge_list(g, path)
        assert load_edge_list(path).num_vertices == 10

    def test_headerless_file(self, tmp_path):
        path = tmp_path / "raw.txt"
        path.write_text("0 1\n2 0\n")
        g = load_edge_list(path)
        assert g.num_vertices == 3
        assert g.num_edges == 2

    def test_blank_lines_and_comments_skipped(self, tmp_path):
        path = tmp_path / "raw.txt"
        path.write_text("# a comment\n\n0 1\n")
        assert load_edge_list(path).num_edges == 1

    def test_partial_weights_rejected(self, tmp_path):
        path = tmp_path / "raw.txt"
        path.write_text("0 1 2.0\n1 0\n")
        with pytest.raises(ValueError):
            load_edge_list(path)
