"""Tests for the repro-reorder / repro-generate command-line tools."""

import numpy as np
import pytest

from repro.graph.io import load_npz, save_edge_list, save_npz
from repro.tools.generate_tool import main as generate_main
from repro.tools.reorder_tool import main as reorder_main
from tests.conftest import make_random_graph


@pytest.fixture
def graph_file(tmp_path):
    g = make_random_graph(num_vertices=200, num_edges=2000, seed=12)
    path = tmp_path / "g.npz"
    save_npz(g, path)
    return path, g


class TestReorderTool:
    def test_basic_npz_roundtrip(self, graph_file, capsys):
        path, g = graph_file
        out = path.with_suffix(".dbg.npz")
        assert reorder_main([str(path)]) == 0
        assert out.exists()
        reordered = load_npz(out)
        assert sorted(reordered.out_degrees().tolist()) == sorted(
            g.out_degrees().tolist()
        )
        assert "DBG" in capsys.readouterr().out

    def test_explicit_output_and_mapping(self, graph_file, tmp_path):
        path, g = graph_file
        out = tmp_path / "out.npz"
        mapping_path = tmp_path / "map.npy"
        code = reorder_main(
            [str(path), "--technique", "Sort", "-o", str(out),
             "--mapping-out", str(mapping_path)]
        )
        assert code == 0
        mapping = np.load(mapping_path)
        assert sorted(mapping.tolist()) == list(range(g.num_vertices))
        assert load_npz(out) == g.relabel(mapping)

    def test_edge_list_io(self, tmp_path):
        g = make_random_graph(num_vertices=50, num_edges=200, seed=3)
        src = tmp_path / "g.txt"
        save_edge_list(g, src)
        out = tmp_path / "g.out.txt"
        assert reorder_main([str(src), "-o", str(out)]) == 0
        assert out.exists()

    def test_report_flag(self, graph_file, capsys):
        path, _ = graph_file
        reorder_main([str(path), "--report"])
        out = capsys.readouterr().out
        assert "before" in out and "after" in out and "hot/block" in out

    def test_unknown_technique_rejected(self, graph_file):
        path, _ = graph_file
        with pytest.raises(SystemExit):
            reorder_main([str(path), "--technique", "Alphabetize"])

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            reorder_main([str(tmp_path / "nope.npz")])

    def test_validate_flag_on_clean_graph(self, tmp_path, capsys):
        from repro.graph import from_edges
        import numpy as np

        g = from_edges(20, np.array([(v, (v + 1) % 20) for v in range(20)]))
        path = tmp_path / "clean.npz"
        save_npz(g, path)
        assert reorder_main([str(path), "--validate"]) == 0

    def test_validate_flag_rejects_corruption(self, tmp_path):
        import numpy as np
        from repro.graph import Graph
        from tests.conftest import make_random_graph

        a = make_random_graph(num_vertices=10, num_edges=30, seed=1)
        b = make_random_graph(num_vertices=10, num_edges=30, seed=2)
        franken = Graph(a.out_offsets, a.out_targets, b.in_offsets, b.in_sources)
        path = tmp_path / "bad.npz"
        save_npz(franken, path)
        with pytest.raises(ValueError):
            reorder_main([str(path), "--validate"])

    def test_rcb_label(self, graph_file, tmp_path):
        path, _ = graph_file
        out = tmp_path / "rcb.npz"
        assert reorder_main([str(path), "--technique", "RCB-2", "-o", str(out)]) == 0


class TestGenerateTool:
    def test_dataset_analog(self, tmp_path, capsys):
        out = tmp_path / "lj.npz"
        assert generate_main(["lj", "-o", str(out), "--scale", "0.5"]) == 0
        g = load_npz(out)
        assert g.num_vertices > 100
        assert "lj" in capsys.readouterr().out

    def test_custom_community(self, tmp_path):
        out = tmp_path / "c.npz"
        code = generate_main(
            ["community", "-o", str(out), "--vertices", "500",
             "--avg-degree", "6", "--intra", "0.8"]
        )
        assert code == 0
        assert load_npz(out).num_vertices == 500

    def test_edge_list_output(self, tmp_path):
        out = tmp_path / "g.txt"
        assert generate_main(["community", "-o", str(out), "--vertices", "100"]) == 0
        assert out.read_text().startswith("# num_vertices 100")

    def test_weighted_dataset(self, tmp_path):
        out = tmp_path / "w.npz"
        assert generate_main(["lj", "-o", str(out), "--scale", "0.3", "--weighted"]) == 0
        assert load_npz(out).is_weighted

    def test_unknown_target_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            generate_main(["not-a-dataset", "-o", str(tmp_path / "x.npz")])


class TestSimbenchPolicy:
    def test_grasp_policy_microbench(self, capsys):
        """The sim bench feeds grasp a hot set and gates engine parity."""
        from repro.tools.simbench_tool import main as simbench_main

        code = simbench_main(
            ["--bench", "sim", "--runs", "20000", "--repeats", "1",
             "--policy", "grasp"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "policy=grasp" in out and "hot blocks" in out

    def test_unknown_policy_rejected(self):
        from repro.tools.simbench_tool import main as simbench_main

        with pytest.raises(SystemExit):
            simbench_main(["--policy", "srrip"])

    def test_trace_bench_rejected(self, capsys):
        from repro.tools.simbench_tool import main as simbench_main

        with pytest.raises(SystemExit) as exc:
            simbench_main(["--bench", "trace"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestSimbenchPlan:
    def test_plan_bench_times_every_kernel(self, tmp_path, capsys):
        import json

        from repro.graph import fastgraph
        from repro.tools.simbench_tool import main as simbench_main

        out = tmp_path / "plan.json"
        code = simbench_main(
            ["--bench", "plan", "--graph-dataset", "lj", "--repeats", "1",
             "--json", str(out)]
        )
        assert code == 0
        assert "plan kernels [lj x4.0]" in capsys.readouterr().out
        kernels = json.loads(out.read_text())["plan"]["kernels"]
        assert set(kernels) == {"pull_sum", "pull_or", "push_sum"}
        for row in kernels.values():
            assert row["engines"]["reference"]["seconds"] > 0
            if fastgraph.fast_available():
                assert row["speedup_fast_over_reference"] > 0
