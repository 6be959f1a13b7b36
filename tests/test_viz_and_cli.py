"""Tests for the ASCII renderers and the command-line interface."""

import pytest

from repro.routing import route
from repro.topology import DualCube, Hypercube
from repro.viz import (
    render_adjacency_matrix,
    render_clusters,
    render_key_grid,
    render_route,
)


class TestAdjacencyArt:
    def test_contains_every_edge(self):
        cube = Hypercube(2)
        art = render_adjacency_matrix(cube)
        lines = art.splitlines()
        assert len(lines) == 2 + 4
        # Node 0's row: neighbors 1 and 2.
        assert lines[2].split()[1:] == [".", "#", "#", "."]

    def test_caps_size(self):
        with pytest.raises(ValueError):
            render_adjacency_matrix(DualCube(4))


class TestClusterArt:
    def test_shows_all_nodes_binary(self):
        art = render_clusters(DualCube(2))
        assert "class 0" in art and "class 1" in art
        for u in range(8):
            assert format(u, "03b") in art

    def test_with_values(self):
        art = render_clusters(DualCube(2), values=list("abcdefgh"))
        assert "0:a" in art and "7:h" in art


class TestRouteArt:
    def test_annotates_hop_kinds(self):
        dc = DualCube(3)
        art = render_route(dc, route(dc, 0, 31))
        assert "cross-edge" in art
        assert "intra dim" in art
        assert "(5 hops)" in art


class TestKeyGrid:
    def test_renders_rows(self):
        art = render_key_grid([[1, 2, 3, 4]], ["step 0"], width=2)
        lines = art.splitlines()
        assert lines[0] == "step 0"
        assert lines[1].strip() == "1 2"
        assert lines[2].strip() == "3 4"

    def test_validates_alignment(self):
        with pytest.raises(ValueError):
            render_key_grid([[1]], ["a", "b"])


class TestCli:
    @pytest.mark.parametrize(
        "argv",
        [
            ["info", "-n", "2"],
            ["info", "-n", "2", "--layout"],
            ["theorems", "--max-n", "4"],
            ["prefix", "-n", "2", "--show", "4"],
            ["sort", "-n", "2"],
            ["route", "-n", "2", "0", "7"],
            ["traffic", "-n", "2", "--pairs", "30"],
            ["hamiltonian", "-n", "2"],
            ["collectives", "-n", "2"],
        ],
    )
    def test_commands_exit_zero(self, argv, capsys):
        from repro.cli import main

        assert main(argv) == 0
        assert capsys.readouterr().out.strip()

    def test_info_output_facts(self, capsys):
        from repro.cli import main

        main(["info", "-n", "3"])
        out = capsys.readouterr().out
        assert "32 nodes" in out and "48 edges" in out and "diameter 6" in out

    def test_theorems_table_values(self, capsys):
        from repro.cli import main

        main(["theorems", "--max-n", "3"])
        out = capsys.readouterr().out
        assert "Theorem 1" in out and "Theorem 2" in out
        assert "2.333" in out  # the n=3 sort ratio

    def test_module_entry_point(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "repro", "info", "-n", "2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "8 nodes" in proc.stdout

    def test_version_flag(self):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    def test_missing_command_errors(self):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_check_schedule_subcommand(self, capsys):
        from repro.cli import main

        assert main(["check-schedule", "--max-n", "3"]) == 0
        out = capsys.readouterr().out
        assert "dual_prefix" in out and "dual_sort" in out
        assert "ok" in out and "FAIL" not in out
        assert "deadlock-free" in out

    def test_check_schedule_prefix_only(self, capsys):
        from repro.cli import main

        assert main(
            ["check-schedule", "--algo", "prefix", "--max-n", "2", "--paper-literal"]
        ) == 0
        out = capsys.readouterr().out
        assert "paper-literal" in out
        assert "dual_sort" not in out

    def test_lint_subcommand_clean_src(self, capsys):
        import os

        from repro.cli import main

        src = os.path.join(os.path.dirname(__file__), "..", "src")
        assert main(["lint", src]) == 0
        assert "lint clean" in capsys.readouterr().out

    def test_lint_subcommand_flags_violations(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "bad.py"
        bad.write_text("def f():\n    assert True\n")
        assert main(["lint", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "REP001" in out and "REP005" in out
        assert "2 lint finding(s)" in out


class TestVizIntegration:
    def test_key_grid_renders_sort_trace(self, rng):
        import numpy as np

        from repro import RecursiveDualCube, TraceRecorder
        from repro.core.dual_sort import dual_sort

        rdc = RecursiveDualCube(2)
        trace = TraceRecorder()
        dual_sort(rdc, rng.permutation(8), trace=trace)
        labels = list(trace.labels())
        states = [trace.snapshot(l, 8) for l in labels]
        art = render_key_grid(states, labels, width=8)
        assert labels[0] in art
        assert art.count("\n") >= 2 * len(labels) - 1

    def test_cluster_art_matches_topology(self):
        dc = DualCube(3)
        art = render_clusters(dc)
        # Title mentions both words once; then 2 class headers and 8
        # cluster lines.
        assert art.count("cluster") == 9
        assert art.count("class") == 3
        assert sum(1 for l in art.splitlines() if l.startswith("  cluster")) == 8

    def test_adjacency_header_aligns(self):
        from repro.topology import Hypercube

        art = render_adjacency_matrix(Hypercube(3))
        lines = art.splitlines()
        assert len(lines) == 2 + 8
        # Every body row has exactly q '#' marks (degree q).
        for row in lines[2:]:
            assert row.count("#") == 3

    def test_route_art_trivial_route(self):
        dc = DualCube(2)
        art = render_route(dc, [5])
        assert "(0 hops)" in art

    def test_report_subcommand(self, tmp_path, capsys):
        from repro.cli import main

        (tmp_path / "E99_demo.txt").write_text("Demo title\n")
        assert main(["report", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "E99_demo" in out and "Demo title" in out

    def test_report_subcommand_empty(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["report", "--dir", str(tmp_path / "none")]) == 1


class TestTimelineHeatmap:
    def _recorded(self):
        from repro.obs import TimelineRecorder

        t = TimelineRecorder(num_nodes=4)
        t.record_message(1, 0, 1)
        t.record_message(1, 1, 0)
        t.record_message(2, 2, 3)
        t.record_fault(3, "drop", rank=0, src=0, dst=1)
        t.set_cycles(4)
        return t

    def test_rows_links_cols_cycles(self):
        from repro.viz import render_timeline_heatmap

        out = render_timeline_heatmap(self._recorded())
        lines = out.splitlines()
        assert "over 4 cycles" in lines[0]
        row01 = next(l for l in lines if l.lstrip().startswith("0-1"))
        row23 = next(l for l in lines if l.lstrip().startswith("2-3"))
        # 4 columns after the label: loaded cycle 1, idle 2-4 for link 0-1.
        assert row01.split()[-1] == "@"
        assert row23.split()[-1] == "."

    def test_fault_row_marks_cycle(self):
        from repro.viz import render_timeline_heatmap

        out = render_timeline_heatmap(self._recorded())
        fault_row = next(
            l for l in out.splitlines() if l.lstrip().startswith("faults")
        )
        assert list(fault_row.split()[-1]) == ["D"]
        assert "C=crash" in out

    def test_empty_recorder_renders_placeholder(self):
        from repro.obs import TimelineRecorder
        from repro.viz import render_timeline_heatmap

        assert "no link events" in render_timeline_heatmap(TimelineRecorder())

    def test_caps_links_and_validates_ramp(self):
        from repro.viz import render_timeline_heatmap

        with pytest.raises(ValueError, match="capped"):
            render_timeline_heatmap(self._recorded(), max_links=1)
        with pytest.raises(ValueError, match="ramp"):
            render_timeline_heatmap(self._recorded(), ramp="x")


class TestTimelineCli:
    def test_smoke_exits_zero_and_validates(self, capsys):
        from repro.cli import main

        assert main(["timeline", "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "validated: timeline matches the static schedule" in out
        assert "exporters ok" in out
        assert "prefix on D_2" in out and "sort on RD_2" in out

    def test_heatmap_and_exports(self, tmp_path, capsys):
        from repro.cli import main

        jsonl = tmp_path / "m.jsonl"
        prom = tmp_path / "m.prom"
        assert main([
            "timeline", "--algo", "sort", "-n", "2",
            "--export-jsonl", str(jsonl), "--export-prom", str(prom),
        ]) == 0
        out = capsys.readouterr().out
        assert "link utilization over" in out
        assert jsonl.read_text().strip()
        assert "# TYPE repro_messages counter" in prom.read_text()


class TestServeCli:
    def test_heatmap_table_and_exports(self, tmp_path, capsys):
        """``repro serve`` end to end; it is the caller that records a
        serving timeline."""
        from repro.cli import main

        jsonl = tmp_path / "serve.jsonl"
        prom = tmp_path / "serve.prom"
        assert main([
            "serve", "-n", "2", "--requests", "200", "--drop-rate", "0.05",
            "--heatmap", "--export-jsonl", str(jsonl),
            "--export-prom", str(prom),
        ]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert "D_2 queue activity:" in lines and "Q_3 queue activity:" in lines
        # The 5% drop plan fires on both networks: each heatmap has a
        # faults row.
        assert sum(line.startswith("faults") for line in lines) == 2
        assert "Open-loop serving: poisson arrivals" in out
        rows = [
            [cell.strip() for cell in line.split("|")]
            for line in lines
            if line.split("|")[0].strip() in ("D_2", "Q_3")
        ]
        assert [row[0] for row in rows] == ["D_2", "Q_3"]
        assert all(row[1] == "200" for row in rows)  # arrivals
        exported = jsonl.read_text()
        assert '"topology": "D_2"' in exported
        assert '"topology": "Q_3"' in exported
        assert "# TYPE serving_arrivals counter" in prom.read_text()


class TestCheckFaultsCli:
    def test_clean_run_exits_zero(self, capsys):
        from repro.cli import main

        assert main(["check-faults", "-n", "2"]) == 0
        assert "blast radius" in capsys.readouterr().out

    def test_cut_deadlock_exits_pairing_class(self, capsys):
        from repro.cli import main

        assert main(["check-faults", "-n", "2", "--cut", "0:1"]) == 3
        out = capsys.readouterr().out
        assert "deadlock" in out

    def test_cancel_crash_json_exits_impact_class(self, capsys):
        import json

        from repro.cli import main

        code = main(
            ["check-faults", "-n", "2", "--crash", "3",
             "--semantics", "cancel", "--json"]
        )
        assert code == 6
        payload = json.loads(capsys.readouterr().out)
        assert payload["semantics"] == "cancel"
        assert 3 in payload["blast_radius"]
        assert payload["violations"] == []

    def test_plan_mode_accepts_all_compiled_plans(self, capsys):
        from repro.cli import main

        assert main(["check-faults", "--plan", "--max-n", "3"]) == 0
        out = capsys.readouterr().out
        assert "race-free" in out

    def test_minimal_cut_table_deterministic(self, capsys):
        import json

        from repro.cli import main

        assert main(
            ["check-faults", "--minimal-cut", "--max-n", "2", "--json"]
        ) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(
            ["check-faults", "--minimal-cut", "--max-n", "2", "--json"]
        ) == 0
        second = json.loads(capsys.readouterr().out)
        assert first == second
        by_name = {row["topology"]: row for row in first["rows"]}
        assert by_name["D_2"]["node_cut"] == 2
        assert by_name["Q_5"]["node_cut"] == 5

    def test_check_schedule_json(self, capsys):
        import json

        from repro.cli import main

        assert main(["check-schedule", "--max-n", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert all(r["violations"] == [] for r in payload["reports"])

    def test_lint_format_json(self, tmp_path, capsys):
        import json

        from repro.cli import main

        bad = tmp_path / "bad.py"
        bad.write_text("def f():\n    assert True\n")
        assert main(["lint", str(bad), "--format", "json"]) == 1
        findings = json.loads(capsys.readouterr().out)
        assert {f["code"] for f in findings} == {"REP001", "REP005"}
        assert all(f["path"].endswith("bad.py") for f in findings)

    def test_lint_format_github(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "bad.py"
        bad.write_text("def f():\n    assert True\n")
        assert main(["lint", str(bad), "--format", "github"]) == 1
        out = capsys.readouterr().out
        assert out.startswith("::error file=")
        assert "title=REP001" in out

    def test_lint_format_github_silent_when_clean(self, tmp_path, capsys):
        from repro.cli import main

        good = tmp_path / "good.py"
        good.write_text('"""Fine."""\n\nX = 1\n')
        assert main(["lint", str(good), "--format", "github"]) == 0
        assert capsys.readouterr().out.strip() == ""
