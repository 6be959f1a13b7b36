"""Tests for the benchmark-artifact collector."""

from repro.analysis.io import collect_artifacts


class TestCollectArtifacts:
    def test_collects_titles(self, tmp_path):
        (tmp_path / "E1_demo.txt").write_text("Title line\nbody\n")
        (tmp_path / "E2_other.txt").write_text("Other title\n")
        arts = collect_artifacts(tmp_path)
        assert arts == {"E1_demo": "Title line", "E2_other": "Other title"}

    def test_missing_directory_is_empty(self, tmp_path):
        assert collect_artifacts(tmp_path / "nope") == {}

    def test_empty_file_tolerated(self, tmp_path):
        (tmp_path / "empty.txt").write_text("")
        assert collect_artifacts(tmp_path) == {"empty": ""}

    def test_real_benchmark_output_collects(self):
        from pathlib import Path

        out_dir = Path(__file__).resolve().parents[2] / "benchmarks" / "out"
        if out_dir.is_dir():
            arts = collect_artifacts(out_dir)
            assert any(k.startswith("E4") for k in arts)
