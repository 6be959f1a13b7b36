"""Persistence of experiment results.

Benchmark runs persist their regenerated artifacts as plain text under
``benchmarks/out/``; :func:`collect_artifacts` enumerates what a run
produced for the ``report`` CLI.
"""

from __future__ import annotations

from pathlib import Path

__all__ = ["collect_artifacts"]


def collect_artifacts(directory) -> dict[str, str]:
    """Map artifact name -> first line (title) for every ``*.txt`` artifact."""
    out: dict[str, str] = {}
    d = Path(directory)
    if not d.is_dir():
        return out
    for f in sorted(d.glob("*.txt")):
        first = f.read_text().splitlines()
        out[f.stem] = first[0] if first else ""
    return out
