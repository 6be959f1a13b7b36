"""Which third-party graph toolkits a plain run loads.

The library's own BFS and max-flow compute every distance and
connectivity figure, so importing the package or running a small CLI
call loads neither scipy nor networkx; networkx is imported only inside
``to_networkx``.  Checked through ``sys.modules`` in a fresh interpreter,
not through timings.
"""

import subprocess
import sys

import pytest

_REPORT = """
import sys
print("LOADED", *sorted({m.split(".")[0] for m in sys.modules}
                        & {"scipy", "networkx"}))
"""

_CLI_PREFIX = """
import runpy, sys
sys.argv = ["repro", "prefix", "-n", "2"]
try:
    runpy.run_module("repro", run_name="__main__")
except SystemExit as exc:
    if exc.code:
        raise
"""

_TO_NETWORKX = """
from repro.topology import DualCube, to_networkx
g = to_networkx(DualCube(2))
if (g.number_of_nodes(), g.number_of_edges()) != (8, 8):
    raise SystemExit(f"unexpected graph {g}")
"""


def _loaded(code: str) -> list[str]:
    """Top-level scipy/networkx packages loaded after running ``code``."""
    proc = subprocess.run(
        [sys.executable, "-c", code + _REPORT],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1].split()[1:]


@pytest.mark.parametrize(
    "code",
    ["import repro", "import repro.simulator.campaign", _CLI_PREFIX],
    ids=["import-repro", "import-campaign", "cli-prefix-n2"],
)
def test_loads_neither_scipy_nor_networkx(code):
    assert _loaded(code) == []


def test_to_networkx_still_builds_a_graph():
    assert _loaded(_TO_NETWORKX) == ["networkx"]
