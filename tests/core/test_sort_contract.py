"""The sort entry points' input contract, enforced once before dispatch:
NaN keys and the standard-presentation topology are rejected with the
same error on every backend."""

import numpy as np
import pytest

from repro.core import dual_sort, hypercube_bitonic_sort, large_sort
from repro.topology import DualCube, RecursiveDualCube

NAN_KEYS = [3, np.nan, 1, 2, 0.5, 7, np.nan, 4]


@pytest.mark.parametrize("backend", ["engine", "replay"])
class TestNaNKeysRejected:
    def test_dual_sort(self, backend):
        rdc = RecursiveDualCube(2)
        with pytest.raises(ValueError, match="NaN"):
            dual_sort(rdc, np.array(NAN_KEYS), backend=backend)
        with pytest.raises(ValueError, match="NaN"):
            dual_sort(rdc, NAN_KEYS, backend=backend)

    def test_bitonic(self, backend):
        with pytest.raises(ValueError, match="NaN"):
            hypercube_bitonic_sort(np.array(NAN_KEYS), backend=backend)

    def test_infinities_still_sort(self, backend):
        rdc = RecursiveDualCube(2)
        keys = np.array([3, np.inf, 1, -0.0, 0.5, -np.inf, 0.0, 4])
        out = dual_sort(rdc, keys, backend=backend)
        if isinstance(out, tuple):  # the engine returns (keys, EngineResult)
            out = np.array(out[0])
        assert out.tolist() == sorted(keys.tolist())


def test_large_sort_rejects_nan():
    rdc = RecursiveDualCube(2)
    with pytest.raises(ValueError, match="NaN"):
        large_sort(rdc, np.array(NAN_KEYS * 2))


@pytest.mark.parametrize("backend", ["engine", "replay"])
def test_dual_sort_rejects_standard_presentation(backend):
    dc = DualCube(2)
    with pytest.raises(TypeError, match="RecursiveDualCube"):
        dual_sort(dc, np.arange(dc.num_nodes), backend=backend)


def test_large_sort_rejects_standard_presentation():
    dc = DualCube(2)
    with pytest.raises(TypeError, match="RecursiveDualCube"):
        large_sort(dc, np.arange(dc.num_nodes * 2))
