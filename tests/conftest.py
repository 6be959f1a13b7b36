"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.topology import (
    CubeConnectedCycles,
    DeBruijn,
    DualCube,
    Hypercube,
    Metacube,
    RecursiveDualCube,
    ShuffleExchange,
    WrappedButterfly,
)

# NumPy's ufunc buffer size and floating-point error modes at session
# start.  The array kernels set the buffer size for a pass and must
# restore it, so no test may leave either changed.
_NUMPY_STATE = (np.getbufsize(), np.geterr())


@pytest.fixture(autouse=True)
def numpy_state_unchanged():
    yield
    state = (np.getbufsize(), np.geterr())
    if state != _NUMPY_STATE:
        np.setbufsize(_NUMPY_STATE[0])
        np.seterr(**_NUMPY_STATE[1])
        pytest.fail(
            f"numpy (bufsize, errstate) changed from {_NUMPY_STATE} to "
            f"{state}"
        )


@pytest.fixture
def rng():
    """Deterministic RNG; tests needing other streams seed locally."""
    return np.random.default_rng(0xD0A1)


@pytest.fixture(params=[1, 2, 3])
def small_n(request):
    """Dual-cube connectivities small enough for exhaustive checks."""
    return request.param


@pytest.fixture
def dc(small_n):
    return DualCube(small_n)


@pytest.fixture
def rdc(small_n):
    return RecursiveDualCube(small_n)


@pytest.fixture(params=[0, 1, 2, 3, 4])
def cube(request):
    return Hypercube(request.param)


_FAMILIES = [
    *(DualCube(n) for n in (1, 2, 3)),
    *(Hypercube(q) for q in range(5)),
    CubeConnectedCycles(3),
    WrappedButterfly(3),
    DeBruijn(4),
    ShuffleExchange(4),
    Metacube(2, 1),
    RecursiveDualCube(3),
]


@pytest.fixture(params=_FAMILIES, ids=lambda t: t.name)
def family(request):
    """One small member of every topology family, for networkx oracles."""
    return request.param
