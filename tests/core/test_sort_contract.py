"""The entry points' input contract, enforced once before dispatch: NaN
or complex sort keys and a topology of the wrong type are rejected with
the same error on every backend."""

import numpy as np
import pytest

from repro.core import (
    ADD,
    backends,
    dual_prefix,
    dual_sort,
    emulated_cube_prefix,
    hypercube_bitonic_sort,
    large_prefix,
    large_sort,
    ring_sort,
)
from repro.core.backends import backend_names, entry_points
from repro.routing import allreduce
from repro.topology import DualCube, Hypercube, Metacube, RecursiveDualCube

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

    def test_ring_sort(self, backend):
        rdc = RecursiveDualCube(2)
        with pytest.raises(ValueError, match="ring_sort: float keys contain NaN"):
            ring_sort(rdc, np.array(NAN_KEYS), backend=backend)
        with pytest.raises(ValueError, match="NaN"):
            ring_sort(rdc, NAN_KEYS, backend=backend)

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


# (entry point, call on a topology, the class the entry point needs)
WRONG_TOPOLOGY = {
    "dual_prefix": (lambda t, b: dual_prefix(
        t, np.arange(t.num_nodes), ADD, backend=b), "DualCube"),
    "large_prefix": (lambda t, b: large_prefix(
        t, np.arange(t.num_nodes), ADD, backend=b), "DualCube"),
    "allreduce": (lambda t, b: allreduce(
        t, np.arange(t.num_nodes), ADD, backend=b), "DualCube"),
    "emulated_cube_prefix": (lambda t, b: emulated_cube_prefix(
        t, np.arange(t.num_nodes), ADD, backend=b),
        "Hypercube or RecursiveDualCube"),
    "ring_sort": (lambda t, b: ring_sort(
        t, np.arange(t.num_nodes)[::-1], backend=b), "RecursiveDualCube"),
}


@pytest.mark.parametrize("backend", ["engine", "replay"])
@pytest.mark.parametrize("entry,topo", [
    ("dual_prefix", RecursiveDualCube(2)),
    ("dual_prefix", Hypercube(3)),
    ("large_prefix", RecursiveDualCube(2)),
    ("allreduce", RecursiveDualCube(2)),
    ("allreduce", Hypercube(3)),
    ("emulated_cube_prefix", DualCube(2)),
    ("emulated_cube_prefix", Metacube(1, 2)),
    ("ring_sort", DualCube(2)),
])
def test_wrong_topology_rejected(entry, topo, backend):
    # Each of these used to fail differently per backend: an
    # AttributeError ('cluster_dim'), a LinkError from the engine, or
    # values from the array side.
    call, need = WRONG_TOPOLOGY[entry]
    with pytest.raises(TypeError, match=rf"^{entry} needs a {need}, got "
                                        rf"{type(topo).__name__}$"):
        call(topo, backend)


# Every entry point whose contract marks its data as sort keys, called on
# complex keys (an array, and a list numpy reads as complex).
COMPLEX_KEYS = [3, 1j, 1, 2, 0.5, 7, -2j, 4]
COMPLEX_CALLS = {
    "dual_sort": lambda keys, b: dual_sort(
        RecursiveDualCube(2), keys, backend=b),
    "large_sort": lambda keys, b: large_sort(
        RecursiveDualCube(2), keys, backend=b),
    "bitonic": lambda keys, b: hypercube_bitonic_sort(keys, backend=b),
    "ring_sort": lambda keys, b: ring_sort(
        RecursiveDualCube(2), keys, backend=b),
}


def test_complex_calls_cover_every_key_contract():
    assert set(COMPLEX_CALLS) == {
        e for e in entry_points() if backends._CONTRACTS[e].keys
    }


@pytest.mark.parametrize("entry,backend", [
    (e, b) for e in sorted(COMPLEX_CALLS) for b in backend_names(e)
])
@pytest.mark.parametrize("as_array", [True, False])
def test_complex_keys_rejected_at_the_boundary(entry, backend, as_array):
    # The array backend used to sort complex keys lexicographically and
    # the engine raised '<' not supported from inside a rank program.
    keys = np.array(COMPLEX_KEYS) if as_array else COMPLEX_KEYS
    with pytest.raises(TypeError,
                       match=rf"^{entry}: complex keys have no total order$"):
        COMPLEX_CALLS[entry](keys, backend)
