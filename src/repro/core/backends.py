"""The backend registry and the one dispatch path of every algorithm.

Each algorithm has one entry point with a ``backend=`` keyword:
`dual_prefix`, `dual_sort`, `large_prefix`, `large_sort`,
`hypercube_bitonic_sort` (registered as ``bitonic``), `cube_prefix`,
`emulated_cube_prefix`, `allreduce` and `ring_sort`.  Each one calls
:func:`dispatch`, which

* resolves the backend (:func:`resolve_backend`): an unknown backend, or
  a feature the backend does not honor, raises a uniformly-worded
  ``ValueError``;
* checks the input once, before either backend runs (:class:`_Contract`):
  the topology type, the length, the counters' size and complex or NaN
  sort keys;
  the engine receives the data as Python objects, so its ⊕ never runs
  on numpy scalars (numpy's bool ``+`` is a logical or, and narrow
  integers wrap);
* calls the backend's runner with the checked arguments, the options and
  only the features its :class:`BackendSpec` declares.

Each spec declares a backend's **capabilities** (which optional features
— ``counters``, ``trace``, ``profiler``, ``shards`` — it honors) and its
**return shape** once.  Runners are imported lazily, so importing an
entry point never drags in the array backend's plan machinery.  The
REP007 lint rule enforces the monopoly: inline ``backend == "..."``
string comparisons are forbidden everywhere outside this module.

Two backends exist (``large_sort`` has only the array backend):

=============  ==============================================================
``engine``     per-rank generator programs on the cycle-accurate simulator;
               the reference oracle; returns ``(result, EngineResult)``
``replay``     the array backend and the default: descriptor plans cached
               per (algorithm, topology, variant) and run as in-place
               numpy operations over reshape views
               (:mod:`repro.core.replay`); optional per-cluster
               multiprocessing sharding for the prefix algorithms
=============  ==============================================================

The array backend is called ``replay`` because it replays a cached,
compiled plan of the schedule.
"""

from __future__ import annotations

import importlib
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.topology.dualcube import DualCube
from repro.topology.hypercube import Hypercube
from repro.topology.recursive import RecursiveDualCube

__all__ = [
    "BackendSpec",
    "FEATURES",
    "backend_names",
    "backend_spec",
    "dispatch",
    "entry_points",
    "resolve_backend",
]

# Every optional feature a backend may honor, with the reason text used
# when a caller requests it from a backend that does not.
_FEATURE_REASONS = {
    "counters": (
        "takes no external counters (the returned EngineResult carries "
        "its own ledger)"
    ),
    "trace": "keeps no per-rank values to trace",
    "profiler": "has no per-phase profiling hooks",
    "shards": "has no multiprocessing sharding",
}

#: The feature names a :class:`BackendSpec` may declare.
FEATURES = frozenset(_FEATURE_REASONS)


@dataclass(frozen=True)
class BackendSpec:
    """One backend of one entry point: capabilities + lazy runner.

    ``features`` lists the optional keywords the backend honors
    (subset of :data:`FEATURES`); ``returns`` documents the return
    shape; ``loader`` imports the implementation on first use and
    returns the runner callable, which takes the entry point's
    positional arguments, its options and the declared features.
    """

    entry_point: str
    name: str
    features: frozenset
    returns: str
    description: str
    loader: Callable[[], Callable] = field(repr=False)

    def __post_init__(self):
        unknown = self.features - FEATURES
        if unknown:
            raise ValueError(
                f"backend {self.name!r} declares unknown features "
                f"{sorted(unknown)}; known: {sorted(FEATURES)}"
            )


@dataclass(frozen=True)
class _Contract:
    """The input check of one entry point.

    ``topology`` lists the classes its first argument may be; with none,
    the entry point takes no topology and its data's length must be a
    power of two.  ``blocked`` accepts any positive multiple of the node
    count instead of exactly one item per node.  ``keys`` marks sort keys,
    where NaN and complex numbers are rejected: neither has a place in a
    total order (with NaN a compare-exchange network returns an arbitrary
    arrangement, and the backends would order complex numbers apart).
    """

    topology: tuple = ()
    blocked: bool = False
    keys: bool = False


def _items(data) -> np.ndarray:
    """``data`` as an array of its items; a sequence of tuples becomes a
    1-D object array of tuples rather than a 2-D array."""
    if isinstance(data, np.ndarray):
        return data
    try:
        arr = np.asarray(data)
    except ValueError:  # ragged items
        arr = None
    if arr is None or arr.ndim > 1:
        arr = np.empty(len(data), dtype=object)
        arr[:] = list(data)
    return arr


def _check(entry_point: str, args: tuple, counters, engine: bool) -> tuple:
    """``args`` after ``entry_point``'s input check, with the data as a
    1-D array (of Python objects for the engine)."""
    contract = _CONTRACTS[entry_point]
    at = 1 if contract.topology else 0  # where the data sit in args
    if at and not isinstance(args[0], contract.topology):
        need = " or ".join(c.__name__ for c in contract.topology)
        raise TypeError(
            f"{entry_point} needs a {need}, got {type(args[0]).__name__}"
        )
    data = args[at]
    arr = data if isinstance(data, np.ndarray) else _items(data)
    if arr.ndim != 1:
        raise ValueError(f"expected a flat 1-D input, got shape {arr.shape}")
    size = arr.shape[0]
    what = "keys" if contract.keys else "values"
    nodes = args[0].num_nodes if at else size
    if not at and (size == 0 or size & (size - 1)):
        raise ValueError(
            f"{what[:-1]} count must be a power of two, got {size}")
    if contract.blocked and (size == 0 or size % nodes):
        raise ValueError(f"input length {size} must be a positive multiple "
                         f"of the network size {nodes}")
    if not contract.blocked and size != nodes:
        raise ValueError(
            f"expected {nodes} {what} for {args[0].name}, got {size}")
    if counters is not None and counters.num_nodes != nodes:
        name = args[0].name if at else f"Q_{size.bit_length() - 1}"
        raise ValueError(f"counters are sized for {counters.num_nodes} "
                         f"nodes, but {name} has {nodes}")
    if contract.keys and arr.dtype.kind == "c":
        raise TypeError(f"{entry_point}: complex keys have no total order")
    if contract.keys and arr.dtype.kind == "f" and np.isnan(arr).any():
        raise ValueError(f"{entry_point}: float keys contain NaN, which has "
                         f"no place in a total order")
    if engine and arr.dtype != object:
        arr = arr.astype(object)
    return args if arr is data else (*args[:at], arr, *args[at + 1:])


# -- the registry --------------------------------------------------------------

_ARRAY, _PAIR = "result array", "(result array, EngineResult)"
_TS, _TS_PAIR = "(t, s) arrays", "((t, s) lists, EngineResult)"
_ENGINE = "cycle-accurate SPMD generators"


def _loader(where: str) -> Callable[[], Callable]:
    """Loader of the runner at ``"module:function"`` under ``repro``,
    looked up on every call (so a patched runner is seen)."""
    module, name = where.split(":")
    module = f"repro.{module}"
    return lambda: getattr(
        sys.modules.get(module) or importlib.import_module(module), name)


_REGISTRY: dict[str, dict[str, BackendSpec]] = {}
for _entry, _name, _features, _returns, _description, _where in (
    ("dual_prefix", "engine", ("trace",), _PAIR, _ENGINE,
     "core.dual_prefix:_dual_prefix_engine"),
    ("dual_prefix", "replay", ("counters", "trace", "profiler", "shards"),
     _ARRAY, "cached plan on in-place views; optional per-cluster "
     "sharding (default)", "core.replay:dual_prefix_replay"),
    ("dual_sort", "engine", ("trace",), _PAIR, _ENGINE,
     "core.dual_sort:_dual_sort_engine"),
    ("dual_sort", "replay", ("counters", "trace", "profiler"), _ARRAY,
     "cached plan on in-place views (default)",
     "core.replay:dual_sort_replay"),
    ("large_prefix", "engine", (), _PAIR,
     "local prefixes around the D_prefix program",
     "core.large_inputs:_large_prefix_engine"),
    ("large_prefix", "replay", ("counters", "profiler", "shards"), _ARRAY,
     "blocked prefix, cached network plan; optional per-cluster sharding "
     "(default)", "core.replay:large_prefix_replay"),
    ("large_sort", "replay", ("counters", "profiler"), _ARRAY,
     "blocked merge-splits on in-place views (default)",
     "core.replay:large_sort_replay"),
    ("bitonic", "engine", ("trace",), _PAIR, _ENGINE,
     "core.bitonic:_hypercube_bitonic_sort_engine"),
    ("bitonic", "replay", ("counters", "trace"), _ARRAY,
     "cached Batcher plan on in-place views (default)",
     "core.replay:hypercube_bitonic_sort_replay"),
    ("cube_prefix", "engine", ("trace",), _TS_PAIR, _ENGINE,
     "core.cube_prefix:_cube_prefix_engine"),
    ("cube_prefix", "replay", ("counters",), _TS,
     "in-place ascend over the address bits (default)",
     "core.cube_prefix:_cube_prefix_replay"),
    ("emulated_cube_prefix", "engine", ("trace",), _TS_PAIR,
     "exchange rounds, 3-hop relays on unsupported dimensions",
     "core.emulation:_emulated_cube_prefix_engine"),
    ("emulated_cube_prefix", "replay", ("counters",), _TS,
     "in-place ascend, emulated exchange ledger (default)",
     "core.emulation:_emulated_cube_prefix_replay"),
    ("allreduce", "engine", (), _PAIR, _ENGINE,
     "routing.collectives:_allreduce_engine"),
    ("allreduce", "replay", ("counters",), _ARRAY,
     "in-place ascend over each class half (default)",
     "routing.collectives:_allreduce_replay"),
    ("ring_sort", "engine", (), _PAIR, _ENGINE,
     "core.ring_sort:_ring_sort_engine"),
    ("ring_sort", "replay", ("counters",), _ARRAY,
     "odd-even transposition over ring positions (default)",
     "core.ring_sort:_ring_sort_replay"),
):
    _REGISTRY.setdefault(_entry, {})[_name] = BackendSpec(
        entry_point=_entry, name=_name, features=frozenset(_features),
        returns=_returns, description=_description, loader=_loader(_where),
    )
del _entry, _name, _features, _returns, _description, _where

_SORT = (RecursiveDualCube,)
_CONTRACTS = {
    "dual_prefix": _Contract((DualCube,)),
    "dual_sort": _Contract(_SORT, keys=True),
    "large_prefix": _Contract((DualCube,), blocked=True),
    "large_sort": _Contract(_SORT, blocked=True, keys=True),
    "bitonic": _Contract(keys=True),
    "cube_prefix": _Contract(),
    "emulated_cube_prefix": _Contract((Hypercube, RecursiveDualCube)),
    "allreduce": _Contract((DualCube,)),
    "ring_sort": _Contract(_SORT, keys=True),
}


def entry_points() -> tuple[str, ...]:
    """All registered entry points, sorted."""
    return tuple(sorted(_REGISTRY))


def backend_names(entry_point: str) -> tuple[str, ...]:
    """The backend names registered for ``entry_point``, sorted."""
    return tuple(sorted(_table(entry_point)))


def backend_spec(entry_point: str, name: str) -> BackendSpec:
    """The :class:`BackendSpec` of one backend (raises like the dispatch)."""
    return _resolve(entry_point, name)


def _table(entry_point: str) -> dict[str, BackendSpec]:
    table = _REGISTRY.get(entry_point)
    if table is None:
        raise ValueError(
            f"unknown entry point {entry_point!r}; "
            f"known: {', '.join(sorted(_REGISTRY))}"
        )
    return table


def _resolve(entry_point: str, name: str) -> BackendSpec:
    table = _table(entry_point)
    spec = table.get(name)
    if spec is None:
        opts = ", ".join(repr(k) for k in sorted(table))
        raise ValueError(
            f"unknown backend {name!r} for {entry_point}; choose one of {opts}"
        )
    return spec


def _unsupported(spec: BackendSpec, feature: str) -> ValueError:
    supported = ", ".join(
        repr(k) for k, s in sorted(_REGISTRY[spec.entry_point].items())
        if feature in s.features
    )
    return ValueError(
        f"the {spec.name!r} backend of {spec.entry_point} "
        f"{_FEATURE_REASONS[feature]}; {feature} is supported by: {supported}"
    )


def resolve_backend(entry_point: str, name: str, **requested) -> Callable:
    """Resolve ``(entry point, backend)`` into a runner callable.

    ``requested`` maps feature names (see :data:`FEATURES`) to booleans:
    a feature marked True that the chosen backend does not declare raises
    a uniformly-worded ``ValueError`` naming the backends that do support
    it.  The runner takes checked input (see :func:`dispatch`).
    """
    spec = _resolve(entry_point, name)
    for feature, wanted in requested.items():
        if feature not in _FEATURE_REASONS:
            raise ValueError(
                f"unknown backend feature {feature!r}; "
                f"known: {', '.join(sorted(_FEATURE_REASONS))}"
            )
        if wanted and feature not in spec.features:
            raise _unsupported(spec, feature)
    return spec.loader()


def dispatch(entry_point: str, backend: str, *args, **options):
    """One call of ``entry_point`` on ``backend``.

    ``args`` are the entry point's positional arguments (its topology,
    if it takes one, then its data); ``options`` are its keywords, each
    feature ``None`` when unset.  The backend is resolved, the input
    checked once, and the runner called with the checked arguments, the
    options that are not features, and the features its spec declares.
    """
    spec = _resolve(entry_point, backend)
    for feature in _FEATURE_REASONS:
        declared = feature in spec.features
        if not declared and options.pop(feature, None) is not None:
            raise _unsupported(spec, feature)
    args = _check(entry_point, args, options.get("counters"),
                  spec.name == "engine")
    return spec.loader()(*args, **options)
