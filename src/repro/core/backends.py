"""The backend registry: one declaration per (entry point, backend).

Every headline entry point (`dual_prefix`, `dual_sort`, `large_prefix`,
`large_sort`, `hypercube_bitonic_sort`) accepts a ``backend=`` keyword.
Before this registry existed each entry point carried its own if-chain of
string comparisons, and the chains drifted: option sets differed, error
messages disagreed about where the cycle-accurate variant lives, and
capability guards (trace/profiler) were copy-pasted with different
wording.  The registry is the single source of truth:

* each :class:`BackendSpec` declares a backend's **capabilities** (which
  optional features — ``counters``, ``trace``, ``profiler``, ``shards``
  — it honors) and its **return shape** once;
* :func:`resolve_backend` turns ``(entry point, backend name, requested
  features)`` into a runner callable, raising uniformly-worded errors
  for unknown backends and unsupported features;
* runners import their implementation lazily, so importing an entry
  point never drags in the array backend's plan machinery.

The REP007 lint rule enforces the monopoly: inline ``backend == "..."``
string comparisons are forbidden everywhere outside this module.

Two backends exist (the large-input entry points have only the array
backend; ``large_prefix_engine`` is the separate cycle-accurate blocked
prefix):

=============  ==============================================================
``engine``     per-rank generator programs on the cycle-accurate simulator;
               the reference oracle; returns ``(result_array, EngineResult)``
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

from dataclasses import dataclass, field
from typing import Callable

__all__ = [
    "BackendSpec",
    "FEATURES",
    "backend_names",
    "backend_spec",
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

# Appended to unknown-backend errors where a separate cycle-accurate
# function exists outside the backend= dispatch.
_ENGINE_HINTS = {
    "large_prefix": "large_prefix_engine is the cycle-accurate entry point",
}


@dataclass(frozen=True)
class BackendSpec:
    """One backend of one entry point: capabilities + lazy runner.

    ``features`` lists the optional keywords the backend honors
    (subset of :data:`FEATURES`); ``returns`` documents the return
    shape; ``loader`` imports the implementation on first use and
    returns the runner callable (every runner of one entry point shares
    that entry point's full keyword surface).
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


# -- runner adapters (lazy imports; one shared surface per entry point) --------


def _dual_prefix_engine() -> Callable:
    from repro.core.dual_prefix import dual_prefix_engine

    def run(dc, values, op, *, inclusive, paper_literal, counters, trace,
            profiler, shards):
        return dual_prefix_engine(
            dc, values, op, inclusive=inclusive, paper_literal=paper_literal,
            trace=trace,
        )

    return run


def _dual_sort_engine() -> Callable:
    from repro.core.dual_sort import dual_sort_engine

    def run(rdc, keys, *, descending, payload_policy, counters, trace,
            profiler):
        return dual_sort_engine(
            rdc, keys, descending=descending, payload_policy=payload_policy,
            trace=trace,
        )

    return run


def _bitonic_engine() -> Callable:
    from repro.core.bitonic import _sort_cube, hypercube_bitonic_sort_engine

    def run(keys, *, descending, counters, trace):
        arr = list(keys)
        cube = _sort_cube(len(arr))
        return hypercube_bitonic_sort_engine(
            cube, arr, descending=descending, trace=trace
        )

    return run


def _replay(name: str) -> Callable[[], Callable]:
    """Loader of the array backend's implementation of one entry point
    (its keyword surface is the entry point's, minus ``backend``)."""

    def load() -> Callable:
        from repro.core import replay

        return getattr(replay, name)

    return load


# -- the registry --------------------------------------------------------------

_ARRAY = "result array"
_PAIR = "(result array, EngineResult)"


def _spec(entry: str, name: str, features, returns: str, description: str,
          loader: Callable[[], Callable]) -> BackendSpec:
    return BackendSpec(
        entry_point=entry,
        name=name,
        features=frozenset(features),
        returns=returns,
        description=description,
        loader=loader,
    )


_REGISTRY: dict[str, dict[str, BackendSpec]] = {}
for _s in (
    _spec("dual_prefix", "engine", ("trace",), _PAIR,
          "cycle-accurate SPMD generators", _dual_prefix_engine),
    _spec("dual_prefix", "replay", ("counters", "trace", "profiler", "shards"),
          _ARRAY, "cached plan on in-place views; optional per-cluster "
          "sharding (default)", _replay("dual_prefix_replay")),
    _spec("dual_sort", "engine", ("trace",), _PAIR,
          "cycle-accurate SPMD generators", _dual_sort_engine),
    _spec("dual_sort", "replay", ("counters", "trace", "profiler"), _ARRAY,
          "cached plan on in-place views (default)",
          _replay("dual_sort_replay")),
    _spec("large_prefix", "replay", ("counters", "profiler", "shards"),
          _ARRAY, "blocked prefix, cached network plan; optional "
          "per-cluster sharding (default)", _replay("large_prefix_replay")),
    _spec("large_sort", "replay", ("counters", "profiler"), _ARRAY,
          "blocked merge-splits on in-place views (default)",
          _replay("large_sort_replay")),
    _spec("bitonic", "engine", ("trace",), _PAIR,
          "cycle-accurate SPMD generators", _bitonic_engine),
    _spec("bitonic", "replay", ("counters", "trace"), _ARRAY,
          "cached Batcher plan on in-place views (default)",
          _replay("hypercube_bitonic_sort_replay")),
):
    _REGISTRY.setdefault(_s.entry_point, {})[_s.name] = _s
del _s


def entry_points() -> tuple[str, ...]:
    """All registered entry points, sorted."""
    return tuple(sorted(_REGISTRY))


def backend_names(entry_point: str) -> tuple[str, ...]:
    """The backend names registered for ``entry_point``, sorted."""
    return tuple(sorted(_table(entry_point)))


def backend_spec(entry_point: str, name: str) -> BackendSpec:
    """The :class:`BackendSpec` of one backend (raises like the dispatch)."""
    table = _table(entry_point)
    spec = table.get(name)
    if spec is None:
        raise ValueError(_unknown_backend_message(entry_point, name, table))
    return spec


def _table(entry_point: str) -> dict[str, BackendSpec]:
    table = _REGISTRY.get(entry_point)
    if table is None:
        raise ValueError(
            f"unknown entry point {entry_point!r}; "
            f"known: {', '.join(sorted(_REGISTRY))}"
        )
    return table


def _unknown_backend_message(
    entry_point: str, name: str, table: dict[str, BackendSpec]
) -> str:
    opts = ", ".join(repr(k) for k in sorted(table))
    hint = _ENGINE_HINTS.get(entry_point)
    suffix = f" ({hint})" if hint else ""
    return (
        f"unknown backend {name!r} for {entry_point}; "
        f"choose one of {opts}{suffix}"
    )


def resolve_backend(entry_point: str, name: str, **requested) -> Callable:
    """Resolve ``(entry point, backend)`` into a runner callable.

    ``requested`` maps feature names (see :data:`FEATURES`) to booleans:
    a feature marked True that the chosen backend does not declare raises
    a uniformly-worded ``ValueError`` naming the backends that do support
    it.  The returned runner takes the entry point's full keyword surface
    (the registry's adapters drop keywords their backend does not use —
    the feature check guarantees those are ``None``).
    """
    table = _table(entry_point)
    spec = table.get(name)
    if spec is None:
        raise ValueError(_unknown_backend_message(entry_point, name, table))
    for feature, wanted in requested.items():
        if feature not in _FEATURE_REASONS:
            raise ValueError(
                f"unknown backend feature {feature!r}; "
                f"known: {', '.join(sorted(_FEATURE_REASONS))}"
            )
        if wanted and feature not in spec.features:
            supported = ", ".join(
                repr(k) for k, s in sorted(table.items())
                if feature in s.features
            )
            raise ValueError(
                f"the {name!r} backend of {entry_point} "
                f"{_FEATURE_REASONS[feature]}; "
                f"{feature} is supported by: {supported}"
            )
    return spec.loader()
