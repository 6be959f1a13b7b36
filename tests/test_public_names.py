"""The public names of the package: one entry point per algorithm.

Each algorithm is exported once, with ``backend=``; its runners stay
private or in :mod:`repro.core.replay`.  The only ``*_engine`` exports
are engine-only functions, which have no array backend.
"""

import importlib

import pytest

ENGINE_ONLY = {
    "repro": {"broadcast_engine"},
    "repro.core": {"run_exchange_algorithm_engine"},
    "repro.routing": {
        "allgather_engine",
        "broadcast_engine",
        "gather_engine",
        "reduce_engine",
        "ring_allreduce_engine",
        "scatter_engine",
    },
}

# Twins retired in favour of one entry point, and the engine's second
# entry point, message log and the run exporters nothing read; none
# survives as an alias.
RETIRED = {
    "repro.core.cube_prefix": ["cube_prefix_vec"],
    "repro.core.emulation": ["emulated_cube_prefix_vec",
                             "run_exchange_algorithm_vec"],
    "repro.routing.collectives": ["allreduce_vec", "allreduce_engine"],
    "repro.core.ring_sort": ["ring_sort_vec", "ring_sort_engine"],
    "repro.core.large_inputs": ["large_prefix_engine"],
    "repro.core.dual_prefix": ["dual_prefix_engine"],
    "repro.core.dual_sort": ["dual_sort_engine", "check_sort_input"],
    "repro.core.bitonic": ["hypercube_bitonic_sort_engine"],
    "repro.simulator": ["Engine", "Message"],
    "repro.simulator.engine": ["Engine"],
    "repro.analysis.static": ["schedule_from_messages"],
    "repro.core.replay": ["registry_from_plan_cache"],
    "repro.analysis.io": ["ExperimentRecord", "save_record", "load_record"],
}


@pytest.mark.parametrize("module", sorted(ENGINE_ONLY))
def test_no_twin_suffixes(module):
    names = importlib.import_module(module).__all__
    assert [n for n in names if n.endswith(("_vec", "_replay"))] == []


@pytest.mark.parametrize("module", sorted(ENGINE_ONLY))
def test_engine_names_are_engine_only(module):
    names = importlib.import_module(module).__all__
    assert {n for n in names if n.endswith("_engine")} == ENGINE_ONLY[module]


@pytest.mark.parametrize("module", sorted(RETIRED))
def test_retired_names_are_gone(module):
    mod = importlib.import_module(module)
    for name in RETIRED[module]:
        assert not hasattr(mod, name), f"{module}.{name}"
        for package in ENGINE_ONLY:
            assert not hasattr(importlib.import_module(package), name), (
                f"{package}.{name}")
