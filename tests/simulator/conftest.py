"""Fixtures shared by the engine's matching-rule tests."""

import pytest

from repro.analysis.static import extract_schedule
from repro.obs import TimelineRecorder, cross_validate_timeline
from repro.simulator import DeadlockError, run_spmd


def _link_events(tl):
    return sorted((e.cycle, e.src, e.dst, e.kind, e.size) for e in tl.events)


def _schedule_events(sched):
    return sorted((e.step, e.src, e.dst, e.kind, e.size) for e in sched.events)


def run_vs_extractor(topo, program, **kw):
    """``run_spmd`` under a timeline recorder, checked against the static
    extractor, a separate implementation of the same matching rule.

    A run that completes must record the extracted schedule event for
    event.  A run that deadlocks must make the extracted deliveries first,
    then stall at the extracted cycle with the extracted blocked ranks and
    request kinds; ``max_cycles`` maps onto the extractor's step budget.
    ``program`` runs twice, so it must not keep state outside its ranks.
    """
    tl = TimelineRecorder(topo.num_nodes)
    sched = extract_schedule(
        topo, program, max_steps=kw.get("max_cycles", 1_000_000)
    )
    try:
        result = run_spmd(topo, program, timeline=tl, **kw)
    except DeadlockError as err:
        assert not sched.completed
        stall = sched.steps + 1 if sched.truncated else sched.stalled_at
        assert err.cycle == stall
        assert {
            rank: type(req).__name__.lower()
            for rank, req in err.blocked.items()
        } == {op.rank: op.kind for op in sched.blocked}
        assert _link_events(tl) == _schedule_events(sched)
        raise
    assert sched.completed
    assert cross_validate_timeline(tl, sched) == []
    assert result.comp_steps == sched.comp_steps
    return result


@pytest.fixture(params=["bare", "vs-extractor"])
def run(request):
    """``run_spmd`` as is, and again checked against the static extractor.

    The extractor is the engine's only independent oracle for the
    matching rule, so every matching-rule test that takes this fixture
    also runs its scenario through it.
    """
    return run_spmd if request.param == "bare" else run_vs_extractor
