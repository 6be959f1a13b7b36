"""Open-loop traffic serving: a discrete-event queueing simulator.

:func:`run_traffic` answers "what do these routes cost in aggregate" —
every pair is routed instantaneously, so it can say nothing about
*latency under load*.  This module is the serving-side counterpart: an
event-driven simulation of sustained, bursty traffic over the same
topologies and routers, with the queueing structure production capacity
planning cares about (see ``docs/model.md``, "Serving semantics"):

* **open-loop arrivals** — requests arrive on a schedule that does not
  react to the system (:func:`poisson_arrivals`,
  :func:`deterministic_arrivals`, :func:`onoff_arrivals`, or a replayed
  :func:`trace_arrivals` array), each carrying a random or supplied
  (src, dst) pair routed by the usual pluggable router;
* **per-link FIFO queues** — every *directed* link is a single server
  with deterministic service time and a finite (or infinite) waiting
  buffer; a hop is one service completion;
* **overload policies** — a message reaching a full buffer is either
  dropped (``policy="drop"``) or held where it is with backpressure
  (``policy="block"``: the upstream server stays occupied and re-offers
  the message every service time; at injection the request waits at the
  source NIC);
* **deadlines** — a request finishing after ``arrival + deadline`` counts
  as a deadline miss, not goodput;
* **fault integration** — a :class:`~repro.simulator.faults.FaultPlan`
  disturbs the live queues: its seeded drop schedule forces
  retransmissions of individual hop crossings (bounded by
  ``max_retries``) and its delay schedule stretches service times, with
  cycle keys taken from the integer simulation clock.

Everything is deterministic: identical inputs (arrival array, pairs,
config, plan) reproduce the identical :class:`ServingStats` — event ties
are broken by an explicit sequence number, never by hash order — so the
stats object doubles as a regression fingerprint.

The load-sweep driver :func:`find_saturation` bisects offered load to
the knee where p99 sojourn time diverges, turning the paper's E11
random-traffic experiment into a capacity-planning tool (experiment E18
compares the dual-cube's knee against the hypercube's and metacube's).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import pairwise
from typing import Callable, Sequence

import numpy as np

from repro.simulator.faults import FaultPlan, _down_at, _rate_dropped
from repro.simulator.traffic import _validated_path, random_pairs
from repro.topology.base import Topology

__all__ = [
    "ServingConfig",
    "ServingStats",
    "Checkpoint",
    "LinkOccupancy",
    "SaturationResult",
    "deterministic_arrivals",
    "poisson_arrivals",
    "onoff_arrivals",
    "trace_arrivals",
    "open_loop_pairs",
    "bfs_router",
    "run_serving",
    "find_saturation",
    "registry_from_serving",
]

Router = Callable[[int, int], Sequence[int]]


# --------------------------------------------------------------------------
# Arrival processes.  Each returns a sorted float64 array of arrival times
# starting at t >= 0; all randomness flows through an explicit seed, so a
# given (process, rate, num, seed) is one reproducible workload.
# --------------------------------------------------------------------------


def _check_rate_num(rate: float, num: int) -> None:
    if rate <= 0:
        raise ValueError(f"arrival rate must be positive, got {rate}")
    if num < 0:
        raise ValueError(f"request count must be non-negative, got {num}")


def deterministic_arrivals(rate: float, num: int) -> np.ndarray:
    """``num`` arrivals at exact spacing ``1/rate`` (the D/·/1 workload)."""
    _check_rate_num(rate, num)
    return np.arange(num, dtype=np.float64) / rate


def poisson_arrivals(rate: float, num: int, seed: int = 0) -> np.ndarray:
    """``num`` arrivals of a Poisson process of intensity ``rate``."""
    _check_rate_num(rate, num)
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(1.0 / rate, num)
    return np.cumsum(gaps)


def onoff_arrivals(
    rate: float,
    num: int,
    seed: int = 0,
    *,
    burst_factor: float = 4.0,
    on_mean: float = 10.0,
    off_mean: float = 30.0,
) -> np.ndarray:
    """Bursty on/off arrivals with long-run intensity ``rate``.

    Alternates exponentially-distributed ON and OFF phases (means
    ``on_mean``/``off_mean`` time units); during ON phases arrivals are
    Poisson at ``burst_factor`` times the rate a steady process would
    need, so the long-run average matches ``rate`` while the instantaneous
    load arrives in bursts — the workload that separates mean latency
    from tail latency.
    """
    _check_rate_num(rate, num)
    if burst_factor <= 1.0:
        raise ValueError(f"burst_factor must be > 1, got {burst_factor}")
    if on_mean <= 0 or off_mean <= 0:
        raise ValueError(
            f"phase means must be positive, got on={on_mean} off={off_mean}"
        )
    # Long-run arrival intensity is on_rate * on_mean / (on_mean + off_mean);
    # solve for the ON-phase rate that makes it equal `rate`.
    duty = on_mean / (on_mean + off_mean)
    on_rate = min(rate * burst_factor, rate / duty)
    rng = np.random.default_rng(seed)
    times: list[float] = []
    t = 0.0
    while len(times) < num:
        on_len = rng.exponential(on_mean)
        end = t + on_len
        while len(times) < num:
            t += rng.exponential(1.0 / on_rate)
            if t > end:
                t = end
                break
            times.append(t)
        t += rng.exponential(off_mean)
    return np.asarray(times[:num], dtype=np.float64)


def trace_arrivals(times: Sequence[float]) -> np.ndarray:
    """Validate and normalize a replayable arrival-time trace.

    The trace must be non-negative and non-decreasing (simultaneous
    arrivals are allowed; their relative order in the array is the order
    they are offered to the network, though aggregate counters do not
    depend on it — see ``tests/simulator/test_serving_properties.py``).
    """
    arr = np.asarray(times, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"arrival trace must be 1-D, got shape {arr.shape}")
    if arr.size and (not np.isfinite(arr).all() or arr[0] < 0):
        raise ValueError("arrival trace must be finite and non-negative")
    if arr.size and (np.diff(arr) < 0).any():
        raise ValueError("arrival trace must be non-decreasing")
    return arr


def open_loop_pairs(
    topo: Topology, num: int, seed: int = 0
) -> list[tuple[int, int]]:
    """``num`` uniform self-excluding (src, dst) pairs for a workload."""
    rng = np.random.default_rng(seed)
    return random_pairs(topo.num_nodes, num, rng)


def bfs_router(topo: Topology) -> Router:
    """Shortest-path router for any :class:`Topology` (per-source BFS).

    Predecessor trees are memoized per source, so routing a batch costs
    one BFS per distinct source — the fallback for comparison topologies
    (e.g. the metacube) that ship no closed-form router.
    """
    trees: dict[int, dict[int, int | None]] = {}

    def _route(u: int, v: int) -> list[int]:
        topo.check_node(v)
        prev = trees.get(u)
        if prev is None:
            prev = trees[u] = topo.bfs_parents(u)
        if v not in prev:
            raise ValueError(f"{topo.name}: no path {u} -> {v}")
        path = [v]
        while path[-1] != u:
            path.append(prev[path[-1]])
        path.reverse()
        return path

    _route.__name__ = f"bfs_router({topo.name})"
    return _route


# --------------------------------------------------------------------------
# Configuration and results.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ServingConfig:
    """Knobs of one serving run.

    ``service_time`` is the deterministic time a link spends per message
    (one hop).  ``queue_capacity`` bounds the *waiting* buffer of each
    directed link (the in-service slot is separate); ``None`` means
    unbounded.  ``policy`` selects what happens at a full buffer:
    ``"drop"`` discards the request, ``"block"`` applies backpressure
    (the message holds its upstream server and re-offers itself every
    service time; a blocked injection waits at the source).  ``deadline``
    is the per-request sojourn budget (``None`` = no deadlines).
    ``horizon`` stops the simulation clock: arrivals and service beyond
    it never happen and unfinished requests count as in-flight —
    required for ``policy="block"`` with finite capacity, where cyclic
    backpressure can otherwise hold messages forever.
    """

    service_time: float = 1.0
    queue_capacity: int | None = None
    policy: str = "drop"
    deadline: float | None = None
    horizon: float | None = None
    checkpoint_every: float | None = None

    def __post_init__(self):
        if self.service_time <= 0:
            raise ValueError(
                f"service_time must be positive, got {self.service_time}"
            )
        if self.queue_capacity is not None and self.queue_capacity < 0:
            raise ValueError(
                f"queue_capacity must be >= 0 or None, got {self.queue_capacity}"
            )
        if self.policy not in ("drop", "block"):
            raise ValueError(
                f"policy must be 'drop' or 'block', got {self.policy!r}"
            )
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError(f"deadline must be positive, got {self.deadline}")
        if self.horizon is not None and self.horizon <= 0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        if self.checkpoint_every is not None and self.checkpoint_every <= 0:
            raise ValueError(
                f"checkpoint_every must be positive, got {self.checkpoint_every}"
            )


@dataclass(frozen=True)
class Checkpoint:
    """Counter snapshot at one simulated instant.

    The conservation law ``arrivals == completions + drops +
    deadline_misses + in_flight`` holds at every checkpoint by
    construction; the property suite asserts it anyway, because that is
    exactly the invariant a bookkeeping bug would break.
    """

    time: float
    arrivals: int
    completions: int
    drops: int
    deadline_misses: int
    in_flight: int


@dataclass(frozen=True)
class LinkOccupancy:
    """Queueing behaviour of one directed link over the run.

    ``utilization`` is busy time over elapsed time; ``mean_queue`` is the
    time-averaged waiting-buffer length (in-service slot excluded);
    ``served`` counts service completions (retransmitted attempts
    included).
    """

    utilization: float
    mean_queue: float
    max_queue: int
    served: int


@dataclass(frozen=True)
class ServingStats:
    """Aggregate results of one open-loop serving run.

    Latency percentiles are nearest-rank over the sojourn times of every
    *finished* request (completions and deadline misses; dropped requests
    have no sojourn).  With fewer than 1000 finished requests ``p999``
    equals the maximum — at small n the extreme tail is the sample
    maximum, not an interpolated fiction (see ``docs/model.md``).

    ``goodput`` counts only in-deadline completions per unit time.
    ``link_loads`` aggregates service attempts per *undirected* link in
    :func:`run_traffic`'s key convention, so a closed-batch run is
    directly comparable to the batch router (the cross-validation test
    pins them equal); ``occupancy`` keeps the *directed* per-queue view,
    and each ``link_loads`` entry is the sum of its two directions'
    ``served``.
    """

    topology: str
    policy: str
    arrivals: int
    completions: int
    drops: int
    deadline_misses: int
    in_flight: int
    elapsed: float
    p50: float
    p99: float
    p999: float
    mean_sojourn: float
    max_sojourn: float
    goodput: float
    hops_served: int
    path_hops: int
    retransmissions: int
    blocked_retries: int
    link_loads: dict = field(default_factory=dict)
    occupancy: dict = field(default_factory=dict)
    checkpoints: tuple = ()

    @property
    def finished(self) -> int:
        """Requests that traversed their full path (on time or late)."""
        return self.completions + self.deadline_misses

    @property
    def utilization(self) -> float:
        """Mean utilization over the links that carried any traffic."""
        busy = [o.utilization for o in self.occupancy.values() if o.served]
        return float(np.mean(busy)) if busy else 0.0

    def conservation_ok(self) -> bool:
        """The end-of-run conservation law (and at every checkpoint)."""
        checks = [
            (self.arrivals, self.completions, self.drops,
             self.deadline_misses, self.in_flight)
        ] + [
            (c.arrivals, c.completions, c.drops, c.deadline_misses, c.in_flight)
            for c in self.checkpoints
        ]
        return all(a == c + d + m + f for a, c, d, m, f in checks)

    def row(self) -> tuple:
        """Tuple for table rendering."""
        return (
            self.topology,
            self.arrivals,
            self.completions,
            self.drops,
            self.deadline_misses,
            round(self.p50, 3),
            round(self.p99, 3),
            round(self.p999, 3),
            round(self.goodput, 4),
            round(self.utilization, 3),
        )


def _percentile(sorted_vals: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sequence (0 when empty)."""
    if not len(sorted_vals):
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_vals)))
    return float(sorted_vals[rank - 1])


# --------------------------------------------------------------------------
# The discrete-event core.
# --------------------------------------------------------------------------

# Event kinds, ordered deliberately: at one instant, departures run
# before arrivals (a slot freed at time t is available to a time-t
# arrival), and retries after fresh arrivals.  The int is the tie-break
# after time; `seq` below breaks remaining ties by creation order, so the
# schedule is a pure function of the inputs.  Arrivals never enter the
# heap: they are read from the sorted arrival array in order and merged
# with the heap top by the same (time, kind) key.
_DEPART = 0
_ARRIVE = 1
_RETRY_INJECT = 2
# The merge key once the arrivals run out: it sorts after every heap entry.
_NO_ARRIVAL = (math.inf, _RETRY_INJECT + 1)


class _Request:
    __slots__ = ("t_arrive", "src", "links", "hop", "tries", "crossed",
                 "deadline")

    def __init__(self, t_arrive, src, links, deadline):
        self.t_arrive = t_arrive
        self.src = src
        self.links = links    # the path's _LinkQ objects, in hop order
        self.hop = 0          # index into links: the current link
        self.tries = 0        # fault-drop retransmissions of the current hop
        self.crossed = False  # current hop already counted as a crossing
        self.deadline = deadline


class _LinkQ:
    """Directed link ``a -> b``: one deterministic server plus FIFO buffer.

    It also carries what the plan fixes for the run: the link's drop hash
    (the plan's seed and both endpoints mixed in) and the cycle spans in
    which the link is down (:meth:`FaultPlan.link_down_spans`).
    """

    __slots__ = (
        "a", "b", "queue", "current", "served", "busy_since", "busy_time",
        "q_area", "q_last_t", "max_queue", "drop_state", "down",
    )

    def __init__(self, a: int, b: int):
        self.a = a
        self.b = b
        self.queue: deque = deque()
        self.current: _Request | None = None
        self.served = 0
        self.busy_since = 0.0
        self.busy_time = 0.0
        self.q_area = 0.0   # integral of queue length over time
        self.q_last_t = 0.0
        self.max_queue = 0
        self.drop_state = 0
        self.down: tuple = ()


def run_serving(
    topo: Topology,
    router: Router,
    arrivals: Sequence[float],
    pairs: Sequence[tuple[int, int]],
    *,
    config: ServingConfig | None = None,
    fault_plan: FaultPlan | None = None,
    timeline=None,
) -> ServingStats:
    """Serve an open-loop workload through ``topo`` and aggregate stats.

    ``arrivals`` is a non-decreasing array of request arrival times and
    ``pairs`` the same-length sequence of (src, dst) pairs; request ``i``
    arrives at ``arrivals[i]`` and is routed once by ``router`` (paths
    are validated hop by hop, as in :func:`run_traffic`).  A
    ``fault_plan`` naming a node or link outside ``topo`` is rejected
    with :class:`ValueError` before anything runs.

    With a ``fault_plan``, each completed hop crossing is subject to the
    plan's deterministic drop schedule keyed by a global attempt counter
    (the same convention as :func:`run_traffic`; a given workload + plan
    reproduces its own retransmissions bit-for-bit, and on a single-link
    topology — where crossing order is sequential — it reproduces
    :func:`run_traffic`'s exactly); a dropped crossing re-enters
    service on the same link — the failed attempt still occupies the
    server and loads the link — bounded per hop by ``plan.max_retries``,
    after which the request counts as a drop.  The plan's delay schedule
    stretches individual service times by ``issue_delay(src, cycle)``
    service units, with ``cycle = floor(t) + 1``.  Structural and
    membership faults use the same wall-clock cycle key: a request
    arriving at a node that is crashed or inside a downtime interval
    (``plan.down(src, cycle)``) is refused at admission and counted as a
    drop, and a crossing whose link is cut — or whose endpoint is down —
    at that cycle is lost exactly like a transient drop (retransmitted in
    place up to ``max_retries``).  Plans without structural faults are
    unaffected bit-for-bit, because the global attempt counter advances
    identically.

    A ``timeline`` (:class:`~repro.obs.timeline.TimelineRecorder`)
    receives one message event per successful hop crossing (bucketed into
    integer cycles the same way) and one fault event per queue drop
    (``"drop"``), fault-plan drop (``"drop"``) and deadline miss
    (``"timeout"``), so ``repro serve --heatmap`` renders queue activity
    with the existing ASCII renderer.
    """
    cfg = config or ServingConfig()
    times = trace_arrivals(arrivals)
    pairs = list(pairs)
    if len(pairs) != len(times):
        raise ValueError(
            f"arrivals and pairs must have equal length, got "
            f"{len(times)} arrivals and {len(pairs)} pairs"
        )
    service = cfg.service_time
    capacity = cfg.queue_capacity
    horizon = cfg.horizon
    blocking = cfg.policy == "block"
    if blocking and capacity is not None and horizon is None:
        raise ValueError(
            "policy='block' with finite queue_capacity requires a horizon: "
            "cyclic backpressure can hold messages forever"
        )
    budget = cfg.deadline if cfg.deadline is not None else math.inf
    # Which fault classes the plan has is fixed for the run, so a plan
    # query that can only answer "no" (or 0) is never made.
    structural = delays = False
    drop_rate = 0.0
    explicit: frozenset = frozenset()  # the plan's (src, dst, cycle) drops
    max_retries = 0
    if fault_plan is not None:
        fault_plan.validate_for(topo)
        structural = bool(
            fault_plan.node_crashes
            or fault_plan.link_cuts
            or fault_plan.downtimes
        )
        delays = bool(fault_plan.delay_rate or fault_plan.delays)
        drop_rate = fault_plan.drop_rate
        explicit = fault_plan.drops
        max_retries = fault_plan.max_retries

    # The (a, b) hops that _validated_path has found to be edges.
    edges: set[tuple[int, int]] = set()
    # Every link on an admitted request's path, keyed by its (a, b) hop;
    # only those a service ever started on are reported.
    links: dict[tuple[int, int], _LinkQ] = {}

    def new_link(a: int, b: int) -> _LinkQ:
        lq = links[a, b] = _LinkQ(a, b)
        if drop_rate:
            lq.drop_state = fault_plan._drop_state(a, b)
        if structural:
            lq.down = fault_plan.link_down_spans(a, b)
        return lq

    def delayed(a: int, t: float) -> float:
        """End of a service started at ``t`` on a link out of ``a``,
        stretched by the plan's delay schedule."""
        return t + (service + fault_plan.issue_delay(a, int(t) + 1) * service)

    def record_fault(t: float, kind: str, rank: int, a=None, b=None) -> None:
        if timeline is not None:
            timeline.record_fault(int(t) + 1, kind, rank=rank, src=a, dst=b)

    # Aggregate counters.
    n_arrivals = n_completions = n_drops = n_misses = 0
    # hops_served also numbers the crossing attempts: the drop schedule's
    # cycle key.
    hops_served = path_hops = retransmissions = blocked_retries = 0
    sojourns: list[float] = []
    checkpoints: list[Checkpoint] = []
    next_checkpoint = (
        cfg.checkpoint_every if cfg.checkpoint_every is not None else math.inf
    )

    def take_checkpoint(upto: float) -> None:
        nonlocal next_checkpoint
        while next_checkpoint <= upto and (
            horizon is None or next_checkpoint <= horizon
        ):
            in_flight = n_arrivals - n_completions - n_drops - n_misses
            checkpoints.append(
                Checkpoint(
                    time=next_checkpoint,
                    arrivals=n_arrivals,
                    completions=n_completions,
                    drops=n_drops,
                    deadline_misses=n_misses,
                    in_flight=in_flight,
                )
            )
            next_checkpoint += cfg.checkpoint_every

    # Requests beyond the horizon never arrive at all.  The rest are
    # routed lazily at arrival (routers may be stateful caches).
    arrival_times = times.tolist()
    num_live = len(arrival_times)
    if horizon is not None:
        num_live = int(np.searchsorted(times, horizon, side="right"))
    i = 0
    upcoming = (arrival_times[0], _ARRIVE) if num_live else _NO_ARRIVAL

    # The heap holds departures and retry-injections as (t, kind, seq, obj).
    heap: list = []
    seq = 0
    last_t = 0.0
    # A cycle key is floor(t) + 1; t >= 0 here, so int(t) + 1 is that.
    while True:
        if heap and heap[0] < upcoming:
            t, kind, _, obj = heappop(heap)
            if horizon is not None and t > horizon:
                break
        elif i < num_live:
            t = upcoming[0]
            kind = _ARRIVE
        else:
            break
        if next_checkpoint <= t:
            take_checkpoint(t)
        last_t = t

        if kind == _DEPART:
            # The link finished one service period.
            lq = obj
            req = lq.current
            if not req.crossed:
                # This completion is a genuine crossing attempt.
                lq.served += 1
                hops_served += 1
                # First FaultPlan.dropped's two tests, with the link's drop
                # hash computed once, when its queue was made.
                if (
                    (explicit and (lq.a, lq.b, hops_served) in explicit)
                    or (
                        drop_rate
                        and _rate_dropped(lq.drop_state, hops_served, drop_rate)
                    )
                    # A cut link or a down endpoint (crash/downtime) loses
                    # the crossing exactly like a transient drop: the
                    # attempt counter advanced, so drop-schedule verdicts
                    # for plans without structural faults are unchanged
                    # bit-for-bit.
                    or (lq.down and _down_at(lq.down, int(t) + 1))
                ):
                    retransmissions += 1
                    req.tries += 1
                    record_fault(t, "drop", req.src, lq.a, lq.b)
                    if req.tries <= max_retries:
                        # Retransmit in place; the failed attempt kept
                        # the server busy.
                        lq.busy_time += t - lq.busy_since
                        lq.busy_since = t
                        done = delayed(lq.a, t) if delays else t + service
                        heappush(heap, (done, _DEPART, seq, lq))
                        seq += 1
                        continue
                    n_drops += 1
                    record_fault(t, "drop", req.src, lq.a, lq.b)
                    req = None
                else:
                    path_hops += 1
                    req.crossed = True
                    if timeline is not None:
                        timeline.record_message(
                            int(t) + 1, lq.a, lq.b, 1, "send"
                        )
            if req is not None:
                hop = req.hop + 1
                if hop == len(req.links):
                    sojourns.append(t - req.t_arrive)
                    if t > req.deadline:
                        n_misses += 1
                        record_fault(t, "timeout", req.src)
                    else:
                        n_completions += 1
                else:
                    # Hand off to the next link on the path.
                    nq = req.links[hop]
                    if nq.current is None:
                        req.hop = hop
                        req.tries = 0
                        req.crossed = False
                        nq.current = req
                        nq.busy_since = t
                        done = delayed(nq.a, t) if delays else t + service
                        heappush(heap, (done, _DEPART, seq, nq))
                        seq += 1
                    elif capacity is None or len(nq.queue) < capacity:
                        req.hop = hop
                        req.tries = 0
                        req.crossed = False
                        nq.q_area += len(nq.queue) * (t - nq.q_last_t)
                        nq.q_last_t = t
                        nq.queue.append(req)
                        if len(nq.queue) > nq.max_queue:
                            nq.max_queue = len(nq.queue)
                    elif blocking:
                        # Hold the server and re-offer downstream after a
                        # service time.
                        blocked_retries += 1
                        heappush(heap, (t + service, _DEPART, seq, lq))
                        seq += 1
                        continue
                    else:
                        n_drops += 1
                        record_fault(t, "drop", req.src, nq.a, nq.b)
            # Free the server; the head of its queue starts at once.
            lq.busy_time += t - lq.busy_since
            if lq.queue:
                lq.q_area += len(lq.queue) * (t - lq.q_last_t)
                lq.q_last_t = t
                lq.current = lq.queue.popleft()
                lq.busy_since = t
                done = delayed(lq.a, t) if delays else t + service
                heappush(heap, (done, _DEPART, seq, lq))
                seq += 1
            else:
                lq.current = None
            continue

        if kind == _ARRIVE:
            src, dst = pairs[i]
            path = _validated_path(topo, router, src, dst, edges)
            i += 1
            upcoming = (
                (arrival_times[i], _ARRIVE) if i < num_live else _NO_ARRIVAL
            )
            n_arrivals += 1
            if structural and fault_plan.down(src, int(t) + 1):
                # The ingress node is crashed or offline (downtime): the
                # request is refused at admission and counts as a drop —
                # the availability SLO's numerator.
                n_drops += 1
                record_fault(t, "drop", src, src, src)
                continue
            if len(path) == 1:
                # A self pair finishes on arrival, within any deadline.
                sojourns.append(0.0)
                n_completions += 1
                continue
            req = _Request(
                t,
                src,
                [links.get(hop) or new_link(*hop) for hop in pairwise(path)],
                t + budget,
            )
        else:  # _RETRY_INJECT
            req = obj

        # Inject the request on its first link.
        lq = req.links[0]
        if lq.current is None:
            lq.current = req
            lq.busy_since = t
            done = delayed(lq.a, t) if delays else t + service
            heappush(heap, (done, _DEPART, seq, lq))
            seq += 1
        elif capacity is None or len(lq.queue) < capacity:
            lq.q_area += len(lq.queue) * (t - lq.q_last_t)
            lq.q_last_t = t
            lq.queue.append(req)
            if len(lq.queue) > lq.max_queue:
                lq.max_queue = len(lq.queue)
        elif blocking:
            # The request waits at the source NIC.
            blocked_retries += 1
            heappush(heap, (t + service, _RETRY_INJECT, seq, req))
            seq += 1
        else:
            n_drops += 1
            record_fault(t, "drop", req.src, lq.a, lq.b)

    # The observation window is the *full* configured horizon: the run is
    # open-loop, so a drained event heap just means the tail of the window
    # was idle — idle time still counts toward utilization/goodput, and
    # checkpoints scheduled after the last event must still be emitted.
    # (Without a horizon the window ends at the last event, as before.)
    elapsed = horizon if horizon is not None else last_t
    take_checkpoint(elapsed)
    if timeline is not None and elapsed > 0:
        timeline.set_cycles(int(math.ceil(elapsed)))

    in_flight = n_arrivals - n_completions - n_drops - n_misses
    sojourns.sort()
    occupancy = {}
    link_loads: dict[tuple[int, int], int] = {}
    for _, lq in sorted(links.items()):
        if lq.current is None and not lq.served:
            continue  # on some request's path, but never reached
        if lq.current is not None:  # still busy at the horizon
            lq.busy_time += max(0.0, elapsed - lq.busy_since)
        lq.q_area += len(lq.queue) * max(0.0, elapsed - lq.q_last_t)
        occupancy[(lq.a, lq.b)] = LinkOccupancy(
            utilization=(lq.busy_time / elapsed) if elapsed > 0 else 0.0,
            mean_queue=(lq.q_area / elapsed) if elapsed > 0 else 0.0,
            max_queue=lq.max_queue,
            served=lq.served,
        )
        if lq.served:
            # An undirected link's load counts both directions' attempts.
            edge = (min(lq.a, lq.b), max(lq.a, lq.b))
            link_loads[edge] = link_loads.get(edge, 0) + lq.served

    return ServingStats(
        topology=topo.name,
        policy=cfg.policy,
        arrivals=n_arrivals,
        completions=n_completions,
        drops=n_drops,
        deadline_misses=n_misses,
        in_flight=in_flight,
        elapsed=float(elapsed),
        p50=_percentile(sojourns, 0.50),
        p99=_percentile(sojourns, 0.99),
        p999=_percentile(sojourns, 0.999),
        mean_sojourn=float(np.mean(sojourns)) if sojourns else 0.0,
        max_sojourn=float(sojourns[-1]) if sojourns else 0.0,
        goodput=(n_completions / elapsed) if elapsed > 0 else 0.0,
        hops_served=hops_served,
        path_hops=path_hops,
        retransmissions=retransmissions,
        blocked_retries=blocked_retries,
        link_loads=link_loads,
        occupancy=occupancy,
        checkpoints=tuple(checkpoints),
    )


# --------------------------------------------------------------------------
# Saturation sweep.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SaturationResult:
    """Outcome of one :func:`find_saturation` bisection.

    ``rate`` is the highest *per-node* injection rate probed that kept
    p99 sojourn below ``threshold`` (the knee is between ``rate`` and
    ``diverged_rate``); ``probes`` records every ``(rate, p99)`` pair
    measured, in probe order, so the sweep is auditable.
    """

    topology: str
    rate: float
    diverged_rate: float
    base_p99: float
    threshold: float
    probes: tuple

    def row(self) -> tuple:
        return (
            self.topology,
            round(self.rate, 5),
            round(self.diverged_rate, 5),
            round(self.base_p99, 3),
            round(self.threshold, 3),
            len(self.probes),
        )


def find_saturation(
    topo: Topology,
    router: Router,
    *,
    seed: int = 0,
    requests: int = 2000,
    max_requests: int = 20000,
    window: float = 300.0,
    service_time: float = 1.0,
    start_rate: float = 0.01,
    p99_factor: float = 8.0,
    max_doublings: int = 12,
    rel_tol: float = 0.05,
    config: ServingConfig | None = None,
) -> SaturationResult:
    """Bisect per-node offered load to the knee where p99 diverges.

    Each probe observes a fixed simulated ``window``: it offers
    ``rate * num_nodes * window`` requests (floored at ``requests`` so
    near-idle probes still have a p99-worthy sample, capped at
    ``max_requests`` to bound probe cost).  The fixed window is what
    makes divergence *detectable*: past the knee, backlog accumulates
    over the whole window, so p99 grows with the window instead of
    saturating at the drain time of some fixed batch.  All probes reuse
    one seeded gap sequence and pair list (rescaled to the probed rate),
    so the sweep is deterministic and seed-stable.

    The divergence threshold is ``p99_factor`` times the p99 measured at
    ``start_rate`` (a nearly idle system, so that p99 is queueing-free
    path latency).  Doubling from ``start_rate`` finds a diverged rate,
    then bisection narrows the bracket to ``rel_tol`` relative width.

    Rates are *per node* per time unit — the natural axis for comparing
    topologies of different sizes (experiment E18).
    """
    if requests < 100:
        raise ValueError(f"requests must be >= 100 for a stable p99, got {requests}")
    if max_requests < requests:
        raise ValueError(
            f"max_requests ({max_requests}) must be >= requests ({requests})"
        )
    if window <= 0:
        raise ValueError(f"window must be positive, got {window}")
    if start_rate <= 0:
        raise ValueError(f"start_rate must be positive, got {start_rate}")
    if p99_factor <= 1:
        raise ValueError(f"p99_factor must be > 1, got {p99_factor}")
    if not 0 < rel_tol < 1:
        raise ValueError(f"rel_tol must be in (0, 1), got {rel_tol}")
    base_cfg = config or ServingConfig(service_time=service_time)
    pairs = open_loop_pairs(topo, max_requests, seed)
    # One unit-rate gap sequence, rescaled per probe: probing rate r uses
    # arrival times gaps/total_rate, so all probes share one sample path.
    unit_gaps = np.random.default_rng(seed).exponential(1.0, max_requests)

    probes: list[tuple[float, float]] = []

    def p99_at(rate: float) -> float:
        total_rate = rate * topo.num_nodes
        num = int(min(max_requests, max(requests, round(total_rate * window))))
        arrivals = np.cumsum(unit_gaps[:num] / total_rate)
        stats = run_serving(
            topo, router, arrivals, pairs[:num], config=base_cfg
        )
        probes.append((rate, stats.p99))
        return stats.p99

    base_p99 = p99_at(start_rate)
    threshold = p99_factor * base_p99
    if base_p99 >= threshold:  # p99_factor > 1 makes this unreachable unless 0
        raise ValueError(
            f"baseline p99 {base_p99} already at threshold; lower start_rate"
        )

    lo, hi = start_rate, start_rate
    for _ in range(max_doublings):
        hi = hi * 2.0
        if p99_at(hi) > threshold:
            break
        lo = hi
    else:
        raise ValueError(
            f"{topo.name}: p99 never diverged up to rate {hi:.4f} "
            f"({max_doublings} doublings from {start_rate}); the service "
            f"rate may be effectively infinite for this workload"
        )

    while (hi - lo) > rel_tol * hi:
        mid = 0.5 * (lo + hi)
        if p99_at(mid) > threshold:
            hi = mid
        else:
            lo = mid

    return SaturationResult(
        topology=topo.name,
        rate=lo,
        diverged_rate=hi,
        base_p99=base_p99,
        threshold=threshold,
        probes=tuple(probes),
    )


# --------------------------------------------------------------------------
# Metrics bridge.
# --------------------------------------------------------------------------


def registry_from_serving(stats: ServingStats, *, registry=None, labels=None):
    """Feed a :class:`ServingStats` into a metrics registry.

    Request outcomes and hop totals become counters, the latency
    percentiles and utilization gauges, and the per-link served counts a
    histogram (the distribution view of queue skew) — the same
    export-ready shape :func:`~repro.obs.metrics.registry_from_counters`
    gives the lockstep ledger.
    """
    # Imported lazily: the simulator stays importable without obs.
    from repro.obs.metrics import MetricsRegistry

    reg = registry if registry is not None else MetricsRegistry()
    labels = dict(labels or {})
    labels.setdefault("topology", stats.topology)
    for name, value, help_text in (
        ("serving_arrivals", stats.arrivals, "Requests that entered the network"),
        ("serving_completions", stats.completions, "Requests completed within deadline"),
        ("serving_drops", stats.drops, "Requests dropped at a full queue or retry limit"),
        ("serving_deadline_misses", stats.deadline_misses, "Requests completed past their deadline"),
        ("serving_hops_served", stats.hops_served, "Physical hop crossings served (retransmissions included)"),
        ("serving_path_hops", stats.path_hops, "Logical hop crossings served"),
        ("serving_retransmissions", stats.retransmissions, "Hop crossings lost to the fault plan and retried"),
        ("serving_blocked_retries", stats.blocked_retries, "Backpressure re-offers of a held message"),
    ):
        reg.counter(name, help_text, labels).inc(int(value))
    for name, value, help_text in (
        ("serving_in_flight", stats.in_flight, "Requests still in the network at the horizon"),
        ("serving_p50_sojourn", stats.p50, "Median sojourn time"),
        ("serving_p99_sojourn", stats.p99, "99th-percentile sojourn time"),
        ("serving_p999_sojourn", stats.p999, "99.9th-percentile sojourn time"),
        ("serving_goodput", stats.goodput, "In-deadline completions per time unit"),
        ("serving_utilization", stats.utilization, "Mean utilization over loaded links"),
    ):
        reg.gauge(name, help_text, labels).set(float(value))
    served = reg.histogram(
        "serving_link_served",
        "Service completions per directed link",
        labels,
    )
    for occ in stats.occupancy.values():
        served.observe(occ.served)
    return reg
