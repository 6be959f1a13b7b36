"""Fault injection for the lockstep engine.

A :class:`FaultPlan` is a *deterministic* schedule of failures the engine
consults while matching requests (see ``docs/model.md``, "Fault model and
recovery semantics"):

* **node crashes** — ``{rank: cycle}``; at the start of that cycle the
  rank's program is terminated and its pending request discarded;
* **link cuts** — ``{(u, v): cycle}``; from that cycle on, requests whose
  legs cross the link can never match (they block until they time out);
* **message drops** — a seeded Bernoulli draw per *delivered* directed
  message ``(src, dst, cycle)`` (plus an explicit trigger set); a dropped
  message makes the whole exchange it belonged to stay pending, so the
  lockstep pair retries on the next cycle — the engine counts the drop
  and the retry, and enforces :attr:`max_retries` per request;
* **message delays** — a seeded draw per *issued* request
  ``(rank, issue_cycle)`` (plus an explicit trigger map); a delayed
  request is invisible to matching for ``d`` cycles, as if the node
  posted it late;
* **downtimes** — ``(rank, start, end)`` membership intervals: the rank
  is *offline* for cycles ``start..end-1`` and rejoins at ``end``.
  Unlike a crash the program survives; its pending request is simply
  invisible to matching while the node is down (and every link touching
  the node is down for the interval), so lockstep partners stall and
  resume when it returns — the primitive behind churn, correlated
  whole-cluster outages, and rolling-restart sweeps (see
  ``repro.simulator.campaign``).

Randomness comes from a splitmix-style integer hash of
``(seed, kind, endpoints, cycle)`` — a pure function, so verdicts do not
depend on iteration order or Python hash randomization, and identical
plans reproduce identical runs bit-for-bit.

Recovery knobs ride on the plan: :attr:`max_retries` bounds drop retries,
:attr:`timeout` bounds how many cycles any request may stay pending, and
:attr:`on_timeout` selects whether a timeout raises
:class:`~repro.simulator.errors.RequestTimeoutError` or cancels the
request by resuming the program with the :data:`FAULTED` sentinel (so the
program can reroute).

An *empty* plan (no fault sources, no timeout) makes the engine take the
exact fault-free code path; the differential suite asserts byte-identical
results and cost ledgers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.topology.base import Topology

__all__ = ["FaultPlan", "StaticFaultView", "FAULTED"]

_M64 = (1 << 64) - 1
_TAG_DROP = 0x9E3779B97F4A7C15
_TAG_DELAY = 0xC2B2AE3D27D4EB4F


def _mix(x: int, v: int) -> int:
    """One splitmix round: the 64-bit hash state ``x`` with ``v`` mixed in."""
    x = (x + (v + 1) * 0x9E3779B97F4A7C15) & _M64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
    return x ^ (x >> 31)


def _prefix(seed: int, tag: int, a: int, b: int) -> int:
    """The hash state of ``_u01(seed, tag, a, b, ·)`` before its last round.

    The endpoints are mixed in as Python ints: a NumPy integer would make
    :func:`_mix` overflow its fixed width.
    """
    return _mix(_mix((seed ^ tag) & _M64, int(a)), int(b))


def _u01(seed: int, tag: int, a: int, b: int, c: int) -> float:
    """Deterministic uniform in [0, 1) from a splitmix-style mix."""
    return _mix(_prefix(seed, tag, a, b), c) / 2**64


def _rate_dropped(state: int, cycle: int, rate: float) -> bool:
    """The rate verdict of :meth:`FaultPlan.dropped` at ``cycle`` for the
    link whose drop hash is ``state`` (:meth:`FaultPlan._drop_state`)."""
    return _mix(state, cycle) / 2**64 < rate


def _down_at(spans: tuple, cycle: int) -> bool:
    """Whether ``cycle`` falls in one of the sorted, disjoint ``(start,
    end)`` spans of :meth:`FaultPlan.link_down_spans`."""
    for start, end in spans:
        if cycle < end:
            return start <= cycle
    return False


class _Faulted:
    """Singleton resumed into a program whose request timed out (cancel mode)."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "FAULTED"

    def __reduce__(self):  # pragma: no cover - pickling convenience
        return (_faulted_instance, ())


FAULTED = _Faulted()


def _faulted_instance() -> _Faulted:  # pragma: no cover - pickling convenience
    return FAULTED


def _norm_link(link: tuple[int, int]) -> tuple[int, int]:
    a, b = link
    if a == b:
        raise ValueError(f"fault link ({a}, {b}) is a self-loop")
    return (min(a, b), max(a, b))


class FaultPlan:
    """Deterministic failure schedule plus recovery configuration.

    Parameters
    ----------
    node_crashes:
        ``{rank: cycle}`` — the rank dies at the start of that cycle
        (cycle >= 1; cycle 1 means it never completes a request).
    link_cuts:
        ``{(u, v): cycle}`` — the undirected link dies at that cycle.
    downtimes:
        ``(rank, start, end)`` triples — the rank is offline for cycles
        ``start..end-1`` (``1 <= start < end``) and rejoins at ``end``.
        Intervals for the same rank may not overlap.
    drop_rate:
        Probability in [0, 1] that any delivered message is dropped.
    drops:
        Explicit ``(src, dst, cycle)`` triples dropped unconditionally.
    delay_rate:
        Probability in [0, 1] that an issued request is delayed.
    max_delay:
        Delays are uniform on ``1..max_delay`` cycles.
    delays:
        Explicit ``{(rank, issue_cycle): d}`` delays, applied before the
        rate-based draw.
    seed:
        Seed for the deterministic drop/delay hash.
    max_retries:
        Per-request bound on drop-forced retries; exceeding it raises
        :class:`~repro.simulator.errors.RetryLimitError`.
    timeout:
        Cycles a request may stay pending before the timeout action
        fires; ``None`` disables timeouts.
    on_timeout:
        ``"raise"`` (default) raises
        :class:`~repro.simulator.errors.RequestTimeoutError`;
        ``"cancel"`` completes the request locally, resuming the program
        with :data:`FAULTED` so it can reroute.
    """

    def __init__(
        self,
        *,
        node_crashes: Mapping[int, int] | None = None,
        link_cuts: Mapping[tuple[int, int], int] | None = None,
        downtimes: Iterable[tuple[int, int, int]] = (),
        drop_rate: float = 0.0,
        drops: Iterable[tuple[int, int, int]] = (),
        delay_rate: float = 0.0,
        max_delay: int = 3,
        delays: Mapping[tuple[int, int], int] | None = None,
        seed: int = 0,
        max_retries: int = 64,
        timeout: int | None = None,
        on_timeout: str = "raise",
    ):
        if not 0.0 <= drop_rate <= 1.0:
            raise ValueError(f"drop_rate must be in [0, 1], got {drop_rate}")
        if not 0.0 <= delay_rate <= 1.0:
            raise ValueError(f"delay_rate must be in [0, 1], got {delay_rate}")
        if max_delay < 1:
            raise ValueError(f"max_delay must be >= 1, got {max_delay}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if timeout is not None and timeout < 1:
            raise ValueError(f"timeout must be >= 1 or None, got {timeout}")
        if on_timeout not in ("raise", "cancel"):
            raise ValueError(
                f"on_timeout must be 'raise' or 'cancel', got {on_timeout!r}"
            )
        self.node_crashes = dict(node_crashes or {})
        for rank, cycle in self.node_crashes.items():
            if cycle < 1:
                raise ValueError(
                    f"crash cycle for rank {rank} must be >= 1, got {cycle}"
                )
        self.link_cuts: dict[tuple[int, int], int] = {}
        for link, cycle in dict(link_cuts or {}).items():
            if cycle < 1:
                raise ValueError(
                    f"cut cycle for link {link} must be >= 1, got {cycle}"
                )
            self.link_cuts[_norm_link(link)] = cycle
        self.downtimes: dict[int, tuple[tuple[int, int], ...]] = {}
        by_rank: dict[int, list[tuple[int, int]]] = {}
        for rank, start, end in downtimes:
            rank, start, end = int(rank), int(start), int(end)
            if start < 1:
                raise ValueError(
                    f"downtime start for rank {rank} must be >= 1, got {start}"
                )
            if end <= start:
                raise ValueError(
                    f"downtime ({rank}, {start}, {end}) must have end > start"
                )
            by_rank.setdefault(rank, []).append((start, end))
        for rank, spans in by_rank.items():
            spans.sort()
            for (_, e0), (s1, _) in zip(spans, spans[1:]):
                if s1 < e0:
                    raise ValueError(
                        f"overlapping downtimes for rank {rank}: {spans}"
                    )
            self.downtimes[rank] = tuple(spans)
        self.drop_rate = float(drop_rate)
        self.drops = frozenset(
            (int(s), int(d), int(c)) for s, d, c in drops
        )
        for s, d, c in self.drops:
            if s == d:
                raise ValueError(f"drop trigger ({s}, {d}, {c}) is a self-loop")
            if c < 1:
                raise ValueError(
                    f"drop trigger ({s}, {d}, {c}) cycle must be >= 1"
                )
        self.delay_rate = float(delay_rate)
        self.max_delay = int(max_delay)
        self.delays = {
            (int(r), int(c)): int(d) for (r, c), d in dict(delays or {}).items()
        }
        for key, d in self.delays.items():
            if d < 1:
                raise ValueError(f"explicit delay {key} -> {d} must be >= 1")
            # Initial requests are issued at cycle 0 (before the first
            # matching cycle), so 0 is a real issue cycle — only negative
            # keys can never fire.
            if key[1] < 0:
                raise ValueError(
                    f"explicit delay key {key} issue cycle must be >= 0"
                )
        self.seed = int(seed)
        self.max_retries = int(max_retries)
        self.timeout = timeout
        self.on_timeout = on_timeout

    # -- schedule queries (all pure functions) ---------------------------------

    @property
    def is_empty(self) -> bool:
        """No fault sources and no timeout: the engine may skip fault logic."""
        return (
            not self.node_crashes
            and not self.link_cuts
            and not self.downtimes
            and not self.drops
            and self.drop_rate == 0.0
            and self.delay_rate == 0.0
            and not self.delays
            and self.timeout is None
        )

    def crashed(self, rank: int, cycle: int) -> bool:
        """Whether ``rank`` is dead at ``cycle``."""
        crash = self.node_crashes.get(rank)
        return crash is not None and crash <= cycle

    def down(self, rank: int, cycle: int) -> bool:
        """Whether ``rank`` is unavailable at ``cycle`` (crashed *or* offline)."""
        if rank not in self.node_crashes and rank not in self.downtimes:
            return False
        if self.crashed(rank, cycle):
            return True
        for start, end in self.downtimes.get(rank, ()):
            if start <= cycle < end:
                return True
            if cycle < start:
                break
        return False

    def link_down_spans(self, u: int, v: int) -> tuple:
        """The sorted, disjoint cycle spans ``(start, end)`` in which the
        undirected link ``{u, v}`` is down (``start <= cycle < end``):
        from its cut and from either endpoint's crash on (``end`` is
        ``inf``), and during either endpoint's downtimes.  Empty for a
        link the plan never takes down."""
        spans = [*self.downtimes.get(u, ()), *self.downtimes.get(v, ())]
        for start in (
            self.link_cuts.get((min(u, v), max(u, v))),
            self.node_crashes.get(u),
            self.node_crashes.get(v),
        ):
            if start is not None:
                spans.append((start, math.inf))
        merged: list[tuple] = []
        for start, end in sorted(spans):
            if merged and start <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], end))
            else:
                merged.append((start, end))
        return tuple(merged)

    def link_up(self, u: int, v: int, cycle: int) -> bool:
        """Whether the undirected link ``{u, v}`` is alive at ``cycle``."""
        return not _down_at(self.link_down_spans(u, v), cycle)

    def dropped(self, src: int, dst: int, cycle: int) -> bool:
        """Whether the message ``src -> dst`` completing at ``cycle`` is lost."""
        if self.drops and (src, dst, cycle) in self.drops:
            return True
        if self.drop_rate == 0.0:
            return False
        return _rate_dropped(self._drop_state(src, dst), cycle, self.drop_rate)

    def _drop_state(self, src: int, dst: int) -> int:
        """The drop hash of link ``src -> dst`` before the cycle is mixed
        in: a caller that asks about one link many times computes it once
        and passes it to :func:`_rate_dropped`."""
        return _prefix(self.seed, _TAG_DROP, src, dst)

    def issue_delay(self, rank: int, issue_cycle: int) -> int:
        """Extra cycles the request issued by ``rank`` at ``issue_cycle`` waits."""
        explicit = self.delays.get((rank, issue_cycle))
        if explicit is not None:
            return explicit
        if self.delay_rate == 0.0:
            return 0
        u = _u01(self.seed, _TAG_DELAY, rank, issue_cycle, 0)
        if u >= self.delay_rate:
            return 0
        # Re-mix the sub-rate part into a uniform delay in 1..max_delay.
        # u/delay_rate is in [0, 1) exactly, but the *float* quotient can
        # round up to 1.0, so clamp the bucket instead of wrapping it.
        return 1 + min(
            int((u / self.delay_rate) * self.max_delay), self.max_delay - 1
        )

    def validate_for(self, topo: Topology) -> None:
        """Check every scheduled fault names a real node/link of ``topo``."""
        for rank in self.node_crashes:
            topo.check_node(rank)
        for rank in self.downtimes:
            topo.check_node(rank)
        for s, d, _ in self.drops:
            topo.check_node(s)
            topo.check_node(d)
        for (rank, _), _d in self.delays.items():
            topo.check_node(rank)
        for (u, v) in self.link_cuts:
            if not topo.has_edge(u, v):
                raise ValueError(
                    f"cut link ({u}, {v}) is not an edge of {topo.name}"
                )

    def static_view(self) -> "StaticFaultView":
        """Project the plan onto its statically analyzable part.

        See :class:`StaticFaultView`.
        """
        return StaticFaultView(
            crashes=tuple(sorted(self.node_crashes.items())),
            cuts=tuple(sorted(self.link_cuts.items())),
            downs=tuple(
                (rank, start, end)
                for rank in sorted(self.downtimes)
                for start, end in self.downtimes[rank]
            ),
            transient=bool(
                self.drops
                or self.drop_rate
                or self.delays
                or self.delay_rate
            ),
            timeout=self.timeout,
            on_timeout=self.on_timeout,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        parts = []
        if self.node_crashes:
            parts.append(f"crashes={self.node_crashes}")
        if self.link_cuts:
            parts.append(f"cuts={self.link_cuts}")
        if self.downtimes:
            spans = sum(len(v) for v in self.downtimes.values())
            parts.append(f"downtimes={spans} over {len(self.downtimes)} ranks")
        if self.drop_rate or self.drops:
            parts.append(f"drop_rate={self.drop_rate}, drops={len(self.drops)}")
        if self.delay_rate or self.delays:
            parts.append(f"delay_rate={self.delay_rate}")
        if self.timeout is not None:
            parts.append(f"timeout={self.timeout}/{self.on_timeout}")
        return f"FaultPlan({', '.join(parts) or 'empty'})"


@dataclass(frozen=True)
class StaticFaultView:
    """The timing-resolved, randomness-free projection of a fault plan.

    Static analysis (``repro.analysis.static.faults``) reasons about the
    *structural* faults of a plan: node crashes and link cuts, each pinned
    to a deterministic cycle.  Drops and delays are draws against the
    engine's actual cycle counter, so their effect depends on runtime
    timing; they are summarized by the single :attr:`transient` flag and
    the analyzer refuses plans where it is set (the caller must decide how
    to over-approximate them).  Downtime intervals (:attr:`downs`) are
    likewise *dynamic*: lockstep stalls make schedule steps drift away
    from engine cycles, so a step-indexed analysis of a bounded outage
    window would be unsound — the analyzer refuses those too, and the
    campaign triage (``repro.simulator.campaign``) over-approximates a
    downtime as a crash at its start cycle instead.

    ``crashes`` / ``cuts`` / ``downs`` are sorted tuples so a view is
    hashable and two plans with the same structural faults compare equal.
    """

    crashes: tuple[tuple[int, int], ...] = ()
    cuts: tuple[tuple[tuple[int, int], int], ...] = ()
    downs: tuple[tuple[int, int, int], ...] = ()
    transient: bool = False
    timeout: int | None = None
    on_timeout: str = "raise"

    @classmethod
    def from_faults(
        cls,
        *,
        nodes: Iterable[int] = (),
        links: Iterable[tuple[int, int]] = (),
    ) -> "StaticFaultView":
        """Build a view of *permanent* faults (present from cycle 1).

        Accepts the node/link collections of a
        :class:`repro.topology.faults.FaultSet` directly.
        """
        return cls(
            crashes=tuple(sorted((int(r), 1) for r in set(nodes))),
            cuts=tuple(sorted((_norm_link(e), 1) for e in set(links))),
        )

    def node_dead(self, rank: int, step: int) -> bool:
        """Whether ``rank`` is unavailable during lockstep ``step`` (1-based)."""
        for r, cycle in self.crashes:
            if r == rank and cycle <= step:
                return True
        for r, start, end in self.downs:
            if r == rank and start <= step < end:
                return True
        return False

    def link_down(self, u: int, v: int, step: int) -> bool:
        """Whether the undirected link ``{u, v}`` is unusable at ``step``."""
        key = (min(u, v), max(u, v))
        for link, cycle in self.cuts:
            if link == key and cycle <= step:
                return True
        return self.node_dead(u, step) or self.node_dead(v, step)

    @property
    def is_empty(self) -> bool:
        return (
            not self.crashes
            and not self.cuts
            and not self.downs
            and not self.transient
        )
