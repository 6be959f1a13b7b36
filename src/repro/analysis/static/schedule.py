"""The :class:`CommSchedule` IR — a static view of one SPMD execution.

A schedule is the complete per-step record of what an SPMD program *would*
communicate: one :class:`CommEvent` per delivered message (lockstep step,
source, destination, request kind, payload item count), plus the requests
still pending if the program can never finish (:class:`BlockedOp`).  The
IR is plain data: checkers consume it without caring whether it came from
the record-only extractor, a recorded engine timeline, or a hand-written
fixture in a test.

Step numbering matches the engine's cycle count, so ``comm_steps`` of an
extracted schedule equals the ``comm_steps`` a real engine run would
measure — which is what lets the Theorem 1/2 bounds be checked statically.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["CommEvent", "BlockedOp", "CommSchedule", "Violation"]

# Request kinds as they appear in the IR.
KINDS = ("idle", "send", "recv", "sendrecv", "shift")


@dataclass(frozen=True)
class CommEvent:
    """One delivered message: ``src -> dst`` completing at ``step``.

    ``step`` is 1-based and equals the engine cycle in which the transfer
    completes; ``kind`` is the request kind of the *sending* leg
    (``"send"``, ``"sendrecv"`` or ``"shift"``); ``size`` counts
    key-sized payload items (0 for control-only messages).
    """

    step: int
    src: int
    dst: int
    kind: str = "send"
    size: int = 1


@dataclass(frozen=True)
class BlockedOp:
    """A request that never completed (present only in stalled schedules).

    ``send_to``/``recv_from`` are the counterpart ranks of the two
    possible legs (``None`` when the leg is absent); ``issued_step`` is
    the step at which the request was posted.
    """

    rank: int
    kind: str
    send_to: int | None = None
    recv_from: int | None = None
    issued_step: int = 0

    def waits_on(self) -> tuple[int, ...]:
        """The ranks whose cooperation this request needs to complete."""
        legs = []
        if self.send_to is not None:
            legs.append(self.send_to)
        if self.recv_from is not None and self.recv_from != self.send_to:
            legs.append(self.recv_from)
        return tuple(legs)


@dataclass(frozen=True)
class CommSchedule:
    """Full communication schedule of one SPMD program.

    ``steps`` counts executed lockstep steps (idle-only steps included,
    exactly like the engine's cycle counter); ``comp_steps`` is the
    longest per-rank chain of :meth:`~repro.simulator.node.NodeCtx.compute`
    rounds.  ``completed`` is False when extraction stalled (deadlock,
    orphan receive, mismatched pairing) or hit the step budget
    (``truncated``); the unfinished requests are then in ``blocked``.
    """

    num_nodes: int
    topology: str
    events: tuple[CommEvent, ...]
    steps: int
    comp_steps: int = 0
    completed: bool = True
    blocked: tuple[BlockedOp, ...] = ()
    stalled_at: int | None = None
    truncated: bool = False

    @property
    def comm_steps(self) -> int:
        """Communication steps in the paper's sense (alias of ``steps``)."""
        return self.steps

    @property
    def messages(self) -> int:
        """Total delivered messages."""
        return len(self.events)

    def link_loads(self) -> dict[tuple[int, int], int]:
        """Messages per undirected link ``(min, max)`` over the whole run."""
        loads: dict[tuple[int, int], int] = {}
        for e in self.events:
            key = (min(e.src, e.dst), max(e.src, e.dst))
            loads[key] = loads.get(key, 0) + 1
        return loads

    def max_link_load(self) -> int:
        """Heaviest per-link message count (0 for an empty schedule)."""
        loads = self.link_loads()
        return max(loads.values()) if loads else 0


@dataclass(frozen=True)
class Violation:
    """One checker finding over a :class:`CommSchedule`.

    ``code`` identifies the rule (``"illegal-edge"``, ``"deadlock"``,
    ``"orphan"``, ``"port-limit"``, ``"link-congestion"``,
    ``"comm-bound"``, …); ``step``/``rank`` locate it when meaningful.
    """

    code: str
    message: str
    step: int | None = None
    rank: int | None = None

    def __str__(self) -> str:
        where = []
        if self.step is not None:
            where.append(f"step {self.step}")
        if self.rank is not None:
            where.append(f"rank {self.rank}")
        loc = f" ({', '.join(where)})" if where else ""
        return f"[{self.code}]{loc} {self.message}"
