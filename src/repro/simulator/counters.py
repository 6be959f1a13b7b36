"""Cost accounting shared by the cycle-accurate engine and the array backend.

The paper's theorems count two quantities under the synchronous 1-port
model:

* **communication steps** — lockstep cycles in which messages fly; every
  algorithm here keeps all nodes in lockstep, so engine cycles equal the
  paper's communication steps;
* **computation steps** — parallel rounds of O(1) local work (one
  ``t``/``s`` update pair in the prefix algorithms, one comparison in the
  sort); the per-node op tallies are also kept so the "O(1) per round"
  claim itself is checkable.

Both execution backends feed the same :class:`CostCounters` so benchmark
rows are directly comparable; a compiled plan's :class:`Ledger` is charged
in one call.
"""

from __future__ import annotations

from typing import Any

import numpy as np

__all__ = ["CostCounters", "Ledger", "Packed", "charge_exchange_step",
           "payload_size"]


class Packed:
    """Explicit multi-item message container.

    Algorithms that deliberately batch several key-sized items into one
    message (the sort's packed 3-hop schedule) wrap them in ``Packed`` so
    the payload audit can distinguish a 2-key message from a single value
    that merely *is* a tuple (e.g. a CONCAT partial result).
    """

    __slots__ = ("items",)

    def __init__(self, items: tuple):
        self.items = tuple(items)

    def __len__(self) -> int:
        return len(self.items)

    def __eq__(self, other) -> bool:
        return isinstance(other, Packed) and self.items == other.items

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Packed{self.items!r}"


def payload_size(payload: Any) -> int:
    """Number of key-sized items a message payload carries.

    ``None`` counts as 0 (control-only), :class:`Packed` by item count,
    anything else — including tuples that are single values — as one item.
    """
    if payload is None:
        return 0
    if isinstance(payload, Packed):
        return len(payload)
    return 1


class Ledger:
    """Scalar totals of lockstep rounds every rank takes (computation as
    ``shared_calls`` rounds of ``shared_ops`` operations per rank), with
    the bulk hooks of :class:`CostCounters` and the ordered ``steps``."""

    # Every total starts at zero; the hooks rebind them per instance.
    cycles = active_cycles = messages = payload_items = 0
    max_message_payload = shared_calls = shared_ops = 0

    def __init__(self):
        self.steps: list[tuple] = []

    def _step(self, kind: str, *args) -> None:
        self.steps.append((kind, *args))

    def record_comm_step(
        self, messages: int, payload_items: int | None = None, max_payload: int = 1
    ) -> None:
        """One lockstep communication round performed in bulk.

        ``messages`` is the number of point-to-point messages in the round;
        ``payload_items`` defaults to one item per message.
        """
        self.cycles += 1
        if messages:
            self.active_cycles += 1
        self.messages += messages
        self.payload_items += (
            messages if payload_items is None else payload_items
        )
        if messages and max_payload > self.max_message_payload:
            self.max_message_payload = max_payload
        self._step("comm", messages, payload_items, max_payload)

    def record_comp_step(self, ops_each: int = 1) -> None:
        """One lockstep computation round of ``ops_each`` operations at
        every rank."""
        self.shared_calls += 1
        self.shared_ops += ops_each
        self._step("comp", ops_each)


def charge_exchange_step(counters, num_nodes: int, direct: bool, *,
                         payload_policy: str = "packed", block: int = 1,
                         ops_each: int = 1) -> None:
    """Charge ``counters`` (a :class:`CostCounters` or :class:`Ledger`)
    what the engine measures for one dimension-exchange step: one round
    if ``direct``, else the supported half relays — cross-edge in, the
    pair exchange (relayed and own key in one ``"packed"`` message),
    cross-edge out, and a fourth round of own keys if ``"single"``.  Each
    key is a ``block`` of keys; then ``ops_each`` operations per rank."""
    b = block
    if direct:
        counters.record_comm_step(num_nodes, num_nodes * b, b)
    else:
        half = num_nodes // 2
        k = 2 if payload_policy == "packed" else 1
        counters.record_comm_step(half, half * b, b)
        counters.record_comm_step(half, k * half * b, k * b)
        counters.record_comm_step(half, half * b, b)
        if payload_policy == "single":
            counters.record_comm_step(half, half * b, b)
    counters.record_comp_step(ops_each)


class CostCounters(Ledger):
    """Mutable cost ledger for one algorithm run.

    Rounds every rank takes stay :class:`Ledger` scalars; the per-rank
    arrays take only :meth:`record_compute` and ``ranks=`` charges, and
    :attr:`comp_calls` / :attr:`comp_ops` add the two on read.

    Parameters
    ----------
    num_nodes:
        Network size; per-node tallies are dense arrays of this length.
    """

    def __init__(self, num_nodes: int):
        # No Ledger.__init__: step records go to the timeline, if attached.
        if num_nodes <= 0:
            raise ValueError(f"num_nodes must be positive, got {num_nodes}")
        self.num_nodes = num_nodes
        self.messages_dropped = 0
        self.retries = 0
        self.timeouts = 0
        self.node_crashes = 0
        self.sends = np.zeros(num_nodes, dtype=np.int64)
        self.recvs = np.zeros(num_nodes, dtype=np.int64)
        self._comp_calls = np.zeros(num_nodes, dtype=np.int64)
        self._comp_ops = np.zeros(num_nodes, dtype=np.int64)
        self._timeline = None

    def attach_timeline(self, recorder) -> None:
        """Mirror bulk lockstep rounds into a timeline recorder.

        The array backend has no engine cycles — its unit of progress is
        the bulk round recorded through
        :meth:`record_comm_step`/:meth:`record_comp_step` or charged as a
        plan's :class:`Ledger` (:meth:`charge`).  With a recorder attached
        (duck-typed: anything with ``record_comm_step`` and
        ``record_comp_step``, normally a
        :class:`~repro.obs.timeline.TimelineRecorder`), each bulk round
        also emits one coarse per-step timeline record, in order — a
        charged ledger replays its step records.  Pass ``None`` to
        detach.
        """
        if recorder is not None and not hasattr(recorder, "record_comm_step"):
            raise TypeError(
                f"expected a timeline recorder with record_comm_step/"
                f"record_comp_step or None, got {type(recorder)!r}"
            )
        self._timeline = recorder

    # -- engine-side hooks ---------------------------------------------------

    def record_drop(self) -> None:
        """One in-flight message lost to fault injection (forces a retry)."""
        self.messages_dropped += 1
        self.retries += 1

    def record_timeout(self) -> None:
        """One request abandoned by the per-request timeout."""
        self.timeouts += 1

    def record_crash(self) -> None:
        """One node killed by the fault plan."""
        self.node_crashes += 1

    def record_compute(self, rank: int, ops: int = 1) -> None:
        """One local computation round of ``ops`` primitive operations at ``rank``."""
        if ops < 0:
            raise ValueError(f"ops must be non-negative, got {ops}")
        self._comp_calls[rank] += 1
        self._comp_ops[rank] += ops

    # -- bulk (array-backend) hooks --------------------------------------------

    def _step(self, kind: str, *args) -> None:
        if self._timeline is not None:
            getattr(self._timeline, f"record_{kind}_step")(*args)

    def record_comp_step(self, ops_each: int = 1, ranks=None) -> None:
        """One lockstep computation round performed in bulk.

        ``ranks`` limits the round to a subset of nodes (array/sequence of
        rank indices); by default every node participates.  A rank listed
        k times is charged k rounds (``np.add.at`` — buffered fancy-index
        ``+=`` would silently collapse duplicates).  A ``range`` charges
        the contiguous slice directly, so callers over huge networks (the
        array backend's class-1 fold) never materialize an index array.
        """
        if ranks is None:
            return super().record_comp_step(ops_each)
        if isinstance(ranks, range) and ranks.step == 1:
            self._comp_calls[ranks.start : ranks.stop] += 1
            self._comp_ops[ranks.start : ranks.stop] += ops_each
        else:
            idx = np.asarray(ranks, dtype=np.int64)
            np.add.at(self._comp_calls, idx, 1)
            np.add.at(self._comp_ops, idx, ops_each)
        self._step("comp", ops_each)

    def charge(self, ledger: Ledger) -> None:
        """Add a recorded :class:`Ledger` in one call; an attached timeline
        still receives each of its step records, in order."""
        for name in ("cycles", "active_cycles", "messages", "payload_items",
                     "shared_calls", "shared_ops"):
            setattr(self, name, getattr(self, name) + getattr(ledger, name))
        self.max_message_payload = max(self.max_message_payload,
                                       ledger.max_message_payload)
        if self._timeline is not None:
            for record in ledger.steps:
                self._step(*record)

    def record_bulk(
        self,
        *,
        cycles: int,
        active_cycles: int,
        messages: int,
        payload_items: int,
        max_message_payload: int,
        sends,
        recvs,
    ) -> None:
        """Flush tallies accumulated outside the ledger.

        The engine counts deliveries in plain Python scalars and per-node
        lists, then merges them here in one shot when a run ends.
        """
        self.cycles += cycles
        self.active_cycles += active_cycles
        self.messages += messages
        self.payload_items += payload_items
        if max_message_payload > self.max_message_payload:
            self.max_message_payload = max_message_payload
        self.sends += np.asarray(sends, dtype=np.int64)
        self.recvs += np.asarray(recvs, dtype=np.int64)

    # -- derived quantities ----------------------------------------------------

    @property
    def comm_steps(self) -> int:
        """Communication steps in the paper's sense (lockstep cycles)."""
        return self.cycles

    @property
    def comp_calls(self) -> np.ndarray:
        """Computation rounds per node (a fresh array)."""
        return self._comp_calls + self.shared_calls

    @property
    def comp_ops(self) -> np.ndarray:
        """Primitive local operations per node (a fresh array)."""
        return self._comp_ops + self.shared_ops

    @property
    def comp_steps(self) -> int:
        """Parallel computation steps: the longest per-node chain of rounds."""
        return self.shared_calls + int(self._comp_calls.max(initial=0))

    @property
    def max_node_ops(self) -> int:
        """Largest number of primitive local operations any node performed."""
        return self.shared_ops + int(self._comp_ops.max(initial=0))

    @property
    def total_ops(self) -> int:
        """Total primitive local operations across all nodes."""
        return self.shared_ops * self.num_nodes + int(self._comp_ops.sum())

    def summary(self) -> dict:
        """Compact dict for benchmark tables."""
        return {
            "comm_steps": self.comm_steps,
            "comp_steps": self.comp_steps,
            "messages": self.messages,
            "payload_items": self.payload_items,
            "max_message_payload": self.max_message_payload,
            "max_node_ops": self.max_node_ops,
            "total_ops": self.total_ops,
            "messages_dropped": self.messages_dropped,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "node_crashes": self.node_crashes,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        s = self.summary()
        body = ", ".join(f"{k}={v}" for k, v in s.items())
        return f"CostCounters({body})"
