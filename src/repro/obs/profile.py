"""Phase-span profiling hooks.

The step-count theorems talk about *phases* — the local prefix, the
network exchange, and the fold in the blocked algorithms; the recursive
sub-sort/half-merge/full-merge segments in `D_sort` — so wallclock
measurements are only comparable to the model when they split along the
same lines.  A :class:`PhaseProfiler` collects named wallclock spans with
negligible overhead (two ``perf_counter`` calls per span); algorithms
accept an optional profiler and wrap their phases in
:meth:`PhaseProfiler.span`, and the benchmark harness surfaces the
per-phase totals in its records.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

__all__ = ["PhaseSpan", "PhaseProfiler", "NULL_PROFILER"]


@dataclass(frozen=True)
class PhaseSpan:
    """One completed phase: ``name`` ran for ``duration_s`` seconds.

    ``start_s`` is the ``perf_counter`` timestamp at entry (only offsets
    between spans of the same profiler are meaningful); ``meta`` carries
    free-form annotations (step index, dimension, ...).
    """

    name: str
    start_s: float
    duration_s: float
    meta: dict = field(default_factory=dict)


class PhaseProfiler:
    """Ordered collection of named wallclock spans.

    Spans may nest and repeat; :meth:`totals` sums durations per name,
    which is how a per-:class:`~repro.core.dual_sort.ScheduleStep` profile
    folds into one number per schedule phase.
    """

    def __init__(self):
        self.spans: list[PhaseSpan] = []

    @contextmanager
    def span(self, name: str, **meta):
        """Time the enclosed block as one :class:`PhaseSpan`."""
        start = time.perf_counter()
        try:
            yield self
        finally:
            self.spans.append(
                PhaseSpan(
                    name=name,
                    start_s=start,
                    duration_s=time.perf_counter() - start,
                    meta=meta,
                )
            )

    def totals(self) -> dict[str, float]:
        """Summed duration per span name, in first-seen order."""
        out: dict[str, float] = {}
        for s in self.spans:
            out[s.name] = out.get(s.name, 0.0) + s.duration_s
        return out

    def total_s(self) -> float:
        """Sum of all span durations (nested spans double-count)."""
        return sum(s.duration_s for s in self.spans)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        parts = ", ".join(
            f"{k}={v * 1000:.3f}ms" for k, v in self.totals().items()
        )
        return f"PhaseProfiler({parts})"


class _NullProfiler:
    """Do-nothing stand-in so instrumented code needs no per-phase branch.

    Every span is one shared ``nullcontext``: entering it costs a method
    call, not a generator, on hot paths that open a span per step.
    """

    def __init__(self):
        self._span = nullcontext(self)

    def span(self, name: str, **meta):
        return self._span


#: Shared no-op profiler; algorithms use it when none was passed so the
#: instrumented code path is identical with profiling disabled.
NULL_PROFILER = _NullProfiler()
