"""The array backend: cached descriptor plans on in-place view kernels.

# repro: columnar-hot-path

Every core algorithm's schedule is oblivious, so
:mod:`repro.analysis.static.compile` turns it **once** per
``(algorithm, topology, variant)`` into a few descriptors — the ``m``
round bits of `D_prefix`, and per compare-exchange step of `D_sort` or
Batcher's network its dimension, direction bit or constant, and link
mode — and this module runs them on plain contiguous columns with
batched in-place numpy operations over reshape views whose rows are
long:

* `D_prefix` state is position-major: each class half holds the value
  of position ``k`` of cluster ``c`` at ``k * 2**m + c``, the transpose
  of input order ``u*`` (see :mod:`repro.core.arrangement`).  An ascend
  round pairs address bit ``m + i``, one bit of ``k``, for every cluster
  at once, on rows of at least ``2**m`` values; the cross-edge exchange
  of the cluster totals (node ``(0, c, k)`` ↔ ``(1, k, c)``) is a
  transpose of each class half.  The input loads through a transposed
  view of input order.  The return exchange needs no column of its own:
  the partner half of ``s'``, read as stored, is already in input order,
  so the fold reads it contiguously, reads ``s`` transposed and writes
  the result contiguously; no arrangement gather runs.
* A compare-exchange schedule runs as a short list of compiled passes
  (:func:`_compile_passes`, cached with the plan).  A step at a high
  dimension is one whole-column pass: it writes the min and max sides of
  every pair into a second key column through the step's pair (and
  direction) bit views, then the two columns swap roles — two ufunc
  calls per direction and no copy.  A run of low-dimension steps is one
  tile pass: it runs tile by tile in L2, low dimensions on a permuted
  copy of the tile whose rows are long, and writes each tile back in
  place, with the idle key column as its scratch.

The ascend is also the array side of `Cube_prefix`, the dual-cube
allreduce and the emulation technique: :func:`ascend_prefix` runs it over
any set of address bits, and one helper decides the accumulation dtype,
the identity column and the combine for every prefix here.

Plans live in a module-level cache keyed by ``("prefix", topology,
paper_literal)`` or ``("schedule", topology, kind, descending)``;
:func:`plan_cache_stats` exposes hit/miss/compile-time counters.

Cost accounting is the ledger the engine measures, recorded once per plan
at compile time and charged in one call (the `D_prefix` class-1 fold is
the one separate charge), so step counts, message/payload tallies,
per-rank computation arrays and attached timelines agree exactly with the
engine and the static :class:`CommSchedule`.  The runners here take
input already checked by :func:`~repro.core.backends.dispatch` (length,
counters' size, topology type).  ``trace=`` snapshots carry
the engine's labels in node order (a traced schedule runs one pass per
step), and ``profiler=`` records one span per phase or pass.

**Sharding** (`D_prefix` family only): the two `Cube_prefix` phases touch
no cross-class edge, so ``shards=k`` runs them with blocks of cluster
columns spread over ``k`` forked workers writing shared memory in place,
and the main process performs the cross exchanges and folds at the
barriers.  Sharding requires a numeric dtype and an operation with a
numpy ufunc; counters are charged by the main process, so the ledger is
identical to the unsharded run.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import NamedTuple

import numpy as np

from repro.analysis.static.compile import (
    check_shard_plan,
    compile_prefix_plan,
    compile_schedule_plan,
    schedule_ledger,
)
from repro.core.arrangement import arranged_index_v
from repro.core.ops import AssocOp, combine_arrays, combine_into
from repro.obs.profile import NULL_PROFILER
from repro.simulator import CostCounters, TraceRecorder

__all__ = [
    "bit_pair_views",
    "dir_bit_views",
    "ascend_prefix",
    "ascend_totals",
    "clear_plan_cache",
    "plan_cache_stats",
    "get_prefix_plan",
    "get_schedule_plan",
    "dual_prefix_replay",
    "execute_schedule_replay",
    "dual_sort_replay",
    "hypercube_bitonic_sort_replay",
    "large_prefix_replay",
    "large_sort_replay",
]


# -- the compiled-plan cache ---------------------------------------------------

_PLAN_CACHE: dict[tuple, object] = {}
_STATS = {"hits": 0, "misses": 0, "compile_seconds": 0.0}


def _cached_plan(key: tuple, build):
    plan = _PLAN_CACHE.get(key)
    if plan is not None:
        _STATS["hits"] += 1
        return plan
    _STATS["misses"] += 1
    t0 = time.perf_counter()
    plan = build()
    _STATS["compile_seconds"] += time.perf_counter() - t0
    _PLAN_CACHE[key] = plan
    return plan


def plan_cache_stats() -> dict:
    """A snapshot of the compiled-plan cache: hits, misses, size and
    cumulative compile seconds."""
    return dict(_STATS, size=len(_PLAN_CACHE))


def clear_plan_cache() -> None:
    """Drop every cached plan and reset the cache statistics."""
    _PLAN_CACHE.clear()
    _STATS.update(hits=0, misses=0, compile_seconds=0.0)


def get_prefix_plan(dc, *, paper_literal: bool = False):
    """The cached (compiling on first use) `D_prefix` plan for ``dc``."""
    return _cached_plan(
        ("prefix", dc.name, paper_literal),
        lambda: compile_prefix_plan(dc, paper_literal=paper_literal),
    )


def get_schedule_plan(topo, schedule_factory, *, kind: str,
                      descending: bool = False):
    """The cached compare-exchange plan for ``topo``.

    ``schedule_factory()`` produces the
    :class:`~repro.core.dual_sort.ScheduleStep` list; it is only called
    on a cache miss.
    """
    return _cached_plan(
        ("schedule", topo.name, kind, descending),
        lambda: compile_schedule_plan(
            topo, schedule_factory(), kind=kind, descending=descending
        ),
    )


# -- view kernels --------------------------------------------------------------
#
# A dimension-``b`` exchange on a whole-network column needs no gather
# permutation: the nodes with bit ``b`` clear and the nodes with bit ``b``
# set alternate in runs of ``2**b``, so reshaping a length-``L`` column to
# ``(L >> (b+1), 2, 1 << b)`` puts the two sides of every dimension-``b``
# edge on axis 1.  Reshaping a C-contiguous column is always a view; for
# any other column the views are verified with ``np.shares_memory``, so a
# silent copy (which would discard the in-place update) is impossible.


def _reshaped_view(col: np.ndarray, shape: tuple) -> np.ndarray:
    """Reshape ``col`` asserting the result still aliases its memory."""
    view = col.reshape(shape)
    if col.flags.c_contiguous:
        return view
    if not np.shares_memory(view, col):
        raise ValueError(
            f"reshape to {shape} copied a columnar view (dtype {col.dtype}, "
            f"strides {col.strides}); in-place steps would be lost"
        )
    return view


def bit_pair_views(col: np.ndarray, b: int) -> tuple[np.ndarray, np.ndarray]:
    """Split a column into the two sides of every dimension-``b`` edge.

    ``col`` has length ``L`` along axis 0 (a power of two > ``2**b``);
    trailing axes (e.g. a block axis) ride along.  Returns ``(lo, hi)``
    views — ``lo[r]`` is the node with bit ``b`` clear of pair ``r``,
    ``hi[r]`` its bit-``b`` partner — so one batched in-place combine on
    the pair realizes the whole exchange round with no gathers.
    """
    length = col.shape[0]
    if b < 0 or (1 << (b + 1)) > length:
        raise ValueError(
            f"bit {b} out of range for a length-{length} column"
        )
    view = _reshaped_view(
        col, (length >> (b + 1), 2, 1 << b) + col.shape[1:]
    )
    return view[:, 0], view[:, 1]


def dir_bit_views(
    col: np.ndarray, dir_bit: int, dim: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Split a column by direction bit ``dir_bit`` *and* pair bit ``dim``.

    Requires ``dir_bit > dim`` (which every generated compare-exchange
    schedule satisfies: merge direction bits sit above the dimensions
    they direct).  Returns ``(asc_lo, asc_hi, desc_lo, desc_hi)`` views:
    the ascending (bit ``dir_bit`` clear) and descending (set) pair
    sides, each split as in :func:`bit_pair_views`.
    """
    length = col.shape[0]
    if dir_bit <= dim:
        raise ValueError(
            f"dir_bit {dir_bit} must exceed the pair dimension {dim}"
        )
    if (1 << (dir_bit + 1)) > length:
        raise ValueError(
            f"direction bit {dir_bit} out of range for a length-{length} column"
        )
    view = _reshaped_view(
        col,
        (
            length >> (dir_bit + 1),
            2,
            1 << (dir_bit - dim - 1),
            2,
            1 << dim,
        )
        + col.shape[1:],
    )
    return view[:, 0, :, 0], view[:, 0, :, 1], view[:, 1, :, 0], view[:, 1, :, 1]


def _ascend(t: np.ndarray, s: np.ndarray | None, bits, combine) -> None:
    """The cluster ascend rounds in place: per pair, the upper side folds
    the lower side's subcube total into ``s`` (operand order preserved;
    skipped when ``s`` is None) and both sides end with
    ``t = t_lo ⊕ t_hi``."""
    for b in bits:
        t_lo, t_hi = bit_pair_views(t, b)
        if s is not None:
            s_hi = bit_pair_views(s, b)[1]
            combine(t_lo, s_hi, s_hi)
        combine(t_lo, t_hi, t_hi)
        t_lo[...] = t_hi


def _cross(src: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The cross-edge exchange on position-major state: node ``(0, c, k)``
    and ``(1, k, c)`` are partners, so each class half receives the
    transpose of the other."""
    half = len(src) >> 1
    w = 1 << ((half.bit_length() - 1) >> 1)
    out[:half].reshape(w, w)[...] = src[half:].reshape(w, w).T
    out[half:].reshape(w, w)[...] = src[:half].reshape(w, w).T
    return out


def _compare_exchange(src: np.ndarray, dst: np.ndarray, dim: int,
                      dir_bit: int | None, descending) -> None:
    """One compare-exchange step from ``src`` into ``dst``.

    Each pair side applies ``min``/``max`` with its own key first — the
    operand order of a per-node ``(own, partner)`` compare, which decides
    ties such as ``-0.0`` vs ``0.0``."""
    lo, hi = np.minimum, np.maximum
    if dir_bit is None:
        if descending:
            lo, hi = hi, lo
        a, b = bit_pair_views(src, dim)
        x, y = bit_pair_views(dst, dim)
        lo(a, b, out=x)
        hi(b, a, out=y)
        return
    al, ah, dl, dh = dir_bit_views(src, dir_bit, dim)
    xl, xh, yl, yh = dir_bit_views(dst, dir_bit, dim)
    lo(al, ah, out=xl)
    hi(ah, al, out=xh)
    hi(dl, dh, out=yl)
    lo(dh, dl, out=yh)


def _merge_split(src: np.ndarray, dst: np.ndarray, st, b: int) -> None:
    """One merge-split step on ``(nodes, B)`` sorted blocks: the "min"
    side of each pair keeps the B smallest of the 2B keys, the "max"
    side the B largest."""

    def split(p, q, low, high, descending):
        merged = np.sort(np.concatenate([p, q], axis=-1), axis=-1)
        small, large = merged[..., :b], merged[..., b:]
        low[...] = large if descending else small
        high[...] = small if descending else large

    if st.dir_bit is None:
        split(*bit_pair_views(src, st.dim), *bit_pair_views(dst, st.dim),
              st.descending)
        return
    al, ah, dl, dh = dir_bit_views(src, st.dir_bit, st.dim)
    xl, xh, yl, yh = dir_bit_views(dst, st.dir_bit, st.dim)
    split(al, ah, xl, xh, False)
    split(dl, dh, yl, yh, True)


# -- D_prefix ------------------------------------------------------------------


def _accumulation(dtype: np.dtype, op: AssocOp):
    """How a prefix of values of ``dtype`` accumulates under ``op``.

    Returns ``(acc, ident, combine)``: the dtype ``t`` accumulates in, the
    identity as a 0-d array that broadcasts into any column, and the
    in-place ``combine(a, b, out)`` (operand order preserved).  Bool and
    integers narrower than 64 bits widen to an integer identity's dtype
    (numpy's ``add`` is a logical or on bool, and narrow integers wrap).
    An integer identity takes uint64's dtype (against int64 it would
    promote to float64 and round above 2**53; ``ADD``'s 0 and ``MUL``'s 1
    are uint64 values too).  On integers, an infinite identity (``MIN``'s
    +inf, ``MAX``'s -inf) becomes the dtype's extreme, so ``MIN``/``MAX``
    keep the input's dtype and exact values.  Object values, or an
    operation without a ufunc or a numeric identity, accumulate as
    objects through :func:`~repro.core.ops.combine_into`.
    """
    ident = op.identity_array(1).reshape(())
    if op.ufunc is None or dtype == object or ident.dtype == object:
        return (np.dtype(object), ident,
                lambda a, b, out: combine_into(op, a, b, out))
    if dtype.kind in "iu" and op.identity in (np.inf, -np.inf):
        info = np.iinfo(dtype)
        ident = np.array(info.max if op.identity > 0 else info.min, dtype)
    acc = dtype
    narrow = dtype == bool or (dtype.kind in "iu" and dtype.itemsize < 8)
    if narrow and ident.dtype.kind == "i":
        acc = ident.dtype
    elif dtype.kind == "u" and ident.dtype.kind == "i":
        ident = ident.astype(dtype)
    ufunc = op.ufunc
    return acc, ident, lambda a, b, out: ufunc(a, b, out=out)


def ascend_prefix(values, op: AssocOp, bits, *, inclusive: bool = True):
    """Algorithm 1's ascend over the address bits ``bits`` of ``values``.

    Every subcube the bits span (one per setting of the other address
    bits) runs one `Cube_prefix` instance, in place (:func:`_ascend`).
    Returns ``(t, s)``: the subcube totals and the inclusive (or
    diminished) prefixes.  ``t`` accumulates as :func:`_accumulation`
    decides; a diminished ``s`` starts from the identity, in the wider
    of that dtype and the identity's.
    """
    vals = np.asarray(values)
    acc, ident, combine = _accumulation(vals.dtype, op)
    t = vals.astype(acc)
    s = t.copy() if inclusive else np.full(
        len(t), ident, np.result_type(acc, ident.dtype))
    _ascend(t, s, bits, combine)
    return t, s


def ascend_totals(values, op: AssocOp, bits) -> np.ndarray:
    """``ascend_prefix(values, op, bits)[0]`` without the prefixes: the
    same rounds on the subcube totals alone."""
    vals = np.asarray(values)
    acc, _, combine = _accumulation(vals.dtype, op)
    t = vals.astype(acc)
    _ascend(t, None, bits, combine)
    return t


def dual_prefix_replay(
    dc,
    values,
    op: AssocOp,
    *,
    inclusive: bool = True,
    paper_literal: bool = False,
    counters: CostCounters | None = None,
    trace: TraceRecorder | None = None,
    profiler=None,
    shards: int | None = None,
) -> np.ndarray:
    """Algorithm 2 from its cached plan; returns prefixes in input order.

    Results and the ledger are those of the engine-mirroring whole-array
    algorithm: ``t``/``t'`` accumulate as :func:`_accumulation` decides,
    ``s``/``s'`` widen to the identity's dtype where it takes part, and
    the folds combine in the wider of the two.  State is position-major
    (see the module docstring), so the ``m`` ascend rounds pair address
    bits ``m..2m-1``; with clusters of ``2**_LOW_BITS`` nodes or more they
    run under the short ufunc buffer (:func:`_short_buffer`).  ``trace``
    records the engine's snapshot labels in node order; ``profiler``
    records ``cluster-prefix`` (step 1), ``cross`` (the cross-edge
    exchange of the totals), ``block-prefix`` (step 3) and ``fold``
    (steps 4-5, whose return exchange is a transposed read) spans.
    ``shards=k`` (k >= 2) runs the cluster-local ascend phases on ``k``
    forked workers (numeric ufunc operations only).
    """
    vals = np.asarray(values)
    if shards is not None and shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    plan = get_prefix_plan(dc, paper_literal=paper_literal)
    n, m = dc.num_nodes, dc.cluster_dim
    half, w = n >> 1, 1 << m
    bits = [m + b for b in plan.rounds]
    prof = profiler if profiler is not None else NULL_PROFILER

    dt_t, ident, combine = _accumulation(vals.dtype, op)
    dt_s2 = np.result_type(dt_t, ident.dtype)
    dt_s = dt_t if inclusive else dt_s2
    pool = None
    if shards is not None and shards > 1 and plan.rounds:
        pool = _ShardPool(dc, vals, op, shards, np.result_type(dt_s2, dt_s))
        dt_t = dt_s = dt_s2 = pool.dtype

    def ascend(t, s, phase):
        if pool is not None:
            pool.ascend(phase)
        elif w < 1 << _LOW_BITS:
            _ascend(t, s, bits, combine)
        else:
            with _short_buffer():
                _ascend(t, s, bits, combine)

    def input_order(col):
        # Position-major storage seen in input order: [cls, c, k].
        return col.reshape(2, w, w).transpose(0, 2, 1)

    def record(label, state, *, in_input_order=False):
        if trace is not None:
            flat = state if in_input_order else input_order(state).reshape(-1)
            trace.record_array(label, flat[arranged_index_v(dc)])

    try:
        if pool is not None:
            t, s, t2, s2 = pool.buffers
        else:
            t, t2, s = np.empty(n, dt_t), np.empty(n, dt_t), np.empty(n, dt_s)
        input_order(t)[...] = vals.reshape(2, w, w)
        s[...] = t if inclusive else ident
        record("(a) input", t)

        # Step 1: inclusive/diminished Cube_prefix inside every cluster.
        with prof.span("cluster-prefix", rounds=len(plan.rounds)):
            ascend(t, s, 0)
        record("(b) cluster prefix s", s)
        record("(b) cluster total t", t)

        # Step 2: block totals cross the class boundary.
        with prof.span("cross"):
            _cross(t, t2)
        record("(c) cross total temp", t2)

        # Step 3: diminished prefix of the other class's block totals; t
        # is dead, so s' takes its column when the dtypes agree.
        with prof.span("block-prefix", rounds=len(plan.rounds)):
            if pool is None:
                s2 = t if dt_s2 == dt_t else np.empty(n, dt_s2)
            s2[...] = ident
            ascend(t2, s2, 1)
        record("(d) block-prefix s'", s2)
        record("(d) half total t'", t2)

        # Step 4: earlier-block composition returns over the cross-edge
        # and pre-folds into s.  Node (c, k) of one class is the partner
        # of (k, c) of the other, so the other class half of s', as
        # stored, is already in input order: res[c] = s'[1 - c] ⊕ s[c]ᵀ,
        # one combine over both halves that reads s transposed and writes
        # the result contiguously.
        with prof.span("fold"):
            res = np.empty(n, np.result_type(dt_s2, dt_s))
            out = res.reshape(2, w, w)
            combine(s2.reshape(2, w, w)[::-1], input_order(s), out)
        record("(e) after s' fold", res, in_input_order=True)

        # Step 5 (paper-literal: one redundant cross exchange, in the
        # plan's ledger only — see the dual_prefix module docstring), then
        # the class-1 pre-fold of the first-half total, which is class 1's
        # own t': res[1] = t'[1]ᵀ ⊕ res[1].
        with prof.span("fold"):
            combine(input_order(t2)[1], out[1], out[1])
            if counters is not None:
                counters.charge(plan.ledger)
                counters.record_comp_step(ops_each=1, ranks=range(half, n))
        record("(f) final prefix", res, in_input_order=True)
        return res
    finally:
        if pool is not None:
            pool.close()


# -- sharded D_prefix ----------------------------------------------------------


def _shard_worker(task):
    """Run all ascend rounds of one block of cluster columns, in place.

    ``task`` = (shm_name, dtype_str, n, m, t_at, s_at, cls, start, stop,
    ufunc): columns ``[start, stop)`` (clusters) of class half ``cls`` of
    the position-major ``t`` and ``s`` buffers that start at element
    offsets ``t_at``/``s_at`` of the shared block; the rounds pair bits
    ``0..m-1`` of the position axis.
    """
    from multiprocessing import shared_memory

    name, dtype_str, n, m, t_at, s_at, cls, start, stop, ufunc = task
    shm = shared_memory.SharedMemory(name=name)
    try:
        buf = np.ndarray((4 * n,), dtype=np.dtype(dtype_str), buffer=shm.buf)
        w, at = 1 << m, cls << (2 * m)

        def block(offset):
            return buf[offset + at:offset + at + w * w].reshape(w, w)[
                :, start:stop]

        _ascend(block(t_at), block(s_at), range(m),
                lambda a, b, out: ufunc(a, b, out=out))
        del buf
    finally:
        shm.close()


def _cluster_blocks(num_clusters: int, shards: int) -> list:
    """Split ``num_clusters`` cluster indices into <= ``shards`` blocks."""
    bounds = np.linspace(0, num_clusters, min(shards, num_clusters) + 1)
    bounds = np.unique(bounds.astype(int))
    return [
        (int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]) if b > a
    ]


class _ShardPool:
    """A fork pool plus one shared block holding ``t, s, t', s'``.

    The write sets of every phase's tasks are proven pairwise disjoint
    (:func:`~repro.analysis.static.compile.check_shard_plan`) before the
    pool forks.
    """

    def __init__(self, dc, vals, op, shards: int, dtype):
        import multiprocessing
        from multiprocessing import shared_memory

        if op.ufunc is None:
            raise ValueError(
                f"sharded replay requires an operation with a numpy ufunc "
                f"(got {op.name!r}); run with shards=None"
            )
        if vals.dtype == object:
            raise ValueError(
                "sharded replay supports numeric values only; run with "
                "shards=None"
            )
        n, m = dc.num_nodes, dc.cluster_dim
        self.dtype = np.dtype(dtype)
        blocks = _cluster_blocks(1 << m, shards)
        triples = [(cls, a, b) for cls in (0, 1) for a, b in blocks]
        check_shard_plan(n, m, triples)
        self._shm = shared_memory.SharedMemory(
            create=True, size=max(1, 4 * n * self.dtype.itemsize))
        buf = np.ndarray((4 * n,), dtype=self.dtype, buffer=self._shm.buf)
        self.buffers = tuple(buf[k * n:(k + 1) * n] for k in range(4))
        self._tasks = [
            [(self._shm.name, self.dtype.str, n, m, t_at, s_at, *tr,
              op.ufunc) for tr in triples]
            for t_at, s_at in ((0, n), (2 * n, 3 * n))
        ]
        try:
            self._pool = multiprocessing.get_context("fork").Pool(
                processes=min(shards, len(triples)))
        except BaseException:
            self._shm.close()
            self._shm.unlink()
            raise

    def ascend(self, phase: int) -> None:
        self._pool.map(_shard_worker, self._tasks[phase])

    def close(self) -> None:
        self._pool.close()
        self._pool.join()
        self.buffers = None
        self._shm.close()
        self._shm.unlink()


# -- compare-exchange passes ---------------------------------------------------
#
# A dimension-``d`` step reads rows of ``2**d`` keys, so on a whole column
# the low-dimension steps spend their time in numpy's inner-loop overhead,
# not in comparisons.  A schedule therefore compiles once per plan and key
# size into passes (:func:`_compile_passes`):
#
# * a step at dimension >= T is a whole-column pass: ``_compare_exchange``
#   from one key column into the other, then the columns swap roles;
# * each maximal run of steps at dimensions < T is one tile pass over the
#   ``2**T``-key tiles, one tile at a time, so the run stays in L2.  A
#   direction bit >= T is constant per tile: that bit of the tile index.
#   Inside a tile, each run of steps at dimensions < L runs on a permuted
#   copy whose outer axes are the in-tile direction bit >= L (if any) and
#   the low bits ``0..L-1``, so its rows hold the other ``2**(T-L-1)`` or
#   more keys.  Bits keep their order within each group, so a direction
#   bit still lies above its pair bit.  The tile ping-pongs with a
#   tile-sized slice of the idle key column and is written back in place.
#
# T = log2(_TILE_BYTES / key size), capped at the column's bits, and
# L = min(_LOW_BITS, T // 2).  Columns shorter than ``2**_FUSE_BITS`` keys
# run every step as a whole-column pass.  With a trace attached every
# step is its own pass, so each step's snapshot can be recorded.
#
# NumPy stages a ufunc operand through its buffer (8,192 elements by
# default) whenever the operand's rows are shorter than half of it, so a
# row of 2**6-2**11 keys is copied in and out instead of read in place.
# Every row a tile pass touches holds at least 2**L keys, and so does
# every row of a `D_prefix` ascend round once clusters hold 2**_LOW_BITS
# nodes, so both run under a buffer of 2**(_LOW_BITS + 1) elements, set
# and restored once per pass or phase (:func:`_short_buffer`).  A casting
# combine still buffers, in 128-element chunks.

_TILE_BYTES = 1 << 19  # a tile and its scratch fill half of a 2 MiB L2
_FUSE_BITS = 12
_LOW_BITS = 6
_BUFSIZE = 1 << (_LOW_BITS + 1)


@contextmanager
def _short_buffer():
    """Run the body with numpy's ufunc buffer at ``_BUFSIZE`` elements and
    restore the caller's size on the way out, also on an exception."""
    old = np.setbufsize(_BUFSIZE)
    try:
        yield
    finally:
        np.setbufsize(old)


class _Pass(NamedTuple):
    """One compiled pass: the steps it runs, its profiler span, and for a
    tile pass the tile bits and ``(layout, local steps)`` segments."""

    steps: tuple
    name: str
    meta: dict
    bits: int | None = None
    segments: tuple = ()


def _tile_layout(bits: int, low: int, top: int | None):
    """The permuted tile layout of a low-dimension segment: the copy's
    reshape/transpose ``(nshape, axes, pshape, inverse)`` and where each
    in-tile bit it uses lands."""
    if top is None:
        nshape, axes, rest = (1 << (bits - low), 1 << low), (1, 0), bits - low
    else:
        nshape = (1 << (bits - 1 - top), 2, 1 << (top - low), 1 << low)
        axes, rest = (1, 3, 0, 2), bits - low - 1
    pshape = tuple(nshape[a] for a in axes)
    inverse = tuple(int(a) for a in np.argsort(axes))
    pos = {b: rest + b for b in range(low)}
    if top is not None:
        pos[top] = bits - 1
    return (nshape, axes, pshape, inverse), pos


def _tile_pass(run: tuple, bits: int) -> _Pass:
    """Compile a run of steps at dimensions < ``bits`` into a tile pass."""
    low = min(_LOW_BITS, bits // 2)
    groups = []  # [low?, in-tile direction bit >= low, steps]
    for st in run:
        d = st.dir_bit
        top = d if d is not None and low <= d < bits else None
        g = groups[-1] if groups else None
        if g is not None and g[0] == (st.dim < low) and (
                not g[0] or top is None or g[1] in (None, top)):
            if top is not None:
                g[1] = top
            g[2].append(st)
        else:
            groups.append([st.dim < low, top, [st]])
    segments = []
    for is_low, top, sts in groups:
        layout, pos = None, range(bits)
        if is_low:
            layout, pos = _tile_layout(bits, low, top)
        local = []
        for st in sts:
            d = st.dir_bit
            if d is None:
                local.append((pos[st.dim], None, st.descending, None))
            elif d >= bits:
                local.append((pos[st.dim], None, False, d - bits))
            else:
                local.append((pos[st.dim], pos[d], False, None))
        segments.append((layout, tuple(local)))
    meta = {"step": run[0].index, "last": run[-1].index,
            "dims": tuple(st.dim for st in run), "tile_bits": bits}
    return _Pass(run, "tile-pass", meta, bits, tuple(segments))


def _compile_passes(steps, q: int, itemsize: int, *, per_step: bool = False,
                    tile_bits: int | None = None) -> tuple:
    """Compile compare-exchange ``steps`` on a ``2**q``-key column of
    ``itemsize``-byte keys into passes (see the comment above);
    ``tile_bits`` overrides T and fuses at any column length."""
    bits = tile_bits
    if bits is None and q >= _FUSE_BITS:
        bits = (_TILE_BYTES // itemsize).bit_length() - 1
    if bits is not None:
        bits = min(bits, q)
    passes, run = [], []

    def flush():
        if run:
            passes.append(_tile_pass(tuple(run), bits))
            run.clear()

    for st in steps:
        if bits is None or st.dim >= bits:
            flush()
            passes.append(
                _Pass((st,), st.phase, {"step": st.index, "dim": st.dim}))
        else:
            run.append(st)
            if per_step:
                flush()
    flush()
    return tuple(passes)


def _plan_passes(plan, itemsize: int, per_step: bool) -> tuple:
    """``plan``'s passes for ``itemsize``-byte keys, compiled on first use
    and cached on the plan."""
    key = (itemsize, per_step)
    passes = plan.passes.get(key)
    if passes is None:
        passes = plan.passes[key] = _compile_passes(
            plan.steps, plan.num_nodes.bit_length() - 1, itemsize,
            per_step=per_step)
    return passes


def _run_tile_pass(col: np.ndarray, scratch: np.ndarray, ps: _Pass) -> None:
    """One tile pass over ``col`` in place, ping-ponging each tile with a
    tile-sized slice of ``scratch``."""
    size = 1 << ps.bits
    for t in range(len(col) >> ps.bits):
        tile = a = col[t * size:(t + 1) * size]
        b = scratch[:size]
        for layout, local in ps.segments:
            if layout is not None:
                nshape, axes, pshape, inverse = layout
                np.copyto(b.reshape(pshape), a.reshape(nshape).transpose(axes))
                a, b = b, a
            for dim, dir_bit, descending, tile_bit in local:
                if tile_bit is not None:
                    descending = (t >> tile_bit) & 1
                _compare_exchange(a, b, dim, dir_bit, descending)
                a, b = b, a
            if layout is not None:
                np.copyto(b.reshape(nshape),
                          a.reshape(pshape).transpose(inverse))
                a, b = b, a
        if a is not tile:
            tile[...] = a


def _run_pass(src: np.ndarray, dst: np.ndarray, ps: _Pass):
    """Run one pass; returns ``(src, dst)`` with ``src`` holding the keys.
    A tile pass runs under the short ufunc buffer."""
    if ps.bits is None:
        st = ps.steps[0]
        _compare_exchange(src, dst, st.dim, st.dir_bit, st.descending)
        return dst, src
    with _short_buffer():
        _run_tile_pass(src, dst, ps)
    return src, dst


def _run_passes(src: np.ndarray, dst: np.ndarray, passes, *, trace=None,
                profiler=None) -> np.ndarray:
    """Run compiled passes on key column ``src`` with ``dst`` idle; returns
    the column holding the result.  ``trace`` records one snapshot per
    pass (label of its last step), ``profiler`` one span per pass."""
    for ps in passes:
        if profiler is None:
            src, dst = _run_pass(src, dst, ps)
        else:
            with profiler.span(ps.name, **ps.meta):
                src, dst = _run_pass(src, dst, ps)
        if trace is not None:
            st = ps.steps[-1]
            trace.record_array(
                f"step {st.index:03d} dim {st.dim} [{st.phase}]", src)
    return src


# -- compare-exchange schedules ------------------------------------------------


def execute_schedule_replay(
    topo,
    keys,
    plan,
    *,
    payload_policy: str = "packed",
    counters: CostCounters | None = None,
    trace: TraceRecorder | None = None,
    profiler=None,
) -> np.ndarray:
    """Run a compiled compare-exchange plan on a key array.

    Keys stay in node-address order.  The plan runs as its compiled
    passes; with ``trace`` attached each step is its own pass and the
    trace records ``input`` and one snapshot per step (the engine's
    labels).  ``profiler`` records one span per pass: a whole-column pass
    is named by its step's recursion segment, a tile pass ``tile-pass``
    with its step range and dimensions.
    """
    from repro.core.dual_sort import _check_policy

    _check_policy(payload_policy)
    src = np.asarray(keys).copy()
    if trace is not None:
        trace.record_array("input", src)
    passes = _plan_passes(plan, src.itemsize, trace is not None)
    src = _run_passes(src, np.empty_like(src), passes, trace=trace,
                      profiler=profiler)
    if counters is not None:
        counters.charge(plan.ledgers[payload_policy])
    return src


def _dual_sort_plan(rdc, descending: bool):
    from repro.core.dual_sort import dual_sort_schedule

    return get_schedule_plan(
        rdc,
        lambda: dual_sort_schedule(rdc.n, descending=descending),
        kind="dual_sort",
        descending=descending,
    )


def dual_sort_replay(
    rdc,
    keys,
    *,
    descending: bool = False,
    payload_policy: str = "packed",
    counters: CostCounters | None = None,
    trace: TraceRecorder | None = None,
    profiler=None,
) -> np.ndarray:
    """Algorithm 3 from its cached plan; keys sorted in address order."""
    return execute_schedule_replay(
        rdc, keys, _dual_sort_plan(rdc, descending),
        payload_policy=payload_policy, counters=counters, trace=trace,
        profiler=profiler,
    )


def hypercube_bitonic_sort_replay(
    keys,
    *,
    descending: bool = False,
    counters: CostCounters | None = None,
    trace: TraceRecorder | None = None,
) -> np.ndarray:
    """Batcher's bitonic network from its cached plan."""
    from repro.core.bitonic import _sort_cube, bitonic_schedule

    arr = np.asarray(keys)
    cube = _sort_cube(len(arr))
    plan = get_schedule_plan(
        cube,
        lambda: bitonic_schedule(cube.q, descending=descending),
        kind="bitonic",
        descending=descending,
    )
    return execute_schedule_replay(
        cube, arr, plan, counters=counters, trace=trace
    )


# -- large inputs --------------------------------------------------------------


def large_prefix_replay(
    dc,
    values,
    op: AssocOp,
    *,
    counters: CostCounters | None = None,
    profiler=None,
    shards: int | None = None,
) -> np.ndarray:
    """The blocked prefix: a local prefix per block, the diminished
    `D_prefix` on the block totals (optionally sharded), then the offset
    fold — ``local-prefix``, ``network`` and ``fold`` profiler spans."""
    from repro.core.large_inputs import _blocked

    blocks, b = _blocked(values, dc.num_nodes)
    prof = profiler if profiler is not None else NULL_PROFILER

    # An object-dtype input stays object dtype (the CONCAT regression
    # test pins that); bool and narrow integers widen like D_prefix's.
    with prof.span("local-prefix", block=b):
        local = blocks.astype(_accumulation(blocks.dtype, op)[0])
        for k in range(1, b):
            local[:, k] = combine_arrays(op, local[:, k - 1], local[:, k])
        if counters is not None and b > 1:
            counters.record_comp_step(ops_each=b - 1)

    with prof.span("network"):
        offsets = dual_prefix_replay(
            dc, local[:, -1], op, inclusive=False, counters=counters,
            shards=shards,
        )

    with prof.span("fold", block=b):
        out = np.empty_like(local)
        for k in range(b):
            out[:, k] = combine_arrays(op, offsets, local[:, k])
        if counters is not None:
            counters.record_comp_step(ops_each=b)
        return out.reshape(-1)


def large_sort_replay(
    rdc,
    keys,
    *,
    descending: bool = False,
    payload_policy: str = "packed",
    counters: CostCounters | None = None,
    profiler=None,
) -> np.ndarray:
    """The blocked sort: a local sort per block, then the `D_sort` plan
    with every compare-exchange replaced by a merge-split — a
    ``local-sort`` span, then one span per step named by its phase."""
    from repro.core.dual_sort import _check_policy
    from repro.core.large_inputs import _blocked, _local_sort_ops

    _check_policy(payload_policy)
    blocks, b = _blocked(keys, rdc.num_nodes)
    if blocks.dtype == object:
        raise TypeError("large_sort supports numeric keys only")
    prof = profiler if profiler is not None else NULL_PROFILER
    plan = _dual_sort_plan(rdc, descending)
    with prof.span("local-sort", block=b):
        src = np.sort(blocks, axis=1)
        if counters is not None:
            counters.record_comp_step(ops_each=_local_sort_ops(b))
    dst = np.empty_like(src)
    for st in plan.steps:
        with prof.span(st.phase, step=st.index, dim=st.dim):
            _merge_split(src, dst, st, b)
            src, dst = dst, src
    if counters is not None:
        counters.charge(schedule_ledger(
            plan.steps, rdc.num_nodes, payload_policy, block=b, ops_each=2 * b))
    if descending:
        # Blocks end internally ascending; flatten each high-to-low for a
        # descending global order (local, no messages).
        src = src[:, ::-1]
    return src.reshape(-1)
