"""Data-parallel kernels riding on D_prefix (Hillis-Steele style).

The paper cites "Data parallel algorithms" as the motivation for prefix
computation; this example runs the classic kernels on the dual-cube:
stream compaction, enumeration, first-order linear recurrences via a
non-commutative matrix scan, and segmented sums.

Run:  python examples/data_parallel_kernels.py
"""

import numpy as np

from repro import ADD, CONCAT, CostCounters, DualCube
from repro.apps import (
    enumerate_true,
    linear_recurrence,
    segmented_sum,
    stream_compact,
)
from repro.core.dual_prefix import dual_prefix


def main() -> None:
    dc = DualCube(3)
    rng = np.random.default_rng(11)

    print("=== Stream compaction ===")
    values = rng.integers(0, 100, 32)
    kept = stream_compact(dc, values, lambda v: v % 7 == 0)
    print(f"input : {list(values)}")
    print(f"keep multiples of 7 -> {list(kept)}")
    print()

    print("=== Enumeration (diminished 0/1 scan) ===")
    flags = (values % 2 == 0).astype(int)
    slots = enumerate_true(dc, flags)
    print(f"even flags   : {list(flags)}")
    print(f"output slots : {list(slots)}")
    print()

    print("=== Linear recurrence x_{k+1} = a_k x_k + b_k (matrix scan) ===")
    a = np.full(32, 0.9)
    b = np.ones(32)
    xs = linear_recurrence(dc, a, b, x0=0.0)
    print("decay-accumulate system a=0.9, b=1, x0=0:")
    print(f"x_1..x_8   = {[round(float(x), 3) for x in xs[:8]]}")
    print(f"x_32       = {xs[-1]:.4f}  (limit 1/(1-0.9) = 10)")
    print()

    print("=== Segmented sums ===")
    heads = np.zeros(32, dtype=int)
    heads[[0, 8, 20]] = 1
    segs = segmented_sum(dc, np.ones(32), heads)
    print(f"segment heads at 0, 8, 20; running lengths: {list(map(int, segs))}")
    print()

    print("=== Any associative operation drops in ===")
    words = np.empty(32, dtype=object)
    words[:] = [(chr(ord('a') + k % 26),) for k in range(32)]
    counters = CostCounters(32)
    scan = dual_prefix(dc, words, CONCAT, counters=counters)
    print(f"concat scan tail: {''.join(scan[-1])}")
    print(f"every kernel above used {counters.comm_steps} communication steps "
          f"(2n for n=3), regardless of the operation")


if __name__ == "__main__":
    main()
