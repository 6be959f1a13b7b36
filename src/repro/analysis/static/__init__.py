"""Static analysis of communication schedules and repo source.

The paper's theorems are *static* claims about communication schedules:
D_prefix finishes within 2n+1 communication / 2n computation steps,
D_sort within 6n²-3n-2 / 2n²-n, and every message travels along a real
dual-cube edge.  This subsystem checks those claims without trusting a
dynamic run:

* :mod:`repro.analysis.static.schedule` — the :class:`CommSchedule` IR:
  a topology-agnostic per-step record of every message transfer;
* :mod:`repro.analysis.static.extract` — obtains a :class:`CommSchedule`
  from any SPMD program by record-only lockstep interpretation, the
  oracle an engine timeline is cross-checked against;
* :mod:`repro.analysis.static.checkers` — edge legality against any
  :class:`~repro.topology.base.Topology`, send/recv pairing with
  wait-for-graph deadlock/orphan diagnosis, 1-port and per-link
  congestion bounds, and theorem step-count bounds;
* :mod:`repro.analysis.static.theorems` — Theorem 1/2 verification
  drivers over D_2..D_5 plus schedule cases for every engine algorithm
  in :mod:`repro.core`;
* :mod:`repro.analysis.static.compile` — turns the extracted schedules
  around: compiles `D_prefix` and step-schedule algorithms into the
  descriptor plans the ``"replay"`` array backend executes (checkable
  against :func:`extract_schedule` with :func:`check_plan`), and proves
  the sharded and in-place write sets race-free before forking
  (:class:`WriteSpan` algebra, ``repro check-faults --plan``);
* :mod:`repro.analysis.static.faults` — fault-impact analysis: blast
  radius by forward taint/blocking propagation through a schedule,
  deadlock/orphan diagnosis of the fault-pruned schedule, static
  prediction of ``run_faulty`` exclusion sets, and minimal-cut search
  with exact Menger structural cuts (``repro check-faults``);
* :mod:`repro.analysis.static.lint` — a stdlib-``ast`` repo linter with
  repro-specific rules and per-path rule profiles (``repro lint``).

See ``docs/static-analysis.md`` for the full tour.
"""

from repro.analysis.static.schedule import (
    BlockedOp,
    CommEvent,
    CommSchedule,
    Violation,
)
from repro.analysis.static.extract import (
    RecordingCtx,
    extract_schedule,
)
from repro.analysis.static.checkers import (
    EXIT_CODES,
    VIOLATION_CLASSES,
    check_bounds,
    check_congestion,
    check_edge_legality,
    check_pairing,
    exit_code_for,
    run_schedule_checks,
)
from repro.analysis.static.faults import (
    CutResult,
    FaultImpact,
    RecoveryImpact,
    all_included_violated,
    analyze_fault_impact,
    fault_set_of,
    minimal_cut,
    minimal_cut_table,
    quorum_node_cut,
    quorum_violated,
    rank_included_violated,
    recovery_impact,
    structural_link_cut,
    structural_node_cut,
)
from repro.analysis.static.theorems import (
    ScheduleReport,
    core_schedule_cases,
    verify_prefix_schedule,
    verify_sort_schedule,
    verify_theorems,
)
from repro.analysis.static.compile import (
    PlanError,
    PrefixDescriptor,
    ScheduleDescriptor,
    ShardRaceError,
    StepDescriptor,
    WriteSpan,
    check_columnar_round,
    check_plan,
    check_shard_plan,
    columnar_round_spans,
    compile_prefix_plan,
    compile_schedule_plan,
    plan_comm_schedule,
    shard_task_spans,
    spans_overlap,
)
from repro.analysis.static.lint import (
    LINT_RULES,
    RULE_PROFILES,
    LintViolation,
    lint_file,
    lint_paths,
    lint_source,
    profile_for,
)

__all__ = [
    "BlockedOp",
    "CommEvent",
    "CommSchedule",
    "Violation",
    "RecordingCtx",
    "extract_schedule",
    "check_bounds",
    "check_congestion",
    "check_edge_legality",
    "check_pairing",
    "run_schedule_checks",
    "EXIT_CODES",
    "VIOLATION_CLASSES",
    "exit_code_for",
    "FaultImpact",
    "analyze_fault_impact",
    "RecoveryImpact",
    "recovery_impact",
    "fault_set_of",
    "all_included_violated",
    "rank_included_violated",
    "quorum_violated",
    "CutResult",
    "minimal_cut",
    "structural_node_cut",
    "structural_link_cut",
    "quorum_node_cut",
    "minimal_cut_table",
    "ScheduleReport",
    "core_schedule_cases",
    "verify_prefix_schedule",
    "verify_sort_schedule",
    "verify_theorems",
    "PlanError",
    "ShardRaceError",
    "PrefixDescriptor",
    "StepDescriptor",
    "ScheduleDescriptor",
    "compile_prefix_plan",
    "compile_schedule_plan",
    "plan_comm_schedule",
    "check_plan",
    "WriteSpan",
    "spans_overlap",
    "shard_task_spans",
    "check_shard_plan",
    "columnar_round_spans",
    "check_columnar_round",
    "LINT_RULES",
    "RULE_PROFILES",
    "LintViolation",
    "lint_file",
    "lint_paths",
    "lint_source",
    "profile_for",
]
