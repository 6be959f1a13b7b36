"""Command-line interface: ``python -m repro <command>``.

Gives the library's headline results from a shell — network facts, the
theorem tables, a prefix/sort run with measured costs, routing demos,
and the random-traffic comparison — without writing any Python.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro import __version__
from repro.analysis.complexity import (
    dual_prefix_comm_exact,
    dual_sort_comm_exact,
    hypercube_bitonic_steps,
    hypercube_prefix_steps,
    theorem1_comm_bound,
    theorem1_comp_bound,
    theorem2_comm_bound,
    theorem2_comp_bound,
)
from repro.analysis.tables import format_table
from repro.core.dual_prefix import dual_prefix
from repro.core.dual_sort import dual_sort
from repro.core.ops import ADD
from repro.routing.dualcube_routing import route
from repro.simulator import CostCounters
from repro.simulator.traffic import (
    hypercube_dimension_order_path,
    random_pairs,
    run_traffic,
)
from repro.topology import DualCube, Hypercube, RecursiveDualCube
from repro.viz.ascii_art import render_clusters, render_route

__all__ = ["main", "build_parser"]


def _cmd_info(args) -> int:
    dc = DualCube(args.n)
    print(
        f"{dc.name}: {dc.num_nodes} nodes, {dc.edge_count()} edges, "
        f"degree {dc.n}, diameter {dc.diameter()}, "
        f"2 classes x {dc.clusters_per_class} clusters x "
        f"{dc.nodes_per_cluster} nodes"
    )
    if args.layout:
        print(render_clusters(dc))
    return 0


def _cmd_theorems(args) -> int:
    rows1 = [
        (
            n,
            2 ** (2 * n - 1),
            dual_prefix_comm_exact(n),
            theorem1_comm_bound(n),
            hypercube_prefix_steps(2 * n - 1),
            theorem1_comp_bound(n),
        )
        for n in range(1, args.max_n + 1)
    ]
    print(
        format_table(
            ["n", "nodes", "comm (ours)", "bound 2n+1", "Q_(2n-1)", "comp 2n"],
            rows1,
            title="Theorem 1 — D_prefix",
        )
    )
    print()
    rows2 = [
        (
            n,
            2 ** (2 * n - 1),
            dual_sort_comm_exact(n),
            theorem2_comm_bound(n),
            hypercube_bitonic_steps(2 * n - 1),
            round(dual_sort_comm_exact(n) / hypercube_bitonic_steps(2 * n - 1), 3),
            theorem2_comp_bound(n),
        )
        for n in range(1, args.max_n + 1)
    ]
    print(
        format_table(
            ["n", "nodes", "comm (ours)", "bound", "Q_(2n-1)", "ratio", "comp"],
            rows2,
            title="Theorem 2 — D_sort",
        )
    )
    return 0


def _cmd_prefix(args) -> int:
    dc = DualCube(args.n)
    rng = np.random.default_rng(args.seed)
    vals = rng.integers(0, 100, dc.num_nodes)
    counters = CostCounters(dc.num_nodes)
    out = dual_prefix(dc, vals, ADD, counters=counters)
    print(f"input : {[int(v) for v in vals[: args.show]]}...")
    print(f"prefix: {[int(v) for v in out[: args.show]]}...")
    print(
        f"cost: {counters.comm_steps} comm steps "
        f"(bound {theorem1_comm_bound(args.n)}), "
        f"{counters.comp_steps} comp steps"
    )
    return 0


def _cmd_sort(args) -> int:
    rdc = RecursiveDualCube(args.n)
    rng = np.random.default_rng(args.seed)
    keys = rng.permutation(rdc.num_nodes)
    counters = CostCounters(rdc.num_nodes)
    out = dual_sort(rdc, keys, counters=counters)
    ok = list(out) == sorted(keys)
    print(f"keys  : {[int(v) for v in keys[: args.show]]}...")
    print(f"sorted: {[int(v) for v in out[: args.show]]}...  ({'ok' if ok else 'WRONG'})")
    print(
        f"cost: {counters.comm_steps} comm steps "
        f"(bound {theorem2_comm_bound(args.n)}), "
        f"{counters.comp_steps} comparison steps"
    )
    return 0 if ok else 1


def _cmd_route(args) -> int:
    dc = DualCube(args.n)
    path = route(dc, args.src, args.dst)
    print(render_route(dc, path))
    return 0


def _cmd_traffic(args) -> int:
    n = args.n
    dc = DualCube(n)
    cube = Hypercube(2 * n - 1)
    rng = np.random.default_rng(args.seed)
    pairs = random_pairs(dc.num_nodes, args.pairs, rng)
    stats_d = run_traffic(dc, lambda u, v: route(dc, u, v), pairs)
    stats_q = run_traffic(cube, hypercube_dimension_order_path, pairs)
    print(
        format_table(
            ["network", "pairs", "avg hops", "max link load", "imbalance", "loaded links", "links", "retrans", "path hops"],
            [stats_d.row(), stats_q.row()],
            title=f"Random traffic, {args.pairs} pairs",
        )
    )
    return 0


def _cmd_hamiltonian(args) -> int:
    from repro.topology import RecursiveDualCube as RDC
    from repro.topology import hamiltonian_cycle, ring_embedding_dilation

    rdc = RDC(args.n)
    cyc = hamiltonian_cycle(args.n)
    print(f"Hamiltonian cycle of {rdc.name} ({rdc.num_nodes} nodes), dilation "
          f"{ring_embedding_dilation(rdc, cyc)}:")
    shown = " -> ".join(map(str, cyc[: args.show]))
    print(f"  {shown}{' -> ...' if len(cyc) > args.show else ''}")
    return 0


def _cmd_collectives(args) -> int:
    from repro.routing import (
        allgather_engine,
        allreduce,
        broadcast_engine,
        gather_engine,
        scatter_engine,
    )

    dc = DualCube(args.n)
    vals = list(range(dc.num_nodes))
    rows = []
    _, res = broadcast_engine(dc, 0, 42)
    rows.append(("broadcast", res.comm_steps, res.counters.messages, res.counters.payload_items))
    _, res = allreduce(dc, vals, ADD, backend="engine")
    rows.append(("allreduce", res.comm_steps, res.counters.messages, res.counters.payload_items))
    _, res = scatter_engine(dc, 0, vals)
    rows.append(("scatter", res.comm_steps, res.counters.messages, res.counters.payload_items))
    _, res = gather_engine(dc, 0, vals)
    rows.append(("gather", res.comm_steps, res.counters.messages, res.counters.payload_items))
    _, res = allgather_engine(dc, vals)
    rows.append(("allgather", res.comm_steps, res.counters.messages, res.counters.payload_items))
    print(
        format_table(
            ["collective", "steps", "messages", "payload items"],
            rows,
            title=f"Collectives on {dc.name} (diameter {dc.diameter()})",
        )
    )
    return 0


def _serve_workload(topo, arrival: str, rate: float, requests: int, seed: int):
    from repro.simulator.serving import (
        deterministic_arrivals,
        onoff_arrivals,
        open_loop_pairs,
        poisson_arrivals,
    )

    total_rate = rate * topo.num_nodes
    make = {
        "poisson": lambda: poisson_arrivals(total_rate, requests, seed),
        "deterministic": lambda: deterministic_arrivals(total_rate, requests),
        "bursty": lambda: onoff_arrivals(total_rate, requests, seed),
    }[arrival]
    return make(), open_loop_pairs(topo, requests, seed)


def _cmd_serve(args) -> int:
    from pathlib import Path

    from repro.obs import TimelineRecorder
    from repro.simulator import FaultPlan
    from repro.simulator.serving import (
        ServingConfig,
        bfs_router,
        find_saturation,
        registry_from_serving,
        run_serving,
    )
    from repro.topology import Metacube
    from repro.viz.ascii_art import render_timeline_heatmap

    n = args.n
    dc = DualCube(n)
    cube = Hypercube(2 * n - 1)
    networks: list[tuple] = [
        (dc, lambda u, v: route(dc, u, v)),
        (cube, hypercube_dimension_order_path),
    ]
    if args.metacube and n >= 3:
        # MC(2, n-2) matches the dual-cube's degree (n) at a comparable
        # size — the authors' generalized family joining the comparison.
        mc = Metacube(2, n - 2)
        networks.append((mc, bfs_router(mc)))

    if args.sweep:
        rows = []
        for topo, router in networks:
            sat = find_saturation(
                topo,
                router,
                seed=args.seed,
                requests=args.requests,
                service_time=args.service_time,
            )
            rows.append(sat.row())
        print(
            format_table(
                ["network", "knee rate/node", "diverged at", "base p99", "threshold", "probes"],
                rows,
                title=(
                    f"Saturation sweep (p99 knee), fixed window, "
                    f">= {args.requests} requests per probe"
                ),
            )
        )
        return 0

    plan = None
    if args.drop_rate > 0:
        plan = FaultPlan(drop_rate=args.drop_rate, seed=args.seed, max_retries=200)
    config = ServingConfig(
        service_time=args.service_time,
        queue_capacity=args.capacity,
        policy=args.policy,
        deadline=args.deadline,
        horizon=args.horizon,
    )
    rows = []
    registry = None
    for topo, router in networks:
        arrivals, pairs = _serve_workload(
            topo, args.arrival, args.rate, args.requests, args.seed
        )
        recorder = TimelineRecorder(num_nodes=topo.num_nodes)
        stats = run_serving(
            topo, router, arrivals, pairs,
            config=config, fault_plan=plan, timeline=recorder,
        )
        rows.append(stats.row())
        # One registry for all networks: registry_from_serving labels every
        # series by topology, so the export stays one valid document.
        registry = registry_from_serving(stats, registry=registry)
        if args.heatmap:
            print(f"\n{topo.name} queue activity:")
            print(render_timeline_heatmap(recorder, max_links=args.heatmap_links))
    print(
        format_table(
            ["network", "arrivals", "completed", "drops", "misses", "p50", "p99", "p999", "goodput", "util"],
            rows,
            title=(
                f"Open-loop serving: {args.arrival} arrivals, "
                f"{args.rate}/node/t, {args.requests} requests"
            ),
        )
    )
    if args.export_jsonl:
        Path(args.export_jsonl).write_text(registry.to_jsonlines())
        print(f"wrote {args.export_jsonl}")
    if args.export_prom:
        Path(args.export_prom).write_text(registry.to_prometheus())
        print(f"wrote {args.export_prom}")
    return 0


def _run_recorded(algo: str, n: int, seed: int):
    """Run ``algo`` on the engine with a timeline attached.

    Returns ``(topo, recorder, engine_result, static_schedule)`` where the
    static schedule is the analyzer's extraction of the *same* program —
    the ground truth the recorded timeline is validated against.
    """
    from repro.analysis.static.extract import extract_schedule
    from repro.core.dual_prefix import dual_prefix_program
    from repro.core.dual_sort import dual_sort_schedule, schedule_program
    from repro.obs import TimelineRecorder
    from repro.simulator import use_timeline

    rng = np.random.default_rng(seed)
    if algo == "prefix":
        dc = DualCube(n)
        vals = [int(v) for v in rng.integers(0, 100, dc.num_nodes)]
        recorder = TimelineRecorder(num_nodes=dc.num_nodes)
        with use_timeline(recorder):
            _, result = dual_prefix(dc, vals, ADD, backend="engine")
        static = extract_schedule(dc, dual_prefix_program(dc, vals, ADD))
        return dc, recorder, result, static
    rdc = RecursiveDualCube(n)
    keys = [int(k) for k in rng.permutation(rdc.num_nodes)]
    recorder = TimelineRecorder(num_nodes=rdc.num_nodes)
    with use_timeline(recorder):
        _, result = dual_sort(rdc, keys, backend="engine")
    static = extract_schedule(
        rdc, schedule_program(rdc, keys, dual_sort_schedule(rdc.n))
    )
    return rdc, recorder, result, static


def _cmd_timeline(args) -> int:
    from pathlib import Path

    from repro.obs import (
        cross_validate_timeline,
        registry_from_counters,
        registry_from_timeline,
    )
    from repro.viz.ascii_art import render_timeline_heatmap

    algos = ("prefix", "sort") if args.smoke else (args.algo,)
    n = 2 if args.smoke else args.n
    status = 0
    for algo in algos:
        topo, recorder, result, static = _run_recorded(algo, n, args.seed)
        counts = recorder.fault_counts()
        print(
            f"{algo} on {topo.name}: {recorder.num_cycles} cycles, "
            f"{recorder.total_messages} messages, "
            f"{sum(counts.values())} faults"
        )
        if not args.smoke:
            print(render_timeline_heatmap(recorder))
        problems = cross_validate_timeline(recorder, static)
        if problems:
            status = 1
            print(f"timeline DIVERGES from the static schedule ({algo}):")
            for p in problems:
                print(f"  - {p}")
        else:
            print(
                f"  validated: timeline matches the static schedule "
                f"({len(static.events)} events over {static.steps} cycles)"
            )
        registry = registry_from_counters(result.counters)
        registry_from_timeline(recorder, registry=registry)
        if args.smoke:
            # Exercise both exporters end to end; emptiness would mean the
            # wiring silently broke even if the run itself was fine.
            jsonl = registry.to_jsonlines()
            prom = registry.to_prometheus()
            if not jsonl.strip() or not prom.strip():
                status = 1
                print("  exporter produced empty output")
            else:
                print(
                    f"  exporters ok: {len(jsonl.splitlines())} jsonl rows, "
                    f"{len(prom.splitlines())} prometheus lines"
                )
        if args.export_jsonl:
            Path(args.export_jsonl).write_text(registry.to_jsonlines())
            print(f"  wrote {args.export_jsonl}")
        if args.export_prom:
            Path(args.export_prom).write_text(registry.to_prometheus())
            print(f"  wrote {args.export_prom}")
    return status


def _cmd_lint(args) -> int:
    import json

    from repro.analysis.static import lint_paths

    paths = args.paths or ["src"]
    violations = lint_paths(paths)
    if args.format == "json":
        print(
            json.dumps(
                [
                    {
                        "path": v.path,
                        "line": v.line,
                        "code": v.code,
                        "message": v.message,
                    }
                    for v in violations
                ],
                indent=2,
            )
        )
        return 1 if violations else 0
    if args.format == "github":
        # GitHub Actions workflow-command annotations: the runner turns
        # these lines into inline PR review comments.
        for v in violations:
            print(
                f"::error file={v.path},line={v.line},"
                f"title={v.code}::{v.message}"
            )
        return 1 if violations else 0
    for v in violations:
        print(v)
    if violations:
        print(f"{len(violations)} lint finding(s)")
        return 1
    print(f"lint clean: {', '.join(paths)}")
    return 0


def _violation_dict(v) -> dict:
    from repro.analysis.static import VIOLATION_CLASSES

    return {
        "code": v.code,
        "class": VIOLATION_CLASSES.get(v.code),
        "message": v.message,
        "step": v.step,
        "rank": v.rank,
    }


def _cmd_check_schedule(args) -> int:
    import json

    from repro.analysis.static import exit_code_for, verify_theorems

    algos = ("prefix", "sort") if args.algo == "both" else (args.algo,)
    reports = verify_theorems(
        args.min_n,
        args.max_n,
        algos=algos,
        paper_literal=args.paper_literal,
        payload_policy=args.payload_policy,
    )
    all_violations = [v for r in reports for v in r.violations]
    if args.json:
        print(
            json.dumps(
                {
                    "reports": [
                        {
                            "algo": r.algo,
                            "n": r.n,
                            "num_nodes": r.num_nodes,
                            "comm_steps": r.comm_steps,
                            "comm_bound": r.comm_bound,
                            "comp_steps": r.comp_steps,
                            "comp_bound": r.comp_bound,
                            "ok": r.ok,
                            "violations": [
                                _violation_dict(v) for v in r.violations
                            ],
                        }
                        for r in reports
                    ],
                    "ok": not all_violations,
                },
                indent=2,
            )
        )
        return exit_code_for(all_violations)
    rows = [
        (
            r.algo,
            r.n,
            r.num_nodes,
            r.comm_steps,
            r.comm_bound,
            r.comp_steps,
            r.comp_bound,
            "ok" if r.ok else "FAIL",
        )
        for r in reports
    ]
    print(
        format_table(
            ["algorithm", "n", "nodes", "comm", "bound", "comp", "bound", "verdict"],
            rows,
            title="Static schedule verification (Theorems 1 and 2)",
        )
    )
    failed = [r for r in reports if not r.ok]
    for r in failed:
        print(f"\n{r.algo} n={r.n}:")
        for v in r.violations:
            print(f"  {v}")
    if failed:
        return exit_code_for(all_violations)
    print(
        "\nall schedules edge-legal, deadlock-free, 1-port clean, "
        "within theorem bounds"
    )
    return 0


def _faults_schedule(kind: str, n: int):
    """Extract the baseline CommSchedule for the impact analysis."""
    from repro.analysis.static import extract_schedule
    from repro.core.dual_prefix import dual_prefix_program
    from repro.core.dual_sort import dual_sort_schedule, schedule_program

    if kind == "prefix":
        dc = DualCube(n)
        return dc, extract_schedule(
            dc, dual_prefix_program(dc, list(range(dc.num_nodes)), ADD)
        )
    rdc = RecursiveDualCube(n)
    return rdc, extract_schedule(
        rdc,
        schedule_program(
            rdc, list(range(rdc.num_nodes)), dual_sort_schedule(rdc.n)
        ),
    )


def _parse_crash(spec: str) -> tuple[int, int]:
    """``R`` or ``R@C`` -> (rank, cycle), cycle defaulting to 1."""
    rank, _, cyc = spec.partition("@")
    return int(rank), (int(cyc) if cyc else 1)


def _parse_cut(spec: str) -> tuple[tuple[int, int], int]:
    """``U:V`` or ``U:V@C`` -> ((min, max), cycle)."""
    edge, _, cyc = spec.partition("@")
    u, sep, v = edge.partition(":")
    if not sep:
        raise ValueError(f"link cut {spec!r} is not of the form U:V[@C]")
    a, b = int(u), int(v)
    return (min(a, b), max(a, b)), (int(cyc) if cyc else 1)


def _check_faults_plan(args) -> int:
    import json

    from repro.analysis.static import (
        ShardRaceError,
        check_columnar_round,
        check_shard_plan,
    )
    from repro.core.replay import _cluster_blocks

    checked = []
    try:
        for n in range(2, args.max_n + 1):
            dc = DualCube(n)
            num, m = dc.num_nodes, dc.cluster_dim
            for shards in (2, 3, 4, 5, 8):
                blocks = _cluster_blocks(1 << m, shards)
                tasks = [(c, a, b) for c in (0, 1) for a, b in blocks]
                spans = check_shard_plan(num, m, tasks)
                checked.append(
                    {
                        "plan": f"shard n={n} shards={shards}",
                        "tasks": len(tasks),
                        "spans": len(spans),
                    }
                )
            # Position-major state: the ascend rounds pair bits m..2m-1.
            for bit in range(m, 2 * m):
                spans = check_columnar_round(num, bit)
                checked.append(
                    {
                        "plan": f"ascend n={n} bit={bit}",
                        "tasks": 1,
                        "spans": len(spans),
                    }
                )
    except ShardRaceError as e:
        if args.json:
            print(json.dumps({"ok": False, "error": str(e)}, indent=2))
        else:
            print(f"RACE: {e}")
        return 2
    if args.json:
        print(json.dumps({"ok": True, "checked": checked}, indent=2))
        return 0
    print(
        format_table(
            ["plan", "tasks", "write spans"],
            [(c["plan"], c["tasks"], c["spans"]) for c in checked],
            title="Shard-disjointness race check",
        )
    )
    print(
        f"\nall {len(checked)} plans race-free "
        f"(pairwise-disjoint write sets per round)"
    )
    return 0


def _check_faults_minimal_cut(args) -> int:
    import json

    from repro.analysis.static import minimal_cut_table

    rows = minimal_cut_table(
        max_n=args.max_n, quorum_frac=args.quorum, budget=args.budget
    )
    if args.json:
        print(json.dumps({"rows": rows}, indent=2))
        return 0
    print(
        format_table(
            ["network", "nodes", "degree", "node cut", "link cut",
             f"quorum-{args.quorum} cut", "exact", "evals"],
            [
                (
                    r["topology"],
                    r["num_nodes"],
                    r["degree"],
                    r["node_cut"],
                    r["link_cut"],
                    r["quorum_cut"],
                    "yes" if r["quorum_exact"] else "upper bound",
                    r["evaluations"],
                )
                for r in rows
            ],
            title="E19 — minimal fault sets violating recovery predicates",
        )
    )
    print(
        "\nnode/link cuts are exact (Menger max-flow); witnesses, e.g. "
        f"{rows[0]['topology']}: crash {rows[0]['node_witness']}"
    )
    return 0


def _cmd_check_faults(args) -> int:
    import json

    from repro.analysis.static import analyze_fault_impact, exit_code_for
    from repro.simulator.faults import StaticFaultView

    if args.plan:
        return _check_faults_plan(args)
    if args.minimal_cut:
        return _check_faults_minimal_cut(args)

    crashes = tuple(sorted(_parse_crash(s) for s in args.crash))
    cuts = tuple(sorted(_parse_cut(s) for s in args.cut))
    view = StaticFaultView(
        crashes=crashes,
        cuts=cuts,
        timeout=args.timeout,
        on_timeout="cancel" if args.semantics == "cancel" else "raise",
    )
    topo, schedule = _faults_schedule(args.kind, args.n)
    impact = analyze_fault_impact(schedule, view, semantics=args.semantics)
    violations = impact.diagnose()
    if args.json:
        print(
            json.dumps(
                {
                    "kind": args.kind,
                    "topology": topo.name,
                    "num_nodes": impact.num_nodes,
                    "semantics": impact.semantics,
                    "crashes": [list(c) for c in crashes],
                    "cuts": [[list(e), c] for e, c in cuts],
                    "blast_radius": list(impact.blast_radius),
                    "dead": list(impact.dead),
                    "blocked": list(impact.blocked),
                    "tainted": list(impact.tainted),
                    "lost_messages": len(impact.lost),
                    "delivered_messages": impact.delivered,
                    "violations": [_violation_dict(v) for v in violations],
                },
                indent=2,
            )
        )
    else:
        print(
            f"{args.kind} on {topo.name} ({impact.num_nodes} ranks), "
            f"{impact.semantics} semantics:"
        )
        print(
            f"  faults: {len(crashes)} crash(es), {len(cuts)} cut(s) -> "
            f"{len(impact.lost)} of "
            f"{len(impact.lost) + impact.delivered} messages lost"
        )
        print(
            f"  blast radius: {len(impact.blast_radius)} rank(s) "
            f"{list(impact.blast_radius)}"
        )
        print(
            f"    dead {list(impact.dead)}, blocked {list(impact.blocked)}, "
            f"tainted {list(impact.tainted)}"
        )
        if violations:
            print("  diagnosis:")
            for v in violations:
                print(f"    {v}")
        else:
            print("  schedule completes under these faults")
    if violations:
        return exit_code_for(violations)
    return 6 if impact.blast_radius else 0


def _cmd_campaign(args) -> int:
    import json

    from repro.simulator.campaign import (
        CampaignError,
        run_campaign,
        validate_report,
    )

    try:
        result = run_campaign(
            args.n,
            seed=args.seed,
            trials=args.trials,
            max_probe=args.max_probe,
            requests_per_node=args.requests_per_node,
            availability=args.availability,
            correctness_timeout=args.correctness_timeout,
        )
    except CampaignError as exc:
        print(f"campaign soundness failure: {exc}", file=sys.stderr)
        return 3
    report = result.to_dict()
    if args.smoke:
        problems = validate_report(report)
        if problems:
            for p in problems:
                print(f"schema drift: {p}", file=sys.stderr)
            return 1
        print(
            f"campaign smoke ok: {result.topology}, "
            f"{len(result.violations)} violation(s), "
            f"{result.evaluations} evaluations, "
            f"cross-checks {'ok' if result.ok else 'FAILED'}"
        )
        return 0
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.out}")
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(result.render_table())
    return 0


def _cmd_report(args) -> int:
    from pathlib import Path

    from repro.analysis.io import collect_artifacts

    out_dir = Path(args.dir)
    arts = collect_artifacts(out_dir)
    if not arts:
        print(f"no artifacts under {out_dir} — run: pytest benchmarks/ --benchmark-only")
        return 1
    print(f"{len(arts)} regenerated artifacts under {out_dir}:")
    for name, title in arts.items():
        print(f"  {name:36s} {title}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    p = argparse.ArgumentParser(
        prog="repro",
        description="Dual-cube prefix computation and sorting (Li, Peng, Chu, ICPP 2008)",
    )
    p.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("info", help="network facts for D_n")
    sp.add_argument("-n", type=int, default=3)
    sp.add_argument("--layout", action="store_true", help="print the cluster diagram")
    sp.set_defaults(fn=_cmd_info)

    sp = sub.add_parser("theorems", help="Theorem 1/2 cost tables")
    sp.add_argument("--max-n", type=int, default=8)
    sp.set_defaults(fn=_cmd_theorems)

    sp = sub.add_parser("prefix", help="run D_prefix with measured costs")
    sp.add_argument("-n", type=int, default=3)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--show", type=int, default=8)
    sp.set_defaults(fn=_cmd_prefix)

    sp = sub.add_parser("sort", help="run D_sort with measured costs")
    sp.add_argument("-n", type=int, default=3)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--show", type=int, default=8)
    sp.set_defaults(fn=_cmd_sort)

    sp = sub.add_parser("route", help="shortest path between two nodes")
    sp.add_argument("-n", type=int, default=3)
    sp.add_argument("src", type=int)
    sp.add_argument("dst", type=int)
    sp.set_defaults(fn=_cmd_route)

    sp = sub.add_parser("traffic", help="random-traffic comparison vs hypercube")
    sp.add_argument("-n", type=int, default=3)
    sp.add_argument("--pairs", type=int, default=500)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(fn=_cmd_traffic)

    sp = sub.add_parser(
        "serve",
        help="open-loop queueing simulation vs hypercube (tail latency, saturation)",
    )
    sp.add_argument("-n", type=int, default=3)
    sp.add_argument(
        "--arrival", choices=["poisson", "deterministic", "bursty"],
        default="poisson",
    )
    sp.add_argument(
        "--rate", type=float, default=0.3,
        help="per-node arrival rate (requests per node per service unit)",
    )
    sp.add_argument("--requests", type=int, default=2000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--service-time", type=float, default=1.0)
    sp.add_argument(
        "--capacity", type=int, default=None,
        help="per-link waiting-buffer capacity (default: unbounded)",
    )
    sp.add_argument("--policy", choices=["drop", "block"], default="drop")
    sp.add_argument(
        "--deadline", type=float, default=None,
        help="per-request sojourn budget; finishing later counts as a miss",
    )
    sp.add_argument(
        "--horizon", type=float, default=None,
        help="stop the clock here; unfinished requests count as in-flight",
    )
    sp.add_argument(
        "--drop-rate", type=float, default=0.0,
        help="FaultPlan drop probability per hop crossing (seeded, forces retransmits)",
    )
    sp.add_argument(
        "--sweep", action="store_true",
        help="bisect offered load to each network's p99 saturation knee (E18)",
    )
    sp.add_argument(
        "--metacube", action="store_true",
        help="add MC(2, n-2) to the comparison (same degree as D_n; needs n >= 3)",
    )
    sp.add_argument("--heatmap", action="store_true", help="render per-link queue activity")
    sp.add_argument("--heatmap-links", type=int, default=64)
    sp.add_argument("--export-jsonl", default=None, metavar="PATH")
    sp.add_argument("--export-prom", default=None, metavar="PATH")
    sp.set_defaults(fn=_cmd_serve)

    sp = sub.add_parser("hamiltonian", help="Hamiltonian cycle / ring embedding")
    sp.add_argument("-n", type=int, default=3)
    sp.add_argument("--show", type=int, default=16)
    sp.set_defaults(fn=_cmd_hamiltonian)

    sp = sub.add_parser("collectives", help="cycle-accurate collective costs")
    sp.add_argument("-n", type=int, default=3)
    sp.set_defaults(fn=_cmd_collectives)

    sp = sub.add_parser(
        "timeline",
        help="record an engine run per cycle: link heatmap, validation, metrics export",
    )
    sp.add_argument("--algo", choices=["prefix", "sort"], default="prefix")
    sp.add_argument("-n", type=int, default=3)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument(
        "--export-jsonl", default=None, metavar="PATH",
        help="write the run's metrics as JSON lines",
    )
    sp.add_argument(
        "--export-prom", default=None, metavar="PATH",
        help="write the run's metrics in Prometheus text format",
    )
    sp.add_argument(
        "--smoke", action="store_true",
        help="CI wiring check: n=2, both algorithms, validate + exercise both "
             "exporters, no heatmap (exit 1 on any divergence)",
    )
    sp.set_defaults(fn=_cmd_timeline)

    sp = sub.add_parser("lint", help="repo lint (REP001-REP007, stdlib ast)")
    sp.add_argument(
        "paths", nargs="*",
        help="files/directories to lint (default: src); tests/ and "
             "benchmarks/ get relaxed rule profiles",
    )
    sp.add_argument(
        "--format", choices=["human", "json", "github"], default="human",
        help="output format: human lines (default), a JSON array, or "
             "GitHub Actions ::error annotations",
    )
    sp.set_defaults(fn=_cmd_lint)

    sp = sub.add_parser(
        "check-schedule",
        help="statically verify Theorem 1/2 schedules (edges, deadlock, bounds)",
    )
    sp.add_argument("--min-n", type=int, default=2)
    sp.add_argument("--max-n", type=int, default=5)
    sp.add_argument(
        "--algo", choices=["prefix", "sort", "both"], default="both"
    )
    sp.add_argument(
        "--paper-literal", action="store_true",
        help="verify the paper-literal D_prefix variant (2n+1 steps)",
    )
    sp.add_argument(
        "--payload-policy", choices=["packed", "single"], default="packed",
        help="relay payload policy for the D_sort schedule",
    )
    sp.add_argument(
        "--json", action="store_true",
        help="emit reports + violations as JSON; exit code is the lowest "
             "violation class (2 legality, 3 pairing, 4 congestion, 5 bounds)",
    )
    sp.set_defaults(fn=_cmd_check_schedule)

    sp = sub.add_parser(
        "check-faults",
        help="static fault-impact analysis: blast radius, deadlock "
             "diagnosis, shard-race check (--plan), minimal cuts "
             "(--minimal-cut)",
    )
    sp.add_argument("--kind", choices=["prefix", "sort"], default="prefix")
    sp.add_argument("-n", type=int, default=3)
    sp.add_argument(
        "--crash", action="append", default=[], metavar="R[@C]",
        help="crash rank R at cycle C (default 1); repeatable",
    )
    sp.add_argument(
        "--cut", action="append", default=[], metavar="U:V[@C]",
        help="cut link U-V at cycle C (default 1); repeatable",
    )
    sp.add_argument(
        "--semantics", choices=["block", "cancel"], default="block",
        help="block: no timeout, failed ranks block (deadlock diagnosis); "
             "cancel: timeout+cancel, failed ranks continue tainted",
    )
    sp.add_argument(
        "--timeout", type=int, default=None,
        help="request timeout recorded in the analyzed fault view",
    )
    sp.add_argument(
        "--plan", action="store_true",
        help="instead: race-check the sharded prefix plans and in-place "
             "ascend rounds (exit 2 on any overlapping write sets)",
    )
    sp.add_argument(
        "--minimal-cut", action="store_true",
        help="instead: compute the E19 minimal-cut table "
             "(D_2..D_max_n vs Q_5)",
    )
    sp.add_argument(
        "--max-n", type=int, default=4,
        help="largest dual-cube n for --plan / --minimal-cut "
             "(--minimal-cut 5 takes ~30s: exact flow cuts on 2048 nodes)",
    )
    sp.add_argument(
        "--quorum", type=float, default=0.75,
        help="quorum fraction for the --minimal-cut quorum predicate",
    )
    sp.add_argument(
        "--budget", type=int, default=20_000,
        help="predicate-evaluation budget for the --minimal-cut search",
    )
    sp.add_argument(
        "--json", action="store_true",
        help="emit machine-readable JSON; exit codes: 0 clean, 2 race, "
             "3 pairing violation, 6 nonempty blast radius",
    )
    sp.set_defaults(fn=_cmd_check_faults)

    sp = sub.add_parser(
        "campaign",
        help="randomized SLO fault campaign (churn, outages, rolling "
             "restarts) with static triage and minimal-cut cross-check",
    )
    sp.add_argument("-n", type=int, default=2)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument(
        "--trials", type=int, default=8,
        help="random probes per SLO (plus deterministic seed probes)",
    )
    sp.add_argument(
        "--max-probe", type=int, default=3,
        help="largest random fault set drawn per probe",
    )
    sp.add_argument("--requests-per-node", type=int, default=20)
    sp.add_argument(
        "--availability", type=float, default=0.8,
        help="availability SLO: min fraction of arrivals not dropped",
    )
    sp.add_argument(
        "--correctness-timeout", type=int, default=5,
        help="retry-mode request timeout the correctness SLO runs under",
    )
    sp.add_argument("--json", action="store_true")
    sp.add_argument("--out", default=None, help="write the JSON report here")
    sp.add_argument(
        "--smoke", action="store_true",
        help="run a small campaign and exit nonzero on report-schema "
             "drift or a failed cross-check (CI gate)",
    )
    sp.set_defaults(fn=_cmd_campaign)

    sp = sub.add_parser("report", help="list regenerated experiment artifacts")
    sp.add_argument("--dir", default="benchmarks/out")
    sp.set_defaults(fn=_cmd_report)

    return p


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
