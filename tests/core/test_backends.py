"""The backend registry: introspection, the cross-backend result/counter
matrix for every entry point, and the uniformly-worded dispatch errors
(unknown backend + capability guards) the registry pins."""

import inspect

import numpy as np
import pytest

from repro.core import (
    ADD,
    BackendSpec,
    backend_names,
    backend_spec,
    dual_prefix,
    dual_sort,
    entry_points,
    hypercube_bitonic_sort,
    large_prefix,
    large_sort,
    resolve_backend,
    sequential_prefix,
)
from repro.core.backends import FEATURES
from repro.obs.profile import PhaseProfiler
from repro.obs.timeline import TimelineRecorder
from repro.simulator import CostCounters, TraceRecorder
from repro.topology import DualCube, RecursiveDualCube

ARRAY_BACKENDS = ("replay",)


class TestRegistryIntrospection:
    def test_entry_points(self):
        assert entry_points() == (
            "allreduce",
            "bitonic",
            "cube_prefix",
            "dual_prefix",
            "dual_sort",
            "emulated_cube_prefix",
            "large_prefix",
            "large_sort",
            "ring_sort",
        )

    def test_backend_names(self):
        for ep in entry_points():
            # Only the blocked sort has no cycle-accurate program.
            want = ("replay",) if ep == "large_sort" else ("engine", "replay")
            assert backend_names(ep) == want, ep

    def test_runners_take_only_declared_features(self):
        # dispatch passes a runner only the features its spec declares,
        # so no runner needs an adapter that drops the others.
        for ep in entry_points():
            for name in backend_names(ep):
                spec = backend_spec(ep, name)
                params = inspect.signature(spec.loader()).parameters
                assert FEATURES.intersection(params) == spec.features, (
                    ep, name)

    def test_specs_declare_capabilities_once(self):
        spec = backend_spec("dual_prefix", "replay")
        assert isinstance(spec, BackendSpec)
        assert spec.features == {"counters", "trace", "profiler", "shards"}
        assert spec.returns == "result array"
        assert backend_spec("dual_prefix", "engine").returns == (
            "(result array, EngineResult)"
        )
        assert backend_spec("dual_sort", "replay").features == {
            "counters", "trace", "profiler",
        }
        # Sharding exists only on the prefix family's array backend.
        for ep in entry_points():
            for name in backend_names(ep):
                shards_ok = "shards" in backend_spec(ep, name).features
                assert shards_ok == (
                    name == "replay" and ep in ("dual_prefix", "large_prefix")
                ), (ep, name)

    def test_unknown_entry_point(self):
        with pytest.raises(ValueError, match="unknown entry point 'nope'"):
            backend_names("nope")
        with pytest.raises(ValueError, match="unknown entry point"):
            resolve_backend("nope", "replay")

    def test_unknown_feature_rejected(self):
        with pytest.raises(ValueError, match="unknown backend feature"):
            resolve_backend("dual_prefix", "replay", warp=True)

    def test_spec_rejects_undeclared_features(self):
        with pytest.raises(ValueError, match="unknown features"):
            BackendSpec(
                entry_point="x", name="y", features=frozenset({"magic"}),
                returns="r", description="d", loader=lambda: None,
            )


class TestUnknownBackendMessages:
    """One shared message shape for every entry point; the retired
    ``vectorized`` and ``columnar`` names are unknown backends."""

    def test_dual_prefix(self):
        dc = DualCube(2)
        for name in ("nope", "vectorized", "columnar"):
            with pytest.raises(
                ValueError,
                match=rf"unknown backend '{name}' for dual_prefix; choose "
                      r"one of 'engine', 'replay'$",
            ):
                dual_prefix(dc, np.arange(dc.num_nodes), ADD, backend=name)

    def test_dual_sort(self):
        rdc = RecursiveDualCube(2)
        for name in ("nope", "vectorized", "columnar"):
            with pytest.raises(
                ValueError,
                match=rf"unknown backend '{name}' for dual_sort; choose "
                      r"one of 'engine', 'replay'$",
            ):
                dual_sort(rdc, np.arange(rdc.num_nodes), backend=name)

    def test_bitonic(self):
        with pytest.raises(
            ValueError,
            match=r"unknown backend 'vectorized' for bitonic; choose one of "
                  r"'engine', 'replay'$",
        ):
            hypercube_bitonic_sort(np.arange(8), backend="vectorized")

    def test_large_prefix(self):
        dc = DualCube(2)
        with pytest.raises(
            ValueError,
            match=r"unknown backend 'vectorized' for large_prefix; choose "
                  r"one of 'engine', 'replay'$",
        ):
            large_prefix(dc, np.arange(dc.num_nodes), ADD,
                         backend="vectorized")

    def test_large_sort(self):
        rdc = RecursiveDualCube(2)
        with pytest.raises(
            ValueError,
            match=r"unknown backend 'columnar' for large_sort; choose one of "
                  r"'replay'$",
        ):
            large_sort(rdc, np.arange(rdc.num_nodes), backend="columnar")


class TestCapabilityGuards:
    """Every (entry point, backend) rejects unsupported keywords with the
    registry's uniform wording; the array backend honours them all."""

    def test_engine_rejects_external_counters(self):
        dc = DualCube(2)
        with pytest.raises(
            ValueError, match="takes no external counters"
        ):
            dual_prefix(
                dc, np.arange(dc.num_nodes), ADD, backend="engine",
                counters=CostCounters(dc.num_nodes),
            )

    def test_columnar_rejects_trace(self):
        dc = DualCube(2)
        with pytest.raises(ValueError, match="unknown backend 'columnar'"):
            dual_prefix(
                dc, np.arange(dc.num_nodes), ADD, backend="columnar",
                trace=TraceRecorder(),
            )

    def test_columnar_rejects_profiler(self):
        dc = DualCube(2)
        with pytest.raises(ValueError, match="unknown backend 'columnar'"):
            dual_prefix(
                dc, np.arange(dc.num_nodes), ADD, backend="columnar",
                profiler=PhaseProfiler(),
            )
        with pytest.raises(
            ValueError, match="has no per-phase profiling hooks"
        ):
            dual_prefix(
                dc, np.arange(dc.num_nodes), ADD, backend="engine",
                profiler=PhaseProfiler(),
            )

    def test_vectorized_rejects_shards(self):
        dc = DualCube(2)
        with pytest.raises(ValueError, match="unknown backend 'vectorized'"):
            dual_prefix(
                dc, np.arange(dc.num_nodes), ADD, backend="vectorized",
                shards=2,
            )
        with pytest.raises(
            ValueError,
            match=r"the 'engine' backend of dual_prefix has no "
                  r"multiprocessing sharding; shards is supported by: "
                  r"'replay'",
        ):
            dual_prefix(
                dc, np.arange(dc.num_nodes), ADD, backend="engine", shards=2,
            )

    def test_dual_prefix_replay_rejects_trace_and_profiler(self):
        # The array backend now takes both: trace snapshots carry the
        # engine's labels, profiler spans the four algorithm phases.
        dc = DualCube(2)
        vals = np.arange(dc.num_nodes)
        tr, prof = TraceRecorder(), PhaseProfiler()
        dual_prefix(dc, vals, ADD, backend="replay", trace=tr, profiler=prof)
        eng_trace = TraceRecorder()
        dual_prefix(dc, vals, ADD, backend="engine", trace=eng_trace)
        assert tr.labels() == eng_trace.labels()
        assert set(prof.totals()) == {
            "cluster-prefix", "cross", "block-prefix", "fold",
        }

    def test_dual_sort_guards(self):
        rdc = RecursiveDualCube(2)
        keys = np.arange(rdc.num_nodes)
        with pytest.raises(ValueError, match="takes no external counters"):
            dual_sort(
                rdc, keys, backend="engine",
                counters=CostCounters(rdc.num_nodes),
            )
        with pytest.raises(ValueError, match="profiling hooks"):
            dual_sort(rdc, keys, backend="engine", profiler=PhaseProfiler())
        tr = TraceRecorder()
        dual_sort(rdc, keys, backend="replay", trace=tr)
        assert tr.labels()[0] == "input"

    def test_large_prefix_guards(self):
        dc = DualCube(2)
        vals = np.arange(dc.num_nodes * 4)
        for retired in ("vectorized", "columnar"):
            with pytest.raises(ValueError, match="unknown backend"):
                large_prefix(dc, vals, ADD, backend=retired, shards=2)
        out = large_prefix(dc, vals, ADD, backend="replay", shards=2)
        assert out.tolist() == np.cumsum(vals).tolist()

    def test_bitonic_guards(self):
        keys = np.arange(8)
        with pytest.raises(ValueError, match="takes no external counters"):
            hypercube_bitonic_sort(
                keys, backend="engine", counters=CostCounters(8)
            )
        with pytest.raises(ValueError, match="unknown backend 'columnar'"):
            hypercube_bitonic_sort(
                keys, backend="columnar", trace=TraceRecorder()
            )
        tr = TraceRecorder()
        hypercube_bitonic_sort(keys, backend="replay", trace=tr)
        assert tr.labels()[0] == "input"

    def test_error_lists_supporting_backends(self):
        with pytest.raises(
            ValueError,
            match=r"profiler is supported by: 'replay'",
        ):
            resolve_backend("dual_sort", "engine", profiler=True)

    def test_false_requests_pass(self):
        # Passing feature=False (keyword left at None by the caller) never
        # trips the guard, whatever the backend.
        for ep in entry_points():
            for name in backend_names(ep):
                assert callable(
                    resolve_backend(
                        ep, name, counters=False, trace=False,
                        profiler=False, shards=False,
                    )
                )


class TestCrossBackendMatrix:
    """The acceptance matrix: the array backend of every entry point
    produces the oracle's results and the engine's counter ledger on
    D_2..D_4."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_dual_prefix(self, n, rng):
        dc = DualCube(n)
        vals = rng.integers(0, 1000, dc.num_nodes)
        results, summaries = {}, {}
        for backend in ARRAY_BACKENDS:
            c = CostCounters(dc.num_nodes)
            results[backend] = dual_prefix(
                dc, vals, ADD, backend=backend, counters=c
            )
            summaries[backend] = c.summary()
        expected = sequential_prefix(vals.tolist(), ADD)
        for backend in ARRAY_BACKENDS:
            assert results[backend].tolist() == expected, backend
            assert summaries[backend] == summaries["replay"], backend
        out, res = dual_prefix(dc, vals, ADD, backend="engine")
        assert list(out) == expected
        assert res.counters.summary() == summaries["replay"]

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("policy", ["packed", "single"])
    def test_dual_sort(self, n, policy, rng):
        rdc = RecursiveDualCube(n)
        keys = rng.permutation(rdc.num_nodes)
        summaries = {}
        for backend in ARRAY_BACKENDS:
            c = CostCounters(rdc.num_nodes)
            out = dual_sort(
                rdc, keys, backend=backend, payload_policy=policy, counters=c
            )
            assert out.tolist() == sorted(keys.tolist()), backend
            summaries[backend] = c.summary()
        for backend in ARRAY_BACKENDS:
            assert summaries[backend] == summaries["replay"], backend
        out, res = dual_sort(
            rdc, keys, backend="engine", payload_policy=policy
        )
        assert list(out) == sorted(keys.tolist())
        assert res.counters.summary() == summaries["replay"]

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_large_prefix(self, n, rng):
        dc = DualCube(n)
        vals = rng.integers(0, 1000, dc.num_nodes * 4)
        summaries = {}
        for backend in ARRAY_BACKENDS:
            c = CostCounters(dc.num_nodes)
            out = large_prefix(dc, vals, ADD, backend=backend, counters=c)
            assert out.tolist() == np.cumsum(vals).tolist(), backend
            summaries[backend] = c.summary()
        for backend in ARRAY_BACKENDS:
            assert summaries[backend] == summaries["replay"], backend

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("policy", ["packed", "single"])
    def test_large_sort(self, n, policy, rng):
        rdc = RecursiveDualCube(n)
        keys = rng.permutation(rdc.num_nodes * 4)
        summaries = {}
        for backend in ARRAY_BACKENDS:
            c = CostCounters(rdc.num_nodes)
            out = large_sort(
                rdc, keys, backend=backend, payload_policy=policy, counters=c
            )
            assert out.tolist() == sorted(keys.tolist()), backend
            summaries[backend] = c.summary()
        for backend in ARRAY_BACKENDS:
            assert summaries[backend] == summaries["replay"], backend

    @pytest.mark.parametrize("q", [1, 2, 3])
    @pytest.mark.parametrize("descending", [False, True])
    def test_bitonic(self, q, descending, rng):
        keys = rng.permutation(2**q)
        summaries = {}
        for backend in ARRAY_BACKENDS:
            c = CostCounters(len(keys))
            out = hypercube_bitonic_sort(
                keys, backend=backend, descending=descending, counters=c
            )
            expected = sorted(keys.tolist(), reverse=descending)
            assert out.tolist() == expected, backend
            summaries[backend] = c.summary()
        for backend in ARRAY_BACKENDS:
            assert summaries[backend] == summaries["replay"], backend
        out, res = hypercube_bitonic_sort(
            keys, backend="engine", descending=descending
        )
        assert list(out) == sorted(keys.tolist(), reverse=descending)
        assert res.counters.summary() == summaries["replay"]


class TestTimelineMirroring:
    def test_all_array_backends_emit_identical_step_records(self, rng):
        # Step records depend only on the schedule, not on the values.
        dc = DualCube(3)
        recs = []
        for vals in (rng.integers(0, 100, dc.num_nodes),
                     np.arange(dc.num_nodes)):
            c = CostCounters(dc.num_nodes)
            tl = TimelineRecorder(num_nodes=dc.num_nodes)
            c.attach_timeline(tl)
            dual_prefix(dc, vals, ADD, counters=c)
            recs.append(tl.steps)
        assert recs[0] == recs[1]
        assert sum(r.kind == "comm" for r in recs[0]) == 2 * dc.n
