"""Compiled-trace correctness: representation, store, and equivalence.

The load-bearing guarantee of the trace compilation layer is that the
native loop over a compiled trace is *byte-identical* to the
per-instruction reference interpreter over the generator trace — every
benchmark, every clocking mode, every execution backend.  These tests
pin that, plus the columnar representation itself and the on-disk
store.  Tests that run a core over a compiled trace need the native
loop and skip without it.
"""

from dataclasses import asdict

import numpy as np
import pytest

from repro.config.algorithm import SCALED_OPERATING_POINT
from repro.config.processor import ProcessorConfig
from repro.control.attack_decay import AttackDecayController
from repro.errors import SimulationError
from repro.metrics.summary import summarize
from repro.sim.engine import (
    SimulationSpec,
    compiled_trace_for,
    run_spec,
    scaled_mcd_config,
)
from repro.uarch import native
from repro.uarch.compiled_trace import (
    TraceStore,
    compile_trace,
    from_columns,
    trace_columns,
)
from repro.uarch.core import CoreOptions, MCDCore
from repro.workloads.catalog import BENCHMARKS, get_benchmark

LINE_SHIFT = ProcessorConfig().line_bytes.bit_length() - 1
SCALE = 0.05


def _warmed_core(trace, bench, mcd=True, controller=True, record=False):
    options = CoreOptions(
        mcd=mcd,
        seed=2,
        interval_instructions=bench.interval_instructions,
        record_interval_trace=record,
    )
    core = MCDCore(
        processor=ProcessorConfig(),
        mcd_config=scaled_mcd_config(),
        trace=trace,
        controller=AttackDecayController(SCALED_OPERATING_POINT)
        if controller
        else None,
        options=options,
    )
    core.warm_up(trace, limit=trace.total_instructions)
    return core


def _run(trace, bench, **kwargs):
    return _warmed_core(trace, bench, **kwargs).run()


def _uarch_state(core):
    """The state warm-up and the native writeback own: caches, predictor, BTB."""
    hierarchy, predictor = core.hierarchy, core.predictor
    return (
        hierarchy.l1i._sets,
        hierarchy.l1d._sets,
        hierarchy.l2._sets,
        predictor._history,
        predictor._l2,
        predictor._bimodal,
        predictor._meta,
        predictor.btb._table,
    )


needs_native = pytest.mark.skipif(
    native.load_hotpath() is None, reason="no native loop"
)

#: Cache/predictor geometries the warm-up differential covers.
GEOMETRIES = {
    "default": ProcessorConfig(),
    "32B_lines_assoc": ProcessorConfig(
        line_bytes=32, l1d_ways=4, l2_ways=2, btb_ways=4
    ),
}


# ---------------------------------------------------------------- columns
class TestRepresentation:
    def test_columns_match_blocks(self):
        trace = get_benchmark("epic").build_trace(scale=SCALE)
        kinds, src1, src2, pcs, addrs, taken, targets = trace_columns(trace)
        flat = {"kinds": [], "src1": [], "pcs": [], "addrs": [], "taken": [], "targets": []}
        for block in trace.blocks():
            flat["kinds"] += block.kinds
            flat["src1"] += block.src1
            flat["pcs"] += block.pcs
            flat["addrs"] += block.addrs
            flat["taken"] += block.taken
            flat["targets"] += block.targets
        assert kinds.tolist() == flat["kinds"]
        assert src1.tolist() == flat["src1"]
        assert pcs.tolist() == flat["pcs"]
        assert addrs.tolist() == flat["addrs"]
        assert [bool(x) for x in taken.tolist()] == flat["taken"]
        assert targets.tolist() == flat["targets"]

    def test_compiled_trace_covers_the_stream(self):
        trace = get_benchmark("adpcm").build_trace(scale=SCALE)
        compiled = compile_trace(trace, LINE_SHIFT)
        assert compiled.total_instructions == trace.total_instructions
        assert compiled.__slots__ == ("n", "line_shift", "arrays")
        for column in compiled.arrays.values():
            assert column.dtype == np.int64 and len(column) == compiled.n

    def test_newline_marks_fetch_line_changes(self):
        trace = get_benchmark("adpcm").build_trace(scale=SCALE)
        compiled = compile_trace(trace, LINE_SHIFT)
        lines = [pc >> LINE_SHIFT for pc in compiled.arrays["pcs"].tolist()]
        expect = [1] + [int(lines[i] != lines[i - 1]) for i in range(1, compiled.n)]
        assert compiled.arrays["newline"].tolist() == expect

    def test_templates_resolve_dependencies(self):
        trace = get_benchmark("gsm").build_trace(scale=SCALE)
        _, src1, src2, _, _, _, _ = trace_columns(trace)
        compiled = compile_trace(trace, LINE_SHIFT)
        p1 = compiled.arrays["p1"].tolist()
        p2 = compiled.arrays["p2"].tolist()
        resolved = 0
        for i in range(compiled.n):
            seq = i + 1
            s1, s2 = int(src1[i]), int(src2[i])
            assert p1[i] == (seq - s1 if 0 < s1 <= i else 0)
            assert p2[i] == (seq - s2 if 0 < s2 <= i else 0)
            resolved += bool(p1[i]) + bool(p2[i])
        assert resolved, "the trace should carry register dependencies"

    def test_columns_are_read_only(self):
        columns = trace_columns(get_benchmark("adpcm").build_trace(scale=SCALE))
        compiled = from_columns(columns, LINE_SHIFT)
        for column in compiled.arrays.values():
            with pytest.raises(ValueError, match="read-only"):
                column[0] = column[0]
        # Freezing the trace's views leaves the caller's arrays writable.
        assert all(column.flags.writeable for column in columns)

    @needs_native
    @pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
    @pytest.mark.parametrize("name", sorted(BENCHMARKS))
    def test_warm_up_leaves_identical_state_on_both_trace_forms(self, name, geometry):
        processor = GEOMETRIES[geometry]
        trace = get_benchmark(name).build_trace(scale=SCALE)
        compiled = compile_trace(trace, processor.line_bytes.bit_length() - 1)
        n = compiled.n
        for limit in (-1, 0, 1, n // 2, n, n + 10):
            states = []
            for form in (trace, compiled):
                core = MCDCore(processor, scaled_mcd_config(), form)
                assert core.warm_up(form, limit=limit) == max(0, min(limit, n))
                states.append(_uarch_state(core))
            assert states[0] == states[1], f"limit={limit}"

    def test_line_shift_mismatch_rejected(self):
        trace = get_benchmark("adpcm").build_trace(scale=SCALE)
        compiled = compile_trace(trace, LINE_SHIFT + 1)
        with pytest.raises(SimulationError):
            MCDCore(ProcessorConfig(), scaled_mcd_config(), compiled)


# ------------------------------------------------------------------ store
class TestTraceStore:
    def test_round_trip(self, tmp_path):
        store = TraceStore(tmp_path)
        trace = get_benchmark("epic").build_trace(scale=SCALE)
        columns = trace_columns(trace)
        key = store.key({"benchmark": "epic", "scale": SCALE})
        assert store.load(key, LINE_SHIFT) is None
        store.store(key, columns)
        loaded = store.load(key, LINE_SHIFT)
        fresh = compile_trace(trace, LINE_SHIFT)
        assert loaded.arrays.keys() == fresh.arrays.keys()
        for name in ("kinds", "pcs", "addrs", "taken", "newline", "p1", "p2"):
            assert np.array_equal(loaded.arrays[name], fresh.arrays[name]), name

    def test_disabled_store_misses(self, tmp_path):
        store = TraceStore(tmp_path, enabled=False)
        columns = trace_columns(get_benchmark("adpcm").build_trace(scale=SCALE))
        key = store.key({"x": 1})
        store.store(key, columns)
        assert store.load(key, LINE_SHIFT) is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        store = TraceStore(tmp_path)
        key = store.key({"x": 2})
        (tmp_path / f"{key}.npz").write_bytes(b"not an npz")
        assert store.load(key, LINE_SHIFT) is None

    def test_keys_separate_identities(self):
        store = TraceStore()
        a = store.key({"benchmark": "epic", "scale": 1.0})
        b = store.key({"benchmark": "epic", "scale": 0.5})
        assert a != b


class TestTraceStoreCorruption:
    """Injected on-disk damage must mean recompute, never a crash.

    A truncated ``.npz`` raises ``zipfile.BadZipFile`` (not OSError)
    from ``np.load`` — the exact failure a killed orchestrator worker
    or full disk leaves behind — so these tests damage real entries in
    every representative way and assert the store falls back to a miss
    and the engine regenerates identical results.
    """

    def _stored(self, tmp_path):
        store = TraceStore(tmp_path)
        columns = trace_columns(get_benchmark("adpcm").build_trace(scale=SCALE))
        key = store.key({"benchmark": "adpcm", "scale": SCALE})
        store.store(key, columns)
        return store, key, tmp_path / f"{key}.npz"

    def test_truncated_entry_is_a_miss(self, tmp_path):
        store, key, path = self._stored(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        assert store.load(key, LINE_SHIFT) is None

    def test_tail_truncated_entry_is_a_miss(self, tmp_path):
        # Cut inside the zip central directory rather than a member.
        store, key, path = self._stored(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[:-20])
        assert store.load(key, LINE_SHIFT) is None

    def test_bitflipped_entry_is_a_miss_or_loads(self, tmp_path):
        # Flipping bytes mid-archive corrupts a member's zlib stream.
        store, key, path = self._stored(tmp_path)
        data = bytearray(path.read_bytes())
        mid = len(data) // 2
        for i in range(mid, mid + 64):
            data[i] ^= 0xFF
        path.write_bytes(bytes(data))
        store.load(key, LINE_SHIFT)  # must not raise

    def test_missing_column_is_a_miss(self, tmp_path):
        import numpy as np

        store, key, path = self._stored(tmp_path)
        with np.load(path) as data:
            partial = {k: data[k] for k in list(data.files)[:-1]}
        np.savez(path, **partial)
        assert store.load(key, LINE_SHIFT) is None

    def test_mismatched_lengths_are_a_miss(self, tmp_path):
        import numpy as np

        store, key, path = self._stored(tmp_path)
        with np.load(path) as data:
            damaged = {k: data[k] for k in data.files}
        damaged["pcs"] = damaged["pcs"][:-5]
        np.savez(path, **damaged)
        assert store.load(key, LINE_SHIFT) is None

    def test_empty_file_is_a_miss(self, tmp_path):
        store, key, path = self._stored(tmp_path)
        path.write_bytes(b"")
        assert store.load(key, LINE_SHIFT) is None

    @needs_native
    def test_engine_recomputes_through_corruption(self, tmp_path, monkeypatch):
        """End to end: corrupt the shared store entry, run_spec still works."""
        import repro.sim.engine as engine

        store = TraceStore(tmp_path)
        monkeypatch.setattr(engine, "_TRACE_STORE", store)
        monkeypatch.setattr(engine, "_TRACE_MEMO", type(engine._TRACE_MEMO)())
        spec = SimulationSpec(benchmark="adpcm", scale=SCALE, seed=2)
        first = summarize(run_spec(spec))
        entries = list(tmp_path.glob("*.npz"))
        assert entries, "run should have populated the store"
        for entry in entries:
            data = entry.read_bytes()
            entry.write_bytes(data[: len(data) // 3])
        monkeypatch.setattr(engine, "_TRACE_MEMO", type(engine._TRACE_MEMO)())
        again = summarize(run_spec(spec))
        assert again == first


class TestResultCacheCorruption:
    """CacheStore: binary garbage and truncation are misses, not crashes."""

    def test_binary_garbage_is_a_miss(self, tmp_path):
        from repro.experiments.cache import CacheStore

        store = CacheStore(tmp_path)
        key = store.key({"x": 1})
        store.store(key, {"value": 42})
        (tmp_path / f"{key}.json").write_bytes(b"\xff\xfe\x00garbage\x80")
        assert store.load(key) is None

    def test_truncated_json_is_a_miss(self, tmp_path):
        from repro.experiments.cache import CacheStore

        store = CacheStore(tmp_path)
        key = store.key({"x": 2})
        store.store(key, {"value": [1, 2, 3]})
        path = tmp_path / f"{key}.json"
        path.write_text(path.read_text()[:10])
        assert store.load(key) is None

    def test_wrong_shape_is_a_miss(self, tmp_path):
        from repro.experiments.cache import CacheStore

        store = CacheStore(tmp_path)
        key = store.key({"x": 3})
        (tmp_path / f"{key}.json").write_text("[1, 2, 3]")
        assert store.load(key) is None


# ------------------------------------------------------------ equivalence
@needs_native
class TestEquivalence:
    """Native and reference interpreters produce identical CoreResults."""

    @pytest.mark.parametrize("name", sorted(BENCHMARKS))
    def test_catalog_identical(self, name):
        bench = get_benchmark(name)
        trace = bench.build_trace(scale=SCALE)
        compiled = compile_trace(trace, LINE_SHIFT)
        reference = _run(trace, bench, record=True)
        fast = _run(compiled, bench, record=True)
        assert asdict(fast) == asdict(reference)

    def test_native_run_over_frozen_trace_matches_reference(self):
        bench = get_benchmark("mcf")
        trace = bench.build_trace(scale=SCALE)
        compiled = compile_trace(trace, LINE_SHIFT)
        assert not any(c.flags.writeable for c in compiled.arrays.values())
        assert asdict(_run(compiled, bench)) == asdict(_run(trace, bench))

    def test_synchronous_baseline_identical(self):
        bench = get_benchmark("gcc")
        trace = bench.build_trace(scale=SCALE)
        compiled = compile_trace(trace, LINE_SHIFT)
        reference = _run(trace, bench, mcd=False)
        assert asdict(_run(compiled, bench, mcd=False)) == asdict(reference)

    def test_no_controller_identical(self):
        bench = get_benchmark("swim")
        trace = bench.build_trace(scale=SCALE)
        compiled = compile_trace(trace, LINE_SHIFT)
        reference = _run(trace, bench, controller=False)
        assert asdict(_run(compiled, bench, controller=False)) == asdict(reference)

    @pytest.mark.parametrize(
        "controller", [True, False], ids=["in_c_attack_decay", "no_controller"]
    )
    @pytest.mark.parametrize("name", ["gcc", "mcf", "swim"])
    def test_post_run_state_identical(self, name, controller):
        """The writeback leaves caches, predictor and BTB as the reference does."""
        bench = get_benchmark(name)
        trace = bench.build_trace(scale=SCALE)
        compiled = compile_trace(trace, LINE_SHIFT)
        states = []
        for form in (trace, compiled):
            core = _warmed_core(form, bench, controller=controller)
            core.run()
            states.append(_uarch_state(core))
        assert states[0] == states[1]

    @pytest.mark.parametrize(
        "configuration",
        ["sync", "mcd_base", "attack_decay", "global@725.000"],
    )
    def test_registered_configurations_identical(self, configuration):
        from dataclasses import replace

        from repro.experiments import CONFIGURATIONS
        from repro.experiments.executor import ExecutionContext

        factory, parsed = CONFIGURATIONS.resolve(configuration)
        context = ExecutionContext(scale=SCALE, use_cache=False)
        spec = factory(context, "epic", scale=SCALE, seed=1, **parsed)
        assert isinstance(spec, SimulationSpec)
        fast = summarize(run_spec(replace(spec, path="native"))).to_dict()
        reference = summarize(run_spec(replace(spec, path="python"))).to_dict()
        assert fast == reference


# ------------------------------------------------------------- engine glue
class TestCompiledTraceFor:
    def test_memoised_within_process(self):
        bench = get_benchmark("adpcm")
        a = compiled_trace_for(bench, scale=SCALE, line_shift=LINE_SHIFT)
        b = compiled_trace_for(bench, scale=SCALE, line_shift=LINE_SHIFT)
        assert a is b

    @needs_native
    def test_seeds_share_one_trace(self):
        """The seed moves clocks and jitter only, never the trace."""
        from repro.sim.engine import _build_core

        traces = [
            _build_core(SimulationSpec(benchmark="adpcm", scale=SCALE, seed=seed))[1]
            for seed in (1, 2)
        ]
        assert traces[0] is traces[1]

    def test_run_spec_uses_compiled_by_default(self):
        fast = run_spec(SimulationSpec(benchmark="adpcm", scale=SCALE))
        reference = run_spec(
            SimulationSpec(benchmark="adpcm", scale=SCALE, path="python")
        )
        assert asdict(fast) == asdict(reference)
