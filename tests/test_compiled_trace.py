"""Compiled-trace correctness: representation, store, and equivalence.

The load-bearing guarantee of the trace compilation layer is that the
native loop over a compiled trace is *byte-identical* to the
per-instruction reference interpreter over the generator trace — every
benchmark, every clocking mode, every execution backend.  These tests
pin that, plus the columnar representation itself and the on-disk
store.  Tests that run a core over a compiled trace need the native
loop and skip without it.
"""

import logging
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.algorithm import SCALED_OPERATING_POINT
from repro.config.processor import ProcessorConfig
from repro.control.attack_decay import AttackDecayController
from repro.errors import TraceError
from repro.metrics.summary import summarize
from repro.sim.engine import (
    SimulationSpec,
    TraceCache,
    compiled_trace_for,
    run_spec,
    scaled_mcd_config,
)
from repro.uarch import native
from repro.uarch.compiled_trace import (
    COLUMNS,
    TraceStore,
    compile_trace,
    from_columns,
    trace_columns,
)
from repro.uarch.core import CoreOptions, MCDCore
from repro.uarch.isa import NUM_CLASSES
from repro.uarch.trace import MAX_DEP_DISTANCE
from repro.workloads.catalog import BENCHMARKS, get_benchmark

SCALE = 0.05


def _warmed_core(
    trace, bench, mcd=True, controller=True, record=False, processor=None
):
    options = CoreOptions(
        mcd=mcd,
        seed=2,
        interval_instructions=bench.interval_instructions,
        record_interval_trace=record,
    )
    core = MCDCore(
        processor=processor or ProcessorConfig(),
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
    """The state warm-up and the native loop update in place: caches, predictor, BTB."""
    l1i, l1d, l2 = core.hierarchy.l1i, core.hierarchy.l1d, core.hierarchy.l2
    predictor = core.predictor
    btb = predictor.btb
    return (
        (l1i.tags, l1i.counts, l1d.tags, l1d.counts, l2.tags, l2.counts),
        (btb.tags, btb.targets, btb.counts),
        (predictor.history, predictor.pattern, predictor.bimodal, predictor.meta),
    )


class SwingController:
    """Snaps every domain between 1 GHz and 250 MHz, domain by domain."""

    instantaneous = True

    def begin(self, config, initial_mhz):
        self.count = 0

    def on_interval(self, snapshot):
        self.count += 1
        return {
            domain: 250.0 if (self.count + i) % 3 else 1000.0
            for i, domain in enumerate(snapshot.frequencies_mhz)
        }


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

    def test_compiled_trace_is_the_seven_narrow_columns(self):
        trace = get_benchmark("adpcm").build_trace(scale=SCALE)
        compiled = compile_trace(trace)
        assert compiled.total_instructions == trace.total_instructions
        assert list(compiled.arrays) == [name for name, _, _, _ in COLUMNS]
        for name, dtype, _, _ in COLUMNS:
            column = compiled.arrays[name]
            assert column.dtype == dtype and len(column) == compiled.n, name
        total = sum(column.nbytes for column in compiled.arrays.values())
        assert total == 22 * compiled.n

    def test_block_and_column_paths_agree(self):
        """trace_columns narrows a block-only stream like a columns() one."""
        from repro.uarch.trace import InstructionBlock, ListTrace

        trace = get_benchmark("gsm").build_trace(scale=SCALE)
        by_blocks = trace_columns(ListTrace([InstructionBlock(), *trace.blocks()]))
        for (name, dtype, _, _), ours, theirs in zip(
            COLUMNS, by_blocks, trace_columns(trace)
        ):
            assert ours.dtype == theirs.dtype == dtype, name
            assert np.array_equal(ours, theirs), name

    def test_native_constants_match_the_trace_format(self):
        hotpath = native.load_hotpath()
        if hotpath is None:
            pytest.skip("no native loop")
        assert hotpath.NUM_CLASSES == NUM_CLASSES
        assert hotpath.MAX_DEP_DISTANCE == MAX_DEP_DISTANCE

    def test_columns_are_read_only(self):
        columns = trace_columns(get_benchmark("adpcm").build_trace(scale=SCALE))
        compiled = from_columns(columns)
        for column in compiled.arrays.values():
            with pytest.raises(ValueError, match="read-only"):
                column[0] = column[0]
        # Freezing the trace's views leaves the caller's arrays writable.
        assert all(column.flags.writeable for column in columns)
        # Columns already in their dtypes are not copied.
        for name, column in zip(compiled.arrays, columns):
            assert np.shares_memory(compiled.arrays[name], column), name

    @needs_native
    @pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
    @pytest.mark.parametrize("name", sorted(BENCHMARKS))
    def test_warm_up_leaves_identical_state_on_both_trace_forms(self, name, geometry):
        processor = GEOMETRIES[geometry]
        trace = get_benchmark(name).build_trace(scale=SCALE)
        compiled = compile_trace(trace)
        n = compiled.n
        for limit in (-1, 0, 1, n // 2, n, n + 10):
            states = []
            for form in (trace, compiled):
                core = MCDCore(processor, scaled_mcd_config(), form)
                assert core.warm_up(form, limit=limit) == max(0, min(limit, n))
                states.append(_uarch_state(core))
            assert states[0] == states[1], f"limit={limit}"


# ----------------------------------------------------------- range checks
def _holds(dtype, values):
    info = np.iinfo(dtype)
    return all(info.min <= v <= info.max for v in values)


class TestRangeChecks:
    """from_columns narrows in-range columns exactly and never wraps."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_from_columns_checks_every_column(self, data):
        n = data.draw(st.integers(1, 6), label="n")
        bad = data.draw(st.sampled_from([None, *range(len(COLUMNS))]), label="bad")
        columns, expected = [], []
        for index, (name, dtype, low, high) in enumerate(COLUMNS):
            values = data.draw(
                st.lists(st.integers(low, high), min_size=n, max_size=n), label=name
            )
            if index == bad:
                at = data.draw(st.integers(0, n - 1))
                values[at] = data.draw(st.sampled_from([low - 1, high + 1]))
            candidates = [dtype, np.dtype(np.int64), np.dtype(np.uint64)]
            wide = data.draw(st.sampled_from(candidates))
            if not _holds(wide, values):
                wide = next(c for c in candidates[1:] if _holds(c, values))
            columns.append(np.array(values, dtype=wide))
            expected.append(values)
        if bad is None:
            compiled = from_columns(tuple(columns))
            for (name, dtype, _, _), values in zip(COLUMNS, expected):
                assert compiled.arrays[name].dtype == dtype
                assert compiled.arrays[name].tolist() == values
        else:
            with pytest.raises(TraceError, match=rf"column {COLUMNS[bad][0]} "):
                from_columns(tuple(columns))

    def test_non_integer_column_rejected(self):
        columns = list(trace_columns(get_benchmark("adpcm").build_trace(scale=SCALE)))
        columns[3] = columns[3].astype(np.float64)
        with pytest.raises(TraceError, match="column pcs has dtype float64"):
            from_columns(tuple(columns))

    def test_mismatched_lengths_rejected(self):
        columns = list(trace_columns(get_benchmark("adpcm").build_trace(scale=SCALE)))
        columns[2] = columns[2][:-1]
        with pytest.raises(TraceError, match="mismatched lengths"):
            from_columns(tuple(columns))


# ----------------------------------------------------- one trace, any lines
@needs_native
class TestOneTraceEveryGeometry:
    """One compiled trace runs under every cache-line size.

    No column depends on the line size, so a single ``CompiledTrace``
    object, resolved once through the process-wide trace cache, must
    reproduce the reference interpreter at 32-, 64- and 128-byte lines.
    """

    @pytest.mark.parametrize(
        "controller", [False, True], ids=["no_controller", "attack_decay"]
    )
    @pytest.mark.parametrize("name", ["gcc", "mcf", "swim"])
    def test_one_trace_matches_reference_at_every_line_size(
        self, name, controller, monkeypatch
    ):
        import repro.sim.engine as engine

        memo = TraceCache()
        monkeypatch.setattr(engine, "_TRACE_MEMO", memo)
        bench = get_benchmark(name)
        trace = bench.build_trace(scale=SCALE)
        compiled = compiled_trace_for(bench, scale=SCALE)
        for line_bytes in (32, 64, 128):
            processor = ProcessorConfig(line_bytes=line_bytes)
            assert compiled_trace_for(bench, scale=SCALE) is compiled
            runs = []
            for form in (trace, compiled):
                core = _warmed_core(
                    form, bench, controller=controller, processor=processor
                )
                result = core.run()
                runs.append(
                    (asdict(result), summarize(result).to_dict(), _uarch_state(core))
                )
            assert runs[1] == runs[0], f"{line_bytes}-byte lines"
        assert len(memo._items) == 1 and memo.misses == 1


# ------------------------------------------------------------------ store
class TestTraceStore:
    def test_round_trip(self, tmp_path):
        store = TraceStore(tmp_path)
        trace = get_benchmark("epic").build_trace(scale=SCALE)
        key = store.key({"benchmark": "epic", "scale": SCALE})
        assert store.load(key) is None
        fresh = compile_trace(trace)
        store.store(key, fresh)
        loaded = store.load(key)
        assert loaded.arrays.keys() == fresh.arrays.keys()
        for name, column in fresh.arrays.items():
            assert loaded.arrays[name].dtype == column.dtype, name
            assert np.array_equal(loaded.arrays[name], column), name

    def test_disabled_store_misses(self, tmp_path):
        store = TraceStore(tmp_path, enabled=False)
        compiled = compile_trace(get_benchmark("adpcm").build_trace(scale=SCALE))
        key = store.key({"x": 1})
        store.store(key, compiled)
        assert store.load(key) is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        store = TraceStore(tmp_path)
        key = store.key({"x": 2})
        (tmp_path / f"{key}.npz").write_bytes(b"not an npz")
        assert store.load(key) is None

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
        compiled = compile_trace(get_benchmark("adpcm").build_trace(scale=SCALE))
        key = store.key({"benchmark": "adpcm", "scale": SCALE})
        store.store(key, compiled)
        return store, key, tmp_path / f"{key}.npz"

    def test_truncated_entry_is_a_miss(self, tmp_path):
        store, key, path = self._stored(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        assert store.load(key) is None

    def test_tail_truncated_entry_is_a_miss(self, tmp_path):
        # Cut inside the zip central directory rather than a member.
        store, key, path = self._stored(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[:-20])
        assert store.load(key) is None

    def test_bitflipped_entry_is_a_miss_or_loads(self, tmp_path):
        # Flipping bytes mid-archive corrupts a member's zlib stream.
        store, key, path = self._stored(tmp_path)
        data = bytearray(path.read_bytes())
        mid = len(data) // 2
        for i in range(mid, mid + 64):
            data[i] ^= 0xFF
        path.write_bytes(bytes(data))
        store.load(key)  # must not raise

    def test_missing_column_is_a_miss(self, tmp_path):
        import numpy as np

        store, key, path = self._stored(tmp_path)
        with np.load(path) as data:
            partial = {k: data[k] for k in list(data.files)[:-1]}
        np.savez(path, **partial)
        assert store.load(key) is None

    def test_mismatched_lengths_are_a_miss(self, tmp_path):
        import numpy as np

        store, key, path = self._stored(tmp_path)
        with np.load(path) as data:
            damaged = {k: data[k] for k in data.files}
        damaged["pcs"] = damaged["pcs"][:-5]
        np.savez(path, **damaged)
        assert store.load(key) is None

    @pytest.mark.parametrize(
        "name, value",
        [("kinds", 200), ("src1", MAX_DEP_DISTANCE + 1), ("pcs", 2**40), ("addrs", -8)],
    )
    def test_out_of_range_value_is_a_logged_miss(self, tmp_path, caplog, name, value):
        store, key, path = self._stored(tmp_path)
        with np.load(path) as data:
            damaged = {k: data[k] for k in data.files}
        column = damaged[name].astype(np.int64)
        column[7] = value
        damaged[name] = column
        np.savez(path, **damaged)
        with caplog.at_level(logging.WARNING, logger="repro.uarch.compiled_trace"):
            assert store.load(key) is None
        assert f"column {name} " in caplog.text

    def test_empty_file_is_a_miss(self, tmp_path):
        store, key, path = self._stored(tmp_path)
        path.write_bytes(b"")
        assert store.load(key) is None

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
        compiled = compile_trace(trace)
        reference = _run(trace, bench, record=True)
        fast = _run(compiled, bench, record=True)
        assert asdict(fast) == asdict(reference)

    def test_native_run_over_frozen_trace_matches_reference(self):
        bench = get_benchmark("mcf")
        trace = bench.build_trace(scale=SCALE)
        compiled = compile_trace(trace)
        assert not any(c.flags.writeable for c in compiled.arrays.values())
        assert asdict(_run(compiled, bench)) == asdict(_run(trace, bench))

    def test_synchronous_baseline_identical(self):
        bench = get_benchmark("gcc")
        trace = bench.build_trace(scale=SCALE)
        compiled = compile_trace(trace)
        reference = _run(trace, bench, mcd=False)
        assert asdict(_run(compiled, bench, mcd=False)) == asdict(reference)

    @pytest.mark.parametrize("name", ["gcc", "mcf", "swim", "epic"])
    def test_synchronous_frequency_swings_identical(self, name):
        """Instantaneous 4x frequency swings move the synchronous baseline's
        crossing threshold (half a period) between two edges of a domain."""
        bench = get_benchmark(name)
        trace = bench.build_trace(scale=SCALE)
        compiled = compile_trace(trace)
        results = []
        for form in (trace, compiled):
            core = _warmed_core(form, bench, mcd=False, controller=False)
            core.controller = SwingController()
            results.append(asdict(core.run()))
        assert results[1] == results[0]

    def test_no_controller_identical(self):
        bench = get_benchmark("swim")
        trace = bench.build_trace(scale=SCALE)
        compiled = compile_trace(trace)
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
        compiled = compile_trace(trace)
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
        a = compiled_trace_for(bench, scale=SCALE)
        b = compiled_trace_for(bench, scale=SCALE)
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
