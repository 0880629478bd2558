"""Unit tests for :mod:`repro.obs`: collector semantics, exports, CLI.

The observer-neutrality properties (bit-identical algorithm outputs
and rows with tracing on/off) live in ``test_obs_neutrality.py``; this
file covers the tracing machinery itself plus the <2% disabled-path
overhead guard the nightly tier-1 run enforces.
"""

import json
import time

import pytest

import repro.obs as obs
from repro.obs.chrome import chrome_trace, write_chrome_trace
from repro.obs.cli import main as obs_main


class TestDisabledPath:
    def test_disabled_by_default(self):
        assert not obs.enabled()
        assert obs.active() is None

    def test_span_returns_shared_noop(self):
        first = obs.span("a")
        second = obs.span("b")
        assert first is second  # one shared singleton, zero allocation
        with first:
            pass

    def test_count_and_gauge_are_noops(self):
        obs.count("c", 5)
        obs.gauge("g", 7)
        assert not obs.enabled()

    def test_resolve_obs(self, monkeypatch):
        monkeypatch.delenv(obs.OBS_ENV, raising=False)
        assert obs.resolve_obs(None) is False
        assert obs.resolve_obs(True) is True
        assert obs.resolve_obs(False) is False
        for raw in ("1", "true", "YES", " on "):
            monkeypatch.setenv(obs.OBS_ENV, raw)
            assert obs.resolve_obs(None) is True
        monkeypatch.setenv(obs.OBS_ENV, "0")
        assert obs.resolve_obs(None) is False
        # Explicit argument beats the environment.
        monkeypatch.setenv(obs.OBS_ENV, "1")
        assert obs.resolve_obs(False) is False


class TestSpans:
    def test_nested_paths(self):
        with obs.collect() as col:
            with obs.span("outer"):
                with obs.span("inner"):
                    pass
                with obs.span("inner"):
                    pass
        table = col.span_table()
        assert set(table) == {"outer", "outer/inner"}
        assert table["outer"]["calls"] == 1
        assert table["outer/inner"]["calls"] == 2
        assert table["outer"]["wall_s"] >= table["outer/inner"]["wall_s"]

    def test_same_name_distinct_parents(self):
        with obs.collect() as col:
            with obs.span("p1"):
                with obs.span("leaf"):
                    pass
            with obs.span("p2"):
                with obs.span("leaf"):
                    pass
        assert set(col.span_table()) == {"p1", "p1/leaf", "p2", "p2/leaf"}

    def test_collect_restores_previous(self):
        assert obs.active() is None
        with obs.collect() as outer:
            assert obs.active() is outer
            with obs.collect() as inner:
                assert obs.active() is inner
                obs.count("x")
            assert obs.active() is outer
            obs.count("x")
        assert obs.active() is None
        assert outer.counters == {"x": 1}
        assert inner.counters == {"x": 1}

    def test_collect_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with obs.collect():
                raise RuntimeError("boom")
        assert obs.active() is None

    def test_span_aggregates_on_exception(self):
        with obs.collect() as col:
            with pytest.raises(ValueError):
                with obs.span("failing"):
                    raise ValueError("boom")
        assert col.span_table()["failing"]["calls"] == 1
        assert col.current_path() == ""  # stack unwound

    def test_events_count_instrumentation_hits(self):
        with obs.collect() as col:
            with obs.span("a"):
                obs.count("c")
                obs.gauge("g", 1)
        assert col.events == 3  # span exit + count + gauge

    def test_max_records_cap(self):
        with obs.collect(obs.Collector(max_records=3)) as col:
            for _ in range(10):
                with obs.span("s"):
                    pass
        assert len(col.records) == 3
        # The aggregate table still sees every call.
        assert col.span_table()["s"]["calls"] == 10


class TestCountersAndGauges:
    def test_counters_accumulate(self):
        with obs.collect() as col:
            obs.count("words", 3)
            obs.count("words", 4)
            obs.count("other")
        assert col.counter_table() == {"other": 1, "words": 7}

    def test_gauges_keep_last_and_peak(self):
        with obs.collect() as col:
            obs.gauge("load", 5)
            obs.gauge("load", 9)
            obs.gauge("load", 2)
        assert col.gauge_table() == {"load": {"last": 2, "max": 9}}

    def test_tables_are_sorted(self):
        with obs.collect() as col:
            obs.count("zeta")
            obs.count("alpha")
            with obs.span("z"):
                pass
            with obs.span("a"):
                pass
        assert list(col.counter_table()) == ["alpha", "zeta"]
        assert list(col.span_table()) == ["a", "z"]


class TestExportAbsorb:
    def _worker_export(self):
        worker = obs.Collector()
        with obs.collect(worker):
            with obs.span("attach"):
                pass
            worker.count("words", 10)
            worker.gauge("frontier", 6)
        return worker.export()

    def test_export_excludes_records(self):
        export = self._worker_export()
        assert set(export) == {"spans", "counters", "gauges", "events"}

    def test_absorb_under_current_path(self):
        export = self._worker_export()
        with obs.collect() as parent:
            with obs.span("csr.all_ball_sizes"):
                parent.absorb(export)
        table = parent.span_table()
        assert "csr.all_ball_sizes/attach" in table
        assert parent.counter_table()["words"] == 10

    def test_absorb_merges_two_workers(self):
        first, second = self._worker_export(), self._worker_export()
        parent = obs.Collector()
        parent.gauge("frontier", 9)  # parent peak survives worker merges
        parent.absorb(first, prefix="chunk")
        parent.absorb(second, prefix="chunk")
        assert parent.span_table()["chunk/attach"]["calls"] == 2
        assert parent.counter_table()["words"] == 20
        assert parent.gauge_table()["frontier"] == {"last": 6, "max": 9}
        assert parent.events == first["events"] + second["events"] + 1

    def test_absorb_none_is_noop(self):
        parent = obs.Collector()
        parent.absorb(None)
        assert parent.spans == {} and parent.counters == {}

    def test_export_roundtrips_through_json(self):
        export = self._worker_export()
        parent = obs.Collector()
        parent.absorb(json.loads(json.dumps(export)))
        assert parent.counter_table()["words"] == 10


class TestChromeTrace:
    def _traced(self):
        with obs.collect() as col:
            with obs.span("trial.ldd"):
                with obs.span("estimate_nv"):
                    pass
        return col

    def test_document_shape(self):
        doc = chrome_trace(self._traced(), process_name="unit")
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        meta, spans = events[0], events[1:]
        assert meta["ph"] == "M" and meta["args"]["name"] == "unit"
        assert {e["ph"] for e in spans} == {"X"}
        by_path = {e["args"]["path"]: e for e in spans}
        assert set(by_path) == {"trial.ldd", "trial.ldd/estimate_nv"}
        # Leaf name for display; full path in args.
        assert by_path["trial.ldd/estimate_nv"]["name"] == "estimate_nv"
        # The child nests inside the parent on the timeline.
        parent = by_path["trial.ldd"]
        child = by_path["trial.ldd/estimate_nv"]
        assert parent["ts"] <= child["ts"]
        assert child["ts"] + child["dur"] <= parent["ts"] + parent["dur"] + 1e-3

    def test_written_file_is_valid_json(self, tmp_path):
        out = tmp_path / "trace.json"
        write_chrome_trace(self._traced(), str(out))
        doc = json.loads(out.read_text())
        assert isinstance(doc["traceEvents"], list)
        assert len(doc["traceEvents"]) == 3


class TestCli:
    def test_trace_writes_perfetto_loadable_json(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        rc = obs_main(
            [
                "trace",
                "ldd-quality",
                "--set",
                "family=grid-10x10",
                "--set",
                "eps=0.3",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        events = doc["traceEvents"]
        assert events[0]["ph"] == "M"
        paths = {e["args"]["path"] for e in events if e["ph"] == "X"}
        assert "trial.ldd" in paths
        assert any(p.startswith("trial.ldd/") for p in paths)
        stdout = capsys.readouterr().out
        assert "trial.ldd" in stdout and "chrome trace written" in stdout

    def test_trace_unknown_scenario_exits_2(self, capsys):
        assert obs_main(["trace", "no-such-scenario"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_trace_point_out_of_range_exits_2(self, capsys):
        rc = obs_main(
            ["trace", "ldd-quality", "--set", "family=grid-10x10", "--point", "99"]
        )
        assert rc == 2

    def test_summarize_missing_store_exits_2(self, tmp_path, capsys):
        assert obs_main(["summarize", "--store", str(tmp_path / "nope")]) == 2

    def test_summarize_untraced_store_writes_nothing(self, tmp_path, capsys):
        from repro.exp.runner import run_scenario
        from repro.exp.store import ResultStore

        store_dir = tmp_path / "results"
        run_scenario(
            "ldd-quality",
            store=ResultStore(store_dir),
            trials=1,
            max_points=1,
            overrides={"family": ["grid-10x10"], "eps": [0.3]},
            obs=False,
        )
        assert obs_main(["summarize", "--store", str(store_dir)]) == 0
        assert list(store_dir.glob("OBS_*.json")) == []
        assert "nothing to summarize" in capsys.readouterr().out

    def test_summarize_traced_store(self, tmp_path, capsys):
        from repro.exp.runner import run_scenario
        from repro.exp.store import ResultStore

        store_dir = tmp_path / "results"
        run_scenario(
            "ldd-quality",
            store=ResultStore(store_dir),
            trials=2,
            max_points=1,
            overrides={"family": ["grid-10x10"], "eps": [0.3]},
            obs=True,
        )
        assert obs_main(["summarize", "--store", str(store_dir)]) == 0
        out_path = store_dir / "OBS_ldd-quality.json"
        doc = json.loads(out_path.read_text())
        assert doc["scenario"] == "ldd-quality"
        (point,) = doc["points"]
        assert point["spans"]["trial.ldd"]["rows"] == 2
        assert point["spans"]["trial.ldd"]["wall_s_mean"] > 0
        assert "counters" in point
        # Byte-stable: rewriting the same store reproduces the file.
        before = out_path.read_bytes()
        assert obs_main(["summarize", "--store", str(store_dir)]) == 0
        assert out_path.read_bytes() == before


class TestOverheadGuard:
    """Tier-1 guard: disabled tracing adds <2% to kernel-speed's LDD.

    Directly timing two runs of the scenario is noise-bound in CI, so
    the guard is computed: a traced run counts the instrumentation
    hits (``Collector.events``), a microbenchmark prices the disabled
    per-hit cost (one module-global ``None`` check), and the product
    must sit under 2% of the untraced wall time.  The margin is
    typically >30x, so the assertion stays robust on loaded runners.
    """

    def test_disabled_overhead_under_two_percent(self):
        from repro.core import low_diameter_decomposition
        from repro.graphs import grid_graph

        graph = grid_graph(40, 40)

        def run_ldd():
            return low_diameter_decomposition(graph, eps=0.3, seed=0)

        run_ldd()  # warm caches outside both measurements
        with obs.collect() as col:
            run_ldd()
        events = col.events
        assert events > 0, "kernel-speed LDD path is instrumented"

        start = time.perf_counter()
        run_ldd()
        untraced_wall = time.perf_counter() - start

        # Price one disabled instrumentation hit (span enter+exit is
        # the most expensive flavour; count/gauge are one call each).
        reps = 100_000
        start = time.perf_counter()
        for _ in range(reps):
            with obs.span("x"):
                pass
        span_cost = (time.perf_counter() - start) / reps
        start = time.perf_counter()
        for _ in range(reps):
            obs.count("x")
        count_cost = (time.perf_counter() - start) / reps
        per_hit = max(span_cost, count_cost)

        projected = events * per_hit
        assert projected < 0.02 * untraced_wall, (
            f"projected disabled-tracing overhead {projected:.6f}s "
            f"({events} hits x {per_hit * 1e9:.0f}ns) exceeds 2% of "
            f"the untraced wall {untraced_wall:.6f}s"
        )
