"""The input-keyed ``collect`` stage: warm runs simulate nothing.

Trace collection is keyed by the simulation's inputs (driver key, cycle
budget, simulator salt), so a warm ``repro design``, a threshold edit
and a restarted daemon answer from the cache directory without running
the platform simulator -- asserted through
:data:`~repro.platform.SIMULATION_COUNTER`. The golden digests below
guard the other direction: a change that moves a simulated trace must
bump :data:`~repro.pipeline.collect.SIMULATOR_SALT`, or an old entry
would answer for the new simulator.
"""

import pytest

from repro.apps import build_application
from repro.apps.descriptor import Application
from repro.cli import main
from repro.exec.cache import ResultCache
from repro.exec.fingerprint import trace_fingerprint
from repro.obs.metrics import REGISTRY
from repro.pipeline import ArtifactStore, CollectStage
from repro.pipeline import collect as collect_module
from repro.pipeline.collect import SIMULATOR_SALT, collect_key
from repro.pipeline.store import stage_tables
from repro.platform import SIMULATION_COUNTER
from repro.server import SynthesisService

GOLDEN_TRACE_DIGESTS = {
    "qsort": "3d719c956b59d63d361dbadd6da8fa5685bb21cc4ffd95e48854326511abacc8",
    "mat1": "fc3dd8f4635d9c6897c99a2ae39221944ceac3557bf3f681c846066513f2e98b",
    "mat2": "39955faa2bad5b08ea0769f451c66daa1186883d439d8c1bb3718ef731d27583",
    "fft": "6321a2286ac711aef1d08c383f92679649dd5df64cd939c62684e1e40ffcdb63",
    "des": "79019ca0efdc190e2554ab0188eac7d36b676d5b40b790de0a8b724dd7371398",
}
"""``trace_fingerprint`` of each default app's full-crossbar trace at
``SIMULATOR_SALT == 1`` and ``CACHE_SCHEMA_VERSION == 2`` (the columnar
digest: header, stream table, canonical matrix as little-endian int64)."""


def collector_at(path):
    return CollectStage(ArtifactStore(disk=ResultCache(path)))


@pytest.mark.parametrize("name", sorted(GOLDEN_TRACE_DIGESTS))
def test_simulated_traces_match_golden_digests(name):
    trace = build_application(name).simulate_full_crossbar().trace
    assert trace_fingerprint(trace) == GOLDEN_TRACE_DIGESTS[name], (
        f"the simulated {name} trace changed: stored collect entries "
        f"would now answer with stale traffic. Bump SIMULATOR_SALT in "
        f"repro/pipeline/collect.py (now {SIMULATOR_SALT}) and update "
        f"GOLDEN_TRACE_DIGESTS in this file together."
    )


class TestCollectKey:
    def test_customized_builds_are_not_keyed(self):
        custom = build_application("qsort", critical_targets=(0,))
        assert collect_key(custom) is None
        assert collect_key(build_application("qsort")) is not None

    def test_app_enters_the_key(self):
        qsort = build_application("qsort")
        assert collect_key(qsort) == collect_key(build_application("qsort"))
        assert collect_key(qsort) != collect_key(build_application("des"))


class TestCollector:
    def test_disk_round_trip_is_record_identical(self, tmp_path):
        app = build_application("qsort")
        cold = collector_at(tmp_path)
        cut = REGISTRY.snapshot()
        fresh = cold.source(app).trace()
        assert stage_tables(cut)["computed"] == {"collect": 1}

        warm = collector_at(tmp_path)
        SIMULATION_COUNTER.reset()
        cut = REGISTRY.snapshot()
        source = warm.source(app)
        assert stage_tables(cut)["disk_hits"] == {"collect": 1}
        assert source.digest == trace_fingerprint(fresh)
        assert source.target_names == fresh.target_names
        assert source.initiator_names == fresh.initiator_names
        loaded = source.trace()
        assert SIMULATION_COUNTER.runs == 0
        assert loaded.records == fresh.records
        assert [r.stream for r in loaded.records] == [
            r.stream for r in fresh.records
        ]
        assert loaded.total_cycles == fresh.total_cycles
        # The in-memory layer answers repeats with the same object.
        assert warm.source(app) is source
        assert stage_tables(cut)["memo_hits"] == {"collect": 1}

    def test_concurrent_cold_lookups_agree(self, tmp_path):
        """Threads racing on an empty cache may each simulate, but all
        see the same trace, and the entry they leave loads cleanly."""
        import sys
        import threading

        collector = collector_at(tmp_path)
        digests, errors = [], []

        def lookup():
            try:
                source = collector.source(build_application("qsort"))
                digests.append(trace_fingerprint(source.trace()))
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=lookup) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert digests == [GOLDEN_TRACE_DIGESTS["qsort"]] * 4

        SIMULATION_COUNTER.reset()
        fresh = collector_at(tmp_path).source(build_application("qsort"))
        assert trace_fingerprint(fresh.trace()) == GOLDEN_TRACE_DIGESTS["qsort"]
        assert SIMULATION_COUNTER.runs == 0

    def test_without_disk_nothing_is_encoded_or_hashed(self, monkeypatch):
        def forbidden(*_args):
            raise AssertionError("no-disk collection encoded or hashed")

        monkeypatch.setattr(collect_module, "_encode", forbidden)
        monkeypatch.setattr(collect_module, "trace_fingerprint", forbidden)
        collector = CollectStage()
        cut = REGISTRY.snapshot()
        source = collector.source(build_application("qsort"))
        assert source.initiator_names == source.trace().initiator_names
        assert stage_tables(cut)["computed"] == {"collect": 1}
        custom = build_application("qsort", critical_targets=(0,))
        collector.source(custom).trace()

    def test_record_files_a_run_simulated_elsewhere(self, tmp_path, monkeypatch):
        """``record`` (``repro design --validate``) files the trace it is
        handed: it keeps an entry with the same digest, rewrites one
        whose digest differs, and a later ``source`` reads the entry."""
        app = build_application("qsort")
        trace = app.simulate_full_crossbar().trace
        store = ArtifactStore(disk=ResultCache(tmp_path))
        key = collect_key(app)
        writes = []
        put_payload = ArtifactStore.put_payload

        def counting_put(store, fingerprint, payload):
            writes.append(payload["digest"])
            put_payload(store, fingerprint, payload)

        monkeypatch.setattr(ArtifactStore, "put_payload", counting_put)
        golden = GOLDEN_TRACE_DIGESTS["qsort"]
        assert collector_at(tmp_path).record(app, trace).digest == golden
        assert collector_at(tmp_path).record(app, trace).digest == golden
        assert writes == [golden]

        store.put_payload(key, dict(store.get_payload(key), digest="0" * 64))
        collector_at(tmp_path).record(app, trace)
        assert writes == [golden, "0" * 64, golden]
        assert store.get_payload(key)["digest"] == golden

        SIMULATION_COUNTER.reset()
        reader = collector_at(tmp_path)
        cut = REGISTRY.snapshot()
        assert reader.source(app).digest == golden
        assert stage_tables(cut)["disk_hits"] == {"collect": 1}
        assert SIMULATION_COUNTER.runs == 0

    def test_customized_build_simulates_every_time(self, tmp_path):
        collector = collector_at(tmp_path)
        custom = build_application("qsort", critical_targets=(0,))
        SIMULATION_COUNTER.reset()
        collector.source(custom)
        collector.source(custom)
        assert SIMULATION_COUNTER.runs == 2
        assert list(tmp_path.glob("*")) == []


def design(argv, capsys):
    assert main(argv) == 0
    return capsys.readouterr().out


def breakdown_row(out):
    """computed/memo-hit/disk-hit of the ``collect`` stage in a
    printed stage table (the last ``collect`` line: ``pipeline
    inspect`` prints a stage-artifact row of that name first)."""
    rows = [line for line in out.splitlines() if line.startswith("collect ")]
    return rows[-1].split()[1:]


class TestZeroSimulationDesign:
    def test_warm_design_simulates_nothing(self, tmp_path, capsys):
        argv = ["design", "qsort", "--cache-dir", str(tmp_path)]
        cold = design(argv, capsys)

        SIMULATION_COUNTER.reset()
        warm = design(argv, capsys)
        assert SIMULATION_COUNTER.runs == 0
        again = design(argv, capsys)
        assert SIMULATION_COUNTER.runs == 0
        assert again == warm  # byte for byte, cache line included

        # The collect stage keeps its own accounting: the cache line
        # reports the whole-result lookup only, as before.
        assert warm.splitlines()[-1] == (
            "cache: 1/1 hits, 0 stores, 0 invalid entries, 0 write errors"
        )
        assert warm.splitlines()[:-1] == cold.splitlines()[:-1]

    def test_threshold_edit_loads_instead_of_simulating(
        self, tmp_path, capsys
    ):
        cache = str(tmp_path / "filled")
        design(["design", "qsort", "--cache-dir", cache], capsys)
        SIMULATION_COUNTER.reset()
        edited = design(
            ["design", "qsort", "--cache-dir", cache, "--threshold", "0.2"],
            capsys,
        )
        assert SIMULATION_COUNTER.runs == 0
        cold = design(
            ["design", "qsort", "--cache-dir", str(tmp_path / "empty"),
             "--threshold", "0.2"],
            capsys,
        )
        assert edited == cold

    def test_warm_compare_reads_the_stored_trace(
        self, tmp_path, capsys, monkeypatch
    ):
        argv = ["compare", "qsort", "--cache-dir", str(tmp_path)]
        cold = design(argv, capsys)
        collections = []
        simulate = Application.simulate_full_crossbar

        def counting(app, *args, **kwargs):
            collections.append(app.name)
            return simulate(app, *args, **kwargs)

        monkeypatch.setattr(Application, "simulate_full_crossbar", counting)
        warm = design(argv, capsys)
        assert collections == []
        assert warm == cold  # byte for byte

    def test_pipeline_inspect_reports_collect_disk_hit(
        self, tmp_path, capsys
    ):
        argv = ["pipeline", "inspect", "qsort", "--cache-dir", str(tmp_path)]
        first = design(argv, capsys)
        assert breakdown_row(first) == ["1", "0", "0"]  # computed
        SIMULATION_COUNTER.reset()
        second = design(argv, capsys)
        assert SIMULATION_COUNTER.runs == 0
        assert breakdown_row(second) == ["0", "0", "1"]  # disk hit


class TestZeroSimulationDaemon:
    def test_restarted_service_answers_without_simulating(self, tmp_path):
        service = SynthesisService(cache_dir=str(tmp_path), workers=1)
        job, _ = service.submit({"kind": "design", "app": "qsort"})
        assert job.wait(120) and job.state == "done"
        service.close()

        restarted = SynthesisService(cache_dir=str(tmp_path), workers=1)
        SIMULATION_COUNTER.reset()
        warm, disposition = restarted.submit(
            {"kind": "design", "app": "qsort"}
        )
        assert disposition == "cached"
        assert warm.result == job.result
        assert SIMULATION_COUNTER.runs == 0

        # A result miss on the restarted daemon loads the stored trace.
        edited, disposition = restarted.submit(
            {"kind": "design", "app": "qsort", "threshold": 0.2}
        )
        assert disposition == "new"
        assert edited.wait(120) and edited.state == "done"
        assert SIMULATION_COUNTER.runs == 0
        restarted.close()


class TestSuiteAppSources:
    def test_app_scenarios_read_the_stored_trace(self, tmp_path, capsys):
        argv = ["scenarios", "run", "apps", "--explain-cache",
                "--cache-dir", str(tmp_path)]
        cold = design(argv, capsys)
        # Two scenarios share mat2: one simulation, and one thinned
        # trace built from the memo hit and filed as its own entry.
        assert breakdown_row(cold) == ["2", "1", "0"]
        SIMULATION_COUNTER.reset()
        warm = design(argv, capsys)
        assert SIMULATION_COUNTER.runs == 0
        # Both entries from disk: the thinned trace is not rebuilt.
        assert breakdown_row(warm) == ["0", "0", "2"]
        report = "staged-pipeline cache breakdown"
        assert warm.split(report)[0] == cold.split(report)[0]
