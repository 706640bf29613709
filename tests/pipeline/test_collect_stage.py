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
from repro.cli import main
from repro.exec.cache import ResultCache
from repro.exec.fingerprint import trace_fingerprint
from repro.pipeline import ArtifactStore, CollectStage
from repro.pipeline import collect as collect_module
from repro.pipeline.collect import SIMULATOR_SALT, collect_key
from repro.platform import SIMULATION_COUNTER
from repro.server import SynthesisService

GOLDEN_TRACE_DIGESTS = {
    "qsort": "dec531925ce7845861ff11efa858528f4ec0826cfedbe83cc2db1c1bd7fdd04f",
    "mat1": "8ddc42a364fd79ad378098f247f6d0ffc5ced491e701fe032502f1ef64133782",
    "mat2": "613320de2218c5a896236b8ff7d4de8ffc5698fd9615414045d8d86ed75b59dd",
    "fft": "7401a1a1928424108c3ce8a28ed88c2df299386fc268f0f288c74ad74d4d1bb8",
    "des": "030261ee0e04b8ea6d05e5f23891f565d9991445a97a987b80f8c663f86b6596",
}
"""``trace_fingerprint`` of each default app's full-crossbar trace at
``SIMULATOR_SALT == 1``."""


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
        fresh = cold.source(app).trace()
        assert cold.counters.computed == {"collect": 1}

        warm = collector_at(tmp_path)
        SIMULATION_COUNTER.reset()
        source = warm.source(app)
        assert warm.counters.disk_hits == {"collect": 1}
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
        assert warm.counters.memo_hits == {"collect": 1}

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
        source = collector.source(build_application("qsort"))
        assert source.initiator_names == source.trace().initiator_names
        assert collector.counters.computed == {"collect": 1}
        custom = build_application("qsort", critical_targets=(0,))
        collector.source(custom).trace()

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
    printed counters table (the last ``collect`` line: ``pipeline
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
        # Two scenarios share mat2: one simulation, one memo hit.
        assert breakdown_row(cold) == ["1", "1", "0"]
        SIMULATION_COUNTER.reset()
        warm = design(argv, capsys)
        assert SIMULATION_COUNTER.runs == 0
        assert breakdown_row(warm) == ["0", "1", "1"]
        report = "staged-pipeline cache breakdown"
        assert warm.split(report)[0] == cold.split(report)[0]
