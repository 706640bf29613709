"""The workload-driver layer: program-driven vs trace-driven replay.

The acceptance property of the driver abstraction is *equivalence*: the
program-driven path and the trace-driven replay of that same program's
recorded trace must produce identical per-transaction latencies on the
same fabric -- every timestamp of every transaction, not just the
aggregate statistics. Both drivers run on the simulation kernel, so the
program run is recorded on the reference DES (:class:`SoC`) directly:
the kernel's replay is held to the DES, not to itself.
"""

import pytest

from repro.apps import build_application
from repro.errors import ConfigurationError
from repro.platform import (
    ProgramDriver,
    SoC,
    TraceDrivenInitiator,
    full_crossbar_binding,
    platform_spec,
    replay_platform,
    shared_bus_binding,
    simulate_workload,
)
from repro.traffic import SyntheticTrafficConfig, generate_synthetic_trace


def record_timing(trace):
    """Every timestamp of every transaction, in canonical order."""
    return [
        (
            rec.initiator,
            rec.target,
            rec.kind,
            rec.burst,
            rec.issue,
            rec.it_grant,
            rec.it_release,
            rec.service_start,
            rec.service_end,
            rec.ti_grant,
            rec.ti_release,
            rec.complete,
            rec.critical,
        )
        for rec in trace.records
    ]


@pytest.fixture(scope="module")
def app():
    return build_application("qsort")


@pytest.fixture(scope="module")
def fabrics(app):
    """Uncontended, heavily contended, and designed fabrics."""
    from repro.core import CrossbarSynthesizer, SynthesisConfig

    designed = (
        CrossbarSynthesizer(SynthesisConfig())
        .design(app)
        .design
    )
    return {
        "full": (
            full_crossbar_binding(app.num_targets),
            full_crossbar_binding(app.num_initiators),
        ),
        "shared": (
            shared_bus_binding(app.num_targets),
            shared_bus_binding(app.num_initiators),
        ),
        "designed": (designed.it.as_list(), designed.ti.as_list()),
    }


class TestProgramTraceEquivalence:
    """Program run on fabric F, recorded on the DES; trace replay of the
    recording on F must be byte-identical, transaction by transaction."""

    @pytest.mark.parametrize("fabric", ["full", "shared", "designed"])
    def test_replay_reproduces_program_run_exactly(self, app, fabrics, fabric):
        it_binding, ti_binding = fabrics[fabric]
        program_run = SoC(
            app.config, it_binding, ti_binding, app.build_programs()
        ).run(app.sim_cycles * 4)
        assert program_run.finished

        driver = TraceDrivenInitiator(program_run.trace, config=app.config)
        replay = simulate_workload(
            driver, it_binding, ti_binding, app.sim_cycles * 4
        )
        assert replay.finished
        assert record_timing(replay.trace) == record_timing(program_run.trace)
        assert replay.trace.latencies() == program_run.trace.latencies()

    def test_replay_is_deterministic(self, app, fabrics):
        it_binding, ti_binding = fabrics["designed"]
        trace = app.simulate(it_binding, ti_binding).trace
        driver = TraceDrivenInitiator(trace, config=app.config)
        first = simulate_workload(driver, it_binding, ti_binding)
        second = simulate_workload(driver, it_binding, ti_binding)
        assert record_timing(first.trace) == record_timing(second.trace)


class TestTraceDrivenInitiator:
    @pytest.fixture(scope="class")
    def profile_trace(self):
        return generate_synthetic_trace(
            SyntheticTrafficConfig(
                num_initiators=4, num_targets=4, total_cycles=20_000
            )
        )

    def test_replays_every_recorded_packet(self, profile_trace):
        driver = TraceDrivenInitiator(profile_trace)
        result = simulate_workload(
            driver, full_crossbar_binding(4), full_crossbar_binding(4)
        )
        assert result.finished
        assert len(result.trace) == len(profile_trace)

    def test_paced_replay_never_issues_early(self, profile_trace):
        """Pacing holds each access until its recorded cycle: the k-th
        replayed access of an initiator issues at or after the k-th
        recorded one (synthetic records are denser than the platform's
        protocol timing, so replay may fall behind -- never ahead)."""
        driver = TraceDrivenInitiator(profile_trace)
        result = simulate_workload(
            driver, full_crossbar_binding(4), full_crossbar_binding(4)
        )
        for initiator in range(profile_trace.num_initiators):
            recorded = [
                rec.issue
                for rec in profile_trace.records_from_initiator(initiator)
            ]
            replayed = [
                rec.issue
                for rec in result.trace.records_from_initiator(initiator)
            ]
            assert len(replayed) == len(recorded)
            assert all(
                after >= before
                for before, after in zip(recorded, replayed)
            )

    def test_start_cycles_match_first_recorded_issue(self, profile_trace):
        driver = TraceDrivenInitiator(profile_trace)
        starts = driver.start_cycles()
        for initiator in range(profile_trace.num_initiators):
            records = profile_trace.records_from_initiator(initiator)
            expected = min(rec.issue for rec in records) if records else 0
            assert starts[initiator] == expected

    def test_unpaced_replay_issues_back_to_back(self, profile_trace):
        driver = TraceDrivenInitiator(profile_trace, pace=False)
        assert driver.start_cycles() is None
        result = simulate_workload(
            driver, full_crossbar_binding(4), full_crossbar_binding(4)
        )
        # back-to-back issue finishes well before the recorded period
        assert result.finished
        last = max(rec.complete for rec in result.trace.records)
        assert last < profile_trace.total_cycles

    def test_respects_load_thinning(self, profile_trace):
        """A thinned trace replays exactly its surviving packets."""
        from repro.traffic.profiles import thin_trace

        thinned = thin_trace(profile_trace, 0.5, seed=7)
        driver = TraceDrivenInitiator(thinned)
        result = simulate_workload(
            driver, full_crossbar_binding(4), full_crossbar_binding(4)
        )
        assert len(result.trace) == len(thinned)
        assert len(result.trace) < len(profile_trace)

    def test_platform_shape_mismatch_rejected(self, profile_trace):
        other = replay_platform(
            generate_synthetic_trace(
                SyntheticTrafficConfig(
                    num_initiators=6, num_targets=6, total_cycles=5_000
                )
            )
        )
        with pytest.raises(ConfigurationError, match="recorded on"):
            TraceDrivenInitiator(profile_trace, config=other)

    def test_workload_key_is_stable_and_content_sensitive(
        self, profile_trace
    ):
        driver = TraceDrivenInitiator(profile_trace)
        key = driver.workload_key()
        assert key == TraceDrivenInitiator(profile_trace).workload_key()
        assert key["kind"] == "trace-replay"
        unpaced = TraceDrivenInitiator(profile_trace, pace=False)
        assert unpaced.workload_key() != key


class TestProgramDriver:
    def test_application_driver_matches_direct_simulation(self, app):
        it_binding = full_crossbar_binding(app.num_targets)
        ti_binding = full_crossbar_binding(app.num_initiators)
        via_driver = simulate_workload(app.driver(), it_binding, ti_binding)
        direct = SoC(
            app.config, it_binding, ti_binding, app.build_programs()
        ).run(app.sim_cycles)
        assert record_timing(via_driver.trace) == record_timing(direct.trace)

    def test_default_build_is_content_keyed(self, app):
        key = app.driver().workload_key()
        assert key["kind"] == "program"
        assert key["source"] == "app:qsort"
        assert key["platform"] == platform_spec(app.config)

    def test_custom_build_has_no_key(self):
        custom = build_application("synthetic", burst_cycles=123)
        with pytest.raises(ConfigurationError, match="source key"):
            custom.driver().workload_key()

    def test_builder_count_must_match_platform(self, app):
        with pytest.raises(ConfigurationError):
            ProgramDriver(
                config=app.config,
                program_builders=app.program_builders[:-1],
                sim_cycles=app.sim_cycles,
            )
