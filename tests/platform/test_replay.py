"""Tests for trace-replay programs: any trace can be re-simulated."""

from repro.platform import (
    Compute,
    Read,
    SoC,
    SoCConfig,
    TargetConfig,
    Write,
    full_crossbar_binding,
    shared_bus_binding,
    trace_replay_program,
)
from repro.traffic import (
    SyntheticTrafficConfig,
    TrafficTrace,
    TransactionKind,
    generate_synthetic_trace,
)

from tests.traffic.conftest import make_record


def replay_program(records, **kwargs):
    """The replay program of one initiator's ``records``."""
    trace = TrafficTrace(records, num_initiators=1, num_targets=1,
                         total_cycles=100)
    return trace_replay_program(trace, range(len(trace)), **kwargs)


class TestReplayProgram:
    def test_paces_with_compute(self):
        records = [
            make_record(start=10, duration=3, kind=TransactionKind.READ),
            make_record(start=50, duration=3, kind=TransactionKind.WRITE),
        ]
        ops = list(replay_program(records))
        assert isinstance(ops[0], Compute)
        assert ops[0].cycles == 10
        assert isinstance(ops[1], Read)
        assert isinstance(ops[2], Compute)
        assert isinstance(ops[3], Write)

    def test_unpaced_emits_only_accesses(self):
        records = [make_record(start=10, duration=3)]
        ops = list(replay_program(records, pace=False))
        assert len(ops) == 1

    def test_preserves_burst_critical_and_stream(self):
        records = [
            make_record(start=0, duration=3, burst=7, critical=True,
                        stream="s1")
        ]
        ops = list(replay_program(records))
        assert ops[0].burst == 7
        assert ops[0].critical
        assert ops[0].stream == "s1"

    def test_orders_by_issue(self):
        records = [
            make_record(start=50, duration=3),
            make_record(start=10, duration=3),
        ]
        ops = [op for op in replay_program(records) if isinstance(op, Compute)]
        assert ops[0].cycles == 10


class TestSyntheticReplayEndToEnd:
    def build_soc(self, trace, it_binding, ti_binding):
        config = SoCConfig(
            initiator_names=[f"i{k}" for k in range(trace.num_initiators)],
            targets=[TargetConfig(name=f"t{k}") for k in range(trace.num_targets)],
        )
        programs = [
            list(trace_replay_program(trace, rows))
            for rows in trace.initiator_rows()
        ]
        return SoC(config, it_binding, ti_binding, programs)

    def test_full_crossbar_replay_matches_issue_times(self):
        trace = generate_synthetic_trace(
            SyntheticTrafficConfig(
                num_initiators=4, num_targets=4, total_cycles=20_000
            )
        )
        soc = self.build_soc(
            trace, full_crossbar_binding(4), full_crossbar_binding(4)
        )
        result = soc.run(max_cycles=60_000)
        assert result.finished
        assert len(result.trace) == len(trace)
        # on a full crossbar with the private-memory pattern there is no
        # contention: mean latency equals the uncontended write latency
        stats = result.latency_stats()
        assert stats.mean <= 25

    def test_shared_bus_replay_is_slower_than_full(self):
        trace = generate_synthetic_trace(
            SyntheticTrafficConfig(
                num_initiators=4, num_targets=4, total_cycles=20_000,
                gap_cycles=1_500,
            )
        )
        full = self.build_soc(
            trace, full_crossbar_binding(4), full_crossbar_binding(4)
        ).run(200_000)
        shared = self.build_soc(
            trace, shared_bus_binding(4), shared_bus_binding(4)
        ).run(400_000)
        assert shared.latency_stats().mean > 1.5 * full.latency_stats().mean
