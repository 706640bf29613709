"""The columnar trace against its object-built oracle.

A :class:`~repro.traffic.trace.TrafficTrace` holds one integer matrix
plus a stream table, and every producer writes columns. Its
:attr:`~repro.traffic.trace.TrafficTrace.records` view must equal what
the object paths in ``tests/oracles/trace_reference.py`` build, field
for field with ``stream`` included, for every generator, thinning, the
mirror, JSONL round trips, the collect stage's sidecar encoding, and
kernel program and replay runs (whose oracle is the record objects the
DES builds). The matrix path's row checks must also raise the
:class:`~repro.errors.TraceError` the record path raises, naming the
same first bad row.
"""

import contextlib
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TraceError
from repro.pipeline.collect import _decode, _encode
from repro.platform import (
    Compute,
    Read,
    SoC,
    SoCConfig,
    TargetConfig,
    TraceDrivenInitiator,
    Write,
    full_crossbar_binding,
    shared_bus_binding,
    simulate_workload,
)
from repro.traffic import profiles, synthetic
from repro.traffic.events import TraceRecord, TransactionKind
from repro.traffic.io import load_trace_jsonl, save_trace_jsonl
from repro.traffic.profiles import (
    HotspotTrafficConfig,
    PipelineTrafficConfig,
    PoissonTrafficConfig,
    generate_hotspot_trace,
    generate_pipeline_trace,
    generate_poisson_trace,
    thin_trace,
)
from repro.traffic.synthetic import SyntheticTrafficConfig, generate_synthetic_trace
from repro.traffic.trace import KINDS, TrafficTrace

from tests.oracles.trace_reference import (
    canonical,
    fields,
    load_jsonl_records,
    mirror,
    thin,
    write_packet_record,
)

EXAMPLES = settings(max_examples=25, deadline=None)


def _synthetic(n, t, cycles, critical, seed):
    return generate_synthetic_trace(
        SyntheticTrafficConfig(
            num_initiators=n,
            num_targets=t,
            total_cycles=cycles,
            burst_cycles=200,
            gap_cycles=300,
            critical_targets=critical,
            seed=seed,
        )
    )


def _hotspot(n, t, cycles, critical, seed):
    return generate_hotspot_trace(
        HotspotTrafficConfig(
            num_initiators=n,
            num_targets=t,
            total_cycles=cycles,
            mean_gap=60,
            critical_targets=critical,
            seed=seed,
        )
    )


def _poisson(n, t, cycles, critical, seed):
    return generate_poisson_trace(
        PoissonTrafficConfig(
            num_initiators=n,
            num_targets=t,
            total_cycles=cycles,
            rate=0.01,
            critical_targets=critical,
            seed=seed,
        )
    )


def _pipeline(n, t, cycles, critical, seed):
    return generate_pipeline_trace(
        PipelineTrafficConfig(
            num_initiators=n,
            num_targets=t,
            total_cycles=cycles,
            frame_cycles=1_000,
            slot_cycles=300,
            stage_lag=100,
            slot_jitter=16,
            critical_targets=critical,
            seed=seed,
        )
    )


GENERATORS = {
    "synthetic": _synthetic,
    "hotspot": _hotspot,
    "poisson": _poisson,
    "pipeline": _pipeline,
}


@contextlib.contextmanager
def packet_records():
    """Record every packet a generator writes, as the object path
    built it."""
    made = []
    real = synthetic.write_packet

    def recording(*args, **kwargs):
        made.append(write_packet_record(*args, **kwargs))
        return real(*args, **kwargs)

    with mock.patch.object(synthetic, "write_packet", recording), mock.patch.object(
        profiles, "write_packet", recording
    ):
        yield made


@st.composite
def generated(draw):
    """A generated trace and its object-built records."""
    kind = draw(st.sampled_from(sorted(GENERATORS)))
    n = draw(st.integers(1, 4))
    t = draw(st.integers(1, 4))
    cycles = draw(st.integers(1_000, 4_000))
    critical = tuple(draw(st.sets(st.integers(0, t - 1), max_size=t)))
    seed = draw(st.integers(0, 2**16))
    with packet_records() as made:
        trace = GENERATORS[kind](n, t, cycles, critical, seed)
    return trace, canonical(made)


@st.composite
def recorded(draw):
    """A trace built from arbitrary well-formed records -- reads,
    unnamed streams, critical flags and same-cycle ties included -- and
    its records in canonical order."""
    n = draw(st.integers(1, 3))
    t = draw(st.integers(1, 3))
    records = []
    for _ in range(draw(st.integers(0, 25))):
        stamps = sorted(draw(st.lists(st.integers(0, 60), min_size=8, max_size=8)))
        records.append(
            TraceRecord(
                draw(st.integers(0, n - 1)),
                draw(st.integers(0, t - 1)),
                draw(st.sampled_from(list(TransactionKind))),
                draw(st.integers(1, 8)),
                *stamps,
                critical=draw(st.booleans()),
                stream=draw(st.sampled_from(["", "a", "b->c", "i0->t0"])),
            )
        )
    trace = TrafficTrace(records, n, t, total_cycles=60)
    return trace, canonical(records)


traces = st.one_of(generated(), recorded())


class TestProducers:
    @EXAMPLES
    @given(traces)
    def test_records_match_the_object_build(self, case):
        trace, expected = case
        assert fields(trace.records) == fields(expected)
        assert len(trace) == len(expected)

    @EXAMPLES
    @given(traces)
    def test_from_rows_and_from_columns_agree(self, case):
        trace, expected = case
        rows = [
            (*row[:13], trace.streams[row[13]]) for row in trace.columns.tolist()
        ]
        shape = dict(
            num_initiators=trace.num_initiators,
            num_targets=trace.num_targets,
            total_cycles=trace.total_cycles,
        )
        rebuilt = TrafficTrace.from_rows(rows, **shape)
        assert np.array_equal(rebuilt.columns, trace.columns)
        assert rebuilt.streams == trace.streams
        # Rows that tie on every sort key keep their input order, as
        # the object path's stable sort keeps them.
        reversed_rows = TrafficTrace.from_rows(rows[::-1], **shape)
        assert fields(reversed_rows.records) == fields(canonical(expected[::-1]))
        # The stream table lists each used name once, in order of first
        # use along the canonical rows, however the rows arrived.
        for built in (trace, reversed_rows):
            used = dict.fromkeys(rec.stream for rec in built.records)
            assert built.streams == tuple(used)

    @EXAMPLES
    @given(traces, st.floats(0.05, 1.0), st.integers(0, 2**16))
    def test_thin_trace(self, case, fraction, seed):
        trace, expected = case
        thinned = thin_trace(trace, fraction, seed=seed)
        assert fields(thinned.records) == fields(thin(expected, fraction, seed))

    @EXAMPLES
    @given(traces)
    def test_mirror(self, case):
        trace, expected = case
        assert fields(trace.mirrored().records) == fields(mirror(expected))

    @EXAMPLES
    @given(traces)
    def test_jsonl_round_trip(self, case):
        trace, expected = case
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "trace.jsonl"
            save_trace_jsonl(trace, path)
            loaded = load_trace_jsonl(path)
            assert fields(load_jsonl_records(path)) == fields(expected)
        assert fields(loaded.records) == fields(expected)

    @EXAMPLES
    @given(traces)
    def test_sidecar_round_trip(self, case):
        trace, expected = case
        entry = {
            "num_initiators": trace.num_initiators,
            "num_targets": trace.num_targets,
            "total_cycles": trace.total_cycles,
            "num_records": len(trace),
            "initiator_names": trace.initiator_names,
            "target_names": trace.target_names,
        }
        decoded = _decode(_encode(trace), entry)
        assert fields(decoded.records) == fields(expected)


def _des_records(platform, programs, it_binding, ti_binding, budget, starts=None):
    """The record objects the DES builds for the same run."""
    soc = SoC(platform, it_binding, ti_binding, programs, start_cycles=starts)
    soc.run(budget)
    return canonical(soc._records)


class _Programs:
    """A program-driven workload with explicit programs."""

    label = "listed"

    def __init__(self, platform, programs, sim_cycles):
        self.platform = platform
        self.sim_cycles = sim_cycles
        self._programs = programs

    def build_programs(self):
        return [iter(program) for program in self._programs]

    def start_cycles(self):
        return None


@st.composite
def programs(draw):
    n = draw(st.integers(1, 3))
    t = draw(st.integers(1, 3))
    platform = SoCConfig(
        initiator_names=[f"cpu{index}" for index in range(n)],
        targets=[TargetConfig(name=f"mem{index}") for index in range(t)],
    )
    access = st.builds(
        lambda read, target, burst, critical, stream: (Read if read else Write)(
            target=target, burst=burst, critical=critical, stream=stream
        ),
        st.booleans(),
        st.integers(0, t - 1),
        st.integers(1, 6),
        st.booleans(),
        st.sampled_from(["", "s", "cpu0->mem0"]),
    )
    op = st.one_of(access, st.builds(Compute, st.integers(0, 20)))
    listed = [draw(st.lists(op, max_size=8)) for _ in range(n)]
    return platform, listed


class TestKernel:
    @EXAMPLES
    @given(programs(), st.booleans())
    def test_program_runs_match_the_des_records(self, case, shared):
        platform, listed = case
        it = (shared_bus_binding if shared else full_crossbar_binding)(
            platform.num_targets
        )
        ti = (shared_bus_binding if shared else full_crossbar_binding)(
            platform.num_initiators
        )
        budget = 2_000
        kernel = simulate_workload(_Programs(platform, listed, budget), it, ti)
        expected = _des_records(platform, listed, it, ti, budget)
        assert fields(kernel.trace.records) == fields(expected)

    @EXAMPLES
    @given(traces, st.booleans(), st.booleans())
    def test_replay_runs_match_the_des_records(self, case, shared, pace):
        trace, _ = case
        driver = TraceDrivenInitiator(trace, pace=pace)
        it = (shared_bus_binding if shared else full_crossbar_binding)(
            trace.num_targets
        )
        ti = (shared_bus_binding if shared else full_crossbar_binding)(
            trace.num_initiators
        )
        kernel = simulate_workload(driver, it, ti)
        expected = _des_records(
            driver.platform,
            driver.build_programs(),
            it,
            ti,
            driver.sim_cycles,
            driver.start_cycles(),
        )
        assert fields(kernel.trace.records) == fields(expected)


# -- validation parity ------------------------------------------------

SHAPE = dict(num_initiators=2, num_targets=3, total_cycles=100)
GOOD = (0, 1, 0, 2, 10, 11, 14, 14, 15, 15, 17, 17, 0)
"""A well-formed row: the :data:`~repro.traffic.trace.COLUMNS` values
but the stream."""

FAULTS = {
    "unordered": lambda row: row[:5] + (row[6] + 1,) + row[6:],
    "burst": lambda row: row[:3] + (0,) + row[4:],
    "negative initiator": lambda row: (-1,) + row[1:],
    "negative target": lambda row: row[:1] + (-2,) + row[2:],
    "target range": lambda row: row[:1] + (3,) + row[2:],
    "initiator range": lambda row: (2,) + row[1:],
    "period": lambda row: row[:11] + (101,) + row[12:],
}


def _record(row):
    return TraceRecord(*row[:2], KINDS[row[2]], *row[3:12], bool(row[12]), "s")


def record_path_error(rows):
    with pytest.raises(TraceError) as caught:
        TrafficTrace([_record(row) for row in rows], **SHAPE)
    return str(caught.value)


def matrix_path_error(rows):
    matrix = np.array([row + (0,) for row in rows], dtype=np.int64)
    with pytest.raises(TraceError) as caught:
        TrafficTrace.from_columns(matrix, ["s"], **SHAPE)
    return str(caught.value)


def _shifted(row, offset):
    """``row`` moved ``offset`` cycles later."""
    return row[:4] + tuple(stamp + offset for stamp in row[4:12]) + row[12:]


class TestValidationParity:
    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_one_bad_row(self, fault):
        rows = [GOOD, _shifted(GOOD, 5), FAULTS[fault](_shifted(GOOD, 9))]
        message = record_path_error(rows)
        assert matrix_path_error(rows) == message
        assert message  # every fault is caught

    def test_messages_name_the_row(self):
        unordered = FAULTS["unordered"](GOOD)
        assert matrix_path_error([unordered]) == (
            "non-monotonic timestamps in trace record: "
            "(10, 15, 14, 14, 15, 15, 17, 17)"
        )
        assert matrix_path_error([FAULTS["burst"](GOOD)]) == (
            "burst length must be >= 1, got 0"
        )
        assert matrix_path_error([FAULTS["target range"](GOOD)]) == (
            "record references target 3 but trace has 3 targets"
        )

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 40), st.sampled_from([None, *sorted(FAULTS)])
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_several_bad_rows_name_the_first(self, plan):
        """Rows in any issue order, any mix of faults: both paths raise
        for the first bad row in input order (the record path builds
        every record, then checks each against the platform)."""
        rows = [
            _shifted(GOOD, offset) if fault is None else FAULTS[fault](
                _shifted(GOOD, offset)
            )
            for offset, fault in plan
        ]
        if all(fault is None for _, fault in plan):
            TrafficTrace.from_columns(
                np.array([row + (0,) for row in rows]), ["s"], **SHAPE
            )
            return
        assert matrix_path_error(rows) == record_path_error(rows)

    def test_column_encodings_are_checked(self):
        for column, value in ((2, 2), (12, 2), (13, 1)):
            row = list(GOOD + (0,))
            row[column] = value
            with pytest.raises(TraceError, match="column values"):
                TrafficTrace.from_columns(np.array([row]), ["s"], **SHAPE)
