"""Unit tests for trace records."""

import pytest

from repro.errors import TraceError
from repro.traffic import TraceRecord, TransactionKind

from tests.traffic.conftest import make_record


class TestTraceRecord:
    def test_latency_and_occupancy_properties(self):
        record = make_record(start=10, duration=5, response=3)
        assert record.latency == 8
        assert record.it_occupancy == 5
        assert record.ti_occupancy == 3
        assert record.queueing_delay == 0

    def test_queueing_delay(self):
        record = TraceRecord(
            initiator=0,
            target=0,
            kind=TransactionKind.READ,
            burst=1,
            issue=0,
            it_grant=4,
            it_release=5,
            service_start=5,
            service_end=7,
            ti_grant=7,
            ti_release=9,
            complete=9,
        )
        assert record.queueing_delay == 4
        assert record.latency == 9

    def test_non_monotonic_timestamps_rejected(self):
        with pytest.raises(TraceError):
            TraceRecord(
                initiator=0,
                target=0,
                kind=TransactionKind.READ,
                burst=1,
                issue=5,
                it_grant=4,  # earlier than issue
                it_release=6,
                service_start=6,
                service_end=7,
                ti_grant=7,
                ti_release=8,
                complete=8,
            )

    STAMPS = (
        "issue",
        "it_grant",
        "it_release",
        "service_start",
        "service_end",
        "ti_grant",
        "ti_release",
        "complete",
    )

    @pytest.mark.parametrize("later", range(1, len(STAMPS)))
    def test_each_out_of_order_adjacent_pair_rejected(self, later):
        """Swapping any adjacent pair of phase stamps out of order is
        caught, and the message lists all eight stamps."""
        stamps = dict(zip(self.STAMPS, range(10, 90, 10)))
        stamps[self.STAMPS[later]] = stamps[self.STAMPS[later - 1]] - 1
        listed = tuple(stamps[name] for name in self.STAMPS)
        with pytest.raises(TraceError) as raised:
            TraceRecord(
                initiator=0, target=0, kind=TransactionKind.READ, burst=1,
                **stamps,
            )
        assert str(raised.value) == (
            f"non-monotonic timestamps in trace record: {listed}"
        )

    def test_equal_adjacent_stamps_accepted(self):
        record = TraceRecord(
            0, 0, TransactionKind.WRITE, 1, *([7] * len(self.STAMPS))
        )
        assert record.latency == 0

    def test_zero_burst_rejected(self):
        with pytest.raises(TraceError):
            make_record(burst=0)

    def test_negative_indices_rejected(self):
        with pytest.raises(TraceError):
            make_record(initiator=-1)

    def test_kind_str(self):
        assert str(TransactionKind.READ) == "read"
        assert str(TransactionKind.WRITE) == "write"

    def test_records_are_frozen(self):
        record = make_record()
        with pytest.raises(AttributeError):
            record.issue = 99  # type: ignore[misc]
