"""Synthetic burst-traffic generation.

Reproduces the 20-core synthetic benchmark of paper Sections 7.2 and 7.4:
initiators emit *bursts* (streams of back-to-back packets) of a typical
duration -- around 1000 cycles in the paper -- separated by idle gaps.
Initiators belonging to the same *sync group* burst at nearly the same
time, creating the strong temporal overlap between their targets' streams
that the windowed methodology is designed to detect; distinct groups drift
independently.

The generator produces a full :class:`~repro.traffic.trace.TrafficTrace`
(one column row per packet with its complete timing breakdown), so synthetic traces
flow through exactly the same windowing, synthesis and trace-replay
validation paths as platform-simulated traces.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.traffic.events import TransactionKind
from repro.traffic.trace import KINDS, TrafficTrace

__all__ = [
    "SyntheticTrafficConfig",
    "generate_synthetic_trace",
    "write_packet",
]


@dataclass(frozen=True)
class SyntheticTrafficConfig:
    """Parameters of the synthetic burst-traffic benchmark.

    Attributes
    ----------
    num_initiators / num_targets:
        Platform size; initiator ``i`` streams to target ``i % num_targets``
        (the private-memory pattern of the paper's MPSoCs).
    total_cycles:
        Length of the generated simulation period.
    burst_cycles:
        Typical burst duration; actual bursts are jittered by
        ``burst_jitter`` (a +/- fraction).
    gap_cycles / gap_jitter:
        Idle time separating consecutive bursts of the same group.
    packet_words / packet_gap:
        Bursts are streams of ``packet_words``-word write packets issued
        back to back with ``packet_gap`` idle cycles between them.
    sync_groups:
        Partition of initiator indices into groups that burst together;
        defaults to pairs ``(0,1), (2,3), ...``. Members of one group get
        a small random skew, so their streams overlap heavily.
    group_skew:
        Maximum per-member start skew within a group, in cycles.
    critical_targets:
        Targets whose traffic is flagged as real-time.
    seed:
        PRNG seed; generation is fully deterministic given the config.
    """

    num_initiators: int = 10
    num_targets: int = 10
    total_cycles: int = 100_000
    burst_cycles: int = 1_000
    burst_jitter: float = 0.2
    gap_cycles: int = 2_500
    gap_jitter: float = 0.4
    packet_words: int = 16
    packet_gap: int = 2
    sync_groups: Optional[Tuple[Tuple[int, ...], ...]] = None
    group_skew: int = 64
    critical_targets: Tuple[int, ...] = field(default=())
    seed: int = 1

    def resolved_groups(self) -> Tuple[Tuple[int, ...], ...]:
        """The sync-group partition, defaulting to consecutive pairs."""
        if self.sync_groups is not None:
            return self.sync_groups
        groups: List[Tuple[int, ...]] = []
        indices = list(range(self.num_initiators))
        for start in range(0, len(indices), 2):
            groups.append(tuple(indices[start : start + 2]))
        return tuple(groups)

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on inconsistent parameters."""
        if self.num_initiators < 1 or self.num_targets < 1:
            raise ConfigurationError("need at least one initiator and one target")
        if self.total_cycles < self.burst_cycles:
            raise ConfigurationError(
                "total_cycles must cover at least one burst "
                f"({self.total_cycles} < {self.burst_cycles})"
            )
        if not 0 <= self.burst_jitter < 1 or not 0 <= self.gap_jitter < 1:
            raise ConfigurationError("jitter fractions must lie in [0, 1)")
        if self.packet_words < 1:
            raise ConfigurationError("packet_words must be >= 1")
        if self.packet_gap < 0 or self.group_skew < 0:
            raise ConfigurationError("packet_gap and group_skew must be >= 0")
        seen: set[int] = set()
        for group in self.resolved_groups():
            for member in group:
                if not 0 <= member < self.num_initiators:
                    raise ConfigurationError(
                        f"sync group member {member} out of range"
                    )
                if member in seen:
                    raise ConfigurationError(
                        f"initiator {member} appears in multiple sync groups"
                    )
                seen.add(member)
        for target in self.critical_targets:
            if not 0 <= target < self.num_targets:
                raise ConfigurationError(f"critical target {target} out of range")


def _jittered(rng: random.Random, base: int, jitter: float) -> int:
    """Uniformly jitter ``base`` by +/- ``jitter`` fraction (min 1)."""
    if jitter <= 0:
        return max(1, base)
    low = int(base * (1.0 - jitter))
    high = int(base * (1.0 + jitter))
    return max(1, rng.randint(low, high))


def generate_synthetic_trace(
    config: SyntheticTrafficConfig,
    rng: Optional[random.Random] = None,
) -> TrafficTrace:
    """Generate a synthetic burst trace according to ``config``.

    All randomness is drawn from ``rng`` (default: a fresh
    ``random.Random(config.seed)``) -- never from the interpreter-global
    :mod:`random` state -- so two generations from equal configs are
    record-identical regardless of what other code seeded globally.
    That stability is what keeps scenario fingerprints (and therefore
    the execution engine's result cache) valid across processes.
    """
    config.validate()
    if rng is None:
        rng = random.Random(config.seed)
    critical = set(config.critical_targets)
    records: List[tuple] = []

    for group in config.resolved_groups():
        group_rng = random.Random(rng.randrange(1 << 30))
        cursor = group_rng.randint(0, max(1, config.gap_cycles // 2))
        while cursor < config.total_cycles:
            burst_len = _jittered(group_rng, config.burst_cycles, config.burst_jitter)
            for initiator in group:
                skew = group_rng.randint(0, config.group_skew)
                start = cursor + skew
                end = min(start + burst_len, config.total_cycles - 8)
                target = initiator % config.num_targets
                records.extend(
                    _burst_packets(start, end, initiator, target, config,
                                   target in critical)
                )
            cursor += burst_len + _jittered(
                group_rng, config.gap_cycles, config.gap_jitter
            )

    return TrafficTrace.from_rows(
        records,
        num_initiators=config.num_initiators,
        num_targets=config.num_targets,
        total_cycles=config.total_cycles,
        target_names=[f"t{idx}" for idx in range(config.num_targets)],
        initiator_names=[f"i{idx}" for idx in range(config.num_initiators)],
    )


_WRITE = KINDS.index(TransactionKind.WRITE)


def write_packet(
    cursor: int,
    initiator: int,
    target: int,
    words: int,
    critical: bool = False,
) -> tuple:
    """One ``words``-word write packet issued at ``cursor``, as a column
    row for :meth:`~repro.traffic.trace.TrafficTrace.from_rows`: the
    :data:`~repro.traffic.trace.COLUMNS` values, the stream by name.

    The timing breakdown matches the burst generator's model (header
    cycle + one cycle per word on the IT bus, single-cycle write
    acknowledge on the TI bus); every synthetic profile emits packets
    through this helper so traces from all profiles flow through the
    windowing pipeline with identical per-packet semantics.
    """
    it_release = cursor + 1 + words
    ti_release = it_release + 1  # single-cycle write acknowledge
    return (
        initiator,
        target,
        _WRITE,
        words,
        cursor,  # issue
        cursor,  # it_grant
        it_release,
        it_release,  # service_start
        it_release,  # service_end
        it_release,  # ti_grant
        ti_release,
        ti_release,  # complete
        critical,
        f"i{initiator}->t{target}",
    )


def _burst_packets(
    start: int,
    end: int,
    initiator: int,
    target: int,
    config: SyntheticTrafficConfig,
    critical: bool,
) -> List[tuple]:
    """Expand one burst window into back-to-back write packets."""
    packet_cost = 1 + config.packet_words
    records: List[tuple] = []
    cursor = start
    while cursor + packet_cost <= end:
        records.append(
            write_packet(cursor, initiator, target, config.packet_words, critical)
        )
        cursor += packet_cost + config.packet_gap
    return records
