"""Extended synthetic workload profiles for scenario suites.

The burst generator of :mod:`repro.traffic.synthetic` reproduces the
paper's 20-core benchmark; real SoC use-cases are more varied. This
module stamps out additional traffic shapes so entire *suites* of
distinct workloads can be generated programmatically:

* **hotspot** -- target-skewed request traffic: a fraction of every
  initiator's packets is redirected onto a small set of hotspot targets
  (a shared frame buffer, a DMA-visible DRAM port), producing the
  many-to-one contention that private-memory traffic never shows.
* **poisson** -- open-loop memoryless arrivals: each initiator issues
  packets at exponentially distributed inter-arrival times, the classic
  NoC evaluation load, with no burst structure at all.
* **pipeline** -- producer/consumer streaming: stage ``i`` writes its
  frame to stage ``i + 1``'s memory during a staggered slot of a
  repeating frame period, giving chained (not grouped) temporal
  overlap.

Every profile draws all randomness from a ``random.Random(seed)``
instance (injected or config-derived, never the interpreter-global
module), emits packets through
:func:`repro.traffic.synthetic.write_packet`, and supports *load
scaling* via :func:`scaled_config`, so one scenario definition can be
replayed as a family of lighter/heavier variants. Traces from
platform-simulated applications get the same treatment through
:func:`thin_trace` (deterministic packet subsampling).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.traffic.synthetic import write_packet
from repro.traffic.trace import TrafficTrace

__all__ = [
    "HotspotTrafficConfig",
    "PoissonTrafficConfig",
    "PipelineTrafficConfig",
    "generate_hotspot_trace",
    "generate_poisson_trace",
    "generate_pipeline_trace",
    "scaled_config",
    "thin_trace",
]


def _check_platform(num_initiators: int, num_targets: int) -> None:
    if num_initiators < 1 or num_targets < 1:
        raise ConfigurationError("need at least one initiator and one target")


def _check_critical(critical_targets: Tuple[int, ...], num_targets: int) -> None:
    for target in critical_targets:
        if not 0 <= target < num_targets:
            raise ConfigurationError(f"critical target {target} out of range")


def _finish_trace(
    records: List[tuple],
    num_initiators: int,
    num_targets: int,
    total_cycles: int,
) -> TrafficTrace:
    return TrafficTrace.from_rows(
        records,
        num_initiators=num_initiators,
        num_targets=num_targets,
        total_cycles=total_cycles,
        target_names=[f"t{idx}" for idx in range(num_targets)],
        initiator_names=[f"i{idx}" for idx in range(num_initiators)],
    )


# -- hotspot ----------------------------------------------------------


@dataclass(frozen=True)
class HotspotTrafficConfig:
    """Target-skewed open traffic (shared-resource contention).

    Each initiator issues packets separated by exponentially jittered
    gaps of mean ``mean_gap``; with probability ``hotspot_fraction`` a
    packet is redirected to one of the ``hotspot_targets`` (uniformly),
    otherwise it goes to the initiator's private target
    (``i % num_targets``).
    """

    num_initiators: int = 8
    num_targets: int = 8
    total_cycles: int = 60_000
    hotspot_targets: Tuple[int, ...] = (0,)
    hotspot_fraction: float = 0.5
    mean_gap: int = 120
    packet_words: int = 16
    critical_targets: Tuple[int, ...] = field(default=())
    seed: int = 1

    def validate(self) -> None:
        _check_platform(self.num_initiators, self.num_targets)
        if not self.hotspot_targets:
            raise ConfigurationError("need at least one hotspot target")
        for target in self.hotspot_targets:
            if not 0 <= target < self.num_targets:
                raise ConfigurationError(f"hotspot target {target} out of range")
        if not 0.0 <= self.hotspot_fraction <= 1.0:
            raise ConfigurationError("hotspot_fraction must lie in [0, 1]")
        if self.mean_gap < 1:
            raise ConfigurationError("mean_gap must be >= 1")
        if self.packet_words < 1:
            raise ConfigurationError("packet_words must be >= 1")
        _check_critical(self.critical_targets, self.num_targets)


def generate_hotspot_trace(
    config: HotspotTrafficConfig,
    rng: Optional[random.Random] = None,
) -> TrafficTrace:
    """Generate a hotspot-skewed trace according to ``config``."""
    config.validate()
    if rng is None:
        rng = random.Random(config.seed)
    critical = set(config.critical_targets)
    hotspots = list(config.hotspot_targets)
    packet_cost = 2 + config.packet_words
    records: List[tuple] = []
    for initiator in range(config.num_initiators):
        lane = random.Random(rng.randrange(1 << 30))
        cursor = lane.randint(0, config.mean_gap)
        private = initiator % config.num_targets
        while cursor + packet_cost < config.total_cycles:
            if lane.random() < config.hotspot_fraction:
                target = hotspots[lane.randrange(len(hotspots))]
            else:
                target = private
            records.append(
                write_packet(
                    cursor, initiator, target, config.packet_words,
                    target in critical,
                )
            )
            gap = int(lane.expovariate(1.0 / config.mean_gap))
            cursor += packet_cost + max(1, gap)
    return _finish_trace(
        records, config.num_initiators, config.num_targets, config.total_cycles
    )


# -- poisson ----------------------------------------------------------


@dataclass(frozen=True)
class PoissonTrafficConfig:
    """Open-loop Poisson arrivals (memoryless background load).

    Each initiator issues packets as a Poisson process of ``rate``
    packets per cycle toward its private target, with a ``spread``
    fraction of packets sprayed uniformly over all targets. Back-to-back
    arrivals are serialized (a packet never starts before the previous
    one released the bus), making this the open-loop analogue of a
    saturating initiator.
    """

    num_initiators: int = 8
    num_targets: int = 8
    total_cycles: int = 60_000
    rate: float = 0.004
    spread: float = 0.25
    packet_words: int = 8
    critical_targets: Tuple[int, ...] = field(default=())
    seed: int = 1

    def validate(self) -> None:
        _check_platform(self.num_initiators, self.num_targets)
        if self.rate <= 0.0:
            raise ConfigurationError("rate must be positive")
        if not 0.0 <= self.spread <= 1.0:
            raise ConfigurationError("spread must lie in [0, 1]")
        if self.packet_words < 1:
            raise ConfigurationError("packet_words must be >= 1")
        _check_critical(self.critical_targets, self.num_targets)


def generate_poisson_trace(
    config: PoissonTrafficConfig,
    rng: Optional[random.Random] = None,
) -> TrafficTrace:
    """Generate an open-loop Poisson trace according to ``config``."""
    config.validate()
    if rng is None:
        rng = random.Random(config.seed)
    critical = set(config.critical_targets)
    packet_cost = 2 + config.packet_words
    records: List[tuple] = []
    for initiator in range(config.num_initiators):
        lane = random.Random(rng.randrange(1 << 30))
        private = initiator % config.num_targets
        arrival = lane.expovariate(config.rate)
        busy_until = 0.0
        while True:
            cursor = int(max(arrival, busy_until))
            if cursor + packet_cost >= config.total_cycles:
                break
            if lane.random() < config.spread:
                target = lane.randrange(config.num_targets)
            else:
                target = private
            records.append(
                write_packet(
                    cursor, initiator, target, config.packet_words,
                    target in critical,
                )
            )
            busy_until = float(cursor + packet_cost)
            arrival += lane.expovariate(config.rate)
    return _finish_trace(
        records, config.num_initiators, config.num_targets, config.total_cycles
    )


# -- pipeline ---------------------------------------------------------


@dataclass(frozen=True)
class PipelineTrafficConfig:
    """Producer/consumer streaming pipeline.

    The platform processes repeating *frames* of ``frame_cycles``: stage
    ``i`` (initiator ``i``) streams its output to stage ``i + 1``'s
    memory (target ``(i + 1) % num_targets``) during a slot that starts
    ``i * stage_lag`` cycles into the frame and lasts ``slot_cycles``.
    Adjacent stages therefore overlap pairwise in a chain -- a temporal
    structure the sync-group burst generator cannot produce.
    """

    num_initiators: int = 8
    num_targets: int = 8
    total_cycles: int = 60_000
    frame_cycles: int = 6_000
    slot_cycles: int = 1_500
    stage_lag: int = 700
    slot_jitter: int = 64
    packet_words: int = 16
    packet_gap: int = 2
    critical_targets: Tuple[int, ...] = field(default=())
    seed: int = 1

    def validate(self) -> None:
        _check_platform(self.num_initiators, self.num_targets)
        if self.frame_cycles < 1 or self.slot_cycles < 1:
            raise ConfigurationError("frame_cycles and slot_cycles must be >= 1")
        if self.total_cycles < self.frame_cycles:
            raise ConfigurationError(
                "total_cycles must cover at least one frame "
                f"({self.total_cycles} < {self.frame_cycles})"
            )
        if self.stage_lag < 0 or self.slot_jitter < 0 or self.packet_gap < 0:
            raise ConfigurationError(
                "stage_lag, slot_jitter and packet_gap must be >= 0"
            )
        if self.slot_cycles + self.slot_jitter > self.frame_cycles:
            # A stage's slot (worst-case jittered) must end before its
            # own next-frame slot begins, or one initiator would emit
            # time-overlapping packets -- physically impossible traffic
            # that double-counts busy cycles in comm/wo.
            raise ConfigurationError(
                f"slot_cycles + slot_jitter ({self.slot_cycles} + "
                f"{self.slot_jitter}) must fit within frame_cycles "
                f"({self.frame_cycles})"
            )
        if self.packet_words < 1:
            raise ConfigurationError("packet_words must be >= 1")
        _check_critical(self.critical_targets, self.num_targets)


def generate_pipeline_trace(
    config: PipelineTrafficConfig,
    rng: Optional[random.Random] = None,
) -> TrafficTrace:
    """Generate a staged producer/consumer trace according to ``config``."""
    config.validate()
    if rng is None:
        rng = random.Random(config.seed)
    critical = set(config.critical_targets)
    packet_cost = 2 + config.packet_words
    records: List[tuple] = []
    for stage in range(config.num_initiators):
        lane = random.Random(rng.randrange(1 << 30))
        target = (stage + 1) % config.num_targets
        frame_start = 0
        while frame_start < config.total_cycles:
            jitter = lane.randint(0, config.slot_jitter) if config.slot_jitter else 0
            slot_start = frame_start + stage * config.stage_lag + jitter
            slot_end = min(
                slot_start + config.slot_cycles, config.total_cycles - packet_cost
            )
            cursor = slot_start
            while cursor + packet_cost <= slot_end:
                records.append(
                    write_packet(
                        cursor, stage, target, config.packet_words,
                        target in critical,
                    )
                )
                cursor += packet_cost + config.packet_gap
            frame_start += config.frame_cycles
    return _finish_trace(
        records, config.num_initiators, config.num_targets, config.total_cycles
    )


# -- load scaling -----------------------------------------------------


def scaled_config(config, load_scale: float):
    """A copy of a profile config with its offered load scaled.

    ``load_scale`` multiplies the packet *arrival intensity*: idle gaps
    shrink by the factor (burst/hotspot/pipeline profiles) or the
    arrival rate grows by it (Poisson). ``1.0`` returns the config
    unchanged; values must be positive. The seed is preserved, so a
    scaled variant is a deterministic sibling of its parent scenario.
    """
    if load_scale <= 0.0:
        raise ConfigurationError(f"load_scale must be positive, got {load_scale}")
    if load_scale == 1.0:
        return config
    # Imported here to avoid a circular import at module load.
    from repro.traffic.synthetic import SyntheticTrafficConfig

    if isinstance(config, SyntheticTrafficConfig):
        return replace(
            config, gap_cycles=max(1, int(config.gap_cycles / load_scale))
        )
    if isinstance(config, HotspotTrafficConfig):
        return replace(config, mean_gap=max(1, int(config.mean_gap / load_scale)))
    if isinstance(config, PoissonTrafficConfig):
        return replace(config, rate=config.rate * load_scale)
    if isinstance(config, PipelineTrafficConfig):
        # Pipeline load saturates physically: a slot can grow until it
        # (plus worst-case jitter) fills the frame, after which higher
        # scales only shrink the intra-slot packet gap. Scales past both
        # limits produce identical configs -- the workload is maxed out.
        slot_limit = max(1, config.frame_cycles - config.slot_jitter)
        scaled_slot = max(1, int(config.slot_cycles * load_scale))
        return replace(
            config,
            slot_cycles=min(scaled_slot, slot_limit),
            packet_gap=max(0, int(config.packet_gap / load_scale)),
        )
    raise ConfigurationError(
        f"load scaling is not defined for {type(config).__name__}"
    )


def thin_trace(
    trace: TrafficTrace, keep_fraction: float, seed: int = 0
) -> TrafficTrace:
    """Deterministically subsample a trace to ``keep_fraction`` of packets.

    Used to derive *lighter* load variants of platform-simulated
    application traces (where re-generation is not available). Each
    record is kept independently with probability ``keep_fraction``
    drawn from ``random.Random(seed)`` over the trace's canonical record
    order, so the same (trace, fraction, seed) always yields the same
    subsample. ``keep_fraction`` of 1.0 returns the trace itself.
    """
    if not 0.0 < keep_fraction <= 1.0:
        raise ConfigurationError(
            f"keep_fraction must lie in (0, 1], got {keep_fraction}"
        )
    if keep_fraction == 1.0:
        return trace
    rng = random.Random(seed)
    return trace.select([rng.random() < keep_fraction for _ in range(len(trace))])
