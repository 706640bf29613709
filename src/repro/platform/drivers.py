"""Pluggable workload drivers for the platform simulator.

Historically the only way to drive a fabric was a live application
program: :class:`~repro.platform.soc.SoC` interpreted per-initiator
operation streams built by an :class:`~repro.apps.descriptor.Application`.
That coupling meant recorded traffic -- synthetic profile traces,
load-thinned application traces -- could not be pushed through the
arbiter/bus/target models at all, so candidate crossbars for those
workloads went without simulated-latency validation.

This module makes the workload a first-class *driver* layer:

* :class:`WorkloadDriver` -- the protocol every driver satisfies: a
  platform description, fresh per-initiator programs, a recommended
  cycle budget, and a JSON-able content key for caching,
* :class:`ProgramDriver` -- the existing program-driven initiator path,
  wrapping an application's platform and program builders,
* :class:`TraceDrivenInitiator` -- replays a recorded
  :class:`~repro.traffic.trace.TrafficTrace` through the fabric:
  each initiator re-issues its recorded transactions at their recorded
  issue cycles (falling back to back-to-back issue when the candidate
  fabric is more congested), so inter-transaction gaps, load scaling
  and thinning already baked into the trace are respected exactly.

:func:`simulate_workload` is the single simulation entry point both
drivers share; everything that simulates a workload (trace collection,
the synthesis validation stage, scenario-suite latency replay, engine
evaluation) routes through it. Every driver runs on the simulation
kernel (:mod:`repro.platform.kernel`): a trace-driven one from its
flattened records, any other from its programs, pulled lazily. The
general DES (:class:`~repro.platform.soc.SoC`) is the kernel's
reference model and has no caller here.

Contracts
---------
* **Content addressing.** Every driver exposes
  :meth:`WorkloadDriver.workload_key` -- a JSON-able content key the
  replay stage fingerprints together with the fabric bindings and the
  cycle budget, so simulated latencies are cacheable; drivers that
  cannot be content-addressed raise and their replays simply never
  cache.
* **Caching.** Drivers hold no cache themselves -- replay results
  persist as :class:`~repro.pipeline.artifacts.ReplayArtifact` stage
  entries through the pipeline store.
* **Determinism.** A driver's programs are rebuilt fresh per
  simulation and are deterministic given the driver's inputs: the
  program-driven and trace-driven paths produce identical
  per-transaction timestamps when replaying a recording on its source
  fabric (asserted by ``tests/platform/test_drivers.py`` against a
  recording made on the DES).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Protocol, Sequence, runtime_checkable

from repro.errors import ConfigurationError
from repro.platform.initiator import Operation, trace_replay_program
from repro.platform.kernel import replay_trace, run_programs
from repro.platform.soc import SimulationResult, SoCConfig
from repro.platform.target import TargetConfig
from repro.traffic.trace import TrafficTrace

__all__ = [
    "WorkloadDriver",
    "ProgramDriver",
    "TraceDrivenInitiator",
    "replay_platform",
    "platform_spec",
    "simulate_workload",
]


@runtime_checkable
class WorkloadDriver(Protocol):
    """What it takes to drive a fabric: platform + programs + identity.

    A driver owns the *workload* half of a simulation; the caller owns
    the *fabric* half (the crossbar bindings under evaluation). The two
    halves meet in :func:`simulate_workload`.
    """

    @property
    def platform(self) -> SoCConfig:
        """The platform description the workload runs on."""
        ...

    @property
    def sim_cycles(self) -> int:
        """Recommended simulation budget covering the workload."""
        ...

    @property
    def label(self) -> str:
        """Human-readable workload name for reports."""
        ...

    def build_programs(self) -> List[Iterable[Operation]]:
        """Fresh per-initiator operation streams (consumed by one run)."""
        ...

    def start_cycles(self) -> Optional[List[int]]:
        """Per-initiator absolute start cycles, or ``None`` for cycle 0.

        Trace replay schedules each initiator's process at its first
        recorded issue cycle; program-driven workloads start everyone at
        cycle 0 as always.
        """
        ...

    def workload_key(self) -> Dict[str, Any]:
        """JSON-able content key identifying this exact workload.

        Two drivers with equal keys must produce identical simulations
        on identical fabrics -- the property replay caching relies on.
        """
        ...


def platform_spec(config: SoCConfig) -> Dict[str, Any]:
    """JSON-able encoding of every :class:`SoCConfig` field that can
    influence a simulation; part of a driver's workload key."""
    return {
        "initiators": list(config.initiator_names),
        "targets": [
            {
                "name": target.name,
                "kind": target.kind.value,
                "service_cycles": target.service_cycles,
                "critical": target.critical,
            }
            for target in config.targets
        ],
        "timing": {
            "arbitration_cycles": config.timing.arbitration_cycles,
            "header_cycles": config.timing.header_cycles,
            "cycles_per_word": config.timing.cycles_per_word,
        },
        "arbitration": config.arbitration,
        "initiator_adapters": {
            str(index): [adapter.width_ratio, adapter.extra_cycles]
            for index, adapter in sorted(config.initiator_adapters.items())
        },
        "target_adapters": {
            str(index): [adapter.width_ratio, adapter.extra_cycles]
            for index, adapter in sorted(config.target_adapters.items())
        },
        "seed": config.seed,
    }


def replay_platform(trace: TrafficTrace) -> SoCConfig:
    """A generic platform matching a recorded trace's shape.

    Profile-generated traces carry no platform description of their
    own; replay gives them memory-kind targets with the default single
    wait state and the trace's core names. Application traces should
    replay on the application's real platform instead (pass the app's
    ``config`` to :class:`TraceDrivenInitiator`).
    """
    return SoCConfig(
        initiator_names=list(trace.initiator_names),
        targets=[TargetConfig(name=name) for name in trace.target_names],
    )


class ProgramDriver:
    """The program-driven workload: live application programs.

    Parameters
    ----------
    config:
        Platform description.
    program_builders:
        One zero-argument callable per initiator returning a fresh
        operation iterator.
    sim_cycles:
        Recommended simulation budget.
    label:
        Workload name for reports.
    source_key:
        Canonical content key of the program source (e.g. an
        application registry name plus its build parameters). ``None``
        marks a workload that cannot be content-addressed -- replay
        results for it are never cached.
    """

    def __init__(
        self,
        config: SoCConfig,
        program_builders: Sequence,
        sim_cycles: int,
        label: str = "",
        source_key: Optional[str] = None,
    ) -> None:
        if len(program_builders) != config.num_initiators:
            raise ConfigurationError(
                f"{len(program_builders)} program builders for "
                f"{config.num_initiators} initiators"
            )
        if sim_cycles < 1:
            raise ConfigurationError("sim_cycles must be >= 1")
        self._config = config
        self._builders = tuple(program_builders)
        self._sim_cycles = int(sim_cycles)
        self._label = label
        self.source_key = source_key

    @property
    def platform(self) -> SoCConfig:
        return self._config

    @property
    def sim_cycles(self) -> int:
        return self._sim_cycles

    @property
    def label(self) -> str:
        return self._label

    def build_programs(self) -> List[Iterable[Operation]]:
        return [builder() for builder in self._builders]

    def start_cycles(self) -> Optional[List[int]]:
        return None

    def workload_key(self) -> Dict[str, Any]:
        if self.source_key is None:
            raise ConfigurationError(
                f"program workload {self._label!r} has no source key; only "
                f"content-addressed workloads can key replay caches"
            )
        return {
            "kind": "program",
            "source": self.source_key,
            "platform": platform_spec(self._config),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ProgramDriver {self._label!r} ({len(self._builders)} programs)>"


class TraceDrivenInitiator:
    """Replays a recorded trace through the fabric models.

    Each initiator's recorded transactions become a replay program
    (:func:`~repro.platform.initiator.trace_replay_program`): accesses
    re-issue at their recorded issue cycles, preserving the recorded
    inter-transaction gaps; when the candidate fabric is more congested
    than the one that produced the trace, the initiator falls behind
    and issues back to back, modeling a master with a queued workload.
    Load scaling and thinning need no special handling -- they are
    already reflected in the records being replayed.

    Parameters
    ----------
    trace:
        The recorded traffic to replay.
    config:
        Platform to replay on; defaults to the generic
        :func:`replay_platform` shape derived from the trace.
        Application traces should pass the application's own config so
        target service times match the original platform.
    pace:
        Issue at recorded cycles (default) or back to back.
    label:
        Workload name for reports.
    """

    def __init__(
        self,
        trace: TrafficTrace,
        config: Optional[SoCConfig] = None,
        pace: bool = True,
        label: str = "",
    ) -> None:
        if config is None:
            config = replay_platform(trace)
        if (
            config.num_initiators != trace.num_initiators
            or config.num_targets != trace.num_targets
        ):
            raise ConfigurationError(
                f"replay platform is {config.num_initiators}x"
                f"{config.num_targets} but the trace was recorded on "
                f"{trace.num_initiators}x{trace.num_targets}"
            )
        self.trace = trace
        self._config = config
        self.pace = bool(pace)
        self._label = label

    @property
    def platform(self) -> SoCConfig:
        return self._config

    @property
    def sim_cycles(self) -> int:
        """Four times the recorded period: room for congested fabrics."""
        return max(1, self.trace.total_cycles) * 4

    @property
    def label(self) -> str:
        return self._label

    def build_programs(self) -> List[Iterable[Operation]]:
        # One pass over the records instead of one full scan per
        # initiator; programs are materialized lists so a driver can be
        # reused across several candidate fabrics. The initial idle gap
        # is handled by process scheduling (:meth:`start_cycles`), not a
        # leading Compute, so idle initiators never enter the event
        # queue before their first recorded transaction is due.
        return [
            list(
                trace_replay_program(records, pace=self.pace, start=start)
            )
            for records, start in zip(
                self.records_per_initiator(),
                self.start_cycles() or [0] * self.trace.num_initiators,
            )
        ]

    def records_per_initiator(self) -> List[List]:
        """Each initiator's recorded transactions, in trace order."""
        per_initiator: List[List] = [
            [] for _ in range(self.trace.num_initiators)
        ]
        for record in self.trace.records:
            per_initiator[record.initiator].append(record)
        return per_initiator

    def start_cycles(self) -> Optional[List[int]]:
        if not self.pace:
            return None
        starts = [0] * self.trace.num_initiators
        first_seen: Dict[int, int] = {}
        for record in self.trace.records:  # records are sorted by issue
            if record.initiator not in first_seen:
                first_seen[record.initiator] = record.issue
        for initiator, issue in first_seen.items():
            starts[initiator] = issue
        return starts

    def workload_key(self) -> Dict[str, Any]:
        from repro.exec.fingerprint import trace_fingerprint

        return {
            "kind": "trace-replay",
            "trace": trace_fingerprint(self.trace),
            "pace": self.pace,
            "platform": platform_spec(self._config),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<TraceDrivenInitiator {len(self.trace)} records on "
            f"{self._config.num_initiators}x{self._config.num_targets}>"
        )


def simulate_workload(
    driver: WorkloadDriver,
    it_binding: Sequence[int],
    ti_binding: Sequence[int],
    max_cycles: Optional[int] = None,
) -> SimulationResult:
    """Simulate a driver's workload on the given crossbar bindings.

    The one place a workload meets a fabric. Every workload runs on the
    simulation kernel (:mod:`repro.platform.kernel`), which reproduces
    the DES event for event: a trace-driven one replays its records
    from pre-flattened columns, any other driver's operation streams
    are pulled one operation at a time, from its start cycles.
    """
    budget = max_cycles or driver.sim_cycles
    if isinstance(driver, TraceDrivenInitiator):
        return replay_trace(driver, it_binding, ti_binding, budget)
    return run_programs(driver, it_binding, ti_binding, budget)
