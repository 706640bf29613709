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


def replay_platform(trace) -> SoCConfig:
    """A generic platform matching a recorded trace's shape (``trace``
    is a trace or anything else with its core names, such as a
    :class:`~repro.pipeline.artifacts.TraceShape`).

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
        The recorded traffic to replay: a trace, or a
        :class:`~repro.pipeline.artifacts.TraceSource` known by its
        digest and shape. A source's records load only when the
        programs are built (a replay-stage miss); the platform check,
        :attr:`sim_cycles` and :meth:`workload_key` read its shape and
        digest, and a load whose digest is not that one raises
        :class:`~repro.pipeline.artifacts.TraceDigestMismatch` before
        anything is simulated.
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
        trace,
        config: Optional[SoCConfig] = None,
        pace: bool = True,
        label: str = "",
    ) -> None:
        if isinstance(trace, TrafficTrace):
            self._trace: Optional[TrafficTrace] = trace
            self._source = None
            self._digest: Optional[str] = None
            shape = trace
        else:
            self._trace = None
            self._source = trace
            self._digest = trace.digest
            shape = trace.shape
        if config is None:
            config = replay_platform(shape)
        if (
            config.num_initiators != shape.num_initiators
            or config.num_targets != shape.num_targets
        ):
            raise ConfigurationError(
                f"replay platform is {config.num_initiators}x"
                f"{config.num_targets} but the trace was recorded on "
                f"{shape.num_initiators}x{shape.num_targets}"
            )
        self._num_initiators = shape.num_initiators
        self._total_cycles = shape.total_cycles
        self._config = config
        self.pace = bool(pace)
        self._label = label

    @property
    def trace(self) -> TrafficTrace:
        """The recorded trace, loaded (and checked) on first use."""
        if self._trace is None:
            self._trace = self._source.checked(self._digest)
        return self._trace

    @property
    def platform(self) -> SoCConfig:
        return self._config

    @property
    def sim_cycles(self) -> int:
        """Four times the recorded period: room for congested fabrics."""
        return max(1, self._total_cycles) * 4

    @property
    def label(self) -> str:
        return self._label

    def build_programs(self) -> List[Iterable[Operation]]:
        # The reference model's programs, built from record objects;
        # the kernel replays the trace's columns instead. Programs are
        # materialized lists so a driver can be reused across several
        # candidate fabrics. The initial idle gap is handled by process
        # scheduling (:meth:`start_cycles`), not a leading Compute, so
        # idle initiators never enter the event queue before their
        # first recorded transaction is due.
        records = self.trace.records
        return [
            list(
                trace_replay_program(
                    [records[row] for row in rows], pace=self.pace, start=start
                )
            )
            for rows, start in zip(
                self.records_per_initiator(),
                self.start_cycles() or [0] * self._num_initiators,
            )
        ]

    def records_per_initiator(self) -> List[List[int]]:
        """Each initiator's recorded transactions, as row indices into
        the trace's matrix, in trace (issue) order."""
        return self.trace.initiator_rows()

    def start_cycles(self) -> Optional[List[int]]:
        """Each initiator's first recorded issue cycle (0 when it
        issues nothing); ``None`` without pacing."""
        if not self.pace:
            return None
        issues = self.trace.column("issue")
        return [
            int(issues[rows[0]]) if rows else 0
            for rows in self.records_per_initiator()
        ]

    def workload_key(self) -> Dict[str, Any]:
        if self._digest is None:
            from repro.exec.fingerprint import trace_fingerprint

            self._digest = trace_fingerprint(self._trace)
        return {
            "kind": "trace-replay",
            "trace": self._digest,
            "pace": self.pace,
            "platform": platform_spec(self._config),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<TraceDrivenInitiator {self._label!r} on "
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
