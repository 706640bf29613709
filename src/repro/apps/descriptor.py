"""Application descriptors.

An :class:`Application` bundles everything needed to simulate one MPSoC
benchmark on any candidate crossbar: the platform description (cores,
timing), fresh per-initiator programs, and the recommended simulation
length. The standard platform layout follows the paper's Fig. 2(a):

* initiators: ``arm0 .. armN-1``
* targets: ``pm0 .. pmN-1`` (private memories), then ``shared``,
  ``sem`` (semaphore memory) and ``irq`` (interrupt device).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence, Tuple

from repro.errors import ApplicationError
from repro.platform.drivers import ProgramDriver, simulate_workload
from repro.platform.initiator import Operation
from repro.platform.soc import SimulationResult, SoCConfig
from repro.platform.fabric import full_crossbar_binding, shared_bus_binding
from repro.platform.target import TargetConfig, TargetKind

__all__ = ["Application", "standard_platform"]

ProgramBuilder = Callable[[], Iterator[Operation]]


def standard_platform(
    num_arms: int,
    critical_targets: Sequence[int] = (),
    seed: int = 1,
) -> SoCConfig:
    """The paper's 2N+3-core platform: N ARMs, N PMs, shared, sem, irq."""
    if num_arms < 1:
        raise ApplicationError(f"need at least one ARM core, got {num_arms}")
    targets = [
        TargetConfig(name=f"pm{index}", kind=TargetKind.MEMORY)
        for index in range(num_arms)
    ]
    targets.append(TargetConfig(name="shared", kind=TargetKind.MEMORY,
                                service_cycles=2))
    targets.append(TargetConfig(name="sem", kind=TargetKind.SEMAPHORE))
    targets.append(TargetConfig(name="irq", kind=TargetKind.INTERRUPT))
    critical = set(critical_targets)
    targets = [
        TargetConfig(
            name=target.name,
            kind=target.kind,
            service_cycles=target.service_cycles,
            critical=(index in critical),
        )
        for index, target in enumerate(targets)
    ]
    return SoCConfig(
        initiator_names=[f"arm{index}" for index in range(num_arms)],
        targets=targets,
        seed=seed,
    )


@dataclass(frozen=True)
class Application:
    """A simulatable MPSoC benchmark.

    Attributes
    ----------
    name:
        Registry name (``"mat1"``, ``"fft"``, ...).
    config:
        Platform description shared by all candidate crossbars.
    program_builders:
        One zero-argument callable per initiator returning a *fresh*
        operation iterator (programs are consumed by simulation).
    sim_cycles:
        Simulation length that covers the workload with margin.
    default_window:
        Recommended analysis window size for synthesis (roughly the
        workload's iteration period, per the paper's window-sizing
        guidance).
    description:
        One-line summary for reports.
    registry_key:
        Set by :func:`repro.apps.build_application` on *default* builds
        only: the registry name that reproduces this exact application
        (the content key of its collected trace and its replays).
        ``None`` for customized or hand-built applications, which
        cannot be faithfully rebuilt by name.
    """

    name: str
    config: SoCConfig
    program_builders: Tuple[ProgramBuilder, ...]
    sim_cycles: int
    default_window: int = 1_000
    description: str = ""
    registry_key: Optional[str] = None

    def __post_init__(self) -> None:
        if len(self.program_builders) != self.config.num_initiators:
            raise ApplicationError(
                f"{self.name}: {len(self.program_builders)} programs for "
                f"{self.config.num_initiators} initiators"
            )
        if self.sim_cycles < 1:
            raise ApplicationError(f"{self.name}: sim_cycles must be positive")

    @property
    def num_initiators(self) -> int:
        return self.config.num_initiators

    @property
    def num_targets(self) -> int:
        return self.config.num_targets

    @property
    def num_cores(self) -> int:
        """Total cores; matches the paper's benchmark sizes."""
        return self.num_initiators + self.num_targets

    def build_programs(self):
        """Fresh program iterators, one per initiator."""
        return [builder() for builder in self.program_builders]

    def driver(self, source_key: Optional[str] = None) -> ProgramDriver:
        """This application as a program-driven workload driver.

        ``source_key`` overrides the content key used for replay
        caching; default registry builds derive ``app:<name>`` from
        their ``registry_key``, customized builds stay unkeyed (their
        replays are never cached).
        """
        if source_key is None and self.registry_key is not None:
            source_key = f"app:{self.registry_key}"
        return ProgramDriver(
            config=self.config,
            program_builders=self.program_builders,
            sim_cycles=self.sim_cycles,
            label=self.name,
            source_key=source_key,
        )

    def simulate(
        self,
        it_binding: Sequence[int],
        ti_binding: Sequence[int],
        max_cycles: Optional[int] = None,
    ) -> SimulationResult:
        """Simulate this application on the given crossbar bindings."""
        return simulate_workload(
            self.driver(), it_binding, ti_binding, max_cycles
        )

    def simulate_full_crossbar(
        self, max_cycles: Optional[int] = None
    ) -> SimulationResult:
        """Phase-1 reference run: every core on its own bus."""
        return self.simulate(
            full_crossbar_binding(self.num_targets),
            full_crossbar_binding(self.num_initiators),
            max_cycles,
        )

    def simulate_shared_bus(
        self, max_cycles: Optional[int] = None
    ) -> SimulationResult:
        """Single bus per direction (the paper's shared reference)."""
        return self.simulate(
            shared_bus_binding(self.num_targets),
            shared_bus_binding(self.num_initiators),
            max_cycles,
        )
