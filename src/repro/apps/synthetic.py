"""The 20-core synthetic benchmark (paper Sections 7.2 and 7.4).

Unlike the five MPSoC suites, the synthetic benchmark is defined directly
by its traffic (bursts of a typical size separated by gaps), so it is
generated as a trace by :mod:`repro.traffic.synthetic` and wrapped here
as an :class:`~repro.apps.descriptor.Application` via trace replay --
letting the same synthesis + validation pipeline run on it.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.apps.descriptor import Application
from repro.platform.initiator import trace_replay_program
from repro.platform.soc import SoCConfig
from repro.platform.target import TargetConfig, TargetKind
from repro.traffic.synthetic import SyntheticTrafficConfig, generate_synthetic_trace
from repro.traffic.trace import TrafficTrace

__all__ = ["build_synthetic", "synthetic_trace"]


def synthetic_trace(
    burst_cycles: int = 1_000,
    total_cycles: int = 120_000,
    num_initiators: int = 10,
    num_targets: int = 10,
    sync_groups: Optional[Tuple[Tuple[int, ...], ...]] = None,
    critical_targets: Sequence[int] = (),
    seed: int = 3,
) -> TrafficTrace:
    """The synthetic benchmark's full-crossbar trace.

    Defaults give the paper's setup: 20 cores, typical burst around 1000
    cycles.
    """
    config = SyntheticTrafficConfig(
        num_initiators=num_initiators,
        num_targets=num_targets,
        total_cycles=total_cycles,
        burst_cycles=burst_cycles,
        gap_cycles=max(burst_cycles * 2, 500),
        sync_groups=sync_groups,
        critical_targets=tuple(critical_targets),
        seed=seed,
    )
    return generate_synthetic_trace(config)


def build_synthetic(
    burst_cycles: int = 1_000,
    total_cycles: int = 120_000,
    seed: int = 3,
    critical_targets: Sequence[int] = (),
) -> Application:
    """Wrap the synthetic benchmark as a replayable application."""
    trace = synthetic_trace(
        burst_cycles=burst_cycles,
        total_cycles=total_cycles,
        critical_targets=critical_targets,
        seed=seed,
    )
    config = SoCConfig(
        initiator_names=list(trace.initiator_names),
        targets=[
            TargetConfig(
                name=name,
                kind=TargetKind.MEMORY,
                critical=(index in set(critical_targets)),
            )
            for index, name in enumerate(trace.target_names)
        ],
        seed=seed,
    )
    builders = tuple(
        (lambda rows=rows: trace_replay_program(trace, rows))
        for rows in trace.initiator_rows()
    )
    return Application(
        name="synthetic",
        config=config,
        program_builders=builders,
        sim_cycles=total_cycles * 3,
        default_window=burst_cycles * 2,
        description=f"20-core synthetic burst benchmark (burst ~{burst_cycles} cy)",
    )
