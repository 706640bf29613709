"""The simulation kernel's program path against the DES, its exactness oracle.

:func:`~repro.platform.simulate_workload` runs program-driven workloads
-- application trace collection, validation runs -- on the
generator-free kernel in :mod:`repro.platform.kernel`, pulling each
initiator's operations lazily. The general DES stays the reference
model: for any program of compute delays, accesses, locks and barriers,
on any platform, binding, arbitration policy, start offsets and cycle
budget, the kernel must equal a :class:`~repro.platform.SoC` built
directly from the same programs on every field of every record --
``stream`` included, which record equality ignores -- on the completion
order, on ``finished``, ``simulated_cycles`` and bus utilization, and on
the number of events scheduled. Errors a program raises in the DES are
raised by the kernel too.
"""

import itertools
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import build_application
from repro.errors import ApplicationError, SimulationError, TraceError
from repro.platform import (
    ARBITRATION_POLICIES,
    SIMULATION_COUNTER,
    Barrier,
    Compute,
    Lock,
    ProgramDriver,
    Read,
    SoC,
    SoCConfig,
    TargetConfig,
    TimingModel,
    Unlock,
    Write,
    full_crossbar_binding,
    shared_bus_binding,
    simulate_workload,
)
from repro.platform.adapters import AdapterConfig


def record_fields(trace):
    """Every field of every record, ``stream`` included."""
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
            rec.stream,
        )
        for rec in trace.records
    ]


class ListedDriver:
    """A program-driven workload with explicit programs and start offsets."""

    def __init__(self, platform, programs, sim_cycles, starts=None):
        self.platform = platform
        self.sim_cycles = sim_cycles
        self.label = "listed"
        self._programs = programs
        self._starts = starts

    def build_programs(self):
        return [iter(program) for program in self._programs]

    def start_cycles(self):
        return None if self._starts is None else list(self._starts)


def des_run(driver, it_binding, ti_binding, budget):
    """The oracle: the DES on the driver's programs, built directly."""
    soc = SoC(
        driver.platform,
        it_binding,
        ti_binding,
        driver.build_programs(),
        start_cycles=driver.start_cycles(),
    )
    return soc.run(budget), soc.engine.scheduled


def assert_kernel_matches_des(driver, it_binding, ti_binding, budget=None):
    budget = budget or driver.sim_cycles
    des, des_events = des_run(driver, it_binding, ti_binding, budget)
    kernel = simulate_workload(driver, it_binding, ti_binding, budget)
    assert record_fields(kernel.trace) == record_fields(des.trace)
    assert kernel.latencies == des.latencies  # completion order
    assert kernel.critical == des.critical
    assert kernel.finished == des.finished
    assert kernel.simulated_cycles == des.simulated_cycles
    assert kernel.it_utilization == des.it_utilization
    assert kernel.ti_utilization == des.ti_utilization
    assert kernel.events == des.events == des_events
    return kernel


@st.composite
def bindings(draw, count):
    """A dense binding of ``count`` cores onto 1..count buses."""
    buses = draw(st.integers(1, count))
    binding = list(range(buses)) + [
        draw(st.integers(0, buses - 1)) for _ in range(count - buses)
    ]
    return draw(st.permutations(binding))


@st.composite
def programs(draw, num_initiators, num_targets):
    """One program per initiator: compute delays (zero included), plain
    accesses, lock-protected sections and barriers. A barrier may name
    more participants than ever arrive, so its waiters poll until the
    budget; ``poll_cycles=0`` makes zero-delay polls."""
    target = st.integers(0, num_targets - 1)
    access = st.builds(
        lambda op, *args: op(*args),
        st.sampled_from([Read, Write]),
        target,
        st.integers(1, 4),
        st.booleans(),
        st.sampled_from(["", "s"]),
    )
    compute = st.builds(Compute, st.integers(0, 20))
    plain = st.one_of(access, compute)
    result = []
    for _ in range(num_initiators):
        program = []
        for _ in range(draw(st.integers(0, 6))):
            block = draw(st.sampled_from(["plain", "plain", "lock", "barrier"]))
            if block == "plain":
                program.append(draw(plain))
            elif block == "lock":
                semaphore, lock_id = draw(target), draw(st.integers(0, 1))
                program.append(
                    Lock(semaphore, lock_id, poll_cycles=draw(st.integers(0, 6)))
                )
                program.extend(draw(st.lists(plain, max_size=3)))
                program.append(Unlock(semaphore, lock_id))
            else:
                program.append(
                    Barrier(
                        draw(target),
                        draw(st.integers(0, 1)),
                        draw(st.integers(1, num_initiators + 1)),
                        poll_cycles=draw(st.integers(0, 6)),
                    )
                )
        result.append(program)
    return result


@st.composite
def program_cases(draw):
    """Random programs, platform, start offsets, bindings and budget."""
    num_initiators = draw(st.integers(1, 4))
    num_targets = draw(st.integers(1, 4))
    adapters = st.dictionaries(
        st.integers(0, min(num_initiators, num_targets) - 1),
        st.builds(
            AdapterConfig,
            width_ratio=st.sampled_from([0.5, 1.0, 1.5, 2.0]),
            extra_cycles=st.integers(0, 2),
        ),
        max_size=2,
    )
    platform = SoCConfig(
        initiator_names=[f"m{index}" for index in range(num_initiators)],
        targets=[
            TargetConfig(
                name=f"t{index}",
                service_cycles=draw(st.integers(0, 3)),
                critical=draw(st.booleans()),
            )
            for index in range(num_targets)
        ],
        # Zero-cycle arbitration and headers make zero-delay holds.
        timing=TimingModel(
            arbitration_cycles=draw(st.integers(0, 2)),
            header_cycles=draw(st.integers(0, 2)),
            cycles_per_word=draw(st.integers(1, 2)),
        ),
        arbitration=draw(st.sampled_from(ARBITRATION_POLICIES)),
        initiator_adapters=draw(adapters),
        target_adapters=draw(adapters),
        seed=draw(st.integers(0, 50)),
    )
    starts = draw(
        st.one_of(
            st.none(),
            st.lists(
                st.integers(0, 30), min_size=num_initiators, max_size=num_initiators
            ),
        )
    )
    driver = ListedDriver(
        platform, draw(programs(num_initiators, num_targets)), 600, starts
    )
    budget = draw(st.one_of(st.none(), st.integers(1, 300)))
    return (
        driver,
        draw(bindings(num_targets)),
        draw(bindings(num_initiators)),
        budget,
    )


def dense_random_binding(count, rng):
    buses = rng.randint(1, count)
    binding = list(range(buses)) + [rng.randrange(buses) for _ in range(count - buses)]
    rng.shuffle(binding)
    return binding


class TestKernelEqualsDes:
    @settings(max_examples=300, deadline=None)
    @given(program_cases())
    def test_random_programs(self, case):
        driver, it_binding, ti_binding, budget = case
        assert_kernel_matches_des(driver, it_binding, ti_binding, budget)

    @pytest.mark.parametrize("policy", ARBITRATION_POLICIES)
    @pytest.mark.parametrize("name", ["qsort", "mat1", "mat2", "fft", "des"])
    def test_seed_apps(self, name, policy):
        """The five seed apps under every policy on full, shared and a
        random binding, each run to the app's budget and cut at a third
        of it: 120 cases."""
        app = build_application(name)
        app = replace(app, config=replace(app.config, arbitration=policy))
        rng = random.Random(f"{name}/{policy}")
        fabrics = [
            (full_crossbar_binding, full_crossbar_binding),
            (shared_bus_binding, shared_bus_binding),
            (
                lambda count: dense_random_binding(count, rng),
                lambda count: dense_random_binding(count, rng),
            ),
        ]
        for it_fabric, ti_fabric in fabrics:
            it_binding = it_fabric(app.num_targets)
            ti_binding = ti_fabric(app.num_initiators)
            for budget in (app.sim_cycles, app.sim_cycles // 3):
                assert_kernel_matches_des(app.driver(), it_binding, ti_binding, budget)


class TestProgramKernelContract:
    def test_programs_are_pulled_lazily(self):
        """An endless program runs to the budget: the kernel never drains
        a program ahead of the simulation."""
        platform = SoCConfig(
            initiator_names=["m0", "m1"], targets=[TargetConfig(name="t0")]
        )
        endless = ProgramDriver(
            platform,
            [lambda: itertools.cycle([Read(0), Compute(3)])] * 2,
            sim_cycles=500,
        )
        kernel = assert_kernel_matches_des(
            endless, full_crossbar_binding(1), full_crossbar_binding(2)
        )
        assert not kernel.finished
        assert kernel.num_transactions > 0

    def test_one_simulation_per_run(self):
        app = build_application("qsort")
        SIMULATION_COUNTER.reset()
        app.simulate_full_crossbar(app.sim_cycles // 10)
        assert SIMULATION_COUNTER.runs == 1

    @pytest.mark.parametrize(
        "program, error, message",
        [
            (["nop"], ApplicationError, "unsupported operation 'nop'"),
            ([Unlock(0, 3)], ApplicationError, "does not hold"),
            ([Barrier(0, 0, participants=0)], ApplicationError, "participants"),
            ([Compute(2), Read(0, burst=0)], SimulationError, "burst must be"),
            ([Write(-1)], TraceError, "must be non-negative"),
            ([Read(1)], IndexError, "out of range"),
        ],
    )
    def test_raises_what_the_des_raises(self, program, error, message):
        platform = SoCConfig(initiator_names=["m0"], targets=[TargetConfig("t0")])
        driver = ListedDriver(platform, [program], 100)
        bindings = (full_crossbar_binding(1), full_crossbar_binding(1))
        runs = SIMULATION_COUNTER.runs
        with pytest.raises(error, match=message):
            des_run(driver, *bindings, driver.sim_cycles)
        with pytest.raises(error, match=message):
            simulate_workload(driver, *bindings)
        assert SIMULATION_COUNTER.runs == runs + 2
