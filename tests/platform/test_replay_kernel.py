"""The simulation kernel's trace path against the DES, its exactness oracle.

:func:`~repro.platform.simulate_workload` runs trace-driven workloads on
the generator-free kernel in :mod:`repro.platform.kernel`. The general
DES stays the reference model: for any trace, platform, binding,
arbitration policy, pacing mode and cycle budget, the kernel must equal
a :class:`~repro.platform.SoC` built directly from the driver's programs
on every timestamp of every transaction, on ``finished``,
``simulated_cycles`` and bus utilization, and on the number of events
scheduled -- the kernel mirrors the DES event for event.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import build_application
from repro.errors import ConfigurationError
from repro.obs import metrics
from repro.platform import (
    ARBITRATION_POLICIES,
    SIMULATION_COUNTER,
    SoC,
    SoCConfig,
    TargetConfig,
    TimingModel,
    TraceDrivenInitiator,
    full_crossbar_binding,
    shared_bus_binding,
    simulate_workload,
)
from repro.platform.adapters import AdapterConfig
from repro.platform.kernel import replay_trace
from repro.traffic.events import TraceRecord, TransactionKind
from repro.traffic.trace import TrafficTrace


def record_timing(trace):
    """Every timestamp of every transaction, in canonical order."""
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
    assert record_timing(kernel.trace) == record_timing(des.trace)
    assert kernel.finished == des.finished
    assert kernel.simulated_cycles == des.simulated_cycles
    assert kernel.it_utilization == des.it_utilization
    assert kernel.ti_utilization == des.ti_utilization
    assert kernel.events == des.events == des_events
    assert kernel.num_transactions == len(des.trace)
    assert kernel.latency_stats() == des.latency_stats()
    assert kernel.latency_stats(critical_only=True) == des.latency_stats(
        critical_only=True
    )
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
def replay_cases(draw):
    """A random trace, platform, pair of bindings and cycle budget."""
    num_initiators = draw(st.integers(1, 4))
    num_targets = draw(st.integers(1, 4))
    records = []
    for initiator in range(num_initiators):
        clock = draw(st.integers(0, 30))
        for _ in range(draw(st.integers(0, 7))):
            clock += draw(st.integers(0, 25))
            stamps = [clock]
            for _ in range(7):
                stamps.append(stamps[-1] + draw(st.integers(0, 4)))
            records.append(
                TraceRecord(
                    initiator,
                    draw(st.integers(0, num_targets - 1)),
                    draw(st.sampled_from(TransactionKind)),
                    draw(st.integers(1, 4)),
                    *stamps,
                    critical=draw(st.booleans()),
                    stream=draw(st.sampled_from(["", "s"])),
                )
            )
    trace = TrafficTrace(
        records,
        num_initiators=num_initiators,
        num_targets=num_targets,
        total_cycles=max([rec.complete for rec in records], default=0) + 1,
    )
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
    )
    driver = TraceDrivenInitiator(trace, config=platform, pace=draw(st.booleans()))
    budget = draw(
        st.one_of(st.none(), st.integers(1, max(1, driver.sim_cycles // 2)))
    )
    return (
        driver,
        draw(bindings(num_targets)),
        draw(bindings(num_initiators)),
        budget,
    )


class TestKernelEqualsDes:
    @settings(max_examples=300, deadline=None)
    @given(replay_cases())
    def test_random_traces(self, case):
        driver, it_binding, ti_binding, budget = case
        assert_kernel_matches_des(driver, it_binding, ti_binding, budget)

    @pytest.mark.parametrize(
        "name, fabric",
        [(name, "full") for name in ("qsort", "mat1", "mat2", "fft", "des")]
        + [("qsort", "shared")],
    )
    def test_seed_app_traces_on_their_platforms(self, name, fabric):
        app = build_application(name)
        trace = app.simulate_full_crossbar().trace
        binding = full_crossbar_binding if fabric == "full" else shared_bus_binding
        kernel = assert_kernel_matches_des(
            TraceDrivenInitiator(trace, config=app.config),
            binding(app.num_targets),
            binding(app.num_initiators),
        )
        assert kernel.finished
        if fabric == "full":  # replayed on the fabric that recorded it
            assert record_timing(kernel.trace) == record_timing(trace)

    def test_budget_cut_leaves_transactions_in_flight(self):
        app = build_application("qsort")
        trace = app.simulate_full_crossbar().trace
        driver = TraceDrivenInitiator(trace, config=app.config)
        kernel = assert_kernel_matches_des(
            driver,
            shared_bus_binding(app.num_targets),
            shared_bus_binding(app.num_initiators),
            trace.total_cycles // 3,
        )
        assert not kernel.finished
        assert 0 < kernel.num_transactions < len(trace)


class TestKernelContract:
    @pytest.fixture(scope="class")
    def driver(self):
        return TraceDrivenInitiator(
            build_application("qsort").simulate_full_crossbar().trace
        )

    def test_one_simulation_per_run(self, driver):
        SIMULATION_COUNTER.reset()
        simulate_workload(
            driver,
            full_crossbar_binding(driver.trace.num_targets),
            full_crossbar_binding(driver.trace.num_initiators),
        )
        assert SIMULATION_COUNTER.runs == 1

    def test_event_counter_by_kernel(self, driver):
        events = metrics.REGISTRY.get("repro_sim_events_total")
        cycles = metrics.REGISTRY.get("repro_sim_cycles_total")

        def counts():
            return [
                family.value(kernel=kernel)
                for family in (events, cycles)
                for kernel in ("kernel", "des")
            ]

        bindings = (
            full_crossbar_binding(driver.trace.num_targets),
            full_crossbar_binding(driver.trace.num_initiators),
        )
        before = counts()
        result = simulate_workload(driver, *bindings)
        assert counts() == [
            before[0] + result.events,
            before[1],
            before[2] + result.simulated_cycles,
            before[3],
        ]
        des, des_events = des_run(driver, *bindings, driver.sim_cycles)
        assert counts() == [
            before[0] + result.events,
            before[1] + des_events,
            before[2] + result.simulated_cycles,
            before[3] + des.simulated_cycles,
        ]

    def test_trace_is_built_on_first_access(self, driver):
        result = simulate_workload(
            driver,
            full_crossbar_binding(driver.trace.num_targets),
            full_crossbar_binding(driver.trace.num_initiators),
        )
        assert result._trace is None
        assert result.trace is result.trace
        assert len(result.trace) == result.num_transactions

    @pytest.mark.parametrize(
        "it_binding, ti_binding, budget, message",
        [
            ([0], None, None, "it_binding covers"),
            (None, [0], None, "ti_binding covers"),
            ("gap", None, None, "renumber buses densely"),
            (None, None, 0, "max_cycles must be >= 1"),
        ],
    )
    def test_rejects_what_the_des_rejects(
        self, driver, it_binding, ti_binding, budget, message
    ):
        trace = driver.trace
        if it_binding is None:
            it_binding = full_crossbar_binding(trace.num_targets)
        elif it_binding == "gap":
            it_binding = [0] + [2] * (trace.num_targets - 1)
        if ti_binding is None:
            ti_binding = full_crossbar_binding(trace.num_initiators)
        if budget is None:
            budget = driver.sim_cycles
        runs = SIMULATION_COUNTER.runs
        with pytest.raises(ConfigurationError, match=message):
            replay_trace(driver, it_binding, ti_binding, budget)
        with pytest.raises(ConfigurationError, match=message):
            des_run(driver, it_binding, ti_binding, budget)
        assert SIMULATION_COUNTER.runs == runs
