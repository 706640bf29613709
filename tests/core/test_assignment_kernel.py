"""The packed-integer assignment kernel against the pre-kernel reference.

:func:`repro.core.assignment.solve_assignment` must return the same
:class:`~repro.core.assignment.AssignmentResult` as
``tests/oracles/assignment_reference.py`` -- status, binding, objective,
``buses_used``, ``nodes`` and ``found_at`` -- or raise the same
:class:`~repro.errors.SolverError`, on random instances and on every
solve the five seed apps make at thresholds 0.3 and 0.2.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.core.binding
import repro.core.search
from repro.apps import build_application
from repro.core import CrossbarDesignProblem, SynthesisConfig
from repro.core.assignment import solve_assignment
from repro.core.preprocess import ConflictAnalysis
from repro.errors import SolverError
from repro.pipeline import PipelineRunner
from repro.traffic.criticality import CriticalityReport

from tests.oracles.assignment_reference import solve_assignment_reference

SEED_APPS = ("mat1", "mat2", "fft", "qsort", "des")


def outcome(solver, *args, **kwargs):
    """A solve's result, or the message of the ``SolverError`` it raised."""
    try:
        return solver(*args, **kwargs)
    except SolverError as error:
        return f"SolverError: {error}"


def assert_same_outcome(problem, conflicts, num_buses, **kwargs):
    """Kernel and reference agree; a seed in ``rng`` is replayed for each."""
    seed = kwargs.pop("rng", None)

    def run(solver):
        rng = None if seed is None else random.Random(seed)
        return outcome(solver, problem, conflicts, num_buses, rng=rng, **kwargs)

    expected = run(solve_assignment_reference)
    assert run(solve_assignment) == expected
    return expected


@st.composite
def instances(draw):
    """A problem with unequal window capacities and random conflicts."""
    num_targets = draw(st.integers(1, 8))
    num_windows = draw(st.integers(0, 5))
    capacities = draw(
        st.lists(st.integers(1, 40), min_size=num_windows, max_size=num_windows)
    )
    # light loads let several targets share a bus; full ones test the
    # field width
    scale = draw(st.sampled_from([1, 3, 8]))
    comm = np.array(
        [
            [draw(st.integers(0, cap // scale)) for cap in capacities]
            for _ in range(num_targets)
        ],
        dtype=np.int64,
    ).reshape(num_targets, num_windows)
    # not symmetric: the kernel must read overlap[target, u] as the
    # reference does
    overlap = draw(
        st.lists(
            st.integers(0, 30),
            min_size=num_targets * num_targets * num_windows,
            max_size=num_targets * num_targets * num_windows,
        )
    )
    wo = np.array(overlap, dtype=np.int64).reshape(
        num_targets, num_targets, num_windows
    )
    problem = CrossbarDesignProblem(
        comm=comm,
        wo=wo,
        window_size=max(capacities, default=1),
        criticality=CriticalityReport(),
        target_names=tuple(f"t{t}" for t in range(num_targets)),
        capacities=np.array(capacities, dtype=np.int64),
    )
    pairs = [(i, j) for i in range(num_targets) for j in range(i + 1, num_targets)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    matrix = np.zeros((num_targets, num_targets), dtype=bool)
    for i, j in chosen:
        matrix[i, j] = matrix[j, i] = True
    conflicts = ConflictAnalysis(
        matrix=matrix, reasons={pair: frozenset({"threshold"}) for pair in chosen}
    )
    return problem, conflicts


@settings(max_examples=400, deadline=None)
@given(
    instances(),
    st.data(),
    st.sampled_from([None, 1, 2, 3]),
    st.booleans(),
    st.one_of(st.none(), st.integers(0, 60)),
    st.one_of(st.none(), st.integers(0, 2**32)),
    st.sampled_from([0, 1, 3, 10, 40, 2_000_000]),
    st.one_of(st.none(), st.integers(0, 60)),
)
def test_kernel_matches_reference(
    instance, data, maxtb, optimize, overlap_budget, seed, node_limit, lower_bound
):
    problem, conflicts = instance
    num_buses = data.draw(st.integers(1, problem.num_targets + 1))
    assert_same_outcome(
        problem,
        conflicts,
        num_buses,
        max_targets_per_bus=maxtb,
        optimize=optimize,
        node_limit=node_limit,
        rng=seed,
        overlap_budget=overlap_budget,
        lower_bound=lower_bound,
    )


@settings(max_examples=200, deadline=None)
@given(
    st.integers(2, 8),
    st.lists(st.integers(1, 40), min_size=1, max_size=3),
    st.integers(1, 3),
    st.booleans(),
    st.data(),
)
def test_near_full_loads_on_few_buses(
    num_targets, capacities, num_buses, optimize, data
):
    """Total demand up to ``num_targets`` x capacity: the residual-demand
    bound's fields must not borrow, whatever the bus count."""
    comm = np.array(
        [
            [data.draw(st.integers(max(0, cap - 2), cap)) for cap in capacities]
            for _ in range(num_targets)
        ],
        dtype=np.int64,
    )
    problem = CrossbarDesignProblem(
        comm=comm,
        wo=np.ones((num_targets, num_targets, len(capacities)), dtype=np.int64),
        window_size=max(capacities),
        criticality=CriticalityReport(),
        target_names=tuple(f"t{t}" for t in range(num_targets)),
        capacities=np.array(capacities, dtype=np.int64),
    )
    conflicts = ConflictAnalysis(
        matrix=np.zeros((num_targets, num_targets), dtype=bool), reasons={}
    )
    assert_same_outcome(problem, conflicts, num_buses, optimize=optimize)


@pytest.fixture(scope="module")
def seed_app_solves():
    """Every ``solve_assignment`` call of the seed apps' designs at
    thresholds 0.3 and 0.2: feasibility probes and Eq. 11 solves."""
    calls = []

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        return solve_assignment(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(repro.core.search, "solve_assignment", recording)
        patch.setattr(repro.core.binding, "solve_assignment", recording)
        for name in SEED_APPS:
            app = build_application(name)
            trace = app.simulate_full_crossbar().trace
            for threshold in (0.3, 0.2):
                PipelineRunner().design(
                    trace,
                    SynthesisConfig(overlap_threshold=threshold),
                    app.default_window,
                )
    return calls


def test_seed_app_solves_match_reference(seed_app_solves):
    assert len(seed_app_solves) == 60
    nodes = 0
    for args, kwargs in seed_app_solves:
        nodes += assert_same_outcome(*args, **kwargs).nodes
    assert nodes == 43_568


@pytest.mark.parametrize("node_limit", [1, 50, 500])
def test_seed_app_optimize_solves_under_node_budgets(seed_app_solves, node_limit):
    """Small budgets reach both the ``feasible`` status and the budget error."""
    statuses = set()
    for args, kwargs in seed_app_solves:
        if kwargs["optimize"]:
            found = assert_same_outcome(*args, **{**kwargs, "node_limit": node_limit})
            statuses.add(found if isinstance(found, str) else found.status)
    if node_limit == 1:
        assert all(status.startswith("SolverError") for status in statuses)
    else:
        assert "feasible" in statuses
