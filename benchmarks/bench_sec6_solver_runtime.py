"""Sec. 6 -- solver runtime ablations.

Three claims are exercised on Mat2's initiator->target problem:

1. **Two-MILP split**: "solving MILP1 for feasibility check is usually
   faster than solving MILP2 with objective function and additional
   constraints". We time the feasibility probe against the full binding
   optimization at the designed configuration.
2. **Specialized solver vs literal MILP**: the assignment branch-and-
   bound answers the same models as the Eq. 3-11 MILP; we time both
   on the same feasibility probe and on the MILP2 binding optimization
   (both exact, wildly different constants). The DFS must reach the
   same optimal objective as HiGHS on the literal MILP2, faster -- the
   reason it is the default backend.
3. **Warm starts**: a re-solve of the literal MILP2 bounded by a cached
   binding's objective explores fewer HiGHS nodes than a cold one.

These use pytest-benchmark's statistics properly (multiple rounds)
where the kernels are sub-second; the literal MILP2 solve takes about
a second, so it runs three rounds.
"""

import time

import pytest

from repro.core import SynthesisConfig, build_conflicts
from repro.core.assignment import solve_assignment
from repro.core.binding import binding_overlap_objective
from repro.core.formulation import build_binding_model, build_feasibility_model
from repro.core.problem import CrossbarDesignProblem
from repro.core.search import search_minimum_buses
from repro.milp import BranchBoundOptions, SolveStatus, solve_milp


@pytest.fixture(scope="module")
def mat2_problem(app_traces):
    _app, trace = app_traces["mat2"]
    problem = CrossbarDesignProblem.from_trace(trace, window_size=1_000)
    config = SynthesisConfig()
    conflicts = build_conflicts(problem, config)
    outcome = search_minimum_buses(problem, conflicts, config)
    return problem, conflicts, config, outcome.num_buses


def test_milp1_feasibility_probe(benchmark, mat2_problem):
    """MILP1 flavour: first feasible binding at the designed size."""
    problem, conflicts, config, num_buses = mat2_problem
    result = benchmark(
        lambda: solve_assignment(
            problem, conflicts, num_buses,
            max_targets_per_bus=config.max_targets_per_bus,
        )
    )
    assert result.is_feasible


def test_milp2_binding_optimization(benchmark, mat2_problem):
    """MILP2 flavour: full overlap-minimizing optimization."""
    problem, conflicts, config, num_buses = mat2_problem
    result = benchmark(
        lambda: solve_assignment(
            problem, conflicts, num_buses,
            max_targets_per_bus=config.max_targets_per_bus,
            optimize=True,
        )
    )
    assert result.status == "optimal"


def test_literal_milp_feasibility(benchmark, mat2_problem):
    """The same feasibility probe through the literal Eq. 3-9 MILP."""
    problem, conflicts, config, num_buses = mat2_problem

    def probe():
        model = build_feasibility_model(
            problem, conflicts, num_buses, config.max_targets_per_bus
        )
        return solve_milp(
            model.model, BranchBoundOptions(feasibility_only=True)
        )

    solution = benchmark.pedantic(probe, rounds=3, iterations=1)
    assert solution.is_feasible


def test_split_is_faster_than_direct_optimization(benchmark, mat2_problem):
    """The Sec. 6 rationale, asserted directly on solver node counts:
    the feasibility check explores far fewer nodes than the
    optimization, so probing configurations with MILP1 before running
    MILP2 once is the right split."""
    problem, conflicts, config, num_buses = mat2_problem

    def both():
        feasibility = solve_assignment(
            problem, conflicts, num_buses,
            max_targets_per_bus=config.max_targets_per_bus,
        )
        optimization = solve_assignment(
            problem, conflicts, num_buses,
            max_targets_per_bus=config.max_targets_per_bus,
            optimize=True,
        )
        return feasibility, optimization

    feasibility, optimization = benchmark.pedantic(
        both, rounds=1, iterations=1
    )
    assert feasibility.nodes <= optimization.nodes


def test_milp2_dfs_vs_literal_milp(benchmark, mat2_problem):
    """The Sec. 6 comparison on the largest binding formulation.

    The benchmark kernel is HiGHS on the literal MILP2 (Eq. 3-11); the
    DFS solve of the same problem is timed too and attached as
    ``extra_info``. Both must agree on the optimal objective, and the
    DFS must be the faster of the two.
    """
    problem, conflicts, config, num_buses = mat2_problem
    model = build_binding_model(
        problem, conflicts, num_buses, config.max_targets_per_bus
    )

    dfs_timings = []
    for _ in range(5):
        begin = time.perf_counter()
        assignment = solve_assignment(
            problem, conflicts, num_buses,
            max_targets_per_bus=config.max_targets_per_bus,
            optimize=True,
        )
        dfs_timings.append(time.perf_counter() - begin)
    dfs_s = min(dfs_timings)
    highs = benchmark.pedantic(
        lambda: solve_milp(model.model), rounds=3, iterations=1
    )
    assert highs.status is SolveStatus.OPTIMAL
    assert assignment.status == "optimal"
    assert highs.objective == pytest.approx(assignment.objective)

    highs_s = benchmark.stats.stats.mean
    benchmark.extra_info["dfs_s"] = round(dfs_s, 4)
    benchmark.extra_info["highs_s"] = round(highs_s, 4)
    benchmark.extra_info["dfs_speedup"] = round(highs_s / dfs_s, 1)
    benchmark.extra_info["dfs_nodes"] = assignment.nodes
    benchmark.extra_info["highs_nodes"] = highs.nodes
    assert dfs_s < highs_s


def test_milp2_warm_start_nodes(benchmark, app_traces):
    """Warm-started re-solves explore strictly fewer nodes than cold.

    HiGHS on Qsort's literal MILP2; the warm hint is the cold optimum's
    binding, i.e. exactly what the pipeline's hint slot would serve
    after a suite edit. It enters the solve as an objective cutoff.
    """
    _app, trace = app_traces["qsort"]
    problem = CrossbarDesignProblem.from_trace(trace, window_size=1_000)
    config = SynthesisConfig()
    conflicts = build_conflicts(problem, config)
    num_buses = search_minimum_buses(problem, conflicts, config).num_buses
    model = build_binding_model(
        problem, conflicts, num_buses, config.max_targets_per_bus
    )
    options = BranchBoundOptions()
    cold = solve_milp(model.model, options)
    binding = model.extract_binding(cold)
    warm_values = model.warm_values(
        binding, objective=binding_overlap_objective(problem, binding)
    )
    warm = benchmark.pedantic(
        lambda: solve_milp(model.model, options, warm_values=warm_values),
        rounds=3, iterations=1,
    )
    assert warm.objective == pytest.approx(cold.objective)
    benchmark.extra_info["cold_nodes"] = cold.nodes
    benchmark.extra_info["warm_nodes"] = warm.nodes
    assert warm.nodes < cold.nodes
