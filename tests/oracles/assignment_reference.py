"""The pre-kernel assignment DFS, kept as the exactness oracle.

This is the body :func:`repro.core.assignment.solve_assignment` had
before it became a packed-integer kernel: numpy per-window loads, a
per-node residual-demand check and a candidate sort that sums the
overlap over each bus's members. The kernel must return the same
:class:`~repro.core.assignment.AssignmentResult` -- status, binding,
objective, ``buses_used``, ``nodes`` and ``found_at`` (the ordinal of
the returned leaf, recorded here for that comparison) -- or raise the same
:class:`~repro.errors.SolverError`; ``tests/core/test_assignment_kernel.py``
checks that, and ``benchmarks/bench_bind_kernel.py`` times the two.
"""

from __future__ import annotations

import random
from typing import List, Optional

import numpy as np

from repro.core.assignment import AssignmentResult
from repro.core.preprocess import ConflictAnalysis
from repro.core.problem import CrossbarDesignProblem
from repro.errors import SolverError
from repro.resilience.faults import solver_slowdown

__all__ = ["solve_assignment_reference"]


class _BudgetExceeded(Exception):
    pass


def solve_assignment_reference(
    problem: CrossbarDesignProblem,
    conflicts: ConflictAnalysis,
    num_buses: int,
    max_targets_per_bus: Optional[int] = None,
    optimize: bool = False,
    node_limit: int = 2_000_000,
    rng: Optional[random.Random] = None,
    overlap_budget: Optional[int] = None,
    lower_bound: Optional[int] = None,
) -> AssignmentResult:
    """Find a feasible (or overlap-optimal) binding into ``num_buses``.

    With ``optimize`` the solver minimizes the maximum per-bus summed
    pairwise overlap (Eq. 11); otherwise it stops at the first feasible
    binding (the paper's MILP1 feasibility check). Passing ``rng``
    randomizes placement order and bus choice, producing the *random
    feasible binding* baseline of Sec. 7.3.

    ``overlap_budget`` bounds the maximum per-bus summed overlap of any
    returned binding: placements that would exceed it are pruned, and
    candidate buses are tried in increasing overlap-delta order so the
    search is deterministic. Feasibility mode with the budget set to a
    known optimal objective therefore returns one *canonical* optimal
    binding -- the device :mod:`repro.core.binding` uses to keep reports
    byte-identical no matter which MILP backend proved the objective.

    ``lower_bound`` (added with the kernel's early stop, for the same
    comparison) stops an optimization at the first leaf whose objective
    is at most it.
    """
    num_targets = problem.num_targets
    if num_buses < 1:
        raise SolverError(f"num_buses must be >= 1, got {num_buses}")
    capacities = problem.capacities
    maxtb = max_targets_per_bus or num_targets
    comm = problem.comm
    overlap = problem.overlap_matrix

    order = sorted(range(num_targets), key=lambda t: (-int(comm[t].sum()), t))
    if rng is not None:
        rng.shuffle(order)

    # conflict bitmasks: bit u set in conflict_bits[t] if t conflicts with u
    conflict_bits = [0] * num_targets
    for i, j in conflicts.reasons:
        conflict_bits[i] |= 1 << j
        conflict_bits[j] |= 1 << i

    # residual-demand bound: demand of targets not yet placed
    suffix_demand = np.zeros((num_targets + 1, problem.num_windows), dtype=np.int64)
    for depth in range(num_targets - 1, -1, -1):
        suffix_demand[depth] = suffix_demand[depth + 1] + comm[order[depth]]

    loads = np.zeros((num_buses, problem.num_windows), dtype=np.int64)
    total_load = np.zeros(problem.num_windows, dtype=np.int64)
    bus_members: List[List[int]] = [[] for _ in range(num_buses)]
    bus_bits = [0] * num_buses
    bus_overlap = [0] * num_buses
    assignment = [-1] * num_targets

    best_binding: Optional[List[int]] = None
    best_objective: Optional[int] = None
    nodes = 0
    found_at = 0
    slow = solver_slowdown()

    def capacity_bound_violated(depth: int) -> bool:
        residual = num_buses * capacities - total_load
        return bool((suffix_demand[depth] > residual).any())

    def search(depth: int, used: int, current_max: int) -> bool:
        """DFS; returns True to stop the whole search (feasibility mode)."""
        nonlocal best_binding, best_objective, nodes, total_load, found_at
        nodes += 1
        if slow is not None:
            # Injection point ``solver.slow``, keyed by node ordinal.
            slow(str(nodes))
        if nodes > node_limit:
            raise _BudgetExceeded
        if depth == num_targets:
            best_binding = list(assignment)
            best_objective = current_max
            found_at = nodes
            return not optimize or (
                lower_bound is not None and current_max <= lower_bound
            )
        if capacity_bound_violated(depth):
            return False
        target = order[depth]
        candidates = list(range(min(used + 1, num_buses)))
        if rng is not None:
            rng.shuffle(candidates)
        elif optimize or overlap_budget is not None:
            candidates.sort(
                key=lambda b: sum(overlap[target, u] for u in bus_members[b])
            )
        for bus in candidates:
            if len(bus_members[bus]) >= maxtb:
                continue
            if conflict_bits[target] & bus_bits[bus]:
                continue
            if ((loads[bus] + comm[target]) > capacities).any():
                continue
            delta = int(sum(overlap[target, u] for u in bus_members[bus]))
            new_bus_overlap = bus_overlap[bus] + delta
            new_max = max(current_max, new_bus_overlap)
            if overlap_budget is not None and new_max > overlap_budget:
                continue
            if optimize and best_objective is not None and new_max >= best_objective:
                continue
            # apply
            assignment[target] = bus
            bus_members[bus].append(target)
            bus_bits[bus] |= 1 << target
            bus_overlap[bus] = new_bus_overlap
            loads[bus] += comm[target]
            total_load += comm[target]
            stop = search(depth + 1, max(used, bus + 1), new_max)
            # undo
            loads[bus] -= comm[target]
            total_load -= comm[target]
            bus_overlap[bus] = new_bus_overlap - delta
            bus_bits[bus] &= ~(1 << target)
            bus_members[bus].pop()
            assignment[target] = -1
            if stop:
                return True
        return False

    budget_hit = False
    try:
        search(0, 0, 0)
    except _BudgetExceeded:
        budget_hit = True

    if best_binding is None:
        if budget_hit:
            raise SolverError(
                f"assignment search exhausted {node_limit} nodes without "
                f"an answer for {num_buses} buses"
            )
        return AssignmentResult(status="infeasible", nodes=nodes)

    buses_used = max(best_binding) + 1
    status = "feasible" if (budget_hit and optimize) else "optimal"
    return AssignmentResult(
        status=status,
        binding=tuple(best_binding),
        objective=int(best_objective),
        buses_used=buses_used,
        nodes=nodes,
        found_at=found_at,
    )
