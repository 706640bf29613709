"""Optimal (and random) binding of targets onto a chosen configuration.

Second step of the paper's Sec. 6 algorithm: with the minimum bus count
fixed, bind targets to buses minimizing the maximum per-bus summed
traffic overlap (MILP2 / Eq. 11). Lower overlap on every bus directly
lowers average and peak packet latency -- Sec. 7.3 measures a 2.1x
average-latency gap between random and optimal bindings, which
``random_feasible_binding`` exists to reproduce.

The assignment DFS (:mod:`repro.core.assignment`) solves it exactly and
deterministically: a degenerate optimum always resolves to the same
binding, so reports and artifacts are byte-stable.
:func:`bind_minimum_buses` is the whole of phase 4 for one problem
(configuration search, Eq. 11 solve, audit): the pipeline's bind stage
and the robust designer both run it. The paper's literal
Eq. 3-11 MILP is the test suite's reference for both steps
(``tests/oracles/milp``).
"""

from __future__ import annotations

import random
from typing import Callable, Optional, Tuple

from repro.core.assignment import AssignmentResult, solve_assignment
from repro.core.instrumentation import record_bind_reuse, record_solve
from repro.core.preprocess import ConflictAnalysis
from repro.core.problem import CrossbarDesignProblem
from repro.core.search import SearchOutcome, search_minimum_buses
from repro.core.spec import BusBinding, SynthesisConfig
from repro.core.validate import audit_binding
from repro.errors import SynthesisError

__all__ = [
    "bind_minimum_buses",
    "optimize_binding",
    "solve_binding",
    "bus_binding",
    "random_feasible_binding",
    "binding_overlap_objective",
]


def binding_overlap_objective(
    problem: CrossbarDesignProblem, binding
) -> int:
    """Evaluate Eq. 11's objective: max per-bus summed pairwise overlap."""
    overlap = problem.overlap_matrix
    num_buses = max(binding) + 1
    worst = 0
    for bus in range(num_buses):
        members = [t for t, b in enumerate(binding) if b == bus]
        total = 0
        for position, i in enumerate(members):
            for j in members[position + 1 :]:
                total += int(overlap[i, j])
        worst = max(worst, total)
    return worst


def bind_minimum_buses(
    problem: CrossbarDesignProblem,
    conflicts: ConflictAnalysis,
    config: SynthesisConfig,
    stored: Optional[Callable[[int], Optional[Tuple[int, int]]]] = None,
) -> Tuple[SearchOutcome, BusBinding, int]:
    """Phase 4 for one problem: search the minimum bus count, solve
    Eq. 11 at it and audit the binding (a violation raises). Returns
    the search outcome, the binding and an upper bound on the solve's
    proof-phase nodes.

    ``stored`` maps the searched bus count to the ``(objective, proof
    bound)`` of a stored optimum with that many buses under a subset of
    ``conflicts``, or ``None`` (see :func:`_optimize`).
    """
    search = search_minimum_buses(problem, conflicts, config)
    reuse = stored(search.num_buses) if stored is not None else None
    result, proof = _optimize(problem, conflicts, search.num_buses, config, reuse)
    binding = bus_binding(result, search.num_buses)
    audit_binding(
        problem,
        conflicts,
        binding.binding,
        config.max_targets_per_bus,
        raise_on_violation=True,
    )
    return search, binding, proof


def _optimize(
    problem: CrossbarDesignProblem,
    conflicts: ConflictAnalysis,
    num_buses: int,
    config: SynthesisConfig,
    stored: Optional[Tuple[int, int]],
) -> Tuple[AssignmentResult, int]:
    """The Eq. 11 solve of a computed bind, and an upper bound on its
    proof-phase nodes.

    ``stored`` is the ``(objective, proof bound)`` of an optimal answer
    under a subset of the conflicts with the same bus count, so its
    objective ``V`` bounds the optimum from below and the search may
    stop at its first leaf ``<= V``: the leaf a full search returns. The
    full search would also have finished, and so reported ``optimal``,
    when ``found_at`` plus the stored proof bound fits ``node_limit``
    (its nodes after that leaf are a subset of the stored solve's). A
    stop that never fires leaves the full search itself; a stop without
    that certificate solves again in full.
    """
    if stored is not None:
        bound, stored_proof = stored
        result = solve_binding(
            problem, conflicts, num_buses, config, lower_bound=bound
        )
        if result.objective is None or result.objective > bound:
            return result, result.nodes - result.found_at
        if result.found_at + stored_proof <= config.node_limit:
            record_bind_reuse("lower_bound")
            return result, stored_proof
    result = solve_binding(problem, conflicts, num_buses, config)
    return result, result.nodes - result.found_at


def optimize_binding(
    problem: CrossbarDesignProblem,
    conflicts: ConflictAnalysis,
    num_buses: int,
    config: SynthesisConfig,
) -> BusBinding:
    """Solve MILP2: the overlap-minimizing binding for ``num_buses``."""
    return bus_binding(
        solve_binding(problem, conflicts, num_buses, config), num_buses
    )


def solve_binding(
    problem: CrossbarDesignProblem,
    conflicts: ConflictAnalysis,
    num_buses: int,
    config: SynthesisConfig,
    lower_bound: Optional[int] = None,
) -> AssignmentResult:
    """The Eq. 11 solve behind :func:`optimize_binding`, as the DFS's
    own result (``nodes`` and ``found_at`` included); ``lower_bound``
    is passed to :func:`~repro.core.assignment.solve_assignment`."""
    record_solve("binding")
    return solve_assignment(
        problem,
        conflicts,
        num_buses,
        max_targets_per_bus=config.max_targets_per_bus,
        optimize=True,
        node_limit=config.node_limit,
        lower_bound=lower_bound,
    )


def bus_binding(result: AssignmentResult, num_buses: int) -> BusBinding:
    """The :class:`BusBinding` of an Eq. 11 solve's result."""
    if not result.is_feasible:
        raise SynthesisError(
            f"binding search infeasible for {num_buses} buses (configuration "
            f"search and binding disagree)"
        )
    return BusBinding(
        binding=result.binding,
        num_buses=result.buses_used,
        max_bus_overlap=int(result.objective),
        optimal=result.status == "optimal",
    )


def random_feasible_binding(
    problem: CrossbarDesignProblem,
    conflicts: ConflictAnalysis,
    num_buses: int,
    config: SynthesisConfig,
    seed: int = 0,
) -> BusBinding:
    """A random binding satisfying Eqs. 3-9 (the Sec. 7.3 baseline)."""
    result = solve_assignment(
        problem,
        conflicts,
        num_buses,
        max_targets_per_bus=config.max_targets_per_bus,
        optimize=False,
        node_limit=config.node_limit,
        rng=random.Random(seed),
    )
    if not result.is_feasible:
        raise SynthesisError(
            f"no feasible binding exists for {num_buses} buses"
        )
    return BusBinding(
        binding=result.binding,
        num_buses=result.buses_used,
        max_bus_overlap=binding_overlap_objective(problem, result.binding),
        optimal=False,
    )
