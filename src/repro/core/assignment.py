"""Specialized exact solver for the crossbar binding problem.

Solves exactly the model of paper Eqs. 3-9 (feasibility) and Eq. 11
(minimize the maximum per-bus summed overlap), but as a dedicated
branch-and-bound over target-to-bus assignments rather than a generic
MILP -- the structure (one bus per target, symmetric bus labels) makes
this orders of magnitude faster while provably returning the same
answers. It is the only binding solver; the test suite checks its
verdicts, optima and bindings against the literal MILP
(``tests/oracles/milp``).

Search design:

* targets are placed in decreasing order of total traffic (first-fail),
* bus labels are symmetric, so only the first *empty* bus is ever tried
  (classic symmetry breaking; also guarantees dense bus numbering),
* a placement is pruned if it violates the per-window bandwidth of the
  bus (Eq. 4), a conflict (Eq. 7), or ``maxtb`` (Eq. 8),
* a global bound prunes nodes where the *remaining* demand cannot fit in
  the residual capacity of all buses,
* in optimization mode, a node is pruned when its max per-bus overlap
  already reaches the incumbent objective (the objective only grows as
  targets are added).

Kernel representation (pure Python ints, no numpy inside the DFS):

* Each bus's per-window slack is **one int** holding one field per
  window. A field is ``F + 1`` bits wide: ``F`` value bits under a
  guard bit, and a fresh bus starts at ``capacity | guard`` in every
  field. Subtracting a target's packed ``comm`` row keeps every guard
  bit set exactly when the target fits every window, so the Eq. 4 check
  is ``(slack - need) & GUARD == GUARD``. No field ever borrows from
  its neighbour because every ``comm`` entry lies in ``[0, capacity]``
  (:class:`~repro.core.problem.CrossbarDesignProblem` rejects the rest).
* The residual-demand bound compares the unplaced demand with the
  residual capacity of all buses. Placed load plus unplaced demand is
  the total demand at every node, so the bound is one packed subtract
  and mask, ``(num_buses * CAP + GUARD - TOTAL) & GUARD``, evaluated once
  per solve. Its fields reach ``num_buses * capacity`` and its demand
  ``num_targets * capacity``, hence the **field-width condition**:
  ``2**F > max(num_buses, num_targets) * max(capacity)``.
* Each bus keeps an overlap row: entry ``t`` is the summed overlap
  target ``t`` would add to the bus. A candidate's delta is one list
  read, and the rows are the key of the stable candidate sort. Apply
  replaces the row with ``row + overlap[:, target]``; undo restores the
  old list.
* Conflicts and bus membership are bitmasks.

Early stop and ``found_at``:

* :attr:`AssignmentResult.found_at` is the node ordinal of the returned
  leaf. In optimization mode the returned leaf is the *first* leaf, in
  one fixed DFS order, whose objective equals the optimum: the target
  order and every candidate order read the path only (never the
  conflicts or the incumbent), and pruning only cuts placements whose
  running maximum reaches the incumbent. ``nodes - found_at`` is the
  proof phase, the nodes spent showing that no better leaf exists.
* ``lower_bound=V`` stops an optimization at the first leaf whose
  objective is at most ``V`` and reports it ``optimal``. When ``V`` is a
  true lower bound of the optimum, that leaf is the one the full search
  returns (it skips only the proof phase), so the caller must certify
  that the full search would have finished within ``node_limit``;
  :meth:`repro.pipeline.runner.PipelineRunner.bind` does so from a
  recorded proof phase.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from operator import add
from typing import Optional, Tuple

from repro.core.instrumentation import record_dfs_nodes
from repro.core.preprocess import ConflictAnalysis
from repro.core.problem import CrossbarDesignProblem
from repro.errors import SolverError
from repro.resilience.faults import solver_slowdown

__all__ = ["AssignmentResult", "solve_assignment"]


@dataclass(frozen=True)
class AssignmentResult:
    """Outcome of one assignment solve.

    ``status`` is ``"optimal"`` (proven), ``"feasible"`` (budget hit with
    an incumbent; optimization mode only) or ``"infeasible"`` (proven).
    ``found_at`` is the node ordinal of the returned leaf (0 without a
    binding).
    """

    status: str
    binding: Optional[Tuple[int, ...]] = None
    objective: Optional[int] = None
    buses_used: int = 0
    nodes: int = 0
    found_at: int = 0

    @property
    def is_feasible(self) -> bool:
        """Whether a binding is available."""
        return self.binding is not None


class _BudgetExceeded(Exception):
    pass


def solve_assignment(
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
    binding: a function of the problem and the objective alone, not of
    the search that proved the objective.

    ``lower_bound`` (optimization mode) stops the search at the first
    leaf whose objective is at most it; see the module docstring for
    when that leaf is the full search's answer.

    Every solve, budget-exhausted ones included, adds its node count to
    ``repro_dfs_nodes_total`` once.
    """
    num_targets = problem.num_targets
    if num_buses < 1:
        raise SolverError(f"num_buses must be >= 1, got {num_buses}")
    maxtb = max_targets_per_bus or num_targets
    comm = problem.comm.tolist()
    capacities = problem.capacities.tolist()
    # columns[u][t] is overlap[t, u]: what placing u adds to t's delta
    columns = problem.overlap_matrix.T.tolist()

    order = sorted(range(num_targets), key=lambda t: (-sum(comm[t]), t))
    if rng is not None:
        rng.shuffle(order)

    # conflict bitmasks: bit u set in conflict_bits[t] if t conflicts with u
    conflict_bits = [0] * num_targets
    for i, j in conflicts.reasons:
        conflict_bits[i] |= 1 << j
        conflict_bits[j] |= 1 << i

    width = (max(num_buses, num_targets) * max(capacities, default=1)).bit_length()

    def pack(fields) -> int:
        return sum(value << (m * (width + 1)) for m, value in enumerate(fields))

    guard = pack([1 << width] * len(capacities))
    capacity = pack(capacities)
    need = [pack(row) for row in comm]
    overloaded = ((num_buses * capacity + guard - sum(need)) & guard) != guard

    slack = [capacity | guard] * num_buses
    sizes = [0] * num_buses
    bus_bits = [0] * num_buses
    bus_overlap = [0] * num_buses
    rows = [[0] * num_targets] * num_buses  # replaced on apply, never mutated
    assignment = [-1] * num_targets
    sort_by_overlap = rng is None and (optimize or overlap_budget is not None)
    # prune any placement whose new max reaches the cutoff: the budget
    # plus one, then (optimize) each incumbent's objective
    cutoff = float("inf") if overlap_budget is None else overlap_budget + 1
    # objectives are >= 0, so -1 never stops a search
    floor = -1 if lower_bound is None else lower_bound

    best_binding: Optional[list] = None
    best_objective: Optional[int] = None
    nodes = 0
    found_at = 0
    slow = solver_slowdown()

    def search(depth: int, used: int, current_max: int) -> bool:
        """DFS; returns True to stop the whole search (feasibility mode)."""
        nonlocal best_binding, best_objective, nodes, cutoff, found_at
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
            if optimize:
                cutoff = current_max
            return not optimize or current_max <= floor
        if overloaded:
            return False
        target = order[depth]
        count = used + 1 if used < num_buses else num_buses
        if rng is not None:
            candidates = list(range(count))
            rng.shuffle(candidates)
        elif sort_by_overlap:
            deltas = [row[target] for row in rows[:count]]
            candidates = sorted(range(count), key=deltas.__getitem__)
        else:
            candidates = range(count)
        demand = need[target]
        clash = conflict_bits[target]
        bit = 1 << target
        column = columns[target]
        for bus in candidates:
            if sizes[bus] >= maxtb or clash & bus_bits[bus]:
                continue
            left = slack[bus] - demand
            if (left & guard) != guard:
                continue
            row = rows[bus]
            delta = row[target]
            bus_max = bus_overlap[bus] + delta
            new_max = bus_max if bus_max > current_max else current_max
            if new_max >= cutoff:
                continue
            # apply (a leaf copies ``assignment`` only once every target
            # on its path is written, so undo leaves the entry stale)
            assignment[target] = bus
            sizes[bus] += 1
            bus_bits[bus] |= bit
            bus_overlap[bus] = bus_max
            slack[bus] = left
            rows[bus] = list(map(add, row, column))
            stop = search(depth + 1, used if bus < used else bus + 1, new_max)
            # undo
            rows[bus] = row
            slack[bus] = left + demand
            bus_overlap[bus] = bus_max - delta
            bus_bits[bus] ^= bit
            sizes[bus] -= 1
            if stop:
                return True
        return False

    budget_hit = False
    try:
        search(0, 0, 0)
    except _BudgetExceeded:
        budget_hit = True
    record_dfs_nodes(optimize, nodes)

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
