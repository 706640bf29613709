"""The assignment DFS against the literal Eq. 3-11 MILP.

The DFS is the only binding solver. HiGHS on the paper's literal model
(``tests/oracles/milp``) is exact too, but on a degenerate optimum it
may return a different point, so the gate compares what both must
agree on -- every probe's verdict, the minimum bus count and the
optimal objective -- and checks that each binding the DFS returns is a
feasible point of the literal model.
"""

import pytest

from repro.core import (
    SynthesisConfig,
    build_conflicts,
    optimize_binding,
    search_minimum_buses,
)
from tests.oracles.milp.reference import assert_matches_dfs

from tests.core.conftest import problem_from_activity


@pytest.fixture(scope="module")
def problem():
    """Six targets in two activity phases: feasible at 2 buses with a
    degenerate optimum -- the case where exact solvers naturally
    disagree on points."""
    activity = [
        [(0, 60), (200, 60)],
        [(100, 60), (300, 60)],
        [(0, 30), (210, 30)],
        [(110, 30), (310, 30)],
        [(40, 20), (260, 20)],
        [(140, 20), (360, 20)],
    ]
    return problem_from_activity(activity, total_cycles=400, window_size=100)


class TestByteIdentity:
    def test_milp_matches_assignment_backend(self, problem):
        for maxtb in (None, 2, 4):
            config = SynthesisConfig(max_targets_per_bus=maxtb)
            conflicts = build_conflicts(problem, config)
            search = search_minimum_buses(problem, conflicts, config)
            binding = optimize_binding(
                problem, conflicts, search.num_buses, config
            )
            assert_matches_dfs(problem, conflicts, maxtb, search, binding)
