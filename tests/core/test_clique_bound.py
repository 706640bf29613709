"""The conflict graph's clique bound against two independent oracles.

``ConflictAnalysis.clique_lower_bound`` runs a bitset Bron--Kerbosch
search with Tomita pivoting. networkx's ``find_cliques`` (a test-only
dependency) checks it on random graphs of up to 40 nodes, and brute
force over every subset on graphs of up to 12. The bound feeds the
bus-count search, so the five seed applications' search outcomes must
be the same with either clique routine.
"""

from itertools import combinations

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import APPLICATIONS, build_application
from repro.apps.registry import default_full_crossbar_trace
from repro.core import SynthesisConfig, build_conflicts, search_minimum_buses
from repro.core.preprocess import ConflictAnalysis, max_clique_size
from repro.core.problem import CrossbarDesignProblem

SEED_APPS = sorted(name for name in APPLICATIONS if name != "synthetic")


def analysis_of(num_targets, edges):
    """A conflict analysis whose conflict graph has exactly ``edges``."""
    matrix = np.zeros((num_targets, num_targets), dtype=bool)
    reasons = {}
    for i, j in edges:
        pair = (min(i, j), max(i, j))
        matrix[i, j] = matrix[j, i] = True
        reasons[pair] = frozenset({"threshold"})
    return ConflictAnalysis(matrix=matrix, reasons=reasons)


def networkx_bound(analysis):
    """The clique bound computed the way the runtime once did."""
    if not analysis.reasons:
        return 1
    graph = nx.Graph()
    graph.add_nodes_from(range(analysis.matrix.shape[0]))
    graph.add_edges_from(analysis.reasons)
    return max(len(clique) for clique in nx.find_cliques(graph))


def brute_force_bound(num_targets, edges):
    """The largest vertex subset whose pairs are all edges (at least 1)."""
    adjacent = {(min(i, j), max(i, j)) for i, j in edges}
    for size in range(num_targets, 1, -1):
        for subset in combinations(range(num_targets), size):
            if all(pair in adjacent for pair in combinations(subset, 2)):
                return size
    return 1


@st.composite
def graphs(draw, max_nodes):
    """``(num_targets, edges)``: each pair an edge with one drawn density."""
    num_targets = draw(st.integers(1, max_nodes))
    density = draw(st.floats(0.0, 1.0))
    rolls = draw(st.randoms(use_true_random=False))
    pairs = combinations(range(num_targets), 2)
    return num_targets, [pair for pair in pairs if rolls.random() < density]


@settings(max_examples=200, deadline=None)
@given(graphs(max_nodes=40))
def test_matches_networkx_find_cliques(graph):
    analysis = analysis_of(*graph)
    assert analysis.clique_lower_bound() == networkx_bound(analysis)


@settings(max_examples=200, deadline=None)
@given(graphs(max_nodes=12))
def test_matches_brute_force(graph):
    assert analysis_of(*graph).clique_lower_bound() == brute_force_bound(*graph)


def test_no_conflicts_gives_one():
    assert analysis_of(16, []).clique_lower_bound() == 1
    assert analysis_of(1, []).clique_lower_bound() == 1


@pytest.mark.parametrize("num_targets", [2, 5, 16])
def test_complete_graph_gives_every_target(num_targets):
    edges = list(combinations(range(num_targets), 2))
    assert analysis_of(num_targets, edges).clique_lower_bound() == num_targets


def test_isolated_nodes_do_not_count():
    # a triangle on 3..5, the rest isolated, one pendant edge 0-1
    edges = [(3, 4), (3, 5), (4, 5), (0, 1)]
    assert analysis_of(10, edges).clique_lower_bound() == 3


def test_max_clique_size_of_the_empty_graph():
    assert max_clique_size([]) == 0


def _search_outcomes(app_name, threshold):
    app = build_application(app_name)
    trace = default_full_crossbar_trace(app_name)
    config = SynthesisConfig(overlap_threshold=threshold)
    outcomes = []
    for side in (trace, trace.mirrored()):
        problem = CrossbarDesignProblem.from_trace(side, app.default_window)
        conflicts = build_conflicts(problem, config)
        outcome = search_minimum_buses(problem, conflicts, config)
        outcomes.append(
            (conflicts.clique_lower_bound(), outcome.num_buses,
             outcome.lower_bound, outcome.probes, outcome.feasible_binding)
        )
    return outcomes


@pytest.mark.parametrize("threshold", [0.1, 0.2, 0.3])
@pytest.mark.parametrize("app_name", SEED_APPS)
def test_seed_app_searches_unchanged(app_name, threshold, monkeypatch):
    bitset = _search_outcomes(app_name, threshold)
    monkeypatch.setattr(ConflictAnalysis, "clique_lower_bound", networkx_bound)
    assert bitset == _search_outcomes(app_name, threshold)
