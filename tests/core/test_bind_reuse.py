"""The bind reuse record against fresh solves.

:meth:`repro.pipeline.runner.PipelineRunner.bind` keeps, per window
artifact and binding spec, the last few bind answers with their conflict
pairs. An identical conflict set returns the stored artifact, and a
superset stops the Eq. 11 search at a stored optimum when a node-budget
certificate shows the full search would have finished. Either way the
artifact must be the one a fresh runner computes: the same search
outcome, probes, binding, ``max_bus_overlap`` and ``optimal`` flag, or
the same error.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.core.binding
import repro.pipeline.runner
from repro.analysis import overlap_threshold_sweep
from repro.apps.synthetic import synthetic_trace
from repro.core import CrossbarDesignProblem, SynthesisConfig
from repro.core.preprocess import ConflictAnalysis
from repro.errors import ReproError
from repro.exec import ExecutionEngine
from repro.exec.cache import ResultCache
from repro.obs import metrics
from repro.pipeline import ArtifactStore, PipelineRunner
from repro.pipeline.artifacts import (
    ConflictArtifact,
    WindowedAnalysis,
    reuse_record_fingerprint,
)
from repro.traffic.criticality import CriticalityReport


def family(name):
    """The current samples of one registry family."""
    metric = metrics.REGISTRY.get(name)
    return {} if metric is None else dict(metric.collect())


def grown(name, before):
    """``{label: growth}`` of one family since the ``before`` samples."""
    return {
        labels[0]: value - before.get(labels, 0)
        for labels, value in family(name).items()
        if value != before.get(labels, 0)
    }


def window(problem, name):
    return WindowedAnalysis(problem=problem, mirrored=False, fingerprint=name)


def conflict_artifact(num_targets, pairs):
    matrix = np.zeros((num_targets, num_targets), dtype=bool)
    for i, j in pairs:
        matrix[i, j] = matrix[j, i] = True
    analysis = ConflictAnalysis(
        matrix=matrix, reasons={pair: frozenset({"threshold"}) for pair in pairs}
    )
    return ConflictArtifact(
        conflicts=analysis, fingerprint="conflicts-" + repr(sorted(pairs))
    )


def outcome(runner, windowed, conflicts, config):
    """The fields a bind promises, or the error it raised."""
    try:
        artifact = runner.bind(windowed, conflicts, config)
    except ReproError as error:
        return f"{type(error).__name__}: {error}"
    return artifact.search, artifact.binding


def fresh(windowed, conflicts, config):
    return outcome(PipelineRunner(), windowed, conflicts, config)


@st.composite
def problems(draw, num_targets):
    """A problem whose targets can share buses, so Eq. 11 has work to do."""
    num_windows = draw(st.integers(1, 3))
    capacities = draw(
        st.lists(st.integers(8, 40), min_size=num_windows, max_size=num_windows)
    )
    comm = np.array(
        [
            [draw(st.integers(0, cap // 3)) for cap in capacities]
            for _ in range(num_targets)
        ],
        dtype=np.int64,
    ).reshape(num_targets, num_windows)
    size = num_targets * num_targets * num_windows
    overlap = draw(st.lists(st.integers(0, 9), min_size=size, max_size=size))
    return CrossbarDesignProblem(
        comm=comm,
        wo=np.array(overlap, dtype=np.int64).reshape(
            num_targets, num_targets, num_windows
        ),
        window_size=max(capacities),
        criticality=CriticalityReport(),
        target_names=tuple(f"t{t}" for t in range(num_targets)),
        capacities=np.array(capacities, dtype=np.int64),
    )


@st.composite
def edits(draw):
    """A problem, a decoy problem of the same shape, conflicts C and a
    superset C'."""
    num_targets = draw(st.integers(2, 9))
    problem = draw(problems(num_targets))
    decoy = draw(problems(num_targets))
    pairs = [(i, j) for i in range(num_targets) for j in range(i + 1, num_targets)]
    grown_pairs = draw(st.lists(st.sampled_from(pairs), unique=True))
    kept = draw(
        st.lists(st.booleans(), min_size=len(grown_pairs), max_size=len(grown_pairs))
    )
    base = [pair for pair, keep in zip(grown_pairs, kept) if keep]
    return problem, decoy, base, grown_pairs


def optimize_nodes(windowed, conflicts, config):
    """Eq. 11 DFS nodes of a fresh bind."""
    before = family("repro_dfs_nodes_total")
    fresh(windowed, conflicts, config)
    return grown("repro_dfs_nodes_total", before).get("optimize", 0)


@settings(max_examples=400, deadline=None)
@given(edits(), st.sampled_from([None, 1, 2, 3]), st.data())
def test_conflict_edit_matches_a_fresh_solve(edit, maxtb, data):
    problem, decoy, base, superset = edit
    num_targets = problem.num_targets
    before, after = (
        conflict_artifact(num_targets, base),
        conflict_artifact(num_targets, superset),
    )
    windowed, decoy_window = window(problem, "it"), window(decoy, "decoy")
    # Budgets around the fresh searches' sizes, down to ones they exceed.
    unlimited = SynthesisConfig(max_targets_per_bus=maxtb)
    sizes = [optimize_nodes(windowed, c, unlimited) for c in (before, after)]
    node_limit = data.draw(
        st.one_of(
            st.sampled_from([max(1, size - 1) for size in sizes] + sizes),
            st.integers(1, max(sizes) + 8),
            st.just(2_000_000),
        ),
        label="node_limit",
    )
    config = SynthesisConfig(max_targets_per_bus=maxtb, node_limit=node_limit)
    expected = {
        conflicts.fingerprint: fresh(windowed, conflicts, config)
        for conflicts in (before, after)
    }
    # C then C' (the superset tier), and C' then C (which must not use it).
    for sequence in ((before, after), (after, before)):
        runner = PipelineRunner()
        # The decoy's answers sit in its own record: a key that left the
        # window out would hand them to the real problem.
        for conflicts in sequence:
            outcome(runner, decoy_window, conflicts, config)
        for conflicts in sequence:
            assert (
                outcome(runner, windowed, conflicts, config)
                == expected[conflicts.fingerprint]
            )


def small_problem():
    """Six targets in one window of 40 cycles, three to a bus; the Eq. 11
    search without conflicts spends 15 of its 24 nodes on the proof."""
    wo = np.array(
        [
            [0, 3, 9, 3, 3, 9],
            [3, 0, 0, 3, 7, 3],
            [9, 0, 0, 0, 2, 5],
            [3, 3, 0, 0, 7, 7],
            [3, 7, 2, 7, 0, 7],
            [9, 3, 5, 7, 7, 0],
        ],
        dtype=np.int64,
    ).reshape(6, 6, 1)
    return CrossbarDesignProblem(
        comm=np.full((6, 1), 12, dtype=np.int64),
        wo=wo,
        window_size=40,
        criticality=CriticalityReport(),
        target_names=tuple("abcdef"),
        capacities=np.array([40], dtype=np.int64),
    )


class TestTiers:
    def test_same_conflicts_is_a_hit_not_a_computed_bind(self):
        windowed = window(small_problem(), "w")
        config = SynthesisConfig()
        runner = PipelineRunner()
        first = runner.bind(windowed, conflict_artifact(6, [(0, 1)]), config)
        before = family("repro_bind_reuse_total")
        # Same pairs under another conflict fingerprint (another threshold).
        again = conflict_artifact(6, [(0, 1)])
        again = ConflictArtifact(conflicts=again.conflicts, fingerprint="other")
        second = runner.bind(windowed, again, config)
        assert (second.search, second.binding) == (first.search, first.binding)
        assert second.fingerprint != first.fingerprint
        assert runner.counters.computed == {"bind": 1}
        assert runner.counters.memo_hits == {"bind": 1}
        assert grown("repro_bind_reuse_total", before) == {"same_conflicts": 1}

    def test_superset_stops_at_the_stored_optimum(self):
        windowed = window(small_problem(), "w")
        config = SynthesisConfig()
        runner = PipelineRunner()
        stored = runner.bind(windowed, conflict_artifact(6, []), config)
        grown_set = conflict_artifact(6, [(0, 1)])
        expected = fresh(windowed, grown_set, config)
        before = family("repro_dfs_nodes_total")
        reuses = family("repro_bind_reuse_total")
        assert outcome(runner, windowed, grown_set, config) == expected
        assert grown("repro_bind_reuse_total", reuses) == {"lower_bound": 1}
        assert stored.binding.binding[0] != stored.binding.binding[1]
        nodes = grown("repro_dfs_nodes_total", before)
        fresh_before = family("repro_dfs_nodes_total")
        fresh(windowed, grown_set, config)
        fresh_nodes = grown("repro_dfs_nodes_total", fresh_before)["optimize"]
        assert nodes["optimize"] < fresh_nodes

    def test_a_stop_without_its_certificate_solves_in_full(self):
        # Under C' the Eq. 11 search finds the stored optimum (4) later
        # than under C, and a 14-node budget cannot prove it: a fresh
        # search reports the same binding as merely feasible.
        wo = np.array(
            [
                [0, 5, 0, 1, 8, 1],
                [2, 1, 2, 5, 3, 3],
                [7, 3, 2, 8, 4, 6],
                [6, 9, 6, 9, 2, 9],
                [9, 2, 4, 6, 6, 4],
                [6, 6, 4, 3, 8, 3],
            ],
            dtype=np.int64,
        ).reshape(6, 6, 1)
        problem = CrossbarDesignProblem(
            comm=np.array([[3], [0], [3], [5], [6], [2]], dtype=np.int64),
            wo=wo,
            window_size=27,
            criticality=CriticalityReport(),
            target_names=tuple("abcdef"),
            capacities=np.array([27], dtype=np.int64),
        )
        windowed = window(problem, "w")
        config = SynthesisConfig(max_targets_per_bus=2, node_limit=14)
        base = conflict_artifact(6, [(2, 3)])
        superset = conflict_artifact(6, [(0, 1), (0, 2), (1, 5), (2, 3)])
        runner = PipelineRunner()
        stored = runner.bind(windowed, base, config).binding
        expected = fresh(windowed, superset, config)
        assert stored.optimal and not expected[1].optimal
        assert expected[1].max_bus_overlap == stored.max_bus_overlap
        reuses = family("repro_bind_reuse_total")
        assert outcome(runner, windowed, superset, config) == expected
        assert grown("repro_bind_reuse_total", reuses) == {}

    def test_a_grown_bus_count_solves_in_full(self):
        # C' needs a third bus, where the two-bus optimum (11) is no
        # lower bound: the three-bus optimum is 4.
        wo = np.array(
            [
                [7, 7, 4, 7, 2],
                [7, 3, 4, 5, 2],
                [1, 3, 7, 3, 5],
                [2, 5, 2, 2, 3],
                [4, 8, 6, 6, 5],
            ],
            dtype=np.int64,
        ).reshape(5, 5, 1)
        problem = CrossbarDesignProblem(
            comm=np.array([[1], [5], [7], [5], [2]], dtype=np.int64),
            wo=wo,
            window_size=30,
            criticality=CriticalityReport(),
            target_names=tuple("abcde"),
            capacities=np.array([30], dtype=np.int64),
        )
        windowed = window(problem, "w")
        config = SynthesisConfig(max_targets_per_bus=3)
        superset = conflict_artifact(5, [(1, 3), (2, 3), (2, 4), (3, 4)])
        runner = PipelineRunner()
        stored = runner.bind(windowed, conflict_artifact(5, [(3, 4)]), config)
        expected = fresh(windowed, superset, config)
        assert (stored.binding.num_buses, expected[1].num_buses) == (2, 3)
        assert outcome(runner, windowed, superset, config) == expected

    def test_record_is_keyed_by_window_and_binding_spec(self):
        config = SynthesisConfig()
        key = reuse_record_fingerprint("w", config)
        assert key != reuse_record_fingerprint("v", config)
        assert key != reuse_record_fingerprint(
            "w", SynthesisConfig(max_targets_per_bus=2)
        )
        assert key == reuse_record_fingerprint(
            "w", SynthesisConfig(overlap_threshold=0.1)
        )

    def test_audit_runs_on_every_reused_binding(self, monkeypatch):
        calls = []
        audit = repro.pipeline.runner.audit_binding

        def counting_audit(problem, conflicts, binding, *args, **kwargs):
            calls.append(tuple(binding))
            return audit(problem, conflicts, binding, *args, **kwargs)

        # The runner audits a stored answer; a computed bind is audited
        # inside the phase-4 function it calls.
        monkeypatch.setattr(repro.pipeline.runner, "audit_binding", counting_audit)
        monkeypatch.setattr(repro.core.binding, "audit_binding", counting_audit)
        windowed = window(small_problem(), "w")
        config = SynthesisConfig()
        runner = PipelineRunner()
        runner.bind(windowed, conflict_artifact(6, []), config)
        calls.clear()
        same = runner.bind(windowed, conflict_artifact(6, []), config)
        assert calls == [same.binding.binding]
        calls.clear()
        stopped = runner.bind(windowed, conflict_artifact(6, [(0, 1)]), config)
        assert stopped.binding.binding in calls


class TestStoredRecords:
    def disk_runner(self, directory):
        return PipelineRunner(store=ArtifactStore(disk=ResultCache(directory)))

    def record_path(self, directory, config):
        return directory / f"stage-{reuse_record_fingerprint('w', config)}.json"

    def test_record_persists_across_runners(self, tmp_path):
        windowed, config = window(small_problem(), "w"), SynthesisConfig()
        conflicts = conflict_artifact(6, [(1, 2)])
        expected = outcome(self.disk_runner(tmp_path), windowed, conflicts, config)
        runner = self.disk_runner(tmp_path)
        assert outcome(runner, windowed, conflicts, config) == expected
        assert runner.counters.disk_hits == {"bind": 1}
        assert runner.counters.computed == {}

    @pytest.mark.parametrize(
        "damage",
        [
            lambda text: text[: len(text) // 2],  # truncated write
            lambda text: "not json",
            lambda text: text.replace('"entries"', '"entrees"'),
            lambda text: text.replace('"pairs": [', '"pairs": [7, '),
            lambda text: json.dumps(
                {**json.loads(text), "payload": {"entries": [{"pairs": []}]}}
            ),
        ],
        ids=["truncated", "garbage", "no-entries", "bad-pair", "no-artifact"],
    )
    def test_malformed_record_is_a_miss(self, tmp_path, damage):
        windowed, config = window(small_problem(), "w"), SynthesisConfig()
        conflicts = conflict_artifact(6, [(1, 2)])
        expected = outcome(self.disk_runner(tmp_path), windowed, conflicts, config)
        path = self.record_path(tmp_path, config)
        path.write_text(damage(path.read_text()))
        before = family("repro_bind_reuse_total")
        runner = self.disk_runner(tmp_path)
        assert outcome(runner, windowed, conflicts, config) == expected
        assert runner.counters.computed == {"bind": 1}
        assert grown("repro_bind_reuse_total", before) == {}

    def test_negative_proof_bound_is_a_miss(self, tmp_path):
        windowed, config = window(small_problem(), "w"), SynthesisConfig()
        self.disk_runner(tmp_path).bind(windowed, conflict_artifact(6, []), config)
        path = self.record_path(tmp_path, config)
        entry = json.loads(path.read_text())
        entry["payload"]["entries"][0]["proof"] = -10**9
        path.write_text(json.dumps(entry))
        before = family("repro_bind_reuse_total")
        conflicts = conflict_artifact(6, [(0, 1)])
        runner = self.disk_runner(tmp_path)
        assert outcome(runner, windowed, conflicts, config) == fresh(
            windowed, conflicts, config
        )
        assert grown("repro_bind_reuse_total", before) == {}

    def test_a_stored_binding_that_fails_its_audit_is_recomputed(self, tmp_path):
        windowed, config = window(small_problem(), "w"), SynthesisConfig()
        conflicts = conflict_artifact(6, [(0, 1)])
        expected = outcome(self.disk_runner(tmp_path), windowed, conflicts, config)
        path = self.record_path(tmp_path, config)
        entry = json.loads(path.read_text())
        binding = entry["payload"]["entries"][0]["artifact"]["binding"]
        binding["binding"] = [0, 0, 0, 1, 1, 1]  # a and b share a bus
        path.write_text(json.dumps(entry))
        runner = self.disk_runner(tmp_path)
        assert outcome(runner, windowed, conflicts, config) == expected
        assert runner.counters.computed == {"bind": 1}


@pytest.fixture(scope="module")
def trace():
    return synthetic_trace(
        burst_cycles=400,
        total_cycles=24_000,
        num_initiators=6,
        num_targets=6,
        seed=5,
    )


def test_a_whole_result_hit_reads_and_writes_no_record(trace, tmp_path, monkeypatch):
    config = SynthesisConfig(max_targets_per_bus=None)
    ExecutionEngine(cache=tmp_path).synthesize(trace, config, 800)
    calls = []
    monkeypatch.setattr(ArtifactStore, "get_payload", lambda *args: calls.append(args))
    monkeypatch.setattr(ArtifactStore, "put_payload", lambda *args: calls.append(args))
    engine = ExecutionEngine(cache=tmp_path)
    engine.synthesize(trace, config, 800)
    assert engine.cache.stats.hits == 1
    assert calls == []


class TestThresholdSweep:
    THRESHOLDS = [0.1, 0.4, 0.0, 0.25, 0.5]

    def test_points_equal_fresh_solves_in_input_order(self, trace):
        config = SynthesisConfig(max_targets_per_bus=None)
        before = family("repro_dfs_nodes_total")
        points = overlap_threshold_sweep(trace, self.THRESHOLDS, 800, config)
        swept = grown("repro_dfs_nodes_total", before)["optimize"]
        before = family("repro_dfs_nodes_total")
        one_by_one = [
            overlap_threshold_sweep(
                trace, [threshold], 800, config, engine=ExecutionEngine()
            )[0]
            for threshold in self.THRESHOLDS
        ]
        fresh_nodes = grown("repro_dfs_nodes_total", before)["optimize"]
        assert points == one_by_one
        assert [point.value for point in points] == self.THRESHOLDS
        assert swept < fresh_nodes
