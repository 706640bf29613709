"""Threshold-edit bench: the five paper apps re-solved at 0.2 on a filled cache.

The paper's Fig. 6 study re-solves one fixed traffic trace at a new
overlap threshold. The threshold is not part of the window stage's key,
so after a default design (threshold 0.3) every window tensor of the
edit is on disk, and the engine hands the pipeline the stored trace
digest with a loader that nothing calls. Nor is it part of the bind
reuse record's key: each side's bind finds the 0.3 answer there, and
returns it outright when the conflict pairs are unchanged or stops its
Eq. 11 search at that optimum when they only grew.

``test_edit_lazy_trace`` fills a cache directory with each app's default
design, then times the 0.3 -> 0.2 edit of all five apps in-process, each
with a fresh :class:`~repro.exec.ExecutionEngine` on a fresh copy of the
filled cache: what a new ``repro design <app> --threshold 0.2`` process
does after its imports. It asserts that no edit decodes a stored trace
(``repro.pipeline.collect._decode``), that every window is a disk hit,
that every bind is computed or read from its record (a disk hit), and
that a round of the edit runs at most 1,000 Eq. 11 DFS nodes
(``repro_dfs_nodes_total{mode="optimize"}``; 21,535 without the
record). It checks each design against an uncached solve and reports
per-app seconds and the edit's Eq. 11 nodes.
"""

import itertools
import shutil
import time

from repro.apps import build_application
from repro.core import SynthesisConfig
from repro.exec import ExecutionEngine
from repro.obs import metrics
from repro.pipeline import collect
from repro.pipeline.store import stage_tables

from _bench_utils import PAPER_APPS, emit

EDIT = SynthesisConfig(overlap_threshold=0.2)
MAX_EDIT_OPTIMIZE_NODES = 1_000


def optimize_nodes():
    """Eq. 11 DFS nodes run in this process so far."""
    nodes = metrics.REGISTRY.get("repro_dfs_nodes_total").collect()
    return nodes.get(("optimize",), 0)


def design(engine, name, config):
    """What ``repro design <name>`` asks of ``engine``."""
    app = build_application(name)
    source = engine.collector.source(app)
    return engine.synthesize(
        source.trace,
        config,
        window_size=app.default_window,
        trace_digest=source.digest,
    )


def test_edit_lazy_trace(benchmark, results_dir, tmp_path, monkeypatch):
    filled = tmp_path / "filled"
    expected = {}
    for name in PAPER_APPS:
        design(ExecutionEngine(cache=filled), name, SynthesisConfig())
        expected[name] = design(ExecutionEngine(), name, EDIT)

    decodes = []
    decode = collect._decode

    def counting_decode(*args):
        decodes.append(args)
        return decode(*args)

    monkeypatch.setattr(collect, "_decode", counting_decode)
    copies = itertools.count()
    seconds = {name: [] for name in PAPER_APPS}
    edit_nodes = []

    def fresh_copy():
        work = tmp_path / f"work{next(copies)}"
        shutil.copytree(filled, work)
        return (work,), {}

    def edit_all(work):
        nodes = optimize_nodes()
        for name in PAPER_APPS:
            cut = metrics.REGISTRY.snapshot()
            begin = time.perf_counter()
            engine = ExecutionEngine(cache=work)
            result = design(engine, name, EDIT)
            seconds[name].append(time.perf_counter() - begin)
            assert result == expected[name], f"{name}: edit differs"
            stages = stage_tables(cut)
            assert stages["disk_hits"].get("window") == 2
            binds = stages["computed"].get("bind", 0)
            assert binds + stages["disk_hits"].get("bind", 0) == 2
        edit_nodes.append(optimize_nodes() - nodes)

    benchmark.pedantic(edit_all, setup=fresh_copy, rounds=5, iterations=1)
    assert decodes == [], "a threshold edit decoded a stored trace"
    assert max(edit_nodes) <= MAX_EDIT_OPTIMIZE_NODES, edit_nodes

    means = {name: sum(runs) / len(runs) for name, runs in seconds.items()}
    for name, mean in means.items():
        benchmark.extra_info[f"{name}_s"] = round(mean, 4)
    benchmark.extra_info["optimize_nodes"] = int(max(edit_nodes))
    emit(
        results_dir,
        "edit_lazy_trace",
        "\n".join(
            ["0.3 -> 0.2 threshold edit on a filled cache (mean of 5 rounds)"]
            + [f"  {name:<5} {mean * 1e3:7.1f} ms" for name, mean in means.items()]
            + [f"  total {sum(means.values()) * 1e3:7.1f} ms, 0 trace decodes"]
            + [f"  {int(max(edit_nodes))} Eq. 11 DFS nodes per edit"]
        ),
    )
