"""A design miss loads its trace only when a window stage must compute.

The engine hands the pipeline the stored trace digest and a loader, not
a loaded trace. A point whose window tensors are stored -- the 0.3 ->
0.2 threshold edit on a filled cache -- therefore never decodes or
re-hashes its records, while a window miss loads the trace, checks its
digest and, on a mismatch, restarts the point under the loaded trace's
digest without filing anything under the stale one.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

from repro.apps import build_application
from repro.cli import main
from repro.core import SynthesisConfig
from repro.exec import ExecutionEngine, ResultCache
from repro.obs.export import load_jsonl
from repro.obs.metrics import REGISTRY
from repro.pipeline import ArtifactStore, PipelineRunner, stage_fingerprint
from repro.pipeline import collect as collect_module
from repro.pipeline.artifacts import window_stage_spec
from repro.pipeline.collect import collect_key
from repro.pipeline.store import stage_tables
from repro.platform import SIMULATION_COUNTER

SRC = str(Path(__file__).resolve().parents[2] / "src")

EDIT = ["--threshold", "0.2"]
EDIT_CONFIG = SynthesisConfig(overlap_threshold=0.2)

COUNTING_EDIT = """
import contextlib, io, json, sys
import repro.cli
import repro.exec.fingerprint as fingerprint
from repro.pipeline import collect
from repro.traffic.events import TraceRecord

counts = {"decode": 0, "records": 0, "hashes": 0}
decode = collect._decode
def counting_decode(*args):
    counts["decode"] += 1
    return decode(*args)
collect._decode = counting_decode
init = TraceRecord.__init__
def counting_init(self, *args, **kwargs):
    counts["records"] += 1
    init(self, *args, **kwargs)
TraceRecord.__init__ = counting_init
original = fingerprint.trace_fingerprint
def counting_fingerprint(trace):
    if "_fingerprint" not in trace.__dict__:
        counts["hashes"] += 1
    return original(trace)
for module in list(sys.modules.values()):
    if getattr(module, "trace_fingerprint", None) is original:
        module.trace_fingerprint = counting_fingerprint
with contextlib.redirect_stdout(io.StringIO()):
    assert repro.cli.main(sys.argv[1:]) == 0
print(json.dumps(counts))
"""


def run(argv, capsys):
    assert main(argv) == 0
    return capsys.readouterr().out


def it_window_sidecar(cache, digest):
    window = build_application("qsort").default_window
    spec = window_stage_spec(EDIT_CONFIG, window, mirrored=False)
    return cache / f"stage-{stage_fingerprint('window', digest, spec)}.npz"


def collect_entry(cache):
    """A store on ``cache`` and the key of the qsort collect entry."""
    store = ArtifactStore(disk=ResultCache(cache))
    return store, collect_key(build_application("qsort"))


def records_sidecar(cache):
    return cache / f"stage-{collect_entry(cache)[1]}.npz"


def drop_window_sidecars(cache):
    for path in cache.glob("stage-*.npz"):
        if path != records_sidecar(cache):
            path.unlink()


def edit(engine):
    """What ``design qsort --threshold 0.2`` asks of ``engine``."""
    app = build_application("qsort")
    source = engine.collector.source(app)
    return engine.synthesize(
        source.trace,
        EDIT_CONFIG,
        window_size=app.default_window,
        trace_digest=source.digest,
    )


def cold_edit_result():
    app = build_application("qsort")
    return ExecutionEngine().synthesize(
        app.simulate_full_crossbar().trace, EDIT_CONFIG, app.default_window
    )


def count_decodes(monkeypatch, on_call=None):
    calls = []
    decode = collect_module._decode

    def counting(*args):
        calls.append(on_call() if on_call is not None else None)
        return decode(*args)

    monkeypatch.setattr(collect_module, "_decode", counting)
    return calls


def test_fresh_process_edit_decodes_and_hashes_nothing(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    run(["design", "qsort", "--cache-dir", cache], capsys)
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    argv = ["design", "qsort", "--cache-dir", cache, *EDIT]
    completed = subprocess.run(
        [sys.executable, "-c", COUNTING_EDIT, *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
        check=True,
    )
    counts = json.loads(completed.stdout.splitlines()[-1])
    assert counts == {"decode": 0, "records": 0, "hashes": 0}


def test_window_miss_loads_and_verifies_the_trace(tmp_path, capsys, monkeypatch):
    cache = tmp_path / "cache"
    run(["design", "qsort", "--cache-dir", str(cache)], capsys)
    drop_window_sidecars(cache)
    decodes = count_decodes(monkeypatch)
    SIMULATION_COUNTER.reset()
    edited = run(["design", "qsort", "--cache-dir", str(cache), *EDIT], capsys)
    assert len(decodes) == 1
    assert SIMULATION_COUNTER.runs == 0  # the loaded trace passed its check
    cold = run(
        ["design", "qsort", "--cache-dir", str(tmp_path / "cold"), *EDIT],
        capsys,
    )
    assert edited == cold


def test_stale_digest_restarts_when_only_the_ti_window_misses(
    tmp_path, capsys, monkeypatch
):
    """The IT window is served under the stale digest; the TI window
    misses, loads a trace with another digest, and the point restarts
    under that digest. The load waits for the TI window, and nothing is
    filed under the stale digest."""
    cache = tmp_path / "cache"
    run(["design", "qsort", "--cache-dir", str(cache)], capsys)
    store, key = collect_entry(cache)
    payload = store.get_payload(key)
    digest, stale = payload["digest"], "f" * 64
    store.put_payload(key, {**payload, "digest": stale})
    shutil.copy(it_window_sidecar(cache, digest), it_window_sidecar(cache, stale))
    before = set(cache.iterdir())

    engine = ExecutionEngine(cache=cache)
    cut = REGISTRY.snapshot()
    decodes = count_decodes(
        monkeypatch,
        # The runner's disk hits so far (the collector's are its own).
        lambda: {
            stage: count
            for stage, count in stage_tables(cut)["disk_hits"].items()
            if stage != "collect"
        },
    )
    result = edit(engine)

    # Loaded once, after the IT window was read under the stale digest.
    assert decodes == [{"window": 1}]
    assert result == cold_edit_result()
    window = build_application("qsort").default_window
    result_key = PipelineRunner.design_fingerprint(digest, EDIT_CONFIG, window)
    assert set(cache.iterdir()) - before == {cache / f"{result_key}.json"}
    assert store.get_payload(key)["digest"] == digest  # re-collected


def test_truncated_trace_sidecar_with_window_miss_resimulates(tmp_path, capsys):
    cache = tmp_path / "cache"
    run(["design", "qsort", "--cache-dir", str(cache)], capsys)
    drop_window_sidecars(cache)
    records = records_sidecar(cache)
    data = records.read_bytes()
    records.write_bytes(data[: len(data) // 2])

    engine = ExecutionEngine(cache=cache)
    cut = REGISTRY.snapshot()
    assert edit(engine) == cold_edit_result()
    assert stage_tables(cut)["computed"].get("collect") == 1


def test_warm_pipeline_inspect_decodes_nothing(tmp_path, capsys, monkeypatch):
    argv = ["pipeline", "inspect", "qsort", "--cache-dir", str(tmp_path)]
    cold = run(argv, capsys)
    decodes = count_decodes(monkeypatch)
    warm = run(argv, capsys)
    assert decodes == []
    artifacts = "stage                     computed"
    assert warm.split(artifacts)[0] == cold.split(artifacts)[0]


def test_pipeline_inspect_restarts_under_a_stale_digest(tmp_path, capsys):
    argv = ["pipeline", "inspect", "qsort", "--cache-dir", str(tmp_path)]
    cold = run(argv, capsys)
    store, key = collect_entry(tmp_path)
    store.put_payload(key, {**store.get_payload(key), "digest": "0" * 64})
    stale = run(argv, capsys)
    artifacts = "stage                     computed"
    assert stale.split(artifacts)[0] == cold.split(artifacts)[0]


def test_trace_shows_the_skipped_and_the_paid_load(tmp_path, capsys):
    cache = tmp_path / "cache"
    run(["design", "qsort", "--cache-dir", str(cache)], capsys)

    def load_spans(name, *extra):
        spans = tmp_path / f"{name}.jsonl"
        argv = ["design", "qsort", "--cache-dir", str(cache), *extra]
        run([*argv, "--trace", str(spans)], capsys)
        return [
            span
            for span in load_jsonl(str(spans))
            if span.name == "pipeline.collect.load"
        ]

    assert load_spans("edit", *EDIT) == []
    drop_window_sidecars(cache)
    (load,) = load_spans("miss", "--threshold", "0.1")
    store, key = collect_entry(cache)
    assert load.attrs["records"] == store.get_payload(key)["num_records"]
