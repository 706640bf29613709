"""Every daemon job runs on the engine's one pipeline runner.

Jobs share the runner's in-memory store, so a threshold edit reads the
windows an earlier job computed from memory. A job's progress is fed by
a sink scoped to its worker thread, so it shows that job's stage
tallies -- ``collect`` included -- however many jobs run at once.
"""

import json
import sys

from repro.cli import main
from repro.resilience import FaultPlan, FaultRule, clear_plan, install_plan
from repro.server import SynthesisService


def design(app, threshold):
    return {"kind": "design", "app": app, "threshold": threshold}


def cli_record(directory, app, threshold, fingerprint):
    """The whole-result record ``repro design`` files for the point."""
    argv = ["design", app, "--threshold", str(threshold),
            "--cache-dir", str(directory)]
    assert main(argv) == 0
    return json.loads((directory / f"{fingerprint}.json").read_text())


def run_alone(tmp_path, name, request):
    """``request``'s job on a fresh service and cache directory."""
    service = SynthesisService(cache_dir=str(tmp_path / name), workers=1)
    try:
        job, disposition = service.submit(request)
        assert disposition == "new"
        assert job.wait(300) and job.state == "done", job.error
        return job
    finally:
        service.close()


def test_threshold_edit_reads_the_first_jobs_windows_from_memory(
    tmp_path, capsys
):
    service = SynthesisService(cache_dir=str(tmp_path / "daemon"), workers=1)
    try:
        jobs = []
        for threshold in (0.3, 0.2):
            job, disposition = service.submit(design("qsort", threshold))
            assert disposition == "new"
            assert job.wait(300) and job.state == "done", job.error
            jobs.append(job)
    finally:
        service.close()
    cold, edit = jobs
    assert cold.progress["collect"] == {
        "computed": 1, "memo_hit": 0, "disk_hit": 0,
    }
    assert edit.progress["window"] == {
        "computed": 0, "memo_hit": 2, "disk_hit": 0,
    }
    for job, threshold in zip(jobs, (0.3, 0.2)):
        record = cli_record(
            tmp_path / f"cli-{threshold}", "qsort", threshold,
            job.result["design_fingerprint"],
        )
        assert record == job.result["result"]
    capsys.readouterr()


def test_concurrent_jobs_report_their_own_progress(tmp_path):
    """More job threads than cores, switching often: each job's
    progress and result equal its request's run alone."""
    requests = [design("qsort", 0.3), design("mat1", 0.2), design("des", 0.3)]
    alone = [
        run_alone(tmp_path, f"alone-{index}", request)
        for index, request in enumerate(requests)
    ]
    # Every assignment DFS node sleeps, so the solves overlap.
    install_plan(
        FaultPlan(rules={"solver.slow": FaultRule(rate=1.0, delay_s=0.002)})
    )
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    service = SynthesisService(
        cache_dir=str(tmp_path / "shared"), workers=len(requests)
    )
    try:
        jobs = [service.submit(request)[0] for request in requests]
        for job in jobs:
            assert job.wait(300) and job.state == "done", job.error
    finally:
        sys.setswitchinterval(interval)
        clear_plan()
        service.close()
    for job in jobs:
        assert all(
            job.started_at < other.finished_at for other in jobs
        )
    for job, solo in zip(jobs, alone):
        assert job.progress == solo.progress
        assert json.dumps(job.result, sort_keys=True) == json.dumps(
            solo.result, sort_keys=True
        )
