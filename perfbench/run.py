"""End-to-end benchmark for ``repro design``, ``repro scenarios run``
and ``repro serve``, host-normalized, with a traced per-layer split.

Run from the repository root::

    python3 perfbench/run.py --probe-ref-s 0.006 --workload design-apps \\
        --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --steadiness 10 --workload suite-mixed
    python3 perfbench/run.py --probe-ref-s 0.006 --write-golden

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.

Timing rules, applied to every workload:

* Every cold, warm or edit operation runs in a new child process
  (``child.py``), so process memos start empty. The child times
  interpreter start plus ``import repro.cli`` as set-up, then
  ``repro.cli.main(argv)`` with stdout captured.
* Each timing is corrected for host speed by the probe (``probe.py``),
  run in the process that does the timed work: a full probe just before
  and after it, and a probe slice every 20 ms while it runs. It is
  reported in seconds at the reference host speed (see ``probe.py``).
  ``--probe-ref-s`` is fixed in BENCHMARK.json; a change that claims a
  gain never changes it. Raw times and probe readings stay in the
  diagnostics.
* One child at a time, ``--jobs 1``; the daemon client is one thread on
  one keep-alive connection, closed loop. Operations of different kinds
  interleave within a round, and a run repeats whole rounds for
  ``--seconds`` (at least one).

Every workload reports the same end-to-end metrics:

* ``setup_s``: child spawn until ``repro.cli`` is imported (median over
  children); for ``serve-grid``, spawn until ``/v1/health`` returns 200.
* ``cold_s``: the workload's commands on an empty cache.
* ``warm_s``: the same commands in a fresh process on the cache the cold
  operation filled. For ``serve-grid`` that process is a restarted
  daemon on the same cache directory.
* ``edit_s``: a fresh process (or request) on a filled cache with one
  input changed. ``design-apps``: the sum over the apps of ``design``
  with the overlap threshold 0.3 -> 0.2. Suites: the median over the
  suite's scenarios of a run with that one scenario's seed changed.
  ``serve-grid``: the sum over the ``smoke`` suite's scenarios of the
  same edit, posted to the warm daemon as an inline payload.
* ``peak_rss_mb``: the largest RSS of any child, raw.

Repeat requests answered from the daemon's finished-job registry are
millisecond-scale; their p50/p90 are per-layer ``server.repeat_*``
figures.

Workloads (why each was chosen is in BENCHMARK.json):

* ``design-apps``: ``repro design <app>`` on qsort, mat1, mat2, fft and
  des -- the paper's flow (program-driven collection, DFS bind).
* ``suite-mixed``: ``scenarios run --replay-latency --jobs 1`` on the
  ``mixed`` suite exported to JSON with its five seeds drawn from
  ``--seed`` -- profile traffic generation, windowing, replay, the
  robust merged solve; no program simulation.
* ``serve-grid``: ``repro serve`` driven by one closed-loop client over
  five apps x threshold {0.2, 0.3} plus the ``smoke`` suite: cold, then
  (traced runs only) registry repeats, the edited smoke suites, then a
  restarted daemon.

No workload runs ``--jobs 2``: its pool workers run on the other vCPU,
where the sampler cannot follow them, and its cold time spread 9-19%
across seeds. Pool fan-out and the shared stage plane go unmeasured.

Output checks (a mismatch is a failed operation): design reports match
committed golden digests (``golden.json``, written from the CLI by
``--write-golden``); cold equals warm everywhere; the daemon's bindings
equal the CLI's; an edited suite run equals an untimed cold run of the
edited suite.

``--seed`` sets the ``mixed`` and ``smoke`` scenario seeds, each edited
scenario's new seed, which edit is checked against a cold run, and the
order of the apps and grid requests. DEFAULT_SEED is the seed for
development runs; HOLDOUT_SEED is kept back to confirm a claimed gain.
"""

import argparse
import hashlib
import http.client
import json
import os
import queue
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from probe import probe

DEFAULT_SEED = 1
HOLDOUT_SEED = 7919

APPS = ("qsort", "mat1", "mat2", "fft", "des")
THRESHOLDS = (0.2, 0.3)
EDIT_THRESHOLD = 0.2
WORKLOADS = ("design-apps", "suite-mixed", "serve-grid")
END_TO_END = ("setup_s", "cold_s", "warm_s", "edit_s", "peak_rss_mb")
REPEAT_PASSES = 10
CHILD_TIMEOUT_S = 120
HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"

LAYER_SECONDS = (
    ("collect", "collect.s"),
    ("replay", "replay.s"),
    ("tracegen", "tracegen.s"),
    ("window", "window.s"),
    ("conflicts", "conflicts.s"),
    ("bind", "bind.s"),
    ("cache.get", "cache.get_s"),
    ("cache.put", "cache.put_s"),
    ("store.arrays", "store.arrays_s"),
    ("store.warm", "store.warm_hint_s"),
    ("engine", "engine.s"),
    ("suite", "suite.s"),
    ("merge", "merge.s"),
    ("report", "report.s"),
)

PER_LAYER = (
    "import.s", "import.modules", "import.scipy",
    "collect.s", "collect.calls", "sim.runs", "sim.events", "sim.cycles",
    "sim.records", "sim.us_per_event",
    "replay.s", "replay.computed", "replay.hits",
    "tracegen.s", "tracegen.calls",
    "window.s", "window.computed", "window.memo_hits", "window.disk_hits",
    "window.shm_hits",
    "conflicts.s", "conflicts.computed",
    "bind.s", "bind.computed", "bind.disk_hits", "solver.solves",
    "solver.probes", "solver.nodes",
    "cache.get_s", "cache.put_s", "cache.hits", "cache.misses", "cache.bytes",
    "store.arrays_s", "store.warm_hint_s",
    "engine.s", "engine.tasks", "engine.pool_rebuilds", "shm.published",
    "shm.attached",
    "suite.s", "merge.s", "report.s",
    "http.post_s", "http.wait_s", "queue.wait_s", "job.exec_s",
    "server.new", "server.finished", "server.cached", "server.coalesced",
    "server.repeat_p50_s", "server.repeat_p90_s", "server.repeat_samples",
    "host.probe_s", "host.probe_ratio", "host.probe_cold_ratio",
    "host.probe_idle_daemon_ratio",
    "raw.setup_s", "raw.cold_s", "raw.warm_s", "raw.edit_s",
    *(f"app.{app}.{kind}_s" for app in APPS for kind in ("cold", "warm")),
    "other.s", "other.share", "trace.overhead_s", "trace.overhead_share",
)



def unit_of(name):
    if name == "peak_rss_mb":
        return "MB"
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if name.endswith("share") or name.endswith("ratio"):
        return "ratio"
    if name == "cache.bytes":
        return "bytes"
    if name == "sim.us_per_event":
        return "us"
    if name == "import.scipy":
        return "bool"
    return "count"


class BenchError(Exception):
    """The benchmark cannot run here (not a failed operation)."""


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def report_text(stdout):
    """A command's report minus its ``cache:`` statistics line, which
    differs between cold and warm runs by design."""
    return "\n".join(
        line for line in stdout.splitlines() if not line.startswith("cache: ")
    )


def canonical(payload):
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def median(values, default=0.0):
    return statistics.median(values) if values else default


def quantile(values, q):
    ordered = sorted(values)
    if not ordered:
        return 0.0
    index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[index]


def cache_bytes(work):
    """Bytes on disk in a run's timed cache directories."""
    total = 0
    for cache in work.glob("*-cache-*"):
        if cache.name.endswith("cache-check"):
            continue
        for base, _, files in os.walk(cache):
            for name in files:
                total += os.path.getsize(os.path.join(base, name))
    return total


def child_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONUNBUFFERED"] = "1"
    return env


class Op:
    """One timed operation: raw wall seconds, normalized seconds, and
    the per-layer split when traced."""

    def __init__(self, kind, raw, norm, label=""):
        self.kind = kind
        self.raw = raw
        self.norm = norm
        self.label = label
        self.window = None
        self.brackets = ()
        self.self_s = {}

    @property
    def factor(self):
        """Raw-to-normalized scale, applied to the op's layer times."""
        return self.norm / self.raw if self.raw else 0.0


class Run:
    """State of one benchmark run: work directory, timings, failures."""

    def __init__(self, ref, seed):
        self.ref = ref
        self.rng = random.Random(seed)
        WORK_ROOT.mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
        self._serial = 0
        self.attempted = 0
        self.failures = []
        self.setups = []
        self.setups_raw = []
        self.probes = []
        self.probe_ratios = []
        self.cold_ratios = []
        self.idle_daemon_ratios = []
        self.rss_mb = 0.0
        self.imports = []
        self.counts = {}
        self.registry = {}
        self.client = {}
        self.repeat = []

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def path(self, name):
        self._serial += 1
        return self.work / f"{self._serial:04d}-{name}"

    def scale(self, interval, samples, brackets):
        """``probe_ref_s`` times the mean host speed (1 / reading) that
        the bracketing probes and the samples inside ``interval`` read."""
        readings = [reading for begin, _, reading in samples
                    if interval[0] <= begin < interval[1]]
        readings.extend(brackets)
        return self.ref * statistics.fmean(1.0 / r for r in readings)

    def normalize(self, wall, interval, samples, brackets):
        """Wall seconds at the reference host speed, without the time the
        sampler itself took inside ``interval``."""
        sampled = sum(stop - begin for begin, stop, _ in samples
                      if interval[0] <= begin < interval[1])
        return (wall - sampled) * self.scale(interval, samples, brackets)

    def fail(self, message):
        self.failures.append(message)
        print(f"FAILED: {message}", file=sys.stderr)

    def check(self, ok, message):
        if not ok:
            self.fail(message)
        return ok

    # -- child processes ---------------------------------------------

    def spawn(self, argv, trace, capture, stdout=subprocess.DEVNULL,
              pin=False):
        base = self.path("child")
        spec = {
            "argv": [str(a) for a in argv],
            "trace": bool(trace),
            "capture": capture,
            "pin": pin,
            "out": str(base) + ".json",
            "spans": str(base) + ".spans",
        }
        spec_path = str(base) + ".spec"
        with open(spec_path, "w", encoding="utf-8") as handle:
            json.dump(spec, handle)
        err = open(str(base) + ".err", "w", encoding="utf-8")
        spawn_t = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), repr(spawn_t), spec_path],
            cwd=str(ROOT), env=child_env(), stdout=stdout, stderr=err,
        )
        err.close()
        return proc, spawn_t, spec

    def collect_child(self, spec, returncode, label, timed=False):
        """Read a finished child's result; account its probes and RSS,
        and its set-up time if it ran a timed command."""
        try:
            with open(spec["out"], encoding="utf-8") as handle:
                result = json.load(handle)
        except (OSError, ValueError):
            result = None
        if result is None or returncode != 0 or result.get("code") != 0:
            detail = (result or {}).get("error") or ""
            try:
                with open(spec["out"][:-5] + ".err", encoding="utf-8") as h:
                    detail += h.read()[-2000:]
            except OSError:
                pass
            self.fail(f"{label}: exit {returncode}: {detail.strip()[-600:]}")
            if result is None:
                return None
        p0, p1, _ = result["probes"]
        self.probes.extend(result["probes"])
        start, end = result["import"]
        result["import_s"] = end - start
        if timed:
            setup_raw = result["interp_s"] + result["import_s"]
            self.setups_raw.append(setup_raw)
            self.setups.append(self.normalize(
                setup_raw, result["import"], result["samples"], (p0, p1)))
        self.imports.append(result)
        self.rss_mb = max(self.rss_mb, result["rss_mb"])
        if spec["trace"]:
            self.merge_counts(result.get("layers", {}))
        return result

    def merge_counts(self, layers):
        for key, value in layers.get("counts", {}).items():
            self.counts[key] = self.counts.get(key, 0) + value
        for key, value in layers.get("registry", {}).items():
            self.registry[key] = self.registry.get(key, 0) + value

    def command(self, kind, argv, label, trace=False, timed=True):
        """One CLI command in a fresh child; returns (Op, stdout).
        Untimed commands (output checks) only count as attempted."""
        self.attempted += 1
        proc, _, spec = self.spawn(argv, trace, True)
        try:
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            code = -9
        result = self.collect_child(spec, code, label, timed)
        if result is None:
            return None, ""
        p0, p1, p2 = result["probes"]
        if timed:
            self.probe_ratios.append(p2 / p1)
            if kind == "cold":
                self.cold_ratios.append(p2 / p0)
        start, end = result["op"]
        op = Op(kind, end - start, self.normalize(
            end - start, result["op"], result["samples"], (p1, p2)), label)
        if trace:
            op.self_s = self_times(load_spans(spec["spans"]), None)
        return op, result["stdout"]


def load_spans(path):
    spans = []
    try:
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                spans.append(json.loads(line))
    except OSError:
        pass
    return spans


def self_times(spans, window):
    """Per-layer self seconds of the spans whose top-level ancestor
    started inside ``window`` (``(start, end)``; ``None`` = all)."""
    by_id = {span["id"]: span for span in spans}
    covered = {}
    for span in spans:
        if span["parent"]:
            covered[span["parent"]] = (
                covered.get(span["parent"], 0.0) + span["end"] - span["start"]
            )

    def root_start(span):
        while span["parent"] and span["parent"] in by_id:
            span = by_id[span["parent"]]
        return span["start"]

    totals = {}
    for span in spans:
        if window is not None:
            start = root_start(span)
            if not window[0] <= start < window[1]:
                continue
        own = span["end"] - span["start"] - covered.get(span["id"], 0.0)
        totals[span["layer"]] = totals.get(span["layer"], 0.0) + own
        key = span["layer"] + "#calls"
        totals[key] = totals.get(key, 0) + 1
    return totals


# -- design-apps -------------------------------------------------------


def load_golden():
    with open(HERE / "golden.json", encoding="utf-8") as handle:
        return json.load(handle)


def result_record(cache_dir):
    """The one ``repro-result-v1`` record a design run leaves in its
    result cache."""
    records = []
    for path in sorted(Path(cache_dir).glob("*.json")):
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        if payload.get("format") == "repro-result-v1":
            records.append(payload)
    return records


class DesignWorkload:
    edit_stat = staticmethod(sum)

    def __init__(self, run, golden):
        self.run = run
        self.golden = golden

    def finish(self):
        """Every design check runs inside the round."""

    def round(self, trace):
        order = list(APPS)
        self.run.rng.shuffle(order)
        ops = []
        for app in order:
            ops.extend(self.app_ops(app, trace))
        return ops

    def app_ops(self, app, trace):
        """Cold, warm and edited ``design <app>``, each checked."""
        run = self.run
        cache = run.path(f"cache-{app}")
        base = ["design", app, "--cache-dir", cache]
        cold, cold_out = run.command("cold", base, f"design {app} cold", trace)
        records = result_record(cache)
        warm, warm_out = run.command("warm", base, f"design {app} warm", trace)
        edit, edit_out = run.command(
            "edit", base + ["--threshold", str(EDIT_THRESHOLD)],
            f"design {app} edit", trace,
        )
        expected = self.golden["design"][app]
        if cold is not None:
            run.check(
                digest(report_text(cold_out)) == expected["report_0.3"],
                f"design {app} cold: report differs from golden digest",
            )
            run.check(
                len(records) == 1
                and digest(canonical(records[0])) == expected["record_0.3"],
                f"design {app} cold: cached result differs from golden",
            )
        if warm is not None:
            run.check(
                report_text(warm_out) == report_text(cold_out),
                f"design {app}: warm report differs from cold",
            )
        if edit is not None:
            run.check(
                digest(report_text(edit_out)) == expected["report_0.2"],
                f"design {app} edit: report differs from golden digest",
            )
        ops = [op for op in (cold, warm, edit) if op is not None]
        for op in ops:
            op.label = app
        return ops


# -- suite workloads ---------------------------------------------------


def derive_suite(run, name):
    """Export a built-in suite and re-seed its scenarios from the run
    seed. Returns the base suite's path, one edited copy per scenario
    (that scenario's seed changed), as ``(payload, path)``, and the index
    of the edit whose output is checked against a cold run.

    Editing every scenario once, rather than one drawn from the seed,
    keeps ``edit_s`` from hinging on whether one edit happens to change
    the robust design (a 2x difference in replay work)."""
    out = run.path(f"{name}.json")
    proc, _, spec = run.spawn(["scenarios", "export", name, "-o", out],
                              False, True)
    code = proc.wait(timeout=CHILD_TIMEOUT_S)
    if run.collect_child(spec, code, f"export {name}") is None:
        raise BenchError(f"cannot export suite {name!r}")
    with open(out, encoding="utf-8") as handle:
        payload = json.load(handle)
    seeds = [run.rng.randrange(1, 1_000_000) for _ in payload["scenarios"]]
    for scenario, seed in zip(payload["scenarios"], seeds):
        scenario["params"]["seed"] = seed

    def write(label, body):
        path = run.path(f"{name}-{label}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(body, handle, indent=2, sort_keys=True)
        return path

    edits = []
    for index, seed in enumerate(seeds):
        edited = json.loads(json.dumps(payload))
        edited["scenarios"][index]["params"]["seed"] = (
            seed + run.rng.randrange(1, 1_000_000))
        edits.append((edited, write(f"edit{index}", edited)))
    return write("base", payload), edits, run.rng.randrange(len(seeds))


class SuiteWorkload:
    # A one-scenario edit costs about half as much when it leaves the
    # robust design unchanged (cached replays); the median over the five
    # edits is the typical edit, whichever way a seed's edits fall.
    edit_stat = staticmethod(statistics.median)

    def __init__(self, run):
        self.run = run
        self.base, self.edits, self.checked = derive_suite(run, "mixed")
        self.edit_out = None

    def argv(self, suite, cache):
        return ["scenarios", "run", suite, "--replay-latency",
                "--jobs", "1", "--cache-dir", cache]

    def round(self, trace):
        run = self.run
        cache = run.path("cache-suite")
        cold, cold_out = run.command(
            "cold", self.argv(self.base, cache), "suite cold", trace)
        warm, warm_out = run.command(
            "warm", self.argv(self.base, cache), "suite warm", trace)
        edits = []
        for index, (_, path) in enumerate(self.edits):
            edit, edit_out = run.command(
                "edit", self.argv(path, cache), f"suite edit {index}", trace)
            edits.append(edit)
            if index == self.checked and edit is not None:
                self.edit_out = edit_out
        if cold is not None and warm is not None:
            run.check(report_text(cold_out) == report_text(warm_out),
                      "suite: warm report differs from cold")
        return [op for op in [cold, warm] + edits if op is not None]

    def finish(self):
        """The edited run must equal an untimed cold run of the edited
        suite."""
        if self.edit_out is None:
            return
        run = self.run
        ref, ref_out = run.command(
            "check",
            self.argv(self.edits[self.checked][1], run.path("cache-check")),
            "suite edited cold check", timed=False)
        if ref is not None:
            run.check(report_text(ref_out) == report_text(self.edit_out),
                      "suite: edited run differs from a cold run of the "
                      "edited suite")


# -- serve-grid --------------------------------------------------------


class Client:
    """One closed-loop client on one keep-alive connection."""

    def __init__(self, port):
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)

    def close(self):
        self.conn.close()

    def call(self, method, path, body=None):
        payload = None if body is None else json.dumps(body).encode("utf-8")
        headers = {"Content-Type": "application/json"} if payload else {}
        self.conn.request(method, path, body=payload, headers=headers)
        response = self.conn.getresponse()
        data = response.read()
        return response.status, json.loads(data) if data else None

    def job(self, body):
        """POST a job and wait until it is terminal; returns
        (status, disposition, post_s, wait_s)."""
        start = time.monotonic()
        code, admitted = self.call("POST", "/v1/jobs", body)
        posted = time.monotonic()
        if code not in (200, 202):
            raise BenchError(f"POST /v1/jobs -> {code}: {admitted}")
        job = admitted["job"]
        while True:
            code, status = self.call("GET", f"/v1/jobs/{job}?wait=30")
            if code != 200:
                raise BenchError(f"GET /v1/jobs/{job} -> {code}: {status}")
            if status["state"] not in ("queued", "running"):
                break
        return status, admitted["disposition"], posted - start, \
            time.monotonic() - posted


class Daemon:
    """``repro serve --port 0`` in a child process pinned to one CPU, so
    its sampler reads the speed of the CPU its job threads run on."""

    def __init__(self, run, cache, trace):
        self.run = run
        self.samples = []
        alone = [probe() for _ in range(3)]
        before = alone[-1]
        self.proc, self.spawn_t, self.spec = run.spawn(
            ["serve", "--port", "0", "--cache-dir", cache, "--jobs", "1"],
            trace, False, stdout=subprocess.PIPE, pin=True,
        )
        self.lines = queue.Queue()
        self.reader = threading.Thread(target=self._drain, daemon=True)
        self.reader.start()
        port = None
        deadline = time.monotonic() + CHILD_TIMEOUT_S
        while port is None:
            try:
                line = self.lines.get(
                    timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                self.stop()
                raise BenchError("daemon did not report its address")
            if line is None:
                self.stop()
                raise BenchError("daemon exited before listening")
            match = re.search(r"listening on http://[^:]+:(\d+)", line)
            if match:
                port = int(match.group(1))
        self.port = port
        while True:
            try:
                conn = http.client.HTTPConnection("127.0.0.1", port,
                                                  timeout=5)
                conn.request("GET", "/v1/health")
                status = conn.getresponse().status
                conn.close()
            except OSError:
                status = 0
            if status == 200:
                break
            if time.monotonic() > deadline:
                self.stop()
                raise BenchError("daemon never became healthy")
            time.sleep(0.002)
        self.ready = time.monotonic()
        beside = [probe() for _ in range(3)]
        self.brackets = (before, beside[0])
        run.probes.extend(alone + beside)
        # The probe self-check: an idle daemon alive must not change
        # what the probe reads in this process.
        run.idle_daemon_ratios.append(median(beside) / median(alone))

    def _drain(self):
        for raw in self.proc.stdout:
            self.lines.put(raw.decode("utf-8", "replace"))
        self.lines.put(None)

    def stop(self):
        """SIGTERM (drain and exit), wait, and collect the child result:
        its host-speed samples normalize the set-up and every client
        timing taken while it ran."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        self.reader.join(timeout=10)
        self.proc.stdout.close()
        result = self.run.collect_child(self.spec, code, "serve daemon")
        if result is not None and hasattr(self, "ready"):
            self.samples = result["samples"]
            setup_raw = self.ready - self.spawn_t
            self.run.setups_raw.append(setup_raw)
            self.run.setups.append(self.run.normalize(
                setup_raw, (self.spawn_t, self.ready), self.samples,
                self.brackets))


class ServeWorkload:
    edit_stat = staticmethod(sum)

    def __init__(self, run, golden, repeat_passes):
        self.run = run
        self.golden = golden
        self.repeat_passes = repeat_passes
        _, self.edits, self.checked = derive_suite(run, "smoke")
        self.grid = [{"kind": "design", "app": app, "threshold": t}
                     for app in APPS for t in THRESHOLDS]
        self.grid.append({"kind": "suite", "suite": "smoke"})
        self.edit_result = None
        self.suite_result = None

    def grid_pass(self, client, label, requests):
        run = self.run
        results = []
        for body in requests:
            run.attempted += 1
            try:
                status, disposition, post_s, wait_s = client.job(body)
            except (BenchError, OSError, ValueError) as exc:
                run.fail(f"serve {label} {canonical(body)}: {exc}")
                continue
            tally = run.client
            tally[f"server.{disposition}"] = tally.get(
                f"server.{disposition}", 0) + 1
            tally["http.post_s"] = tally.get("http.post_s", 0.0) + post_s
            tally["http.wait_s"] = tally.get("http.wait_s", 0.0) + wait_s
            if disposition == "new" and status.get("started_at"):
                tally["queue.wait_s"] = tally.get("queue.wait_s", 0.0) + (
                    status["started_at"] - status["submitted_at"])
                tally["job.exec_s"] = tally.get("job.exec_s", 0.0) + (
                    status["finished_at"] - status["started_at"])
            if not run.check(status["state"] == "done",
                             f"serve {label} {canonical(body)}: "
                             f"job ended {status['state']}: "
                             f"{status.get('error')}"):
                continue
            results.append((body, status["result"]))
        return results

    def check_results(self, label, results):
        run = self.run
        for body, result in results:
            if body["kind"] == "design":
                expected = self.golden["design"][body["app"]][
                    f"record_{body['threshold']}"]
                run.check(
                    digest(canonical(result["result"])) == expected,
                    f"serve {label} {body['app']}@{body['threshold']}: "
                    "bindings differ from the CLI's",
                )
            elif body.get("suite") == "smoke":
                if self.suite_result is None:
                    self.suite_result = canonical(result)
                run.check(canonical(result) == self.suite_result,
                          f"serve {label}: smoke suite report differs")

    def timed(self, client, kind, label, requests):
        """A client-timed pass; normalized once the daemon has stopped
        and handed over its samples (see :meth:`settle`)."""
        before = probe()
        start = time.monotonic()
        results = self.grid_pass(client, label, requests)
        end = time.monotonic()
        after = probe()
        self.run.probes.extend([before, after])
        self.run.probe_ratios.append(after / before)
        op = Op(kind, end - start, 0.0, label)
        op.window = (start, end)
        op.brackets = (before, after)
        return op, results

    def settle(self, daemon, ops, trace):
        for op in ops:
            op.norm = self.run.normalize(op.raw, op.window, daemon.samples,
                                         op.brackets)
            if trace:
                op.self_s = self_times(load_spans(daemon.spec["spans"]),
                                       op.window)

    def round(self, trace):
        run = self.run
        cache = run.path("cache-serve")
        order = list(self.grid)
        run.rng.shuffle(order)
        daemon = Daemon(run, cache, trace)
        ops = []
        try:
            client = Client(daemon.port)
            cold, results = self.timed(client, "cold", "cold", order)
            ops.append(cold)
            self.check_results("cold", results)
            client.close()
            client = Client(daemon.port)
            repeats = []
            for _ in range(self.repeat_passes):
                before = probe()
                start = time.monotonic()
                samples = []
                for body in order:
                    began = time.monotonic()
                    got = self.grid_pass(client, "repeat", [body])
                    samples.append(time.monotonic() - began)
                    if got:
                        self.check_results("repeat", got)
                repeats.append((samples, (start, time.monotonic()),
                                (before, probe())))
            bodies = [{"kind": "suite", "suite_payload": payload}
                      for payload, _ in self.edits]
            for index, body in enumerate(bodies):
                edit, results = self.timed(client, "edit", "edit", [body])
                ops.append(edit)
                if index == self.checked and results:
                    self.edit_result = canonical(results[0][1])
            client.close()
        finally:
            daemon.stop()
        self.settle(daemon, ops, trace)
        for samples, window, brackets in repeats:
            scale = run.scale(window, daemon.samples, brackets)
            run.repeat.extend(sample * scale for sample in samples)
        daemon = Daemon(run, cache, trace)
        try:
            client = Client(daemon.port)
            warm, results = self.timed(client, "warm", "restart", order)
            self.check_results("restart", results)
            client.close()
        finally:
            daemon.stop()
        self.settle(daemon, [warm], trace)
        return ops + [warm]

    def finish(self):
        """The daemon's edited-suite report must equal an untimed cold
        CLI run of the edited suite."""
        if self.edit_result is None:
            return
        run = self.run
        report = run.path("edited-report.json")
        ref, _ = run.command(
            "check",
            ["scenarios", "run", self.edits[self.checked][1], "--report",
             report,
             "--cache-dir", run.path("cache-check")],
            "smoke edited cold check", timed=False,
        )
        if ref is None:
            return
        with open(report, encoding="utf-8") as handle:
            expected = canonical(json.load(handle))
        run.check(self.edit_result == expected,
                  "serve edit: suite report differs from a cold CLI run")


# -- running a workload ----------------------------------------------


def make_workload(name, run, repeat_passes=0):
    """The workload object: ``round(trace)`` runs one round and returns
    its operations, ``finish()`` runs the untimed output checks."""
    if name == "design-apps":
        return DesignWorkload(run, load_golden())
    if name == "serve-grid":
        return ServeWorkload(run, load_golden(), repeat_passes)
    return SuiteWorkload(run)


def end_to_end(run, rounds, edit_stat):
    """Medians over rounds of each operation kind's per-round sum; for
    edits, of the per-round ``edit_stat`` (sum or median)."""
    metrics = {"setup_s": median(run.setups)}
    raw = {"setup_s": median(run.setups_raw)}
    for kind in ("cold", "warm", "edit"):
        stat = edit_stat if kind == "edit" else sum
        norms = [stat([op.norm for op in ops if op.kind == kind] or [0.0])
                 for ops in rounds]
        raws = [stat([op.raw for op in ops if op.kind == kind] or [0.0])
                for ops in rounds]
        metrics[f"{kind}_s"] = median(norms)
        raw[f"{kind}_s"] = median(raws)
    metrics["peak_rss_mb"] = run.rss_mb
    return metrics, raw


def print_table(title, rows):
    print(title)
    for name, value in rows:
        print(f"  {name:<34} {value:>14.6g} {unit_of(name)}")


def measure(args):
    """Untraced rounds for ``--seconds``; the end-to-end metrics."""
    run = Run(args.probe_ref_s, args.seed)
    try:
        workload = make_workload(args.workload, run)
        rounds = []
        start = time.monotonic()
        while True:
            began = time.monotonic()
            rounds.append(workload.round(False))
            took = time.monotonic() - began
            if time.monotonic() + took > start + args.seconds:
                break
        workload.finish()
        metrics, raw = end_to_end(run, rounds, workload.edit_stat)
        print_table(f"{args.workload}: {len(rounds)} round(s), "
                    f"{len(run.setups)} set-ups, seed {args.seed}",
                    list(metrics.items()))
        print_table("diagnostics (raw seconds, probe)",
                    [(f"raw.{k}", v) for k, v in raw.items()]
                    + [("host.probe_s", median(run.probes)),
                       ("host.probe_ratio", median(run.probe_ratios))])
        return (run.attempted, run.failures), metrics
    finally:
        run.close()


def per_layer(args):
    """One untraced round, then one traced round: the per-layer split,
    diagnostics and the tracing overhead."""
    plain = Run(args.probe_ref_s, args.seed)
    traced = Run(args.probe_ref_s, args.seed)
    try:
        workload = make_workload(args.workload, plain, REPEAT_PASSES)
        plain_ops = workload.round(False)
        workload.finish()
        traced_ops = make_workload(args.workload, traced).round(True)
        _, raw = end_to_end(plain, [plain_ops], workload.edit_stat)
        metrics = {name: 0.0 for name in PER_LAYER}

        imports = traced.imports
        metrics["import.s"] = median([r["import_s"] for r in imports])
        metrics["import.modules"] = median([r["modules"] for r in imports])
        metrics["import.scipy"] = float(any(r["scipy"] for r in imports))

        for layer, key in LAYER_SECONDS:
            metrics[key] = sum(op.self_s.get(layer, 0.0) * op.factor
                               for op in traced_ops)
        calls = {}
        for op in traced_ops:
            for key, value in op.self_s.items():
                if key.endswith("#calls"):
                    calls[key[:-6]] = calls.get(key[:-6], 0) + value
        metrics["collect.calls"] = calls.get("collect", 0)
        metrics["tracegen.calls"] = calls.get("tracegen", 0)

        counts = traced.counts
        for key in ("sim.runs", "sim.events", "sim.cycles", "sim.records",
                    "solver.solves", "solver.nodes", "engine.tasks"):
            metrics[key] = counts.get(key, 0)
        if metrics["sim.events"]:
            metrics["sim.us_per_event"] = (
                (metrics["collect.s"] + metrics["replay.s"]) * 1e6
                / metrics["sim.events"])

        def reg(family, *labels):
            prefix = family + "|" + "|".join(labels)
            return sum(v for k, v in traced.registry.items()
                       if k == prefix or k.startswith(prefix + "|"))

        stage = "repro_stage_events_total"
        metrics["window.computed"] = reg(stage, "window", "computed")
        metrics["window.memo_hits"] = reg(stage, "window", "memo_hit")
        metrics["window.disk_hits"] = reg(stage, "window", "disk_hit")
        metrics["window.shm_hits"] = reg(stage, "window", "shm_hit")
        metrics["conflicts.computed"] = reg(stage, "conflicts", "computed")
        metrics["bind.computed"] = (reg(stage, "bind", "computed")
                                    + reg(stage, "bind-merged", "computed"))
        metrics["bind.disk_hits"] = (reg(stage, "bind", "disk_hit")
                                     + reg(stage, "bind-merged", "disk_hit"))
        metrics["replay.computed"] = reg(stage, "replay", "computed")
        metrics["replay.hits"] = sum(
            reg(stage, "replay", kind)
            for kind in ("memo_hit", "disk_hit", "shm_hit"))
        metrics["solver.probes"] = reg("repro_solves_total", "feasibility")
        metrics["cache.hits"] = reg("repro_cache_events_total", "hit")
        metrics["cache.misses"] = reg("repro_cache_events_total", "miss")
        metrics["engine.pool_rebuilds"] = reg("repro_engine_events_total",
                                              "pool_rebuild")
        metrics["shm.published"] = reg("repro_shm_events_total", "publish")
        metrics["shm.attached"] = (reg("repro_shm_events_total", "attach")
                                   + reg("repro_shm_events_total",
                                         "segment_hit"))
        metrics["cache.bytes"] = cache_bytes(traced.work)

        for key, value in plain.client.items():
            if key in metrics:
                metrics[key] = value
        if plain.repeat:
            metrics["server.repeat_p50_s"] = quantile(plain.repeat, 0.5)
            metrics["server.repeat_p90_s"] = quantile(plain.repeat, 0.9)
            metrics["server.repeat_samples"] = len(plain.repeat)

        probes = plain.probes + traced.probes
        metrics["host.probe_s"] = median(probes)
        metrics["host.probe_ratio"] = median(plain.probe_ratios
                                             + traced.probe_ratios)
        metrics["host.probe_cold_ratio"] = median(plain.cold_ratios
                                                  + traced.cold_ratios)
        metrics["host.probe_idle_daemon_ratio"] = median(
            plain.idle_daemon_ratios + traced.idle_daemon_ratios)
        for key in ("setup_s", "cold_s", "warm_s", "edit_s"):
            metrics[f"raw.{key}"] = raw[key]
        if args.workload == "design-apps":
            for op in plain_ops:
                if op.kind in ("cold", "warm"):
                    metrics[f"app.{op.label}.{op.kind}_s"] = op.norm

        traced_total = sum(op.norm for op in traced_ops)
        plain_total = sum(op.norm for op in plain_ops)
        layered = sum(metrics[key] for _, key in LAYER_SECONDS)
        metrics["other.s"] = traced_total - layered
        metrics["other.share"] = (metrics["other.s"] / traced_total
                                  if traced_total else 0.0)
        metrics["trace.overhead_s"] = traced_total - plain_total
        metrics["trace.overhead_share"] = (
            metrics["trace.overhead_s"] / plain_total if plain_total else 0.0)

        print_layer_table(args.workload, traced_ops)
        shares = []
        for kind in ("cold", "warm", "edit"):
            ops = [op for op in traced_ops if op.kind == kind]
            total = sum(op.norm for op in ops)
            if total:
                other = total - sum(op.self_s.get(layer, 0.0) * op.factor
                                    for op in ops for layer, _ in LAYER_SECONDS)
                shares.append(f"{kind} other={100 * other / total:.1f}%")
        print(f"coverage: {', '.join(shares)}; tracing overhead "
              f"{metrics['trace.overhead_s']:+.3f} s "
              f"({100 * metrics['trace.overhead_share']:+.1f}%)")
        print("not measured on this workload (reported as 0): "
              + "; ".join(absent_metrics(args.workload)))
        return (plain.attempted + traced.attempted,
                plain.failures + traced.failures), metrics
    finally:
        plain.close()
        traced.close()


def absent_metrics(workload):
    notes = []
    if workload != "serve-grid":
        notes.append("http.*, queue.wait_s, job.exec_s, server.*, "
                     "host.probe_idle_daemon_ratio: no daemon")
    else:
        notes.append("host.probe_cold_ratio: no CLI cold command")
    if workload != "design-apps":
        notes.append("app.*: no per-app commands")
    notes.append("engine.pool_rebuilds, shm.attached: no workload runs "
                 "a worker pool")
    return notes


def print_layer_table(workload, ops):
    print(f"{workload}: per-layer self seconds (normalized) by operation")
    header = "  layer          " + "".join(f"{k:>10}" for k in
                                           ("cold", "warm", "edit"))
    print(header)
    for layer, _ in LAYER_SECONDS:
        cells = []
        for kind in ("cold", "warm", "edit"):
            cells.append(sum(op.self_s.get(layer, 0.0) * op.factor
                             for op in ops if op.kind == kind))
        print(f"  {layer:<15}" + "".join(f"{c:>10.4f}" for c in cells))


def emit(tally, metrics, names):
    attempted, failures = tally
    out = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            name: {"value": metrics[name], "unit": unit_of(name)}
            for name in names
        },
    }
    print(json.dumps(out))


# -- steadiness report and golden digests -----------------------------


def steadiness(args):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        bench = json.load(handle)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]
    values = {name: [] for name in bounds}
    for index in range(args.steadiness):
        seed = args.seed + index
        cmd = bench["command"] + ["--workload", args.workload, "--seed",
                                  str(seed), "--seconds", str(seconds),
                                  "--trace", "0"]
        proc = subprocess.run(cmd, cwd=str(ROOT), capture_output=True,
                              text=True, timeout=600)
        last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
        if proc.returncode != 0 or not last.startswith("{"):
            print(f"seed {seed}: run failed (exit {proc.returncode})\n"
                  f"{proc.stderr[-2000:]}")
            return 1
        result = json.loads(last)
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} "
              + " ".join(f"{n}={values[n][-1]:.4f}" for n in values),
              flush=True)
        for line in proc.stderr.splitlines():
            if line.startswith("FAILED"):
                print(f"  {line}", flush=True)
    print(f"{args.workload}: {args.steadiness} runs of {seconds} s")
    print(f"  {'metric':<14}{'median':>10}{'q1':>10}{'q3':>10}"
          f"{'spread':>9}{'bound':>8}")
    for name, series in values.items():
        if len(series) >= 2:
            q1, _, q3 = statistics.quantiles(series, n=4)
        else:
            q1 = q3 = series[0]
        mid = statistics.median(series)
        spread = (q3 - q1) / mid if mid else 0.0
        flag = "" if spread <= bounds[name] / 3 else "  > bound/3"
        print(f"  {name:<14}{mid:>10.4f}{q1:>10.4f}{q3:>10.4f}"
              f"{spread:>9.3f}{bounds[name]:>8.2f}{flag}")
    return 0


def write_golden(args):
    """Digest the CLI's design reports and result records (threshold 0.3
    and 0.2) for every app into golden.json."""
    run = Run(args.probe_ref_s, args.seed)
    try:
        golden = {"design": {}}
        for app in APPS:
            entry = {}
            for threshold in THRESHOLDS:
                cache = run.path(f"cache-{app}")
                op, out = run.command(
                    "cold",
                    ["design", app, "--threshold", str(threshold),
                     "--cache-dir", cache],
                    f"design {app}")
                records = result_record(cache)
                if op is None or len(records) != 1:
                    raise BenchError(f"design {app} failed")
                entry[f"report_{threshold}"] = digest(report_text(out))
                entry[f"record_{threshold}"] = digest(canonical(records[0]))
            golden["design"][app] = entry
        with open(HERE / "golden.json", "w", encoding="utf-8") as handle:
            json.dump(golden, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {HERE / 'golden.json'}")
        return 0
    finally:
        run.close()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, default="design-apps")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-ref-s", type=float, default=None,
                        help="reference probe seconds (fixed in "
                        "BENCHMARK.json's command)")
    parser.add_argument("--steadiness", type=int, default=0, metavar="N",
                        help="run the workload N times (seeds --seed, "
                        "--seed+1, ...) and print each end-to-end metric's "
                        "median, quartiles and spread next to its bound")
    parser.add_argument("--write-golden", action="store_true",
                        help="regenerate golden.json from the CLI")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}; run from the root of "
              "a repository checkout", file=sys.stderr)
        return 2
    if args.steadiness:
        return steadiness(args)
    if args.probe_ref_s is None or args.probe_ref_s <= 0:
        print("error: --probe-ref-s is required", file=sys.stderr)
        return 2
    if args.write_golden:
        return write_golden(args)
    if args.seconds is None:
        args.seconds = 20
    try:
        if args.trace:
            tally, metrics = per_layer(args)
        else:
            tally, metrics = measure(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    emit(tally, metrics, PER_LAYER if args.trace else END_TO_END)
    return 0


if __name__ == "__main__":
    sys.exit(main())
