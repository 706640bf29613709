"""Layer tracer for the traced run.

Wraps public functions of ``repro``'s modules from the outside -- no
source under ``src/`` changes -- and records a span (layer, name,
start, end, parent, thread) around every call, in memory. A function
imported by name into other modules is replaced everywhere its callers
look it up: every loaded ``repro`` module attribute, and every dict
entry (or tuple inside one, as in ``scenarios.model.PROFILES``) that
holds it. Modules imported later read the patched attribute.

Counts that exist as process-global registry counters are taken as
deltas of those counters; the rest are counted by the wrappers.

Span times are ``time.monotonic()`` (CLOCK_MONOTONIC, system-wide), so
the parent can split a long-lived daemon's spans by the client-side
interval of each operation, and computes each layer's self time (span
duration minus the part its child spans cover). The recorder imports
the target modules up front, so a traced command skips the lazy imports
an untraced one pays for inside the command; the parent reports that,
with the wrappers' own cost, as the tracing overhead.
"""

import functools
import importlib
import itertools
import json
import sys
import threading
import time

# (layer, module, qualified name). Patched where the callers look up
# the name, so a function re-exported or imported by name is caught.
TARGETS = (
    ("collect", "repro.apps.descriptor", "Application.simulate_full_crossbar"),
    ("replay", "repro.pipeline.runner", "PipelineRunner.replay"),
    ("replay", "repro.platform.drivers", "simulate_workload"),
    ("tracegen", "repro.traffic.synthetic", "generate_synthetic_trace"),
    ("tracegen", "repro.traffic.profiles", "generate_hotspot_trace"),
    ("tracegen", "repro.traffic.profiles", "generate_poisson_trace"),
    ("tracegen", "repro.traffic.profiles", "generate_pipeline_trace"),
    ("window", "repro.pipeline.runner", "PipelineRunner.window"),
    ("conflicts", "repro.pipeline.runner", "PipelineRunner.conflicts"),
    ("bind", "repro.pipeline.runner", "PipelineRunner.bind"),
    ("bind", "repro.pipeline.runner", "PipelineRunner.bind_merged"),
    ("bind", "repro.core.search", "search_minimum_buses"),
    ("bind", "repro.core.assignment", "solve_assignment"),
    ("cache.get", "repro.exec.cache", "ResultCache.get"),
    ("cache.get", "repro.exec.cache", "ResultCache.get_json"),
    ("cache.put", "repro.exec.cache", "ResultCache.put"),
    ("cache.put", "repro.exec.cache", "ResultCache.put_json"),
    ("cache.get", "repro.pipeline.store", "ArtifactStore.get_payload"),
    ("cache.put", "repro.pipeline.store", "ArtifactStore.put_payload"),
    ("store.arrays", "repro.pipeline.store", "ArtifactStore.get_arrays"),
    ("store.arrays", "repro.pipeline.store", "ArtifactStore.put_arrays"),
    ("store.warm", "repro.pipeline.store", "ArtifactStore.get_warm"),
    ("store.warm", "repro.pipeline.store", "ArtifactStore.put_warm"),
    ("engine", "repro.exec.engine", "ExecutionEngine.synthesize"),
    ("engine", "repro.exec.engine", "ExecutionEngine.run_batch"),
    ("engine", "repro.exec.engine", "ExecutionEngine.run_replay_batch"),
    ("suite", "repro.scenarios.runner", "ScenarioSuiteRunner.run"),
    ("merge", "repro.core.multi", "RobustSynthesizer.design"),
    ("merge", "repro.core.multi", "RobustSynthesizer.design_from_problems"),
    ("merge", "repro.core.multi", "RobustSynthesizer.design_from_artifacts"),
    ("report", "repro.scenarios.runner", "SuiteRunReport.summary"),
    ("report", "repro.scenarios.runner", "SuiteRunReport.to_dict"),
)

# Registry counter families read as before/after deltas.
REGISTRY_FAMILIES = (
    "repro_stage_events_total",
    "repro_cache_events_total",
    "repro_solves_total",
    "repro_engine_events_total",
    "repro_shm_events_total",
)


def _registry_snapshot():
    from repro.obs import metrics

    snapshot = {}
    for family in REGISTRY_FAMILIES:
        metric = metrics.REGISTRY.get(family)
        if metric is None:
            continue
        for labels, value in metric.collect().items():
            snapshot[family + "|" + "|".join(labels)] = value
    return snapshot


def _replace_everywhere(original, replacement):
    """Rebind ``original`` to ``replacement`` wherever a loaded repro
    module exposes it: as an attribute, a dict value, or a tuple member
    inside a dict value."""
    for name, module in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")) or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if item is original:
                        value[key] = replacement
                    elif isinstance(item, tuple) and any(
                        part is original for part in item
                    ):
                        value[key] = tuple(
                            replacement if part is original else part
                            for part in item
                        )


class Recorder:
    """In-memory spans and counts for one traced process."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._events = itertools.count()
        self.counts = {
            "solver.solves": 0,
            "solver.nodes": 0,
            "sim.cycles": 0,
            "sim.records": 0,
            "engine.tasks": 0,
        }
        self._count_lock = threading.Lock()
        self._registry_before = {}
        self._sim_runs_before = 0

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _add(self, key, amount):
        with self._count_lock:
            self.counts[key] += amount

    def _observe(self, name, args, result):
        if name == "solve_assignment":
            self._add("solver.solves", 1)
            self._add("solver.nodes", int(getattr(result, "nodes", 0)))
        elif name == "simulate_workload":
            self._add("sim.cycles", int(result.simulated_cycles))
            self._add("sim.records", len(result.trace.records))
        elif name == "ExecutionEngine.synthesize":
            self._add("engine.tasks", 1)
        elif name in ("ExecutionEngine.run_batch",
                      "ExecutionEngine.run_replay_batch"):
            self._add("engine.tasks", len(args[1]))

    def _wrap(self, layer, name, function):
        recorder = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack = recorder._stack()
            # Program-driven collection simulates through the same entry
            # point replay uses; inside a collect span it is collection.
            if (name == "simulate_workload" and stack
                    and stack[-1][1] == "collect"):
                result = function(*args, **kwargs)
                recorder._observe(name, args, result)
                return result
            span_id = next(recorder._ids)
            parent = stack[-1][0] if stack else 0
            stack.append((span_id, layer))
            start = time.monotonic()
            try:
                result = function(*args, **kwargs)
            finally:
                end = time.monotonic()
                stack.pop()
                recorder.spans.append(
                    (span_id, parent, layer, name, start, end,
                     threading.get_ident())
                )
            recorder._observe(name, args, result)
            return result

        return traced

    def install(self):
        """Patch every target and the simulator's event counter."""
        for _, module_name, _ in TARGETS:
            importlib.import_module(module_name)
        for layer, module_name, qualname in TARGETS:
            module = sys.modules[module_name]
            if "." in qualname:
                class_name, method = qualname.split(".")
                owner = getattr(module, class_name)
                setattr(owner, method,
                        self._wrap(layer, qualname, vars(owner)[method]))
            else:
                original = getattr(module, qualname)
                _replace_everywhere(original,
                                    self._wrap(layer, qualname, original))

        from repro.platform.soc import SIMULATION_COUNTER
        from repro.sim.engine import Engine

        events = self._events
        schedule_at = Engine.schedule_at

        def counted_schedule_at(engine, time_, callback, *args):
            next(events)
            return schedule_at(engine, time_, callback, *args)

        Engine.schedule_at = counted_schedule_at
        self._sim_runs_before = SIMULATION_COUNTER.runs
        self._registry_before = _registry_snapshot()

    def summary(self):
        """Wrapper counts and registry/simulator counter deltas since
        :meth:`install`. Self times come from the spans (the parent
        splits them by operation)."""
        from repro.platform.soc import SIMULATION_COUNTER

        after = _registry_snapshot()
        registry = {
            key: value - self._registry_before.get(key, 0)
            for key, value in after.items()
            if value != self._registry_before.get(key, 0)
        }
        counts = dict(self.counts)
        counts["sim.events"] = next(self._events)
        counts["sim.runs"] = SIMULATION_COUNTER.runs - self._sim_runs_before
        return {
            "counts": counts,
            "registry": registry,
        }

    def write_spans(self, path):
        """Write the recorded spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, layer, name, start, end, thread in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "parent": parent, "layer": layer,
                    "name": name, "start": start, "end": end,
                    "thread": thread,
                }) + "\n")
