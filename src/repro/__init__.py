"""repro -- application-specific STbus crossbar generation.

A full reproduction of Murali & De Micheli, *An Application-Specific
Design Methodology for STbus Crossbar Generation* (DATE 2005): a
cycle-resolved STbus MPSoC platform simulator, window-based traffic
analysis, the MILP/branch-and-bound crossbar synthesis flow, the paper's
five benchmark applications, and the baselines it compares against.

Quickstart
----------
>>> from repro import build_application, CrossbarSynthesizer
>>> app = build_application("mat2")                    # doctest: +SKIP
>>> report = CrossbarSynthesizer().design(app)         # doctest: +SKIP
>>> report.design.bus_count                            # doctest: +SKIP
6

See ``examples/`` for runnable end-to-end scenarios and ``benchmarks/``
for the scripts that regenerate every table and figure of the paper.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "repro.errors": ("ReproError",),
        "repro.apps.descriptor": ("Application",),
        "repro.apps.registry": ("APPLICATIONS", "build_application"),
        "repro.platform.soc": ("SoC", "SoCConfig", "SimulationResult"),
        "repro.platform.transaction": ("TimingModel",),
        "repro.platform.drivers": (
            "WorkloadDriver",
            "ProgramDriver",
            "TraceDrivenInitiator",
            "simulate_workload",
        ),
        "repro.traffic.trace": ("TrafficTrace",),
        "repro.traffic.windows": ("WindowedTraffic",),
        "repro.traffic.synthetic": (
            "SyntheticTrafficConfig",
            "generate_synthetic_trace",
        ),
        "repro.traffic.io": ("save_trace_jsonl", "load_trace_jsonl"),
        "repro.core.synthesis": ("CrossbarSynthesizer", "SynthesisReport"),
        "repro.core.spec": ("SynthesisConfig", "CrossbarDesign", "BusBinding"),
        "repro.core.problem": ("CrossbarDesignProblem",),
        "repro.core.baselines": (
            "average_traffic_design",
            "peak_bandwidth_design",
            "shared_bus_design",
            "full_crossbar_design",
        ),
        "repro.exec.engine": ("ExecutionEngine", "SynthesisTask"),
        "repro.exec.cache": ("ResultCache",),
        "repro.exec.serialize": ("SynthesisResult",),
        "repro.pipeline.runner": ("PipelineRunner",),
        "repro.pipeline.store": ("ArtifactStore",),
        "repro.scenarios.model": (
            "Scenario",
            "ScenarioSuite",
            "save_suite",
            "load_suite",
        ),
        "repro.scenarios.library": ("build_suite",),
        "repro.scenarios.runner": ("ScenarioSuiteRunner", "SuiteRunReport"),
        "repro.core.multi": ("RobustSynthesizer", "RobustSynthesisReport"),
    },
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "ReproError",
    # applications
    "Application",
    "APPLICATIONS",
    "build_application",
    # platform
    "SoC",
    "SoCConfig",
    "SimulationResult",
    "TimingModel",
    # workload drivers
    "WorkloadDriver",
    "ProgramDriver",
    "TraceDrivenInitiator",
    "simulate_workload",
    # traffic
    "TrafficTrace",
    "WindowedTraffic",
    "SyntheticTrafficConfig",
    "generate_synthetic_trace",
    "save_trace_jsonl",
    "load_trace_jsonl",
    # synthesis
    "CrossbarSynthesizer",
    "SynthesisConfig",
    "SynthesisReport",
    "CrossbarDesign",
    "BusBinding",
    "CrossbarDesignProblem",
    "average_traffic_design",
    "peak_bandwidth_design",
    "shared_bus_design",
    "full_crossbar_design",
    # execution engine
    "ExecutionEngine",
    "ResultCache",
    "SynthesisResult",
    "SynthesisTask",
    # staged pipeline
    "PipelineRunner",
    "ArtifactStore",
    # scenarios
    "Scenario",
    "ScenarioSuite",
    "ScenarioSuiteRunner",
    "SuiteRunReport",
    "RobustSynthesizer",
    "RobustSynthesisReport",
    "build_suite",
    "save_suite",
    "load_suite",
]
