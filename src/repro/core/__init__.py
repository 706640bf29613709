"""Application-specific STbus crossbar synthesis (the paper's contribution).

The design flow (paper Fig. 3) is implemented end to end:

1. **Traffic collection** -- simulate the application on a full crossbar
   (:mod:`repro.platform`) and window the trace (:mod:`repro.traffic`).
2. **Pre-processing** (:mod:`repro.core.preprocess`) -- build the conflict
   matrix (Eq. 2) from the overlap threshold and overlapping real-time
   streams.
3. **Configuration search** (:mod:`repro.core.search`) -- binary-search
   the minimum bus count whose feasibility problem (Eqs. 3-9 / MILP1,
   Eq. 10) admits a solution.
4. **Optimal binding** (:mod:`repro.core.binding`) -- minimize the
   maximum per-bus traffic overlap (MILP2, Eq. 11).

One exact solver answers both problems: a specialized branch-and-bound
over target-to-bus assignments (:mod:`repro.core.assignment`). The
paper's literal MILP formulation is the test suite's oracle for it
(``tests/oracles/milp``), not a second code path. Baseline design
styles from prior work (average-traffic and contention-free peak
design, random binding) live in :mod:`repro.core.baselines`.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "repro.core.instrumentation": ("SOLVE_COUNTER", "SolveCounter"),
        "repro.core.spec": ("BusBinding", "CrossbarDesign", "SynthesisConfig"),
        "repro.core.problem": ("CrossbarDesignProblem",),
        "repro.core.preprocess": ("ConflictAnalysis", "build_conflicts"),
        "repro.core.search": ("search_minimum_buses",),
        "repro.core.binding": ("optimize_binding", "random_feasible_binding"),
        "repro.core.synthesis": ("CrossbarSynthesizer", "SynthesisReport"),
        "repro.core.multi": (
            "MERGE_POLICIES",
            "RobustSynthesisReport",
            "RobustSynthesizer",
            "merge_conflict_analyses",
            "merge_criticality",
            "merge_problems",
        ),
        "repro.core.baselines": (
            "average_traffic_design",
            "full_crossbar_design",
            "peak_bandwidth_design",
            "shared_bus_design",
        ),
        "repro.core.validate": ("audit_binding",),
    },
)

__all__ = [
    "SynthesisConfig",
    "BusBinding",
    "CrossbarDesign",
    "CrossbarDesignProblem",
    "ConflictAnalysis",
    "build_conflicts",
    "search_minimum_buses",
    "optimize_binding",
    "random_feasible_binding",
    "CrossbarSynthesizer",
    "SynthesisReport",
    "MERGE_POLICIES",
    "RobustSynthesizer",
    "RobustSynthesisReport",
    "merge_problems",
    "merge_conflict_analyses",
    "merge_criticality",
    "average_traffic_design",
    "peak_bandwidth_design",
    "full_crossbar_design",
    "shared_bus_design",
    "audit_binding",
    "SOLVE_COUNTER",
    "SolveCounter",
]
