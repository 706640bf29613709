#!/usr/bin/env python
"""Scenario suites: one robust crossbar for many use-cases.

The paper designs a crossbar per application; a shipping SoC must serve
every use-case of the chip. This example:

1. builds the ``mixed`` suite -- the paper's synthetic burst benchmark
   next to hotspot, open-loop Poisson and producer/consumer streaming
   workloads on one 10x10 platform,
2. synthesizes every scenario individually (through the execution
   engine, so repeat runs come from the cache),
3. synthesizes one *robust* crossbar under the exact ``union`` merge
   policy and replays it against every scenario (zero violations by
   construction),
4. relaxes to the ``weighted`` policy to show the size/isolation
   trade-off when rare use-cases stop forcing separations,
5. round-trips the suite through JSON -- the committed-and-diffed
   workflow for real projects.
"""

import tempfile
from pathlib import Path

from repro import (
    ExecutionEngine,
    ScenarioSuiteRunner,
    build_suite,
    load_suite,
    save_suite,
)


def main() -> None:
    suite = build_suite("mixed")
    print(f"suite: {suite.name} -- {suite.description}")
    for scenario in suite:
        print(f"  {scenario.name:<22} {scenario.source:<18} "
              f"weight={scenario.weight:g} load={scenario.load_scale:g}x")
    print()

    engine = ExecutionEngine()
    union = ScenarioSuiteRunner(engine=engine, policy="union").run(suite)
    print(union.summary())
    assert union.total_violations == 0  # union enforces every scenario exactly

    weighted = ScenarioSuiteRunner(
        engine=engine, policy="weighted", min_weight=0.6
    ).run(suite)
    print()
    print(
        f"weighted policy (min weight 60%): {weighted.robust_buses} buses vs "
        f"{union.robust_buses} under union, at "
        f"{weighted.total_violations} relaxed separation(s)"
    )

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mixed.json"
        save_suite(suite, path)
        assert load_suite(path) == suite
        print(f"\nsuite round-tripped through JSON ({path.stat().st_size} bytes)")


if __name__ == "__main__":
    main()
