#!/usr/bin/env python
"""Gate bench timings against the committed baseline.

Reads the machine-readable timings the bench session emits
(``benchmarks/results/timings.json``) and compares each bench's mean
against its measured mean in ``benchmarks/results/baseline.json``. A
bench slower than ``--max-ratio`` times that mean fails the check (CI's
perf gate); the per-bench ratios are also written to
``results/regression_report.json`` so the perf artifact records the
trajectory.

The baseline holds plain measured means, unpadded, so the default 2x
gate fails a bench that got twice as slow as on the reference machine:
it catches algorithmic regressions -- e.g. losing the columnar-kernel
speedup -- not scheduler noise. Given several timings files (one per
bench session), every mode reads each bench's median mean across them.

Usage::

    python benchmarks/check_regression.py            # gate (CI)
    python benchmarks/check_regression.py --update-baseline \
        --timings run1.json run2.json run3.json      # re-measure
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"
BASELINE_FORMAT = "repro-bench-baseline-v1"


def load_timings(path: Path) -> dict:
    """Per-bench mean seconds from a pytest-benchmark timings dump."""
    payload = json.loads(path.read_text(encoding="utf-8"))
    means = {}
    for entry in payload.get("benchmarks", []):
        name = entry.get("name")
        mean = entry.get("mean")
        if name and isinstance(mean, (int, float)):
            means[name] = float(mean)
    return means


def significant(seconds: float) -> float:
    """``seconds`` to four significant digits: a sub-millisecond mean
    keeps its precision instead of rounding to 0 or to twice itself."""
    return float(f"{seconds:.4g}")


def median_timings(paths) -> dict:
    """Per-bench median of the means across several timings files."""
    runs = [load_timings(path) for path in paths]
    names = sorted(set().union(*runs))
    return {
        name: statistics.median(run[name] for run in runs if name in run)
        for name in names
    }


def write_baseline(path: Path, baseline: dict) -> None:
    path.parent.mkdir(exist_ok=True)
    path.write_text(
        json.dumps(baseline, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--timings", type=Path, nargs="+",
        default=[RESULTS_DIR / "timings.json"],
        help="timings JSON written by the bench session; given several, "
        "each bench's median mean across them is used",
    )
    parser.add_argument(
        "--baseline", type=Path, default=RESULTS_DIR / "baseline.json",
        help="committed baseline JSON",
    )
    parser.add_argument(
        "--max-ratio", type=float, default=2.0,
        help="fail when mean exceeds the measured baseline mean * ratio "
        "(default: 2.0)",
    )
    parser.add_argument(
        "--allow-missing", action="store_true",
        help="do not fail when a baselined bench is absent from the timings",
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite the baseline from the current timings and exit",
    )
    parser.add_argument(
        "--record-new", action="store_true",
        help="add the measured means of benches that have no baseline "
        "entry yet (existing entries are left untouched)",
    )
    args = parser.parse_args(argv)

    missing = [path for path in args.timings if not path.exists()]
    if missing:
        print(f"error: no timings at {missing[0]}; run the benches first")
        return 1
    measured = median_timings(args.timings)

    if args.update_baseline:
        write_baseline(
            args.baseline,
            {
                "format": BASELINE_FORMAT,
                "note": (
                    "Mean bench wall-clock seconds measured on one reference "
                    "machine (the median over the bench sessions given). CI "
                    "fails when a bench regresses past max-ratio times these "
                    "values. Regenerate with 'python "
                    "benchmarks/check_regression.py --update-baseline "
                    "--timings <one file per session>' after intentional "
                    "performance changes."
                ),
                "measured_means_s": {
                    name: significant(mean)
                    for name, mean in sorted(measured.items())
                },
            },
        )
        print(
            f"baseline updated: {args.baseline} ({len(measured)} benches, "
            f"median of {len(args.timings)} session(s))"
        )
        return 0

    # A bench without a baseline entry is *new*: it is recorded in the
    # report (and optionally into the baseline via --record-new) but can
    # never fail the gate -- otherwise adding a bench would break CI
    # before its baseline is committed. An absent baseline file is the
    # degenerate case where every bench is new.
    if args.baseline.exists():
        baseline = json.loads(args.baseline.read_text(encoding="utf-8"))
    else:
        print(f"note: no baseline at {args.baseline}; all benches are new")
        baseline = {"format": BASELINE_FORMAT, "measured_means_s": {}}
    expected = baseline.get("measured_means_s", {})

    failures = []
    report = {}
    for name, reference in sorted(expected.items()):
        mean = measured.get(name)
        if mean is None:
            report[name] = {"baseline_s": reference, "status": "missing"}
            message = f"  {name}: MISSING from timings (baseline {reference}s)"
            if args.allow_missing:
                print(message + " [allowed]")
            else:
                print(message)
                failures.append(name)
            continue
        ratio = mean / reference if reference else float("inf")
        status = "ok" if ratio <= args.max_ratio else "regression"
        report[name] = {
            "baseline_s": reference,
            "mean_s": round(mean, 4),
            "ratio": round(ratio, 3),
            "status": status,
        }
        print(
            f"  {name}: {mean:.4f}s vs baseline {reference:.4f}s "
            f"-> {ratio:.2f}x [{status}]"
        )
        if status == "regression":
            failures.append(name)
    new_benches = sorted(set(measured) - set(expected))
    for name in new_benches:
        report[name] = {"mean_s": round(measured[name], 4), "status": "new"}
        print(f"  {name}: {measured[name]:.4f}s (no baseline yet -- recorded)")
    if args.record_new and new_benches:
        for name in new_benches:
            expected[name] = significant(measured[name])
        baseline["measured_means_s"] = expected
        write_baseline(args.baseline, baseline)
        print(
            f"recorded {len(new_benches)} new baseline entr"
            f"{'y' if len(new_benches) == 1 else 'ies'} into {args.baseline}"
        )

    report_path = args.timings[0].parent / "regression_report.json"
    report_path.write_text(
        json.dumps(
            {"max_ratio": args.max_ratio, "benchmarks": report},
            indent=2,
            sort_keys=True,
        )
        + "\n",
        encoding="utf-8",
    )

    if failures:
        print(
            f"FAIL: {len(failures)} bench(es) regressed past "
            f"{args.max_ratio}x the committed baseline: {', '.join(failures)}"
        )
        return 1
    print(f"OK: {len(report)} bench(es) within {args.max_ratio}x of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
