#!/usr/bin/env python3
"""Regression gate over BENCH_ablation_axis.json (see docs/BENCHMARKS.md).

This check fails CI if any of the recorded axes below ever regresses:

  * the incremental-update axis (a Solver session's single-fact
    AssertFacts/RetractFacts repair vs a full re-solve of the mutated
    program) must beat the full re-solve on every recorded workload
    (ratio > 1x) and by at least MIN_INCREMENTAL_RATIO (5x) on the
    flagship INCREMENTAL_FLAGSHIP row. These ratios are wall-clock but
    single-threaded with two-orders-of-magnitude margins, so they are
    safe on noisy or small CI machines;
  * the stable-model search axis (bench_search: one depth-first run per
    workload) must reproduce the pinned enumeration of every row in
    SEARCH_PINNED exactly — model_hash (model set AND emission order),
    models, nodes, implied_atoms, bucket_solves and sp_calls (the
    general-path component solves and S_P evaluations the enumeration
    takes) and leaf_rules_checked (the rule bodies the leaves' stability
    checks read) — and every pinned row must exist.

The search pins are counters, not wall-clock: deterministic for a fixed
workload, so safe on noisy CI machines. The delta-vs-scratch rescan gate
(the delta evaluators must rescan fewer rule bodies than a from-scratch
evaluation) is not here: it is the AblationCounters ctest in
tests/eval_context_test.cc, which computes the scratch side with the
reference loops of tests/reference/.

Usage: check_ablation_axis.py [path/to/BENCH_ablation_axis.json]
Exit status: 0 when every row passes, 1 otherwise.
"""

import json
import sys

MIN_RATIO = 1.0
# The incremental-update flagship: a single-fact update on win-move/4096
# must re-solve at least 5x faster than the from-scratch baseline.
INCREMENTAL_FLAGSHIP = "WinMove/4096"
MIN_INCREMENTAL_RATIO = 5.0
# The stable-model search rows (bench_search): the depth-first
# enumeration of each workload, pinned exactly. model_hash covers the full
# emission sequence (model set AND order); nodes and implied_atoms pin the
# branch tree and every node's decided sets; bucket_solves and sp_calls pin
# the evaluation work, so a faster search shows it did the same work.
SEARCH_PINNED = {
    "EvenCycleClusters/12x24": {"model_hash": "7ff6fae4f6feac43",
                                "models": 4096, "nodes": 8191,
                                "implied_atoms": 2449122,
                                "bucket_solves": 8202, "sp_calls": 24618,
                                "leaf_rules_checked": 49152},
    "EvenCycleClusters/9x48": {"model_hash": "4b901dfea7181283",
                               "models": 512, "nodes": 1023,
                               "implied_atoms": 450130,
                               "bucket_solves": 1031, "sp_calls": 3102,
                               "leaf_rules_checked": 4608},
}


def check_search_row(row, failures, lines):
    workload = row.get("workload", "?")
    label = f"search:{workload}"
    lines.append(f"  {label}: {row.get('wall_ms')} ms, nodes "
                 f"{row.get('nodes')}, components re-solved "
                 f"{row.get('components_resolved')}")
    pinned = SEARCH_PINNED.get(workload)
    if pinned is None:
        failures.append(f"{label}: no pinned enumeration for this workload")
        return
    for key, want in pinned.items():
        if row.get(key) != want:
            failures.append(
                f"{label}: {key} {row.get(key)!r} != pinned {want!r}")


def main() -> int:
    path = sys.argv[1] if len(sys.argv) > 1 else "bench-results/BENCH_ablation_axis.json"
    with open(path) as f:
        report = json.load(f)
    rows = report.get("rows", [])
    if not rows:
        print(f"check_ablation_axis: no rows in {path}", file=sys.stderr)
        return 1

    failures = []
    seen_incremental_workloads = set()
    seen_search_workloads = set()
    search_lines = []
    incremental_lines = []
    for row in rows:
        axis = row.get("axis", "?")
        workload = row.get("workload", "?")
        if axis == "search":
            seen_search_workloads.add(workload)
            check_search_row(row, failures, search_lines)
            continue
        if axis == "incremental":
            seen_incremental_workloads.add(workload)
            label = f"incremental:{workload}"
            ratio = row.get("wall_ratio_full_over_incremental")
            resolved = row.get("incremental", {}).get("components_resolved")
            if ratio is None:
                failures.append(f"{label}: no wall ratio recorded")
                continue
            incremental_lines.append(
                f"  {label}: full/incremental wall ratio {ratio}x"
                f" (components re-solved per round trip: {resolved})")
            if ratio <= MIN_RATIO:
                failures.append(
                    f"{label}: incremental no faster than full re-solve "
                    f"(ratio {ratio} <= {MIN_RATIO})")
            if (workload == INCREMENTAL_FLAGSHIP
                    and ratio < MIN_INCREMENTAL_RATIO):
                failures.append(
                    f"{label}: flagship ratio {ratio} < "
                    f"{MIN_INCREMENTAL_RATIO}")
            continue
        failures.append(f"{axis}:{workload}: unknown axis")
    if INCREMENTAL_FLAGSHIP not in seen_incremental_workloads:
        failures.append(
            f"incremental:{INCREMENTAL_FLAGSHIP}: incremental row missing")
    for missing in sorted(set(SEARCH_PINNED) - seen_search_workloads):
        failures.append(f"search:{missing}: search row missing")

    for line in search_lines:
        print(line)
    for line in incremental_lines:
        print(line)
    if failures:
        for f_ in failures:
            print(f"FAIL {f_}", file=sys.stderr)
        return 1
    print(f"check_ablation_axis: "
          f"{len(seen_incremental_workloads)} incremental rows + "
          f"{len(seen_search_workloads)} search rows OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
