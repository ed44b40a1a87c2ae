#!/usr/bin/env bash
# Builds the Release tree and runs every bench binary, recording one
# BENCH_<name>.json per bench into --out-dir (default: bench-results/).
#
# Google-Benchmark-based benches (bench_ablation, bench_afp_vs_wfs) emit
# their native JSON; the self-timed benches are wrapped in a small JSON
# envelope carrying the raw table output plus provenance (git rev, date,
# wall time), so the perf trajectory is machine-readable from this PR on.
#
# Usage:
#   tools/run_benches.sh [--out-dir DIR] [--build-dir DIR] [bench ...]
# With no bench names, runs every bench_* binary found in the build dir.

set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${REPO_ROOT}/build"
OUT_DIR="${REPO_ROOT}/bench-results"
BENCHES=()

while [[ $# -gt 0 ]]; do
  case "$1" in
    --out-dir)   OUT_DIR="$2"; shift 2 ;;
    --build-dir) BUILD_DIR="$2"; shift 2 ;;
    -h|--help)   sed -n '2,14p' "$0"; exit 0 ;;
    *)           BENCHES+=("$1"); shift ;;
  esac
done

cmake -B "${BUILD_DIR}" -S "${REPO_ROOT}" -DCMAKE_BUILD_TYPE=Release
cmake --build "${BUILD_DIR}" -j

if [[ ${#BENCHES[@]} -eq 0 ]]; then
  for bin in "${BUILD_DIR}"/bench_*; do
    [[ "${bin}" == *_test ]] && continue  # gtest binaries, not benches
    [[ -x "${bin}" && ! -d "${bin}" ]] && BENCHES+=("$(basename "${bin}")")
  done
fi
if [[ ${#BENCHES[@]} -eq 0 ]]; then
  echo "error: no bench binaries found in ${BUILD_DIR}" >&2
  exit 1
fi

mkdir -p "${OUT_DIR}"
# A tree with uncommitted changes is stamped "<rev>-dirty": its numbers
# belong to no commit.
GIT_REV="$(git -C "${REPO_ROOT}" describe --always --dirty --abbrev=7 2>/dev/null || echo unknown)"
TIMESTAMP="$(date -u +%Y-%m-%dT%H:%M:%SZ)"

# JSON-escapes stdin into a single quoted string.
json_quote() {
  python3 -c 'import json,sys; print(json.dumps(sys.stdin.read()))'
}

for bench in "${BENCHES[@]}"; do
  bin="${BUILD_DIR}/${bench}"
  if [[ ! -x "${bin}" ]]; then
    echo "error: ${bin} not found or not executable" >&2
    exit 1
  fi
  out_json="${OUT_DIR}/BENCH_${bench#bench_}.json"
  echo "== ${bench} -> ${out_json}"

  # Detect Google Benchmark benches from their source (running the binary
  # with --help would execute the whole self-timed workload).
  if grep -q "benchmark/benchmark.h" "${REPO_ROOT}/bench/${bench}.cc" 2>/dev/null; then
    # Google Benchmark: native JSON report.
    "${bin}" --benchmark_out="${out_json}" --benchmark_out_format=json
    if [[ "${bench}" == "bench_ablation" ]]; then
      # Distill the paired axis (incremental repair vs full re-solve) into
      # one compact report.
      # Schema documented in docs/BENCHMARKS.md; the threshold check
      # (tools/check_ablation_axis.py) gates CI on it. The delta-vs-scratch
      # rescan counters are pinned by the AblationCounters ctest instead.
      python3 - "${out_json}" "${OUT_DIR}/BENCH_ablation_axis.json" \
        "${GIT_REV}" "${TIMESTAMP}" <<'PYEOF'
import json, sys
src, dst, git_rev, timestamp = sys.argv[1:5]
with open(src) as f:
    report = json.load(f)
axis_rows = []

# Incremental-update axis: BM_Incremental<Workload>/<size> (a Solver
# session absorbing a single-fact retract+reassert round trip) paired
# with BM_FullUpdate<Workload>/<size> (the identical mutation re-solved
# from scratch, warm context and cached graph). The wall ratio is the
# headline; components_resolved / components_downstream record how far
# the change frontier actually ran.
incr_rows = {}
for b in report.get("benchmarks", []):
    name = b.get("name", "")
    for prefix, side in (("BM_Incremental", "incremental"),
                         ("BM_FullUpdate", "full")):
        if not name.startswith(prefix):
            continue
        cell = {"real_time_ns": b.get("real_time")}
        for c in ("components", "components_resolved",
                  "components_downstream"):
            if c in b:
                cell[c] = b[c]
        incr_rows.setdefault(name[len(prefix):], {})[side] = cell
        break

for workload in sorted(incr_rows):
    per = incr_rows[workload]
    entry = {"axis": "incremental", "workload": workload}
    entry.update(per)
    inc = per.get("incremental", {}).get("real_time_ns")
    full = per.get("full", {}).get("real_time_ns")
    if inc and full:
        entry["wall_ratio_full_over_incremental"] = round(full / inc, 2)
    axis_rows.append(entry)

with open(dst, "w") as f:
    json.dump({"bench": "ablation_axis", "git_rev": git_rev,
               "timestamp": timestamp, "rows": axis_rows}, f, indent=1)
print(f"== ablation axis -> {dst}")
PYEOF
    fi
  elif [[ "${bench}" == "bench_scale" ]]; then
    # Self-timed, native JSON on stdout (fork-per-workload so each row's
    # peak RSS is measured in its own process). Stored as BENCH_scale.json.
    "${bin}" | python3 -c '
import json, sys
d = json.load(sys.stdin)
d["git_rev"] = sys.argv[1]
d["timestamp"] = sys.argv[2]
with open(sys.argv[3], "w") as f:
    json.dump(d, f, indent=1)
' "${GIT_REV}" "${TIMESTAMP}" "${out_json}"
  elif [[ "${bench}" == "bench_search" ]]; then
    # Self-timed, native JSON on stdout (fork-per-workload so timings never
    # share allocator state). Stored as BENCH_search.json; then its rows
    # are merged into the ablation axis report as the `search` axis,
    # replacing any previous search rows (bench_ablation rewrites the file
    # wholesale and runs first in a full sweep; this merge keeps a
    # search-only rerun from clobbering the other axes).
    # tools/check_ablation_axis.py checks each row against pinned values.
    "${bin}" | python3 -c '
import json, sys
d = json.load(sys.stdin)
d["git_rev"] = sys.argv[1]
d["timestamp"] = sys.argv[2]
with open(sys.argv[3], "w") as f:
    json.dump(d, f, indent=1)
' "${GIT_REV}" "${TIMESTAMP}" "${out_json}"
    python3 - "${out_json}" "${OUT_DIR}/BENCH_ablation_axis.json" \
      "${GIT_REV}" "${TIMESTAMP}" <<'PYEOF'
import json, os, sys
src, dst, git_rev, timestamp = sys.argv[1:5]
with open(src) as f:
    report = json.load(f)
hc = report.get("hardware_concurrency")

# One row per workload: wall time plus the enumeration receipt (models,
# nodes, implied_atoms, components_resolved, bucket_solves, sp_calls,
# leaf_rules_checked, model_hash).
search_rows = []
for row in sorted(report.get("rows", []), key=lambda r: r["workload"]):
    entry = {"axis": "search", **row}
    if hc is not None:
        entry["hardware_concurrency"] = hc
    search_rows.append(entry)

if os.path.exists(dst):
    with open(dst) as f:
        axis = json.load(f)
    axis["rows"] = [r for r in axis.get("rows", [])
                    if r.get("axis") != "search"]
else:
    axis = {"bench": "ablation_axis", "rows": []}
axis["git_rev"] = git_rev
axis["timestamp"] = timestamp
axis["rows"].extend(search_rows)
with open(dst, "w") as f:
    json.dump(axis, f, indent=1)
print(f"== search axis -> {dst}")
PYEOF
  elif [[ "${bench}" == "bench_serving" ]]; then
    # Self-timed but emits native JSON on stdout; inject provenance and
    # store as-is (tools/check_serving.py gates CI on this report).
    "${bin}" | python3 -c '
import json, sys
d = json.load(sys.stdin)
d["git_rev"] = sys.argv[1]
d["timestamp"] = sys.argv[2]
with open(sys.argv[3], "w") as f:
    json.dump(d, f, indent=1)
' "${GIT_REV}" "${TIMESTAMP}" "${out_json}"
  else
    # Self-timed bench: wrap the textual report in a JSON envelope.
    start_s="$(date +%s)"
    raw_out="$("${bin}")"
    end_s="$(date +%s)"
    {
      echo "{"
      echo "  \"bench\": \"${bench}\","
      echo "  \"git_rev\": \"${GIT_REV}\","
      echo "  \"timestamp\": \"${TIMESTAMP}\","
      echo "  \"wall_seconds\": $((end_s - start_s)),"
      echo "  \"format\": \"text\","
      echo "  \"output\": $(printf '%s' "${raw_out}" | json_quote)"
      echo "}"
    } > "${out_json}"
  fi
done

echo "wrote $(ls "${OUT_DIR}"/BENCH_*.json | wc -l) reports to ${OUT_DIR}"
