#!/usr/bin/env bash
# Refreshes the BENCH_assign.json trajectory: runs the assignment,
# PF-solve and scheduler BE re-solve microbenchmarks (bench_micro_scaling
# with SPARCLE_BENCH_JSON set), pulls out the per-size means, and appends
# one labeled entry to the checked-in trajectory file.
#
# Usage: tools/bench_assign.sh <label> [build-dir]
#   e.g. tools/bench_assign.sh pr7-after build
#
# After appending, the script gates the assignment hot path: if the new
# BM_SparcleAssignNetworkSize/32 mean exceeds the previous trajectory
# entry's by more than 3% (the uninstalled-observability overhead budget,
# see docs/observability.md) it exits 1 — loudly.  Override the budget
# with SPARCLE_BENCH_TOLERANCE (a fraction, default 0.03).
set -euo pipefail
cd "$(dirname "$0")/.."

LABEL="${1:?usage: tools/bench_assign.sh <label> [build-dir]}"
BUILD="${2:-build}"
SCRATCH="$(mktemp /tmp/sparcle-bench-XXXX.json)"
# Clean up the scratch file on any exit; on SIGINT/SIGTERM re-raise after
# cleanup so callers still observe a signal death, not a plain exit.
trap 'rm -f "${SCRATCH}"' EXIT
trap 'exit 130' INT
trap 'exit 143' TERM

cmake --build "${BUILD}" -j "$(nproc 2>/dev/null || echo 2)" \
      --target bench_micro_scaling >/dev/null

SPARCLE_BENCH_JSON="${SCRATCH}" \
  "./${BUILD}/bench/bench_micro_scaling" \
  --benchmark_filter='BM_SparcleAssign|BM_ProvisionPaths|BM_WidestPath|BM_FairnessSolve|BM_BeResolveSoakSite' \
  --benchmark_repetitions=3 --benchmark_report_aggregates_only=true

python3 - "$SCRATCH" "$LABEL" "${SPARCLE_BENCH_TOLERANCE:-0.03}" <<'EOF'
import json, sys, pathlib
raw = json.load(open(sys.argv[1]))
tolerance = float(sys.argv[3])
entry = {"label": sys.argv[2], "time_unit": "ns", "benchmarks": {}}
for b in raw.get("benchmarks", []):
    if b.get("aggregate_name") != "mean":
        continue
    name = b["run_name"]
    entry["benchmarks"][name] = round(b["real_time"], 1)
path = pathlib.Path("BENCH_assign.json")
doc = json.loads(path.read_text()) if path.exists() else {
    "description": "Assignment hot-path trajectory "
                   "(mean real time, ns; see docs/perf.md)",
    "trajectory": [],
}
prev = doc["trajectory"][-1] if doc["trajectory"] else None
doc["trajectory"].append(entry)
path.write_text(json.dumps(doc, indent=2) + "\n")
print(f"appended '{sys.argv[2]}' to {path}")

GATE = "BM_SparcleAssignNetworkSize/32"
if prev and GATE in prev["benchmarks"] and GATE in entry["benchmarks"]:
    base, now = prev["benchmarks"][GATE], entry["benchmarks"][GATE]
    overhead = now / base - 1.0
    print(f"{GATE}: {base:.1f} ns ({prev['label']}) -> {now:.1f} ns "
          f"({overhead:+.2%}, budget {tolerance:.0%})")
    if overhead > tolerance:
        print(f"FAIL: {GATE} regressed {overhead:.2%} vs '{prev['label']}' "
              f"— over the {tolerance:.0%} budget (docs/observability.md)",
              file=sys.stderr)
        sys.exit(1)
EOF
