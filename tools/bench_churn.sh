#!/usr/bin/env bash
# Refreshes the BENCH_churn.json trajectory: runs bench_churn (which
# writes its part-2 repair results as a flat JSON map when
# SPARCLE_BENCH_JSON is set) and appends one labeled entry.
#
# Usage: tools/bench_churn.sh <label> [build-dir]
#   e.g. tools/bench_churn.sh pr7-after build
#
# After appending, the script gates the repair tail: over *active*
# repairs (working set non-empty — the all-events distribution is
# bimodal because most churn hits relays carrying nothing), repair's
# p99 must stay within SPARCLE_CHURN_TAIL_RATIO (default 20) of its p50.
# A fat tail means some repair class costs far more than the rest (for
# example a working set that grows with the site instead of the damage).
set -euo pipefail
cd "$(dirname "$0")/.."

LABEL="${1:?usage: tools/bench_churn.sh <label> [build-dir]}"
BUILD="${2:-build}"
SCRATCH="$(mktemp /tmp/sparcle-bench-XXXX.json)"
trap 'rm -f "${SCRATCH}"' EXIT
trap 'exit 130' INT
trap 'exit 143' TERM

cmake --build "${BUILD}" -j "$(nproc 2>/dev/null || echo 2)" \
      --target bench_churn >/dev/null

SPARCLE_BENCH_JSON="${SCRATCH}" "./${BUILD}/bench/bench_churn"

python3 - "$SCRATCH" "$LABEL" "${SPARCLE_CHURN_TAIL_RATIO:-20}" <<'EOF'
import json, sys, pathlib
raw = json.load(open(sys.argv[1]))
max_ratio = float(sys.argv[3])
entry = {"label": sys.argv[2], "time_unit": "us",
         "benchmarks": raw["benchmarks"]}
path = pathlib.Path("BENCH_churn.json")
doc = json.loads(path.read_text()) if path.exists() else {
    "description": "Churn replay: repair() per event "
                   "(bench_churn part 2; see docs/churn.md)",
    "trajectory": [],
}
doc["trajectory"].append(entry)
path.write_text(json.dumps(doc, indent=1) + "\n")
print(f"appended '{sys.argv[2]}' to {path}")

P50 = "repair_active_p50_us/incremental"
P99 = "repair_active_p99_us/incremental"
p50, p99 = entry["benchmarks"][P50], entry["benchmarks"][P99]
ratio = p99 / max(p50, 1e-9)
print(f"active repair tail: p99 {p99:.1f}us = {ratio:.1f}x p50 {p50:.1f}us "
      f"(budget {max_ratio:.0f}x)")
if ratio > max_ratio:
    print(f"FAIL: active-repair p99 is {ratio:.1f}x p50 — over the "
          f"{max_ratio:.0f}x flat-tail budget", file=sys.stderr)
    sys.exit(1)
EOF
