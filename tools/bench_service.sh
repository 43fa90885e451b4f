#!/usr/bin/env bash
# Refreshes the BENCH_service.json trajectory: runs the placement-service
# load generator (bench_service with SPARCLE_BENCH_JSON set) and appends
# one labeled entry to the checked-in trajectory file.
#
# Usage: tools/bench_service.sh <label> [build-dir]
#   e.g. tools/bench_service.sh pr6-after build
#
# The whole benchmarks map is appended verbatim, so the per-stage latency
# breakdown rows bench_service emits (stage_queue_p50_us/batchN,
# stage_apply_*, stage_solve_* — RequestTimeline percentiles) land in the
# trajectory automatically alongside the gated keys below.
#
# bench_service runs its burst axis five times, each row on a fresh
# service: the burst keys below are medians of five runs, and a speedup
# the median of the per-run ratios to that run's batch=1 row.
#
# After appending, the script gates three things:
#   1. regression: if the new admissions_per_s/batch16 falls more than 3%
#      below the previous trajectory entry's, exit 1.  Override the budget
#      with SPARCLE_BENCH_TOLERANCE (a fraction, default 0.03).
#   2. amortization: batched throughput (speedup/batch16) must stay at
#      least 2x the batch=1 pipeline — the service's reason to exist.
#      Override with SPARCLE_SERVICE_MIN_SPEEDUP (default 2.0).
#   3. admission latency: closed-loop p50 (closed_p50_us/threads1 — one
#      client, so no queue-wait noise) must stay within 1.25x the latest
#      checked-in entry that recorded it.  Override the multiplier with
#      SPARCLE_SERVICE_P50_BUDGET (default 1.25).
#   4. codec: the binary frame codec must beat NDJSON on closed-loop
#      metrics-scrape p50 at 64 clients (wire_p50_us/binary_clients64 <
#      wire_p50_us/json_clients64) — the binary wire path's reason to
#      exist.
#   5. connection scaling: closed-loop query p99 at 256 clients must stay
#      within SPARCLE_SERVICE_SCALE_P99_MULT (default 512 — 2x the
#      linear-in-clients budget, which absorbs timer noise at the
#      microsecond-scale single-client floor) times the 1-client p99, and
#      the 1024-client sustain level must finish with zero client errors.
# Gates 4 and 5 only fire when the wire_*/scale_* keys are present, so
# trajectory entries from before the event-loop server never trip them.
set -euo pipefail
cd "$(dirname "$0")/.."

LABEL="${1:?usage: tools/bench_service.sh <label> [build-dir]}"
BUILD="${2:-build}"
SCRATCH="$(mktemp /tmp/sparcle-bench-XXXX.json)"
# Clean up the scratch file on any exit; on SIGINT/SIGTERM re-raise after
# cleanup so callers still observe a signal death, not a plain exit.
trap 'rm -f "${SCRATCH}"' EXIT
trap 'exit 130' INT
trap 'exit 143' TERM

cmake --build "${BUILD}" -j "$(nproc 2>/dev/null || echo 2)" \
      --target bench_service >/dev/null

SPARCLE_BENCH_JSON="${SCRATCH}" "./${BUILD}/bench/bench_service"

python3 - "$SCRATCH" "$LABEL" "${SPARCLE_BENCH_TOLERANCE:-0.03}" \
    "${SPARCLE_SERVICE_MIN_SPEEDUP:-2.0}" \
    "${SPARCLE_SERVICE_P50_BUDGET:-1.25}" \
    "${SPARCLE_SERVICE_SCALE_P99_MULT:-512}" <<'EOF'
import json, sys, pathlib
raw = json.load(open(sys.argv[1]))
tolerance = float(sys.argv[3])
min_speedup = float(sys.argv[4])
p50_budget = float(sys.argv[5])
scale_mult = float(sys.argv[6])
entry = {"label": sys.argv[2], "time_unit": "us",
         "benchmarks": dict(raw["benchmarks"])}
path = pathlib.Path("BENCH_service.json")
doc = json.loads(path.read_text()) if path.exists() else {
    "description": "Placement-service load generator: admissions/sec and "
                   "enqueue-to-reply latency on the 64-NCP site, 192 "
                   "arrivals, vs scheduler batch size and client threads "
                   "(bench_service; see docs/service.md)",
    "trajectory": [],
}
prev = doc["trajectory"][-1] if doc["trajectory"] else None
doc["trajectory"].append(entry)
path.write_text(json.dumps(doc, indent=2) + "\n")
print(f"appended '{sys.argv[2]}' to {path}")

GATE = "admissions_per_s/batch16"
if prev and GATE in prev["benchmarks"] and GATE in entry["benchmarks"]:
    base, now = prev["benchmarks"][GATE], entry["benchmarks"][GATE]
    drop = 1.0 - now / base
    print(f"{GATE}: {base:.0f}/s ({prev['label']}) -> {now:.0f}/s "
          f"({-drop:+.2%}, budget -{tolerance:.0%})")
    if drop > tolerance:
        print(f"FAIL: {GATE} regressed {drop:.2%} vs '{prev['label']}' "
              f"— over the {tolerance:.0%} budget", file=sys.stderr)
        sys.exit(1)

SPEEDUP = "speedup/batch16"
speedup = entry["benchmarks"].get(SPEEDUP, 0.0)
print(f"{SPEEDUP}: {speedup:.2f}x (floor {min_speedup:.1f}x)")
if speedup < min_speedup:
    print(f"FAIL: batched admission only {speedup:.2f}x the batch=1 "
          f"pipeline — below the {min_speedup:.1f}x floor", file=sys.stderr)
    sys.exit(1)

P50 = "closed_p50_us/threads1"
baseline = next((e for e in reversed(doc["trajectory"][:-1])
                 if P50 in e["benchmarks"]), None)
if baseline and P50 in entry["benchmarks"]:
    base, now = baseline["benchmarks"][P50], entry["benchmarks"][P50]
    print(f"{P50}: {base:.0f}us ({baseline['label']}) -> {now:.0f}us "
          f"(budget {p50_budget:.2f}x)")
    if now > p50_budget * base:
        print(f"FAIL: closed-loop admission p50 {now:.0f}us is over "
              f"{p50_budget:.2f}x the '{baseline['label']}' baseline "
              f"({base:.0f}us)", file=sys.stderr)
        sys.exit(1)

bench = entry["benchmarks"]
BIN64, JSON64 = "wire_p50_us/binary_clients64", "wire_p50_us/json_clients64"
if BIN64 in bench and JSON64 in bench:
    b, j = bench[BIN64], bench[JSON64]
    print(f"codec p50 @64 clients: binary {b:.0f}us vs json {j:.0f}us "
          f"({j / b:.2f}x)")
    if b >= j:
        print(f"FAIL: binary codec p50 {b:.0f}us does not beat json "
              f"{j:.0f}us at 64 clients", file=sys.stderr)
        sys.exit(1)

P99_1, P99_256 = "scale_p99_us/clients1", "scale_p99_us/clients256"
if P99_1 in bench and P99_256 in bench:
    base, now = bench[P99_1], bench[P99_256]
    print(f"scaling p99: {base:.0f}us @1 client -> {now:.0f}us @256 "
          f"({now / base:.0f}x, budget {scale_mult:.0f}x)")
    if now > scale_mult * base:
        print(f"FAIL: query p99 at 256 clients ({now:.0f}us) is over "
              f"{scale_mult:.0f}x the 1-client p99 ({base:.0f}us)",
              file=sys.stderr)
        sys.exit(1)

ERR1024, OPS1024 = "scale_errors/clients1024", "scale_ops/clients1024"
if OPS1024 in bench:
    errors = bench.get(ERR1024, 0.0)
    print(f"1024-client sustain: {bench[OPS1024]:.0f} ops, "
          f"{errors:.0f} errors")
    if errors > 0:
        print(f"FAIL: {errors:.0f} client errors at the 1024-connection "
              f"sustain level", file=sys.stderr)
        sys.exit(1)
EOF
