#!/usr/bin/env bash
# CI-style verification: the tier-1 build + full ctest, then the same under
# ASan/UBSan (SPARCLE_SANITIZE, see the top-level CMakeLists.txt), with the
# assignment oracle tests called out explicitly since they prove the
# widest-width-tree γ decides exactly as the point-to-point γ it replaced.
# The sanitized build aborts on the first UBSan finding
# (-fno-sanitize-recover=undefined) and bounds-checks the standard
# containers (-D_GLIBCXX_ASSERTIONS), so any report fails its test; no
# log needs searching for "runtime error".
#
# Usage: tools/check.sh [--skip-sanitize]
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 2)"

echo "=== tier-1: configure + build + ctest (build/) ==="
cmake -B build -S . >/dev/null
cmake --build build -j "${JOBS}"
ctest --test-dir build --output-on-failure -j "${JOBS}"

if [[ "${1:-}" == "--skip-sanitize" ]]; then
  echo "=== sanitize pass skipped ==="
  exit 0
fi

echo "=== ASan/UBSan: configure + build + ctest (build-asan/) ==="
cmake -B build-asan -S . -DSPARCLE_SANITIZE=address,undefined \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
cmake --build build-asan -j "${JOBS}"
ctest --test-dir build-asan --output-on-failure -j "${JOBS}"

echo "=== assignment oracle tests under sanitizers ==="
./build-asan/tests/test_assign_equivalence
./build-asan/tests/test_assign_reference

echo "=== invariant fuzz harness under sanitizers ==="
# The full checker + oracle + shrinking pipeline (docs/testing.md); raise
# SPARCLE_FUZZ_ITERS for a nightly-length run.
SPARCLE_FUZZ_ITERS="${SPARCLE_FUZZ_ITERS:-200}" \
  ./build-asan/tests/test_invariants_fuzz

echo "OK: tier-1 and sanitized suites passed."
