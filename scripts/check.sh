#!/usr/bin/env bash
# Full verification matrix, runnable locally and in CI:
#
#   scripts/check.sh              # default build + ctest (incl. lint_tree),
#                                 # the wall-benchmark smoke run, then ASan
#                                 # and UBSan builds + ctest
#   scripts/check.sh --fast      # default build + ctest only
#   scripts/check.sh --tsan      # also run the ThreadSanitizer leg
#
# TSan is the opt-in third leg: it only exercises real interleavings on a
# multi-core host (see docs/STATIC_ANALYSIS.md and docs/OBSERVABILITY.md's
# single-CPU CI caveat), so CI runs it on demand rather than per-push.
# clang-tidy runs when the binary is available (the configure step always
# exports compile_commands.json).
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"
FAST=0
TSAN=0
for arg in "$@"; do
  case "$arg" in
    --fast) FAST=1 ;;
    --tsan) TSAN=1 ;;
    *) echo "usage: scripts/check.sh [--fast] [--tsan]" >&2; exit 2 ;;
  esac
done

build_and_test() {
  local dir="$1" sanitize="$2"
  echo "==> configure ${dir} (sanitize='${sanitize}')"
  cmake -B "$dir" -S . -DIRONSAFE_SANITIZE="$sanitize" >/dev/null
  echo "==> build ${dir}"
  cmake --build "$dir" -j "$JOBS"
  echo "==> ctest ${dir}"
  ctest --test-dir "$dir" --output-on-failure -j "$JOBS"
  # Both AES / SHA-256 implementations under this build's sanitizer.
  echo "==> crypto leg ${dir} (ctest -L crypto)"
  ctest --test-dir "$dir" -L crypto --output-on-failure -j "$JOBS"
  # Seeded adversarial mutations of the row-format decoder, then a sweep
  # of IRONSAFE_FUZZ_SEED under this build's sanitizer.
  echo "==> fuzz leg ${dir} (ctest -L fuzz, IRONSAFE_FUZZ_SEED 1..20)"
  ctest --test-dir "$dir" -L fuzz --output-on-failure -j "$JOBS"
  for seed in $(seq 1 20); do
    IRONSAFE_FUZZ_SEED="$seed" ctest --test-dir "$dir" -L fuzz \
      -R EnvSeed --output-on-failure -j "$JOBS" >/dev/null \
      || { echo "fuzz sweep FAILED at seed $seed" >&2
           IRONSAFE_FUZZ_SEED="$seed" ctest --test-dir "$dir" -L fuzz \
             -R EnvSeed --output-on-failure -j "$JOBS"; exit 1; }
  done
}

build_and_test build ""

echo "==> fault-seed sweep (ctest -L fault under 10 seeds)"
for seed in $(seq 1 10); do
  IRONSAFE_FAULT_SEED="$seed" ctest --test-dir build -L fault \
    --output-on-failure -j "$JOBS" >/dev/null \
    || { echo "fault sweep FAILED at seed $seed" >&2
         IRONSAFE_FAULT_SEED="$seed" ctest --test-dir build -L fault \
           --output-on-failure -j "$JOBS"; exit 1; }
done

echo "==> serving-layer leg (ctest -L server)"
ctest --test-dir build -L server --output-on-failure -j "$JOBS"

echo "==> oblivious-mode leg (ctest -L oblivious)"
ctest --test-dir build -L oblivious --output-on-failure -j "$JOBS"

echo "==> sharded-fleet leg (ctest -L dist)"
ctest --test-dir build -L dist --output-on-failure -j "$JOBS"

echo "==> model-gate leg (ctest -L model)"
ctest --test-dir build -L model --output-on-failure -j "$JOBS"

echo "==> SQLite-oracle leg (ctest -L oracle)"
ctest --test-dir build -L oracle --output-on-failure -j "$JOBS"

echo "==> oracle-seed sweep (random SELECTs under 10 seeds)"
for seed in $(seq 1 10); do
  IRONSAFE_ORACLE_SEED="$seed" ctest --test-dir build -L oracle -R OracleRandom \
    --output-on-failure -j "$JOBS" >/dev/null \
    || { echo "oracle sweep FAILED at seed $seed" >&2
         IRONSAFE_ORACLE_SEED="$seed" ctest --test-dir build -L oracle \
           -R OracleRandom --output-on-failure -j "$JOBS"; exit 1; }
done

echo "==> ironsafe_lint (also gated by ctest -R lint_tree)"
./build/tools/ironsafe_lint/ironsafe_lint --root . \
  --json build/lint_report.json

echo "==> doc_link_check (also gated by ctest -R docs_links)"
./build/tools/doc_link_check/doc_link_check --root .

if command -v clang-tidy >/dev/null 2>&1; then
  echo "==> clang-tidy (baseline .clang-tidy, compile_commands from build/)"
  clang-tidy -p build --quiet src/*/*.cc
else
  echo "==> clang-tidy not installed; skipping (config: .clang-tidy)"
fi

if [ "$FAST" -eq 1 ]; then
  echo "OK (fast: default build only)"
  exit 0
fi

echo "==> wall-benchmark smoke (wallbench/test_run.py builds .bench_build/)"
python3 wallbench/test_run.py

build_and_test build-asan address
build_and_test build-ubsan undefined
if [ "$TSAN" -eq 1 ]; then
  build_and_test build-tsan thread
fi

echo "OK"
