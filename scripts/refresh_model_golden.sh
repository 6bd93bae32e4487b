#!/usr/bin/env bash
# Regenerates the model-gate goldens in tests/golden/ — the --json output
# of the four smoke benches at the exact arguments their ctests use
# (bench_smoke, fig12_smoke, serve_smoke, oblivious_smoke; label `model`).
#
#   scripts/refresh_model_golden.sh [build-dir]   # default: build
#
# Only a change that means to move the simulated model runs this; the
# resulting diff of tests/golden/ is its reviewable evidence. Every other
# change leaves the goldens untouched and `ctest -L model` green.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${1:-build}"
BENCH="${BUILD}/bench"
OUT=tests/golden
cmake --build "${BUILD}" -j "${JOBS:-$(nproc)}" --target \
  fig6_tpch_speedup fig12_scalability serve_scale fig_oblivious

mkdir -p "${OUT}"
run() {
  local bin="$1" golden="$2"
  echo "==> ${bin} 0.001 --quick -> ${OUT}/${golden}"
  "${BENCH}/${bin}" 0.001 --quick --json="${OUT}/${golden}" >/dev/null
}
run fig6_tpch_speedup fig6_0.001_quick.json
run fig12_scalability fig12_0.001_quick.json
run serve_scale serve_scale_0.001_quick.json
run fig_oblivious fig_oblivious_0.001_quick.json
echo "review the change with: git diff -- ${OUT}"
