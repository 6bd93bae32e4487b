#!/usr/bin/env bash
# Regenerates the model gate in tests/golden/ (ctest label `model`):
#  - the --json output of the five smoke benches at the exact arguments
#    their ctests use (bench_smoke, fig12_smoke, serve_smoke,
#    oblivious_smoke, fig9_smoke);
#  - the SHA-256 of the default --trace-json output of eight benches
#    (the trace_digest_* ctests), each taken in a run of its own: tracing
#    flushes charges at stage edges, so the --json goldens come from
#    untraced runs.
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
  fig6_tpch_speedup fig12_scalability serve_scale fig_oblivious \
  fig9_microbench fig7_data_movement fig8_cost_breakdown fig11_memory \
  ablation

mkdir -p "${OUT}"
golden() {
  local bin="$1" golden="$2"
  shift 2
  echo "==> ${bin} $* -> ${OUT}/${golden}"
  "${BENCH}/${bin}" "$@" --json="${OUT}/${golden}" >/dev/null
}
golden fig6_tpch_speedup fig6_0.001_quick.json 0.001 --quick
golden fig12_scalability fig12_0.001_quick.json 0.001 --quick
golden serve_scale serve_scale_0.001_quick.json 0.001 --quick
golden fig_oblivious fig_oblivious_0.001_quick.json 0.001 --quick
golden fig9_microbench fig9_quick.json --quick

TRACE="$(mktemp)"
trap 'rm -f "${TRACE}"' EXIT
digest() {
  local bin="$1" name="$2"
  shift 2
  echo "==> ${bin} $* --trace-json -> ${OUT}/${name}.trace.sha256"
  "${BENCH}/${bin}" "$@" --trace-json="${TRACE}" >/dev/null
  cmake -E sha256sum "${TRACE}" | cut -d' ' -f1 >"${OUT}/${name}.trace.sha256"
}
digest fig6_tpch_speedup fig6_0.001_quick 0.001 --quick
digest fig12_scalability fig12_0.001_quick 0.001 --quick
digest fig_oblivious fig_oblivious_0.001_quick 0.001 --quick
digest serve_scale serve_scale_0.001_quick 0.001 --quick
digest fig7_data_movement fig7_0.001 0.001
digest fig8_cost_breakdown fig8_0.001 0.001
digest fig11_memory fig11_0.001 0.001
digest ablation ablation_0.001 0.001
echo "review the change with: git diff -- ${OUT}"
