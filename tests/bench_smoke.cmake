# Smoke test for the machine-readable perf baselines: run a figure bench
# in --quick mode with --json, then validate the emitted BENCH file with
# baseline_check (schema fields present, plus whatever direction gate
# CHECK_ARGS names).
#
# Invoked by ctest as:
#   cmake -DBENCH=<bench binary> -DCHECK=<baseline_check binary>
#         -DOUT=<json path> [-DBENCH_ARGS="<space-separated args>"]
#         -P bench_smoke.cmake
#
# BENCH_ARGS defaults to the fig6 quick invocation so the original
# bench_smoke registration stays unchanged; serve_smoke passes its own.
# CHECK_ARGS defaults to none (schema only);
# serve_smoke and fig12_smoke pass --require-sim-improvement (measured
# run < its baseline re-run), oblivious_smoke --require-sim-overhead
# (oblivious > plain, the cost the padded pipeline is expected to pay).
# All four smoke tests also pass --against=<tests/golden file> (ctest
# label `model`): every sim_cycles must match the committed golden.

foreach(var BENCH CHECK OUT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "bench_smoke.cmake requires -D${var}=...")
  endif()
endforeach()
if(NOT DEFINED BENCH_ARGS)
  set(BENCH_ARGS "0.001 --quick")
endif()
separate_arguments(BENCH_ARGS)
separate_arguments(CHECK_ARGS)

execute_process(
  COMMAND ${BENCH} ${BENCH_ARGS} --json=${OUT}
  RESULT_VARIABLE bench_rc
  OUTPUT_VARIABLE bench_out
  ERROR_VARIABLE bench_err)
if(NOT bench_rc EQUAL 0)
  message(FATAL_ERROR "bench failed (rc=${bench_rc}):\n${bench_out}\n${bench_err}")
endif()
if(NOT bench_out MATCHES "baseline written: ")
  message(FATAL_ERROR "bench did not report writing a baseline:\n${bench_out}")
endif()

execute_process(
  COMMAND ${CHECK} ${OUT} ${CHECK_ARGS}
  RESULT_VARIABLE check_rc
  OUTPUT_VARIABLE check_out
  ERROR_VARIABLE check_err)
if(NOT check_rc EQUAL 0)
  message(FATAL_ERROR "baseline_check failed (rc=${check_rc}):\n${check_out}\n${check_err}")
endif()
message(STATUS "bench_smoke ok: ${check_out}")
