# Model gate for default traces (ctest label `model`): run one figure
# bench with --trace-json and compare the SHA-256 of the trace with the
# digest committed in tests/golden/. The default trace carries simulated
# timestamps only, so any drift of a span, tag or simulated interval
# changes the digest. A change that means to move the model regenerates
# the digests with scripts/refresh_model_golden.sh.
#
# Invoked by ctest as:
#   cmake -DBENCH=<bench binary> -DOUT=<trace path>
#         -DDIGEST=<tests/golden/*.trace.sha256>
#         [-DBENCH_ARGS="<space-separated bench args>"] [-DFLIP=ON]
#         -P trace_digest.cmake
#
# With FLIP=ON the script checks the gate itself: the fresh trace must
# match its digest, and a copy of it with the first byte flipped must
# not. Only that second mismatch fails the script (the ctest registering
# it is WILL_FAIL); any other outcome exits 0 so WILL_FAIL reports it.

foreach(var BENCH OUT DIGEST)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "trace_digest.cmake requires -D${var}=...")
  endif()
endforeach()
separate_arguments(BENCH_ARGS)

# Outside the flip check every problem fails the test; inside it, only
# the flipped copy's mismatch may.
macro(fail msg)
  if(FLIP)
    message(STATUS "flip check inconclusive: ${msg}")
    return()
  endif()
  message(FATAL_ERROR "${msg}")
endmacro()

execute_process(
  COMMAND ${BENCH} ${BENCH_ARGS} --trace-json=${OUT}
  RESULT_VARIABLE bench_rc
  OUTPUT_VARIABLE bench_out
  ERROR_VARIABLE bench_err)
if(NOT bench_rc EQUAL 0)
  fail("bench failed (rc=${bench_rc}):\n${bench_out}\n${bench_err}")
endif()
if(NOT bench_out MATCHES "trace written: ")
  fail("bench did not report writing a trace:\n${bench_out}")
endif()

file(READ ${DIGEST} expected)
string(STRIP "${expected}" expected)
file(SHA256 ${OUT} actual)
if(NOT actual STREQUAL expected)
  fail("trace digest mismatch for ${OUT}:\n  expected ${expected}\n  actual   ${actual}\n"
       "the default trace moved; if the change means to move the model, run "
       "scripts/refresh_model_golden.sh and review the diff")
endif()

if(FLIP)
  file(READ ${OUT} trace)
  string(SUBSTRING "${trace}" 0 1 first)
  string(SUBSTRING "${trace}" 1 -1 rest)
  if(first STREQUAL "x")
    set(first "y")
  else()
    set(first "x")
  endif()
  file(WRITE ${OUT}.flipped "${first}${rest}")
  file(SHA256 ${OUT}.flipped actual)
  if(NOT actual STREQUAL expected)
    message(FATAL_ERROR "trace digest mismatch for ${OUT}.flipped (expected)")
  endif()
  message(STATUS "flipped trace still matches the digest")
  return()
endif()
message(STATUS "trace digest ok: ${actual}")
