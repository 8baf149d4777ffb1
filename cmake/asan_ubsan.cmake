# Runs the memory/UB-sensitive tests under AddressSanitizer + UBSan.
#
# Invoked by the `asan_ubsan` ctest entry (see the top-level
# CMakeLists.txt). Configures a nested build of the same source tree with
# FULLWEB_SANITIZE=address,undefined, builds only the targets that exercise
# parsers, the kernels that size their own scratch, and the validation
# harness, and runs them. UBSan includes float-cast-overflow, which
# -fsanitize=undefined leaves out (see the top-level CMakeLists.txt). Any
# report aborts the test (halt_on_error=1, -fno-sanitize-recover). The build
# also treats warnings as errors (FULLWEB_WERROR), so a new compiler warning
# in the libraries or these tests fails the gate.
#
# Expected -D variables: SOURCE_DIR, BUILD_DIR, GENERATOR, CXX_COMPILER.

foreach(var SOURCE_DIR BUILD_DIR GENERATOR CXX_COMPILER)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "asan_ubsan.cmake: missing -D${var}")
  endif()
endforeach()

message(STATUS "[asan] configuring ${BUILD_DIR}")
execute_process(
  COMMAND ${CMAKE_COMMAND}
    -S ${SOURCE_DIR} -B ${BUILD_DIR}
    -G ${GENERATOR}
    -DCMAKE_CXX_COMPILER=${CXX_COMPILER}
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
    "-DFULLWEB_SANITIZE=address,undefined"
    -DFULLWEB_WERROR=ON
    -DFULLWEB_TSAN_CHECK=OFF
    -DFULLWEB_ASAN_UBSAN_CHECK=OFF
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "[asan] configure failed (${rc})")
endif()

# Parsers (weblog, the shared JSON reader, the binary columnar decoder with
# its corruption corpus, the command-line flags), the kernels that size
# their own scratch, and the validation harness (edge inputs + Monte Carlo
# fan-out) are where lifetime/UB bugs would live. test_support_table_cli
# covers CliFlags, which parses argv (input from outside the program) and
# range-checks counts before they become sizes. test_stats_fft covers the
# Bluestein padding, the packed real-input halves and the radix-2 kernel's
# tile-pair bit reversal, cache blocks and fused passes, under a null
# executor and a pool; test_stats_acf covers the zero-padded real transform
# behind the ACF and its empty-series guard; test_tail_curvature
# covers the per-replicate samples of the Monte-Carlo curvature test, their
# radix sort and the quantile index the statistic's cut is read at.
# test_stats_descriptive covers stats::quantile_sorted itself, whose
# position-to-index cast float-cast-overflow checks (a NaN q included),
# and stats::radix_sort's digit passes over every exponent and sign.
# test_tail_llcd and test_tail_hill cover the two tail kernels' index math:
# LLCD's regression suffix found by binary search over the plot and its
# tail-sample count over the sorted sample, and Hill's walk over a top set
# that may be shorter than the tail fraction asks for, or empty.
# test_weblog_parser_identity's exact-size buffers make any vector-scan
# read past a chunk or token end an ASan stop, which is the memory-safety
# half of the SIMD bit-identity contract.
# test_online_sketch and test_online_analyzer feed the online layer
# degenerate and adversarial streams (NaN/inf timestamps, merge pooling,
# alias-table draws); index math over the block ring and the sketch's
# retained vectors is exactly the kind of off-by-one ASan/UBSan catches.
# test_stats_periodogram drives periodogram_band over prime, odd and
# week-length series: its partial last block and (j·t) mod n twiddle
# indices are the same kind of index math.
# test_weblog_streaming and test_weblog_sessionizer cover the one CLF ingest
# path and the one sessionizer: multi-file and out-of-order ingest both run
# through the chunk reader's carried partial lines and the sessionizer's
# list splices and map erases, where a dangling iterator would live.
# test_weblog_dataset covers Dataset::partition, whose interval count and
# bucket index are double-to-size casts (float-cast-overflow flags one out
# of range, as an infinite interval once was). test_shared_kernels covers
# the aggregation pyramid's two routes, which index block_means output by
# level, and the prefix-moment block queries.
# test_stats_tests: the KPSS lag kernel's per-lag tails and last-tile reads are index math.
# test_timeseries: counts_per_bin's bin-index cast is what float-cast-overflow flags.
set(FULLWEB_ASAN_TESTS
  test_stats_fft test_stats_acf test_tail_curvature test_tail_llcd
  test_tail_hill
  test_support_json
  test_support_table_cli test_edge_inputs
  test_validation test_weblog_corpus test_weblog_parser_identity
  test_store_columnar test_online_sketch test_online_analyzer
  test_stats_periodogram test_weblog_streaming test_weblog_sessionizer
  test_stats_descriptive test_weblog_dataset test_shared_kernels
  test_stats_tests test_timeseries)

message(STATUS "[asan] building ${FULLWEB_ASAN_TESTS}")
execute_process(
  COMMAND ${CMAKE_COMMAND} --build ${BUILD_DIR}
    --target ${FULLWEB_ASAN_TESTS}
    --parallel
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "[asan] build failed (${rc})")
endif()

foreach(test_bin IN LISTS FULLWEB_ASAN_TESTS)
  message(STATUS "[asan] running ${test_bin}")
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env
      ASAN_OPTIONS=halt_on_error=1:detect_leaks=1
      UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1
      ${BUILD_DIR}/tests/${test_bin}
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "[asan] ${test_bin} failed under ASan+UBSan (${rc})")
  endif()
endforeach()

message(STATUS "[asan] all tests passed under ASan+UBSan")
