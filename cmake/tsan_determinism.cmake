# Runs the threading determinism tests under ThreadSanitizer.
#
# Invoked by the `tsan_determinism` ctest entry (see the top-level
# CMakeLists.txt). Configures a nested build of the same source tree with
# FULLWEB_SANITIZE=thread, builds only the test targets that exercise the
# executor, and runs them. Any data race aborts the test (halt_on_error=1).
#
# Expected -D variables: SOURCE_DIR, BUILD_DIR, GENERATOR, CXX_COMPILER.

foreach(var SOURCE_DIR BUILD_DIR GENERATOR CXX_COMPILER)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "tsan_determinism.cmake: missing -D${var}")
  endif()
endforeach()

message(STATUS "[tsan] configuring ${BUILD_DIR}")
execute_process(
  COMMAND ${CMAKE_COMMAND}
    -S ${SOURCE_DIR} -B ${BUILD_DIR}
    -G ${GENERATOR}
    -DCMAKE_CXX_COMPILER=${CXX_COMPILER}
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
    -DFULLWEB_SANITIZE=thread
    -DFULLWEB_TSAN_CHECK=OFF
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "[tsan] configure failed (${rc})")
endif()

# test_weblog_streaming drives the chunked parallel CLF reader on the
# executor; test_weblog_corpus is serial but cheap and pins parser behaviour
# the reader depends on, so both run under the same gate.
# test_shared_kernels covers the compute-sharing layer (prefix moments,
# aggregation pyramid, shared periodogram) including its 1-vs-8-thread
# bit-identity checks, which only mean something under TSan.
# test_validation runs the Monte Carlo replicate runner's 1-vs-N-thread
# bit-identity checks; test_support_workspace pins the thread_local arena
# isolation — both are claims that only TSan can actually falsify.
# test_kernel_determinism does the same for the parallelized fit kernels
# (curvature Monte Carlo, chunked periodogram, make_stationary), and
# test_support_timing exercises the cross-thread StageTimings sink.
# test_core_fleet asserts the fleet shard fan-out is bit-identical at 1 vs
# 8 threads — the claim is only falsifiable with TSan watching the merge —
# and test_store_columnar pins the columnar round-trip those shards load
# through.
# test_weblog_parser_identity pins the SWAR/AVX2 fast parser to the scalar
# reference; under TSan it additionally proves the per-chunk parser state
# (timestamp memo, request arena) shares nothing across workers.
# test_online_analyzer asserts snapshot byte-identity across 1/2/8 reader
# threads feeding one OnlineAnalyzer — the single-consumer ordering claim
# of read_clf_records is only falsifiable with TSan watching the handoff —
# and test_online_sketch pins the merge laws that byte-identity rests on.
set(FULLWEB_TSAN_TESTS
  test_support_executor test_core_determinism
  test_weblog_streaming test_weblog_corpus test_weblog_parser_identity
  test_shared_kernels test_validation test_support_workspace
  test_kernel_determinism test_support_timing
  test_store_columnar test_core_fleet
  test_online_sketch test_online_analyzer)

message(STATUS "[tsan] building ${FULLWEB_TSAN_TESTS}")
execute_process(
  COMMAND ${CMAKE_COMMAND} --build ${BUILD_DIR}
    --target ${FULLWEB_TSAN_TESTS}
    --parallel
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "[tsan] build failed (${rc})")
endif()

foreach(test_bin IN LISTS FULLWEB_TSAN_TESTS)
  message(STATUS "[tsan] running ${test_bin}")
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env TSAN_OPTIONS=halt_on_error=1
      ${BUILD_DIR}/tests/${test_bin}
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "[tsan] ${test_bin} failed under TSan (${rc})")
  endif()
endforeach()

message(STATUS "[tsan] all determinism tests passed under ThreadSanitizer")
