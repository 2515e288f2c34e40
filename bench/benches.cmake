add_library(bench_util OBJECT bench/bench_util.cc)
target_link_libraries(bench_util PUBLIC qserv_core)
target_include_directories(bench_util PUBLIC ${CMAKE_SOURCE_DIR}/bench)

function(qserv_add_bench name)
  add_executable(${name} bench/${name}.cc $<TARGET_OBJECTS:bench_util>)
  target_link_libraries(${name} PRIVATE qserv_core benchmark::benchmark)
  target_include_directories(${name} PRIVATE ${CMAKE_SOURCE_DIR}/bench)
  set_target_properties(${name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

qserv_add_bench(bench_table1)
qserv_add_bench(bench_lv1)
qserv_add_bench(bench_lv2)
qserv_add_bench(bench_lv3)
qserv_add_bench(bench_hv1)
qserv_add_bench(bench_hv2)
qserv_add_bench(bench_hv3)
qserv_add_bench(bench_shv1)
qserv_add_bench(bench_shv2)
qserv_add_bench(bench_scaling_lv)
qserv_add_bench(bench_scaling_hv)
qserv_add_bench(bench_scaling_shv)
qserv_add_bench(bench_concurrency)
qserv_add_bench(bench_shared_scan)
qserv_add_bench(bench_subchunks)
qserv_add_bench(bench_overlap)
qserv_add_bench(bench_index)
qserv_add_bench(bench_htm)
qserv_add_bench(bench_dispatch)
qserv_add_bench(bench_repair)
qserv_add_bench(bench_transfer)
qserv_add_bench(bench_micro)
qserv_add_bench(bench_filter)
qserv_add_bench(bench_spatial_join)
qserv_add_bench(bench_observability)

# perf-smoke: a fast benchmark pass (micro primitives + scan-filter kernels)
# whose metrics snapshots land in the build dir as BENCH_*.json baselines.
# Run with `ctest -R ^perf_smoke_` or the perf-smoke target; bench_filter
# additionally self-checks scalar/vector parity, the >=3x non-selective scan
# speedup, and zero-rows-scanned zone pruning (it aborts on violation).
# The perf CONFIGURATIONS keeps these out of the default `ctest` pass (timing
# gates do not belong in the correctness tier); `ctest -C perf` runs them.
add_test(NAME perf_smoke_micro
  CONFIGURATIONS perf
  COMMAND bench_micro --benchmark_min_time=0.02)
set_tests_properties(perf_smoke_micro PROPERTIES
  LABELS "perf"
  ENVIRONMENT "QSERV_METRICS_JSON=${CMAKE_BINARY_DIR}/BENCH_micro.json")
add_test(NAME perf_smoke_filter
  CONFIGURATIONS perf
  COMMAND bench_filter --benchmark_min_time=0.02)
set_tests_properties(perf_smoke_filter PROPERTIES
  LABELS "perf"
  ENVIRONMENT "QSERV_METRICS_JSON=${CMAKE_BINARY_DIR}/BENCH_filter.json")
add_test(NAME perf_smoke_spatial_join
  CONFIGURATIONS perf
  COMMAND bench_spatial_join --benchmark_min_time=0.02)
set_tests_properties(perf_smoke_spatial_join PROPERTIES
  LABELS "perf"
  ENVIRONMENT "QSERV_METRICS_JSON=${CMAKE_BINARY_DIR}/BENCH_spatial_join.json")
# bench_observability gates profiling overhead (<5% wall) and smoke-checks
# EXPLAIN / EXPLAIN ANALYZE / QueryStats; plain main, no google-benchmark
# flags.
add_test(NAME perf_smoke_observability
  CONFIGURATIONS perf
  COMMAND bench_observability)
set_tests_properties(perf_smoke_observability PROPERTIES
  LABELS "perf"
  ENVIRONMENT "QSERV_METRICS_JSON=${CMAKE_BINARY_DIR}/BENCH_observability.json")
# bench_dispatch gates the modeled batched-dispatch floors (amortized master
# cost <= 0.3 ms/chunk at the full sky and at DR scale, >= 5x under the
# paper's per-chunk pricing) and a measured count: a full-sky query makes one
# write transaction per worker holding its chunks and retries none;
# bench_transfer gates the binary codec's bytes and measured codec round-trip
# speedup floors. Both abort nonzero on violation.
add_test(NAME perf_smoke_dispatch
  CONFIGURATIONS perf
  COMMAND bench_dispatch)
set_tests_properties(perf_smoke_dispatch PROPERTIES
  LABELS "perf"
  ENVIRONMENT "QSERV_METRICS_JSON=${CMAKE_BINARY_DIR}/BENCH_dispatch.json")
add_test(NAME perf_smoke_transfer
  CONFIGURATIONS perf
  COMMAND bench_transfer)
set_tests_properties(perf_smoke_transfer PROPERTIES
  LABELS "perf"
  ENVIRONMENT "QSERV_METRICS_JSON=${CMAKE_BINARY_DIR}/BENCH_transfer.json")
# bench_repair gates the self-healing control plane: throttled repair
# (transfer budget 1) must restore 2x redundancy with concurrent point-query
# p50 <= 1.5x quiescent, every query correct. Aborts nonzero on violation.
add_test(NAME perf_smoke_repair
  CONFIGURATIONS perf
  COMMAND bench_repair)
set_tests_properties(perf_smoke_repair PROPERTIES
  LABELS "perf"
  ENVIRONMENT "QSERV_METRICS_JSON=${CMAKE_BINARY_DIR}/BENCH_repair.json")
# Shared-scan scheduler gates (paper §4.3 vs the §6.4/Fig 14 skew):
# bench_concurrency gates interactive latency under scan load (priority-lane
# LV p50 <= 1.5x solo while 2 HV2 scans run); bench_shared_scan gates the
# N-scans-one-pass byte bound (shared total <= 1.25x a single scan's bytes).
# Both abort nonzero on violation. Their gates are modeled arithmetic or
# byte counts, not wall time, hence the extra `modeled` label.
add_test(NAME perf_smoke_concurrency
  CONFIGURATIONS perf
  COMMAND bench_concurrency)
set_tests_properties(perf_smoke_concurrency PROPERTIES
  LABELS "perf;modeled"
  ENVIRONMENT "QSERV_METRICS_JSON=${CMAKE_BINARY_DIR}/BENCH_concurrency.json")
add_test(NAME perf_smoke_shared_scan
  CONFIGURATIONS perf
  COMMAND bench_shared_scan)
set_tests_properties(perf_smoke_shared_scan PROPERTIES
  LABELS "perf;modeled"
  ENVIRONMENT "QSERV_METRICS_JSON=${CMAKE_BINARY_DIR}/BENCH_shared_scan.json")
add_custom_target(perf-smoke
  COMMAND ${CMAKE_CTEST_COMMAND} -C perf -R "^perf_smoke_"
          --output-on-failure
  DEPENDS bench_micro bench_filter bench_spatial_join bench_observability
          bench_dispatch bench_transfer bench_repair bench_concurrency
          bench_shared_scan
  WORKING_DIRECTORY ${CMAKE_BINARY_DIR}
  COMMENT "perf-smoke: bench_micro + bench_filter + bench_spatial_join + "
          "bench_observability + bench_dispatch + bench_transfer + "
          "bench_repair + bench_concurrency + bench_shared_scan with "
          "metrics snapshots")
