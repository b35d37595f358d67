# Benchmark harness — one binary per reproduced table/figure (see
# DESIGN.md §4).  Declared with include() from the top-level lists file so
# ${CMAKE_BINARY_DIR}/bench contains nothing but runnable binaries.

# Every bench links mc_warnings: it carries the warning set AND the
# MODCHECKER_SANITIZE compile/link flags, so sanitizer builds cover the
# bench binaries identically to src/ and tests/ (DESIGN.md §6.1).
function(mc_add_bench name)
  add_executable(${name} ${CMAKE_SOURCE_DIR}/bench/${name}.cpp)
  target_link_libraries(${name} PRIVATE
    mc_warnings
    mc_core mc_cloud mc_attacks mc_baselines mc_workload
    benchmark::benchmark)
  set_target_properties(${name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

mc_add_bench(bench_fig7_idle_runtime)
mc_add_bench(bench_fig8_loaded_runtime)
mc_add_bench(bench_fig9_guest_impact)
mc_add_bench(bench_detection)
mc_add_bench(bench_baselines)
mc_add_bench(bench_ablation_parallel)
mc_add_bench(bench_ablation_rva)
mc_add_bench(bench_majority_vote)
mc_add_bench(bench_ablation_costmodel)
mc_add_bench(bench_ablation_sampling)
mc_add_bench(bench_ablation_incremental)
mc_add_bench(bench_ablation_fastpath)
mc_add_bench(bench_fault_overhead)
mc_add_bench(bench_telemetry_overhead)
mc_add_bench(bench_event_driven)
mc_add_bench(bench_micro)
