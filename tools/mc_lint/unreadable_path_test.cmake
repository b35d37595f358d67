# mc_lint over a missing file and a readable fixture, in one walk:
#   cmake -DMC_LINT=<mc_lint> -DFIXTURE=<raw_memcpy.cpp> -P <this file>
# Fails unless mc_lint exits 2, names the missing file in a "cannot read"
# line, and still reports the fixture's raw-memcpy finding.
set(missing /no/such/path/x.cpp)
execute_process(COMMAND ${MC_LINT} ${missing} ${FIXTURE}
  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT code EQUAL 2)
  message(FATAL_ERROR "exit ${code}, want 2\n${out}${err}")
endif()
if(NOT err MATCHES "mc_lint: ${missing}: cannot read")
  message(FATAL_ERROR "no 'cannot read' line for ${missing}\n${err}")
endif()
if(NOT out STREQUAL "${FIXTURE}:6: [raw-memcpy] raw memcpy; use mc::copy_bytes / load_le* / store_le* (bounds-checked)\n")
  message(FATAL_ERROR "want the fixture's one raw-memcpy finding\n${out}")
endif()
