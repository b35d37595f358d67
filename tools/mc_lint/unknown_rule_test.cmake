# mc_lint refuses rule ids outside its catalog:
#   cmake -DMC_LINT=<mc_lint> -DFIXTURE=<raw_memcpy.cpp> -DWORK_DIR=<dir>
#         -P <this file>
# Fails unless --disable= and --allow= with an unknown id exit 2 naming the
# id, and an allow(...) directive naming an unknown id exits 2 with its
# file:line while a catalog id on the same walk still suppresses.
function(expect_exit2 what pattern)
  execute_process(COMMAND ${MC_LINT} ${ARGN}
    RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT code EQUAL 2)
    message(FATAL_ERROR "${what}: exit ${code}, want 2\n${out}${err}")
  endif()
  if(NOT err MATCHES "${pattern}")
    message(FATAL_ERROR "${what}: stderr lacks '${pattern}'\n${err}")
  endif()
endfunction()

expect_exit2("--disable" "--disable names unknown rule 'no-such-rule'"
  --disable=raw-memcpy,no-such-rule ${FIXTURE})
expect_exit2("--allow" "--allow names unknown rule 'bogus-rule'"
  --allow=bogus-rule:x ${FIXTURE})

set(marked ${WORK_DIR}/unknown_allow_marker.cpp)
file(WRITE ${marked} "#include <cstring>\n\
void f(char* d, const char* s) {\n\
  std::memcpy(d, s, 1);  // mc-lint: allow(raw-memcpy)\n\
  // mc-lint: allow(raw-memcopy)\n\
  std::memcpy(d, s, 2);\n\
}\n\
// A `// mc-lint: allow(rule)` example in prose is no directive.\n")
expect_exit2("allow marker"
  "mc_lint: ${marked}:4: allow\\(raw-memcopy\\) names no rule in the catalog"
  ${marked})
execute_process(COMMAND ${MC_LINT} ${marked}
  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT out STREQUAL "${marked}:5: [raw-memcpy] raw memcpy; use mc::copy_bytes / load_le* / store_le* (bounds-checked)\n")
  message(FATAL_ERROR "want only line 5's raw-memcpy finding\n${out}")
endif()
if(err MATCHES "allow\\(rule\\)")
  message(FATAL_ERROR "the quoted example was taken for a directive\n${err}")
endif()
