# Runs one command and compares its output with a committed golden file:
#   cmake -DGOLDEN=<file> [-DOUTPUT=<file the command writes>]
#         -DCMD=<program;args...> -P <this file>
# Without OUTPUT the command's stdout is compared.  Simulated time,
# counters and verdicts are deterministic, so any difference is a change
# in simulated behaviour: regenerate the golden file only on purpose.
execute_process(COMMAND ${CMD}
  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "exit ${code}: ${CMD}\n${err}")
endif()
if(OUTPUT)
  file(READ ${OUTPUT} out)
endif()
file(READ ${GOLDEN} want)
if(NOT out STREQUAL want)
  get_filename_component(name ${GOLDEN} NAME)
  file(WRITE ${CMAKE_CURRENT_BINARY_DIR}/${name}.actual "${out}")
  message(FATAL_ERROR "output differs from ${GOLDEN}; got "
    "${CMAKE_CURRENT_BINARY_DIR}/${name}.actual")
endif()
