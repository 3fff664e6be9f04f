# Every hicond_tool subcommand that reads a graph accepts each on-disk
# format. Generates a small grid, converts it to a binary snapshot (.hsnap)
# and to METIS (.metis), then runs stats, decompose and solve on both.
#
#   cmake -DTOOL=<hicond_tool> -DWORK=<scratch dir> -P graph_formats_test.cmake
if(NOT TOOL OR NOT WORK)
  message(FATAL_ERROR "usage: cmake -DTOOL=... -DWORK=... -P ${CMAKE_SCRIPT_MODE_FILE}")
endif()
file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")

function(run_tool)
  list(JOIN ARGN " " cmd)
  execute_process(COMMAND "${TOOL}" ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "hicond_tool ${cmd}: exit ${rc}\n${out}${err}")
  endif()
  message(STATUS "hicond_tool ${cmd}: ok")
endfunction()

run_tool(gen grid2d 12 "${WORK}/g.wel" 7)
foreach(ext hsnap metis)
  set(graph "${WORK}/g.${ext}")
  run_tool(snapshot-convert "${WORK}/g.wel" "${graph}")
  run_tool(stats "${graph}")
  run_tool(decompose "${graph}" 4 "${WORK}/g.${ext}.assignment")
  run_tool(solve "${graph}" multilevel)
endforeach()
