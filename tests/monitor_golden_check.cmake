# Reruns one `choirctl run` with the streaming monitor and compares its
# windows.csv and divergence.jsonl byte for byte with committed goldens:
#   cmake -DCHOIRCTL=<binary> -DRUN_ARGS="<env>|<opt>|<value>|..."
#         -DOUT=<dir> -DGOLDEN=<dir> -P monitor_golden_check.cmake
# RUN_ARGS separates the arguments with '|' (a CMake list would be split
# by add_test). The perfbench digests do not cover these two artifacts;
# this check does.
string(REPLACE "|" ";" run_args "${RUN_ARGS}")
file(REMOVE_RECURSE "${OUT}")
execute_process(COMMAND "${CHOIRCTL}" run ${run_args} --monitor "${OUT}"
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "choirctl run ${run_args}: exit ${rc}\n${err}")
endif()
foreach(artifact windows.csv divergence.jsonl)
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                          "${OUT}/${artifact}" "${GOLDEN}/${artifact}"
                  RESULT_VARIABLE differs)
  if(NOT differs EQUAL 0)
    message(FATAL_ERROR "${OUT}/${artifact} differs from ${GOLDEN}/${artifact}")
  endif()
endforeach()
