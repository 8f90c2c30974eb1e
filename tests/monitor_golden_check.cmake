# Reruns one seeded choirctl command into an artifact directory and
# checks its artifacts, or its stdout, against committed goldens:
#   cmake -DCHOIRCTL=<binary> -DRUN_ARGS="<env>|<opt>|<value>|..."
#         -DOUT=<dir> -DGOLDEN=<dir> -P monitor_golden_check.cmake
#   cmake -DCHOIRCTL=<binary> -DCMD=<subcommand> -DDIR_FLAG=<flag>
#         -DRUN_ARGS="..." -DOUT=<dir> -DDIGESTS=<file>
#         -P monitor_golden_check.cmake
#   cmake -DCHOIRCTL=<binary> -DCMD=<subcommand> -DRUN_ARGS="..."
#         -DOUT=<dir> -DSTDOUT_DIGEST=<file> -P monitor_golden_check.cmake
# RUN_ARGS separates the arguments with '|' (a CMake list would be split
# by add_test). CMD defaults to `run` and DIR_FLAG to `--monitor`.
# choirctl runs in OUT's parent directory and is given OUT's base name,
# so the paths it prints do not depend on where the build tree is.
# With GOLDEN, windows.csv and divergence.jsonl must equal the files in
# that directory byte for byte. With DIGESTS, every artifact the file
# names must have the SHA-256 it lists; the file is `sha256sum` output
# (`<hex>  <name>` per line), so `sha256sum *` in a fresh artifact
# directory regenerates it. With STDOUT_DIGEST, choirctl's stdout must
# have the SHA-256 that begins the file; piping the same command, run
# the same way, through `sha256sum` regenerates it. The perfbench
# digests cover none of these; this check does.
string(REPLACE "|" ";" run_args "${RUN_ARGS}")
if(NOT DEFINED CMD)
  set(CMD run)
endif()
if(NOT DEFINED DIR_FLAG)
  set(DIR_FLAG --monitor)
endif()
get_filename_component(out_parent "${OUT}" DIRECTORY)
get_filename_component(out_name "${OUT}" NAME)
file(REMOVE_RECURSE "${OUT}")
execute_process(COMMAND "${CHOIRCTL}" ${CMD} ${run_args} ${DIR_FLAG} "${out_name}"
                WORKING_DIRECTORY "${out_parent}"
                RESULT_VARIABLE rc OUTPUT_VARIABLE stdout ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "choirctl ${CMD} ${run_args}: exit ${rc}\n${err}")
endif()
if(DEFINED STDOUT_DIGEST)
  file(READ "${STDOUT_DIGEST}" line)
  if(NOT line MATCHES "^([0-9a-f]+)")
    message(FATAL_ERROR "${STDOUT_DIGEST}: malformed digest '${line}'")
  endif()
  set(want "${CMAKE_MATCH_1}")
  string(SHA256 got "${stdout}")
  if(NOT got STREQUAL want)
    message(FATAL_ERROR "choirctl ${CMD} stdout: sha256 ${got}, "
                        "${STDOUT_DIGEST} lists ${want}\n${stdout}")
  endif()
  return()
endif()
if(DEFINED DIGESTS)
  file(STRINGS "${DIGESTS}" lines)
  foreach(line IN LISTS lines)
    if(NOT line MATCHES "^([0-9a-f]+)  (.+)$")
      message(FATAL_ERROR "${DIGESTS}: malformed line '${line}'")
    endif()
    set(want "${CMAKE_MATCH_1}")
    set(artifact "${CMAKE_MATCH_2}")
    if(NOT EXISTS "${OUT}/${artifact}")
      message(FATAL_ERROR "${OUT}/${artifact} was not written")
    endif()
    file(SHA256 "${OUT}/${artifact}" got)
    if(NOT got STREQUAL want)
      message(FATAL_ERROR
              "${OUT}/${artifact}: sha256 ${got}, ${DIGESTS} lists ${want}")
    endif()
  endforeach()
  return()
endif()
foreach(artifact windows.csv divergence.jsonl)
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                          "${OUT}/${artifact}" "${GOLDEN}/${artifact}"
                  RESULT_VARIABLE differs)
  if(NOT differs EQUAL 0)
    message(FATAL_ERROR "${OUT}/${artifact} differs from ${GOLDEN}/${artifact}")
  endif()
endforeach()
