# Runs `bench_paper <ID>` and checks the result:
#   cmake -DBENCH_PAPER=<binary> -DID=<id> -DOUT=<dir>
#         [-DBASELINE=<json>] [-DSCALE=<packets>]
#         [-DEXPECT_EXIT=<rc> -DARGS=<arg;...> -DEXPECT_STDERR=<re;...>]
#         [-DREPS=<n>] -P bench_paper_check.cmake
# By default the row runs at --jobs 1 and at --jobs 4: both must exit 0,
# print the same stdout and write byte-identical reports named ID, equal
# to BASELINE when one is given. SCALE sets CHOIR_SCALE (unset otherwise).
# With EXPECT_EXIT, `bench_paper ID ARGS` must exit with exactly that
# status, and its stderr must match every EXPECT_STDERR regex. With
# REPS, `--reps REPS` must report a positive host.<ID>.pps_per_core
# median.
unset(ENV{CHOIR_FULL})
unset(ENV{CHOIR_BENCH_JSON})
unset(ENV{CHOIR_BENCH_HOST_TIME})
if(DEFINED SCALE)
  set(ENV{CHOIR_SCALE} "${SCALE}")
else()
  unset(ENV{CHOIR_SCALE})
endif()
file(REMOVE_RECURSE "${OUT}")
file(MAKE_DIRECTORY "${OUT}")

if(DEFINED EXPECT_EXIT)
  execute_process(COMMAND "${BENCH_PAPER}" "${ID}" ${ARGS}
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL EXPECT_EXIT)
    message(FATAL_ERROR "bench_paper ${ID} ${ARGS}: exit ${rc}, expected ${EXPECT_EXIT}\n${err}")
  endif()
  foreach(re ${EXPECT_STDERR})
    if(NOT err MATCHES "${re}")
      message(FATAL_ERROR "bench_paper ${ID} ${ARGS}: stderr does not match '${re}'\n${err}")
    endif()
  endforeach()
  return()
endif()

if(DEFINED REPS)
  execute_process(COMMAND "${BENCH_PAPER}" "${ID}" --reps ${REPS}
                          --stats-out "${OUT}/stats.json"
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "bench_paper ${ID} --reps ${REPS}: exit ${rc}\n${err}")
  endif()
  file(READ "${OUT}/stats.json" json)
  string(JSON pps ERROR_VARIABLE parse_error
         GET "${json}" medians "host.${ID}.pps_per_core")
  if(parse_error OR NOT pps GREATER 0)
    message(FATAL_ERROR "bench_paper ${ID}: no positive pps_per_core in ${json}")
  endif()
  return()
endif()

foreach(jobs 1 4)
  execute_process(COMMAND "${BENCH_PAPER}" "${ID}" --jobs ${jobs}
                          --json "${OUT}/jobs${jobs}.json"
                  RESULT_VARIABLE rc OUTPUT_FILE "${OUT}/jobs${jobs}.txt"
                  ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "bench_paper ${ID} --jobs ${jobs}: exit ${rc}\n${err}")
  endif()
endforeach()
foreach(ext json txt)
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                          "${OUT}/jobs1.${ext}" "${OUT}/jobs4.${ext}"
                  RESULT_VARIABLE differ)
  if(differ)
    message(FATAL_ERROR "bench_paper ${ID}: ${ext} output differs between --jobs 1 and --jobs 4")
  endif()
endforeach()
file(READ "${OUT}/jobs1.json" json)
string(JSON name ERROR_VARIABLE parse_error GET "${json}" name)
if(parse_error)
  message(FATAL_ERROR "bench_paper ${ID}: not a report: ${parse_error}")
endif()
if(NOT name STREQUAL ID)
  message(FATAL_ERROR "bench_paper ${ID}: report name is \"${name}\"")
endif()
if(DEFINED BASELINE)
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                          "${OUT}/jobs1.json" "${BASELINE}"
                  RESULT_VARIABLE differ)
  if(differ)
    message(FATAL_ERROR "bench_paper ${ID}: report differs from ${BASELINE}")
  endif()
endif()
