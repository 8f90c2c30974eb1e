# Runs `bench_paper <ID>` and checks the result:
#   cmake -DBENCH_PAPER=<binary> -DID=<id> -DOUT=<dir>
#         [-DBASELINE=<json> -DCHOIRCTL=<binary>] [-DSCALE=<packets>]
#         [-DREPS=<n>] -P bench_paper_check.cmake
# By default the row runs at --jobs 1 and at --jobs 4: both must exit 0,
# print the same stdout and write byte-identical reports named ID, equal
# to BASELINE when one is given; on a mismatch the failure prints
# `choirctl bench --compare`, which names every changed leaf. SCALE sets
# CHOIR_SCALE (unset otherwise). With REPS, `--reps REPS` must exit 0
# and print a positive median of host.<ID>.pps_per_core.
unset(ENV{CHOIR_FULL})
if(DEFINED SCALE)
  set(ENV{CHOIR_SCALE} "${SCALE}")
else()
  unset(ENV{CHOIR_SCALE})
endif()
file(REMOVE_RECURSE "${OUT}")
file(MAKE_DIRECTORY "${OUT}")

if(DEFINED REPS)
  execute_process(COMMAND "${BENCH_PAPER}" "${ID}" --reps ${REPS}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "bench_paper ${ID} --reps ${REPS}: exit ${rc}\n${err}")
  endif()
  # "  <label> host.<id>.pps_per_core  N reps  p25/p50/p75 a/b/c  ..."
  set(median 0)
  if(out MATCHES "host\\.${ID}\\.pps_per_core +${REPS} reps +p25/p50/p75 [^/]+/([^/]+)/")
    set(median "${CMAKE_MATCH_1}")
  endif()
  if(NOT median GREATER 0)
    message(FATAL_ERROR "bench_paper ${ID}: no positive pps_per_core median in\n${out}")
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
    configure_file("${BASELINE}" "${OUT}/baseline/BENCH_${ID}.json" COPYONLY)
    configure_file("${OUT}/jobs1.json" "${OUT}/current/BENCH_${ID}.json"
                   COPYONLY)
    execute_process(COMMAND "${CHOIRCTL}" bench --compare "${OUT}/baseline"
                            "${OUT}/current"
                    OUTPUT_VARIABLE diff ERROR_VARIABLE diff)
    message(FATAL_ERROR "bench_paper ${ID}: report differs from ${BASELINE}\n${diff}")
  endif()
endif()
