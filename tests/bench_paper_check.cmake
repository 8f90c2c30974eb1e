# Runs `bench_paper <ID> --json <OUT>` and checks the result:
#   cmake -DBENCH_PAPER=<binary> -DID=<id> -DOUT=<json> [-DEXPECT_EXIT=2]
#         -P bench_paper_check.cmake
# With EXPECT_EXIT unset the run must exit 0 and write a report that
# parses as JSON with "name" equal to ID; otherwise the run must exit
# with exactly EXPECT_EXIT.
if(NOT DEFINED EXPECT_EXIT)
  set(EXPECT_EXIT 0)
endif()
file(REMOVE "${OUT}")
execute_process(COMMAND "${BENCH_PAPER}" "${ID}" --json "${OUT}"
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL EXPECT_EXIT)
  message(FATAL_ERROR "bench_paper ${ID}: exit ${rc}, expected ${EXPECT_EXIT}\n${err}")
endif()
if(NOT EXPECT_EXIT EQUAL 0)
  return()
endif()
file(READ "${OUT}" json)
string(JSON name ERROR_VARIABLE parse_error GET "${json}" name)
if(parse_error)
  message(FATAL_ERROR "bench_paper ${ID}: ${OUT} is not a report: ${parse_error}")
endif()
if(NOT name STREQUAL ID)
  message(FATAL_ERROR "bench_paper ${ID}: report name is \"${name}\"")
endif()
