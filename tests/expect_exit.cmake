# Runs one command and checks that it refuses its arguments as expected:
#   cmake "-DCOMMAND=<binary>|<arg>|..." -DEXIT=<rc>
#         ["-DSTDERR=<regex>|<regex>|..."] -P expect_exit.cmake
# The command must exit with exactly EXIT, and its stderr must match
# every STDERR regex. Lists separate with '|' (a CMake list would be
# split by add_test).
string(REPLACE "|" ";" command "${COMMAND}")
string(REPLACE "|" ";" patterns "${STDERR}")
execute_process(COMMAND ${command} RESULT_VARIABLE rc OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT rc EQUAL EXIT)
  message(FATAL_ERROR "${command}: exit ${rc}, expected ${EXIT}\n${err}")
endif()
foreach(re ${patterns})
  if(NOT err MATCHES "${re}")
    message(FATAL_ERROR "${command}: stderr does not match '${re}'\n${err}")
  endif()
endforeach()
