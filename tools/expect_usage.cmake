# Passes when every binary in BINARIES (a |-separated list) rejects the
# argument ARG with a usage line and exit code 2, before any run starts:
#
#   cmake -DBINARIES="a|b" -DARG=--jsn -P tools/expect_usage.cmake
string(REPLACE "|" ";" binaries "${BINARIES}")
foreach(binary IN LISTS binaries)
  execute_process(COMMAND ${binary} ${ARG} RESULT_VARIABLE code OUTPUT_VARIABLE out
                  ERROR_VARIABLE err TIMEOUT 30)
  if(NOT code EQUAL 2 OR NOT "${out}${err}" MATCHES "usage")
    message(FATAL_ERROR "${binary} ${ARG}: expected a usage line and exit 2, got exit "
                        "${code}:\n${out}${err}")
  endif()
endforeach()
