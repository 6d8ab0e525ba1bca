# Passes when every command in BINARIES (a |-separated list; each entry is
# a binary, optionally followed by its own arguments) rejects its
# arguments plus ARG (when set) with a usage line and exit code 2, before
# any run starts:
#
#   cmake -DBINARIES="a|b" -DARG=--jsn -P tools/expect_usage.cmake
#   cmake "-DBINARIES=c --id notanumber" -P tools/expect_usage.cmake
string(REPLACE "|" ";" commands "${BINARIES}")
foreach(entry IN LISTS commands)
  separate_arguments(command UNIX_COMMAND "${entry}")
  execute_process(COMMAND ${command} ${ARG} RESULT_VARIABLE code OUTPUT_VARIABLE out
                  ERROR_VARIABLE err TIMEOUT 30)
  if(NOT code EQUAL 2 OR NOT "${out}${err}" MATCHES "usage")
    message(FATAL_ERROR "${entry} ${ARG}: expected a usage line and exit 2, got exit "
                        "${code}:\n${out}${err}")
  endif()
endforeach()
