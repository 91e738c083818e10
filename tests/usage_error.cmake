# Runs BIN with ARGS (one space-separated string) and fails unless it exits
# with status 1 and its stderr contains every line of EXPECT (lines
# separated by "|"), all from that one run.
#
#   cmake -DBIN=<exe> "-DARGS=--net-drop=1 --load=0"
#         "-DEXPECT=--net-drop must be in [0, 1)|--load must be in (0, 1.5)"
#         -P usage_error.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${BIN}" ${args}
                OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "${BIN} exited with ${rc}, expected 1:\n${err}")
endif()
# Split by hand: a CMake list would not split inside the "[0, 1)" brackets.
set(rest "${EXPECT}")
while(NOT rest STREQUAL "")
  string(FIND "${rest}" "|" bar)
  if(bar EQUAL -1)
    set(line "${rest}")
    set(rest "")
  else()
    string(SUBSTRING "${rest}" 0 ${bar} line)
    math(EXPR bar "${bar} + 1")
    string(SUBSTRING "${rest}" ${bar} -1 rest)
  endif()
  string(FIND "${err}" "${line}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "stderr lacks \"${line}\":\n${err}")
  endif()
endwhile()
