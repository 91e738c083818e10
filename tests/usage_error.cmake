# Runs BIN with ARGS (one space-separated string) and fails unless it exits
# with status 1 and its stderr says "<flag> must be in [0, 1)" for every
# flag in FLAGS (one space-separated string).
#
#   cmake -DBIN=<exe> "-DARGS=--net-drop=1 ..." "-DFLAGS=--net-drop ..."
#         -P usage_error.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
separate_arguments(flags UNIX_COMMAND "${FLAGS}")
execute_process(COMMAND "${BIN}" ${args}
                OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "${BIN} exited with ${rc}, expected 1:\n${err}")
endif()
foreach(flag IN LISTS flags)
  string(FIND "${err}" "${flag} must be in [0, 1)" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "stderr does not name ${flag}:\n${err}")
  endif()
endforeach()
