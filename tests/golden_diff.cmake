# Runs BIN with ARGS (one space-separated string) and fails unless its
# combined stdout + stderr equals the committed file EXPECTED byte for byte.
# On a mismatch the actual output is left in ACTUAL for `diff`.
#
#   cmake -DBIN=<exe> "-DARGS=--nodes=60 ..." -DEXPECTED=<file>
#         -DACTUAL=<file> -P golden_diff.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${BIN}" ${args}
                OUTPUT_VARIABLE out ERROR_VARIABLE out RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN} exited with ${rc}:\n${out}")
endif()
file(READ "${EXPECTED}" expected)
if(NOT out STREQUAL expected)
  file(WRITE "${ACTUAL}" "${out}")
  message(FATAL_ERROR
      "output differs from ${EXPECTED}; see: diff ${ACTUAL} ${EXPECTED}")
endif()
