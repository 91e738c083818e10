# Runs BIN with ARGS (one space-separated string; "%DIR%" stands for the
# output directory DIR, emptied first) and fails unless it exits 0, leaves
# nothing at DIR/PLAIN, and writes every file named in CELLS (space
# separated, relative to DIR) non-empty and containing the text CONTAINS.
#
#   cmake -DBIN=<exe> -DDIR=<dir> "-DARGS=--trace-jsonl=%DIR%/t.jsonl"
#         -DPLAIN=t.jsonl "-DCELLS=t.a.jsonl t.b.jsonl" -DCONTAINS=task_start
#         -P bench_cells.cmake
file(REMOVE_RECURSE "${DIR}")
file(MAKE_DIRECTORY "${DIR}")
string(REPLACE "%DIR%" "${DIR}" ARGS "${ARGS}")
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${BIN}" ${args}
                OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN} exited with ${rc}:\n${err}")
endif()
if(EXISTS "${DIR}/${PLAIN}")
  message(FATAL_ERROR "a cell wrote the untagged path ${DIR}/${PLAIN}")
endif()
separate_arguments(cells UNIX_COMMAND "${CELLS}")
foreach(cell IN LISTS cells)
  if(NOT EXISTS "${DIR}/${cell}")
    file(GLOB written "${DIR}/*")
    message(FATAL_ERROR "no file ${DIR}/${cell}; written: ${written}")
  endif()
  file(READ "${DIR}/${cell}" body)
  string(FIND "${body}" "${CONTAINS}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${DIR}/${cell} does not contain \"${CONTAINS}\"")
  endif()
endforeach()
