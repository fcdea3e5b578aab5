# Fresh-process determinism gate (DESIGN.md §9).
#
# Runs one tool twice, each time in a new process, and fails unless both
# runs exit with the same code and print byte-identical stdout — and, when
# FILE is given, leave a byte-identical FILE behind in WORK_DIR.  The
# in-process half of the gate is tests/determinism_test.cpp; this half
# also catches state that survives inside one process (address-dependent
# ordering, static caches, ASLR).
#
# Usage:
#   cmake "-DCOMMAND=<exe>;<arg>;..." -DWORK_DIR=<dir> [-DFILE=<name>] \
#         -P cmake/check_rerun_identical.cmake

if(NOT DEFINED COMMAND OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DCOMMAND=<exe;args> -DWORK_DIR=<dir> [-DFILE=<name>] -P check_rerun_identical.cmake")
endif()
file(MAKE_DIRECTORY "${WORK_DIR}")

foreach(run 1 2)
  if(DEFINED FILE)
    file(REMOVE "${WORK_DIR}/${FILE}")
  endif()
  execute_process(COMMAND ${COMMAND}
    WORKING_DIRECTORY "${WORK_DIR}"
    RESULT_VARIABLE code_${run}
    OUTPUT_VARIABLE out_${run})
  if(DEFINED FILE)
    if(NOT EXISTS "${WORK_DIR}/${FILE}")
      message(FATAL_ERROR "run ${run} wrote no ${FILE}")
    endif()
    file(READ "${WORK_DIR}/${FILE}" file_${run} HEX)
  endif()
endforeach()

if(NOT code_1 STREQUAL code_2)
  message(FATAL_ERROR "exit codes differ: ${code_1} vs ${code_2}")
endif()
if(out_1 STREQUAL "")
  message(FATAL_ERROR "the command printed nothing; nothing was compared")
endif()
if(NOT out_1 STREQUAL out_2)
  message(FATAL_ERROR "stdout differs between two runs:\n--- run 1\n${out_1}\n--- run 2\n${out_2}")
endif()
if(DEFINED FILE AND NOT file_1 STREQUAL file_2)
  message(FATAL_ERROR "${FILE} differs between two runs")
endif()
string(LENGTH "${out_1}" out_len)
message(STATUS "two runs identical (exit ${code_1}, ${out_len} bytes of stdout)")
