# Runs PROGRAM in a fresh WORK_DIR and byte-compares the file OUTPUT it
# writes there with the committed GOLDEN.
#
#   cmake -DPROGRAM=... -DWORK_DIR=... -DOUTPUT=... -DGOLDEN=... -P compare_output.cmake
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
execute_process(COMMAND "${PROGRAM}" WORKING_DIRECTORY "${WORK_DIR}"
                RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${PROGRAM} exited with ${rc}")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                        "${WORK_DIR}/${OUTPUT}" "${GOLDEN}"
                RESULT_VARIABLE diff)
if(NOT diff EQUAL 0)
  message(FATAL_ERROR "${WORK_DIR}/${OUTPUT} differs from ${GOLDEN}; if the "
                      "change is intended, copy the new file over the golden")
endif()
