#===- tests/golden/CompareStdout.cmake - Golden-stdout check ------------===#
#
# Part of flap-cpp, a C++ reproduction of "flap: A Deterministic Parser
# with Fused Lexing" (PLDI 2023).
#
# Runs EXE with stdin from /dev/null and fails unless it exits 0 and its
# standard output is byte-identical to the file GOLDEN:
#
#   cmake -DEXE=<program> -DGOLDEN=<file> -P CompareStdout.cmake
#
#===----------------------------------------------------------------------===#

execute_process(COMMAND "${EXE}"
                INPUT_FILE /dev/null
                OUTPUT_VARIABLE Out
                RESULT_VARIABLE Rc)
if(NOT Rc EQUAL 0)
  message(FATAL_ERROR "${EXE} exited with ${Rc}")
endif()
file(READ "${GOLDEN}" Want)
if(NOT Out STREQUAL Want)
  message(FATAL_ERROR "${EXE} stdout differs from ${GOLDEN}:\n${Out}")
endif()
