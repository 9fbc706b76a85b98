# Runs one command and passes only when it exits with exactly EXPECT —
# a check WILL_FAIL cannot make, since it accepts any non-zero status.
#
#   cmake -DEXPECT=2 -DEXE=/path/to/dsf_sim "-DARGS=gnutella --users 20"
#         -P expect_exit.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${EXE}" ${args} RESULT_VARIABLE rc)
if(NOT rc STREQUAL "${EXPECT}")
  message(FATAL_ERROR "expected exit ${EXPECT}, got ${rc}: ${EXE} ${ARGS}")
endif()
