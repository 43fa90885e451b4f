# ctest script for tools/soak_diff.py on a real report: writes one small
# sparcle_soak --json report, diffs it against itself (must exit 0), then
# against a copy whose first decision digest is changed (must exit 1).
#
#   cmake -DSOAK=<sparcle_soak> -DPYTHON=<python3> -DDIFF=<soak_diff.py>
#         -DWORK=<work dir> -P soak_diff_test.cmake

file(MAKE_DIRECTORY "${WORK}")
set(report "${WORK}/report.json")
set(changed "${WORK}/changed.json")

execute_process(COMMAND "${SOAK}" --scenario steady --policy default
                        --arrivals 60 --json "${report}"
                RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "sparcle_soak exited ${rc}")
endif()

execute_process(COMMAND "${PYTHON}" "${DIFF}" "${report}" "${report}"
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "a report against itself: exit ${rc}, want 0")
endif()

file(READ "${report}" text)
string(REGEX MATCH "\"decision_digest\": \"[0-9a-f]+\"" digest "${text}")
if(digest STREQUAL "")
  message(FATAL_ERROR "no decision_digest in ${report}")
endif()
string(REPLACE "${digest}" "\"decision_digest\": \"0\"" text "${text}")
file(WRITE "${changed}" "${text}")

execute_process(COMMAND "${PYTHON}" "${DIFF}" "${report}" "${changed}"
                RESULT_VARIABLE rc OUTPUT_VARIABLE out)
message("${out}")
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "a changed digest: exit ${rc}, want 1")
endif()
if(NOT out MATCHES "steady/default decision_digest")
  message(FATAL_ERROR "the changed digest was not named")
endif()
