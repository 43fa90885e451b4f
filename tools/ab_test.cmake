# ctest script for tools/ab.py's summary: three canned pairs, one of
# them with a failed change run and a parent run that failed operations.
#
#   cmake -DPYTHON=<python3> -DAB=<ab.py> -DWORK=<work dir> -P ab_test.cmake

file(MAKE_DIRECTORY "${WORK}")
set(results "${WORK}/canned.jsonl")
function(run pair side tput p50 failed correct)
  file(APPEND "${results}"
       "{\"pair\": ${pair}, \"side\": \"${side}\", \"result\": "
       "{\"correct\": ${correct}, \"attempted\": 10, \"failed\": ${failed}, "
       "\"metrics\": {\"admit_tput\": {\"value\": ${tput}, \"unit\": \"1/s\"}, "
       "\"admit_p50_ms\": {\"value\": ${p50}, \"unit\": \"ms\"}, "
       "\"x_unlisted\": {\"value\": 1, \"unit\": \"count\"}}}}\n")
endfunction()
file(WRITE "${results}" "")
run(0 parent 1000 1.0 0 true)
run(0 change 1500 0.9 0 true)
run(1 change 1600 1.1 0 true)
run(1 parent 1100 1.0 0 true)
run(2 parent 900 1.2 2 false)
file(APPEND "${results}" "{\"pair\": 2, \"side\": \"change\", \"result\": null}\n")

execute_process(COMMAND "${PYTHON}" "${AB}" --summarize "${results}"
                RESULT_VARIABLE rc OUTPUT_VARIABLE out)
message("${out}")
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "ab.py --summarize exited ${rc}")
endif()
foreach(want
    "ab: 3 pair\\(s\\), 3 parent and 3 change run\\(s\\)"
    "admit_tput +1000 \\[950, 1050\\] +1550 \\[1525, 1575\\] +1\\.550 +yes +2/2"
    "admit_p50_ms +1 \\[1, 1\\.1\\] +1 \\[0\\.95, 1\\.05\\] +1\\.000 +no +1/2"
    "x_unlisted +1 \\[1, 1\\] +1 \\[1, 1\\] +1\\.000 +no +-"
    "parent: failed operations 2, failed or incorrect runs 1/3"
    "change: failed operations 0, failed or incorrect runs 1/3")
  if(NOT out MATCHES "${want}")
    message(FATAL_ERROR "summary lacks /${want}/")
  endif()
endforeach()
