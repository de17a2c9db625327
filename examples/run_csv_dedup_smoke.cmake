# Hermetic end-to-end smoke run for csv_dedup: write a small catalog
# with near-duplicate rows into WORK_DIR, dedup it, and check that the
# matches CSV comes back. No shared /tmp state, so concurrent ctest
# runs (e.g. release and asan trees) cannot race.
file(MAKE_DIRECTORY ${WORK_DIR})
set(input ${WORK_DIR}/products.csv)
set(output ${WORK_DIR}/matches.csv)

file(WRITE ${input}
"id,name
1,apple iphone 12 64gb black
2,apple iphone 12 64 gb black
3,samsung galaxy s21 128gb
4,samsung galaxy s21 128 gb
5,logitech mx master 3 mouse
6,dell ultrasharp u2720q monitor
")

execute_process(COMMAND ${EXE} ${input} ${output} RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "csv_dedup exited with ${rc}")
endif()
if(NOT EXISTS ${output})
  message(FATAL_ERROR "csv_dedup did not write ${output}")
endif()
file(READ ${output} matches)
if(NOT matches MATCHES "[0-9]")
  message(FATAL_ERROR "csv_dedup found no matches in a catalog with near-duplicates: ${matches}")
endif()

# Auto mode: analysis graph -> recommender -> execution graph. Must find
# the same duplicates.
set(auto_output ${WORK_DIR}/matches_auto.csv)
execute_process(COMMAND ${EXE} ${input} ${auto_output} auto
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "csv_dedup auto exited with ${rc}")
endif()
file(READ ${auto_output} auto_matches)
if(NOT auto_matches STREQUAL matches)
  message(FATAL_ERROR "csv_dedup auto mode found different matches:\n${auto_matches}\nvs\n${matches}")
endif()

# A malformed --workers count is rejected while parsing the command
# line, before any worker process is forked or any output is written.
foreach(bad "--workers=4x" "--workers=" "--workers=99999999999")
  set(bad_output ${WORK_DIR}/matches_bad_workers.csv)
  file(REMOVE ${bad_output})
  execute_process(COMMAND ${EXE} ${input} ${bad_output} ${bad}
    RESULT_VARIABLE rc ERROR_VARIABLE err)
  if(rc EQUAL 0 OR NOT err MATCHES "--workers needs a positive count"
     OR EXISTS ${bad_output})
    message(FATAL_ERROR "csv_dedup accepted ${bad} (exit ${rc}): ${err}")
  endif()
endforeach()
