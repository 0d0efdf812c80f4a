# End-to-end check of `gemfi_query` on a campaign's JSONL, run by ctest as
#   cmake -DCLI=<gemfi_cli> -DQUERY=<gemfi_query> -DWORK=<scratch dir> -P query_check.cmake
#
# A seeded 60-experiment pi campaign streams its JSONL records (a calibration
# header on line 1, then one record per line). gemfi_query must count 60
# rows, reproduce the outcome table gemfi_cli printed, reject an unknown
# outcome name (exit 2), and reject a copy whose last record was torn in
# half and a copy with a 2,000,000-deep nested line appended (exit 2, naming
# the bad line, never a crash).
file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")
set(records "${WORK}/campaign.jsonl")
set(torn "${WORK}/torn.jsonl")
set(deep "${WORK}/deep.jsonl")

execute_process(
  COMMAND "${CLI}" --app=pi --campaign=60 --seed=7 "--out=${records}"
  RESULT_VARIABLE rc OUTPUT_VARIABLE cli_table ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "campaign exited ${rc}:\n${err}")
endif()

execute_process(
  COMMAND "${QUERY}" "${records}" --count
  RESULT_VARIABLE rc OUTPUT_VARIABLE count ERROR_VARIABLE err)
string(STRIP "${count}" count)
if(NOT rc EQUAL 0 OR NOT count STREQUAL "60")
  message(FATAL_ERROR "--count printed '${count}' (exit ${rc}), want 60:\n${err}")
endif()

# "name count ..." lines with a nonzero count, as a sorted list of name=count.
function(nonzero_counts text out)
  string(REGEX MATCHALL "[A-Za-z-]+ +[0-9]+ +[0-9.]+%" rows "${text}")
  set(pairs "")
  foreach(row IN LISTS rows)
    string(REGEX REPLACE "^([A-Za-z-]+) +([0-9]+) .*" "\\1=\\2" pair "${row}")
    if(NOT pair MATCHES "=0$")
      list(APPEND pairs "${pair}")
    endif()
  endforeach()
  list(SORT pairs)
  set(${out} "${pairs}" PARENT_SCOPE)
endfunction()

execute_process(
  COMMAND "${QUERY}" "${records}" --by=outcome
  RESULT_VARIABLE rc OUTPUT_VARIABLE query_table ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--by=outcome exited ${rc}:\n${err}")
endif()
nonzero_counts("${cli_table}" want)
nonzero_counts("${query_table}" got)
if(NOT want OR NOT got STREQUAL want)
  message(FATAL_ERROR "--by=outcome gave '${got}', gemfi_cli printed '${want}'")
endif()

execute_process(
  COMMAND "${QUERY}" "${records}" --where=outcome=bogus
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "--where=outcome=bogus exited ${rc}, want 2:\n${err}")
endif()

# Keep every line but the last whole, and the first half of the last.
file(READ "${records}" content)
string(REGEX REPLACE "\n$" "" content "${content}")
string(FIND "${content}" "\n" last_nl REVERSE)
string(LENGTH "${content}" len)
math(EXPR cut "${last_nl} + 1 + (${len} - ${last_nl} - 1) / 2")
string(SUBSTRING "${content}" 0 ${cut} head)
file(WRITE "${torn}" "${head}")

execute_process(
  COMMAND "${QUERY}" "${torn}" --by=outcome
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "the torn file exited ${rc}, want 2:\n${err}")
endif()
if(NOT err MATCHES ":61:")
  message(FATAL_ERROR "the torn file's error does not name line 61:\n${err}")
endif()
if(NOT out STREQUAL "")
  message(FATAL_ERROR "the torn file printed a partial answer:\n${out}")
endif()
# The whole file, then one line of 2,000,000 '[' (line 62): the parser's
# nesting bound must turn it into a path:line error instead of a stack
# overflow.
file(READ "${records}" content)
string(REPEAT "[" 2000000 brackets)
file(WRITE "${deep}" "${content}${brackets}\n")
execute_process(
  COMMAND "${QUERY}" "${deep}" --count
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "the deeply nested file exited ${rc}, want 2:\n${err}")
endif()
if(NOT err MATCHES "deep.jsonl:62:")
  message(FATAL_ERROR "the deeply nested file's error does not name line 62:\n${err}")
endif()
message(STATUS "gemfi_query counts 60 rows, matches gemfi_cli and rejects torn and "
               "deeply nested lines")
