# End-to-end check of the single run (`gemfi_cli --fault=`), run by ctest as
#   cmake -DCLI=<gemfi_cli> -DWORK=<scratch dir> -P single_run_check.cmake
#
# A seeded 20-experiment atomic pi campaign streams its JSONL records. Three
# of its faults (a distinct outcome each where the campaign has them) then
# run again through the single run, which must report the outcome their
# records hold: both paths run one experiment through the same worker.
cmake_policy(SET CMP0057 NEW)  # if(IN_LIST)
file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")
set(records "${WORK}/campaign.jsonl")

execute_process(
  COMMAND "${CLI}" --app=pi --cpu=atomic --campaign=20 --seed=7 "--out=${records}"
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "campaign exited ${rc}:\n${err}")
endif()

# Pick three records: first one per outcome, then the earliest others.
file(STRINGS "${records}" lines REGEX "^{\"index\":")
set(picked "")
set(seen "")
foreach(pass distinct any)
  foreach(line IN LISTS lines)
    list(LENGTH picked n)
    if(n EQUAL 3)
      break()
    endif()
    string(REGEX MATCH "\"outcome\":\"([^\"]*)\"" _ "${line}")
    set(outcome "${CMAKE_MATCH_1}")
    string(REGEX MATCH "^{\"index\":([0-9]+)," _ "${line}")
    set(index "${CMAKE_MATCH_1}")
    if(index IN_LIST picked OR (pass STREQUAL "distinct" AND outcome IN_LIST seen))
      continue()
    endif()
    list(APPEND picked "${index}")
    list(APPEND seen "${outcome}")
    string(REGEX MATCH "\"fault\":\"([^\"]*)\"" _ "${line}")
    set(fault_${index} "${CMAKE_MATCH_1}")
    set(outcome_${index} "${outcome}")
  endforeach()
endforeach()
list(LENGTH picked n)
if(NOT n EQUAL 3)
  message(FATAL_ERROR "want 3 experiment records in ${records}, found ${n}")
endif()

foreach(index IN LISTS picked)
  execute_process(
    COMMAND "${CLI}" --app=pi --cpu=atomic "--fault=${fault_${index}}"
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  # 1 is a crashed guest, which is an outcome like any other here.
  if(NOT rc EQUAL 0 AND NOT rc EQUAL 1)
    message(FATAL_ERROR "single run of index ${index} exited ${rc}:\n${err}")
  endif()
  if(NOT err MATCHES "outcome: ([^ \n]+)")
    message(FATAL_ERROR "single run of index ${index} reported no outcome:\n${err}")
  endif()
  if(NOT CMAKE_MATCH_1 STREQUAL outcome_${index})
    message(FATAL_ERROR "index ${index} (${fault_${index}}): the single run reported "
                        "${CMAKE_MATCH_1}, the campaign record holds ${outcome_${index}}")
  endif()
  message(STATUS "index ${index}: ${outcome_${index}} in both")
endforeach()
