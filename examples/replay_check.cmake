# End-to-end check of `gemfi_cli --replay --record`, run by ctest as
#   cmake -DCLI=<gemfi_cli> -DWORK=<scratch dir> -P replay_check.cmake
#
# A seeded pi campaign streams its JSONL records; replaying index 3 against
# that file must reproduce the record (exit 0), and replaying it against a
# copy whose index-3 outcome was edited must report the divergence (exit 3).
file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")
set(records "${WORK}/campaign.jsonl")
set(edited "${WORK}/edited.jsonl")

execute_process(
  COMMAND "${CLI}" --app=pi --campaign=8 --seed=7 "--out=${records}"
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "campaign exited ${rc}:\n${err}")
endif()

execute_process(
  COMMAND "${CLI}" --app=pi --replay=3 --seed=7 "--record=${records}"
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "replay against the campaign's own records exited ${rc}:\n${err}")
endif()

# Give index 3 an outcome no replay of it can produce.
file(STRINGS "${records}" lines)
set(body "")
set(found FALSE)
foreach(line IN LISTS lines)
  if(line MATCHES "^{\"index\":3,")
    string(REGEX REPLACE "\"outcome\":\"[^\"]*\"" "\"outcome\":\"edited\"" line "${line}")
    set(found TRUE)
  endif()
  string(APPEND body "${line}\n")
endforeach()
if(NOT found)
  message(FATAL_ERROR "no record with index 3 in ${records}")
endif()
file(WRITE "${edited}" "${body}")

execute_process(
  COMMAND "${CLI}" --app=pi --replay=3 --seed=7 "--record=${edited}"
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 3)
  message(FATAL_ERROR "replay against the edited record exited ${rc}, want 3:\n${err}")
endif()
if(NOT err MATCHES "diverged")
  message(FATAL_ERROR "replay against the edited record did not report a divergence:\n${err}")
endif()
message(STATUS "replay reproduces index 3 and flags the edited record")
