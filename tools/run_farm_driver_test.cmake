# Runs farm_driver on the example job list and checks its output as well
# as its exit status: the CSV header has no `reused` column, and the
# pin-decode row holds the decode pin (144885 cycles, 150 macroblocks).
#
#   cmake -DFARM_DRIVER=<farm_driver> -DJOBS=<job list> -DWORK_DIR=<dir>
#         -P run_farm_driver_test.cmake
cmake_minimum_required(VERSION 3.16)
execute_process(COMMAND ${FARM_DRIVER} --jobs ${JOBS} --workers 2 --quiet
                        --csv ${WORK_DIR}/farm_results.csv
                        --json ${WORK_DIR}/farm_results.json
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "farm_driver failed: ${rc}")
endif()

file(STRINGS ${WORK_DIR}/farm_results.csv lines)
list(GET lines 0 header)
string(REPLACE "," ";" columns "${header}")
if("reused" IN_LIST columns)
  message(FATAL_ERROR "CSV header still has a reused column: ${header}")
endif()
list(FIND columns "status" status_col)
list(FIND columns "sim_cycles" cycles_col)
list(FIND columns "macroblocks" mbs_col)
if(status_col EQUAL -1 OR cycles_col EQUAL -1 OR mbs_col EQUAL -1)
  message(FATAL_ERROR "CSV header lacks status, sim_cycles or macroblocks: ${header}")
endif()

set(found FALSE)
foreach(line IN LISTS lines)
  string(REPLACE "," ";" fields "${line}")
  list(GET fields 1 name)
  if(NOT name STREQUAL "pin-decode")
    continue()
  endif()
  set(found TRUE)
  list(GET fields ${status_col} status)
  list(GET fields ${cycles_col} cycles)
  list(GET fields ${mbs_col} mbs)
  if(NOT status STREQUAL "completed" OR NOT cycles STREQUAL "144885" OR NOT mbs STREQUAL "150")
    message(FATAL_ERROR "pin-decode off its pin (want completed, 144885 cycles, 150 MBs): "
                        "${line}")
  endif()
endforeach()
if(NOT found)
  message(FATAL_ERROR "no pin-decode row in ${WORK_DIR}/farm_results.csv")
endif()
