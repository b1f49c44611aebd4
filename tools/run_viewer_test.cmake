execute_process(COMMAND ${SIM_DRIVER} --width 64 --height 48 --frames 4
                        --csv ${WORK_DIR}/viewer_test
                RESULT_VARIABLE rc1)
if(NOT rc1 EQUAL 0)
  message(FATAL_ERROR "sim_driver failed: ${rc1}")
endif()
execute_process(COMMAND ${VIEWER} ${WORK_DIR}/viewer_test_buffer_fill.csv --width 60
                OUTPUT_VARIABLE out RESULT_VARIABLE rc2)
if(NOT rc2 EQUAL 0)
  message(FATAL_ERROR "trace_viewer failed: ${rc2}")
endif()
string(FIND "${out}" "rlsq_in_fill" found)
if(found EQUAL -1)
  message(FATAL_ERROR "viewer output missing series name:\n${out}")
endif()

# A CSV cell is a whole-token number: a trailing "x" and a negative cycle
# are rejected with exit 1 and the offending line, not read as 12 or as
# 18446744073709551615.
foreach(bad "12x,1" "-1,1" "5,0.5y")
  file(WRITE ${WORK_DIR}/viewer_bad.csv "cycle,a\n0,1\n${bad}\n")
  execute_process(COMMAND ${VIEWER} ${WORK_DIR}/viewer_bad.csv
                  OUTPUT_VARIABLE bad_out ERROR_VARIABLE bad_err RESULT_VARIABLE bad_rc)
  if(NOT bad_rc EQUAL 1)
    message(FATAL_ERROR "trace_viewer accepted '${bad}' (exit ${bad_rc}):\n${bad_out}${bad_err}")
  endif()
  string(FIND "${bad_err}" "at line 3" bad_line)
  if(bad_line EQUAL -1)
    message(FATAL_ERROR "trace_viewer error for '${bad}' does not name line 3:\n${bad_err}")
  endif()
endforeach()
