# Samples about 1.3 CPU-seconds of CIF decodes (some 300 samples at the
# kernel-tick-capped rate), so the kernel's usual 15-20% share ranks it
# among the top 10 with a wide margin. The samples that symbolize.py's
# layer map places in no layer ("other") must stay at most 5%, so that a
# renamed hot symbol cannot drop out of its layer unnoticed.
file(REMOVE ${OUT})
execute_process(COMMAND ${CMAKE_COMMAND} -E env ECLIPSE_PROF_OUT=${OUT} LD_PRELOAD=${SAMPLER}
                        ${SIM_DRIVER} --width 352 --height 288 --frames 48 --streams 2
                OUTPUT_QUIET RESULT_VARIABLE rc1)
if(NOT rc1 EQUAL 0)
  message(FATAL_ERROR "sim_driver under the sampler failed: ${rc1}")
endif()
if(NOT EXISTS ${OUT})
  message(FATAL_ERROR "the sampler wrote no ${OUT}")
endif()
execute_process(COMMAND ${PYTHON} ${SYMBOLIZE} ${OUT} --top 10
                OUTPUT_VARIABLE out RESULT_VARIABLE rc2)
if(NOT rc2 EQUAL 0)
  message(FATAL_ERROR "symbolize.py failed: ${rc2}")
endif()
message("${out}")
string(FIND "${out}" "eclipse::sim::Simulator::run" found)
if(found EQUAL -1)
  message(FATAL_ERROR "the event kernel is not among the top 10 symbols")
endif()
string(REGEX MATCH "([0-9.]+)% +[0-9]+  other" other_line "${out}")
if(NOT other_line)
  message(FATAL_ERROR "symbolize.py printed no \"other\" layer")
endif()
if(CMAKE_MATCH_1 GREATER 5)
  message(FATAL_ERROR "${CMAKE_MATCH_1}% of samples are in no layer (at most 5% allowed)")
endif()
