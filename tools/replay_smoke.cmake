# Smoke test for the trace replay pipeline, run via `cmake -P` from ctest
# (arpsec_replay_smoke): generate a small labeled trace, replay it with
# --jobs 1 and --jobs 4, and require byte-identical stdout and artifacts.
#
# Expects -DTRACE_TOOL, -DREPLAY_TOOL, -DWORK_DIR.

file(MAKE_DIRECTORY ${WORK_DIR})
set(PCAP ${WORK_DIR}/smoke.pcap)

execute_process(
  COMMAND ${TRACE_TOOL} --frames 1500 --jobs 2 --out ${PCAP}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "arpsec-trace failed (rc=${rc})")
endif()

foreach(jobs 1 4)
  execute_process(
    COMMAND ${REPLAY_TOOL} --pcap ${PCAP} --jobs ${jobs}
            --out ${WORK_DIR}/replay-j${jobs}.json
    OUTPUT_VARIABLE stdout_j${jobs}
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "arpsec-replay --jobs ${jobs} failed (rc=${rc})")
  endif()
endforeach()

if(NOT stdout_j1 STREQUAL stdout_j4)
  message(FATAL_ERROR "replay stdout differs between --jobs 1 and --jobs 4")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
          ${WORK_DIR}/replay-j1.json ${WORK_DIR}/replay-j4.json
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "replay artifacts differ between --jobs 1 and --jobs 4")
endif()

message(STATUS "replay smoke: jobs-invariant stdout and artifact confirmed")
