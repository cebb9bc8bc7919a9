# Smoke test for the tools' input edges, run via `cmake -P` from ctest
# (arpsec_cli_smoke). Each of the seven tools and one sweep bench must
#   (a) refuse a junk value (a junk number where the tool has a numeric
#       flag) with its error and exit 2, creating no output file;
#   (b) refuse a flag that is missing its value the same way;
#   (c) exit non-zero and name the path when an output cannot be written
#       (/dev/full takes the open and fails the flush).
# arpsec-lint has no numeric flag, so its (a) is an unknown flag;
# arpsec-loadgen writes no file, so it has no (c). Thread-count flags get
# junk text, never a negative or huge count; the one count is arpsec-served
# --shards 257, one past its bound, which the reader refuses before any
# shard exists.
#
# Expects -DSIM_TOOL, -DCHECK_TOOL, -DTRACE_TOOL, -DREPLAY_TOOL,
# -DSERVED_TOOL, -DLOADGEN_TOOL, -DLINT_TOOL, -DSWEEP_BENCH, -DWORK_DIR and
# optionally -DBASH (the served (c) leg needs it to start the client).

file(REMOVE_RECURSE ${WORK_DIR})
file(WRITE ${WORK_DIR}/lint-root/src/empty.cpp "// nothing to lint\n")
set(W ${WORK_DIR})

# refused(<error> <output> <command...>): the command must exit 2 with
# <error> on stderr, and <output> (a path, or NONE) must not exist after.
function(refused error output)
  execute_process(COMMAND ${ARGN} WORKING_DIRECTORY ${W}
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err TIMEOUT 60)
  string(JOIN " " cmd ${ARGN})
  string(FIND "${err}" "${error}" at)
  if(NOT rc EQUAL 2 OR at EQUAL -1)
    message(FATAL_ERROR "want exit 2 and \"${error}\" from: ${cmd}\n"
                        "got rc=${rc}, stderr:\n${err}")
  endif()
  if(NOT output STREQUAL "NONE" AND EXISTS ${output})
    message(FATAL_ERROR "${cmd}: created ${output}")
  endif()
endfunction()

# write_fails(<path> <command...>): the command (the first one of a
# pipeline) must exit non-zero and name <path> on stderr.
function(write_fails path)
  execute_process(COMMAND ${ARGN} WORKING_DIRECTORY ${W}
                  RESULTS_VARIABLE rcs OUTPUT_QUIET ERROR_VARIABLE err TIMEOUT 60)
  list(GET rcs 0 rc)
  string(JOIN " " cmd ${ARGN})
  string(FIND "${err}" "${path}" at)
  if(rc EQUAL 0 OR at EQUAL -1)
    message(FATAL_ERROR "want a failure naming ${path} from: ${cmd}\n"
                        "got rc=${rc}, stderr:\n${err}")
  endif()
endfunction()

# arpsec-sim
refused("bad value '12x' for --hosts" ${W}/sim.json
        ${SIM_TOOL} --hosts 12x --metrics-out ${W}/sim.json)
refused("bad value '1.5' for --loss" ${W}/sim.json
        ${SIM_TOOL} --loss 1.5 --metrics-out ${W}/sim.json)
refused("bad value 'abc' for --jobs" ${W}/sweep.json
        ${SIM_TOOL} --sweep --jobs abc --sweep-out ${W}/sweep.json)
refused("missing value for --seed" ${W}/sim.json
        ${SIM_TOOL} --metrics-out ${W}/sim.json --seed)
set(SIM_RUN ${SIM_TOOL} --scheme arpwatch --hosts 3 --duration 10 --attack-window 2 6)
write_fails(/dev/full ${SIM_RUN} --metrics-out /dev/full)
write_fails(/dev/full ${SIM_RUN} --pcap /dev/full)
write_fails(${W}/no-such-dir/x.pcap ${SIM_RUN} --pcap ${W}/no-such-dir/x.pcap)

# arpsec-check
refused("bad value 'abc' for --seeds" ${W}/check.txt
        ${CHECK_TOOL} --seeds abc --out ${W}/check.txt)
refused("missing value for --jobs" ${W}/check.txt
        ${CHECK_TOOL} --out ${W}/check.txt --jobs)
write_fails(/dev/full ${CHECK_TOOL} --seeds 2 --out /dev/full)

# arpsec-trace (the sidecar path is given, so nothing lands beside /dev/full)
refused("bad value 'abc' for --frames" ${W}/t.pcap
        ${TRACE_TOOL} --frames abc --out ${W}/t.pcap)
refused("missing value for --frames" ${W}/t.pcap
        ${TRACE_TOOL} --out ${W}/t.pcap --frames)
write_fails(/dev/full
            ${TRACE_TOOL} --frames 300 --out /dev/full --labels ${W}/full.labels.json)

# arpsec-replay, over a small trace
set(PCAP ${W}/in.pcap)
execute_process(COMMAND ${TRACE_TOOL} --frames 300 --out ${PCAP}
                RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "arpsec-trace failed (rc=${rc})")
endif()
refused("bad value 'abc' for --jobs" ${W}/r.json
        ${REPLAY_TOOL} --pcap ${PCAP} --jobs abc --out ${W}/r.json)
refused("bad value '-5' for --window-ms" ${W}/r.json
        ${REPLAY_TOOL} --pcap ${PCAP} --window-ms -5 --out ${W}/r.json)
refused("missing value for --grace-ms" ${W}/r.json
        ${REPLAY_TOOL} --pcap ${PCAP} --out ${W}/r.json --grace-ms)
write_fails(/dev/full ${REPLAY_TOOL} --pcap ${PCAP} --out /dev/full)
write_fails(/dev/full ${REPLAY_TOOL} --pcap ${PCAP} --alerts /dev/full)

# arpsec-served
set(SOCK ${W}/served.sock)
refused("bad value 'abc' for --shards" ${W}/summary.json
        ${SERVED_TOOL} --unix ${SOCK} --shards abc --summary ${W}/summary.json)
refused("bad value '257' for --shards" ${W}/summary.json
        ${SERVED_TOOL} --unix ${SOCK} --shards 257 --summary ${W}/summary.json)
refused("bad value '1048577' for --ring" ${W}/summary.json
        ${SERVED_TOOL} --unix ${SOCK} --ring 1048577 --summary ${W}/summary.json)
refused("missing value for --conns" ${W}/summary.json
        ${SERVED_TOOL} --unix ${SOCK} --summary ${W}/summary.json --conns)
if(BASH)
  # The client starts once the daemon prints its listening line; the rest
  # of the daemon's stdout is drained so it never writes to a closed pipe.
  # (No ';' in the script: it would split the CMake list.)
  write_fails(/dev/full
    ${SERVED_TOOL} --unix ${SOCK} --conns 1 --summary /dev/full
    COMMAND ${BASH} -c "read -r _ && \"$0\" --pcap \"$1\" --unix \"$2\" > /dev/null\ncat > /dev/null"
            ${LOADGEN_TOOL} ${PCAP} ${SOCK})
else()
  message(STATUS "cli smoke: no bash, arpsec-served /dev/full leg skipped")
endif()

# arpsec-loadgen (it writes no file)
refused("bad value '12x' for --batch-frames" NONE
        ${LOADGEN_TOOL} --pcap ${PCAP} --unix ${SOCK} --batch-frames 12x)
refused("bad value '127.0.0.1:99999' for --tcp" NONE
        ${LOADGEN_TOOL} --pcap ${PCAP} --tcp 127.0.0.1:99999)
refused("missing value for --count" NONE
        ${LOADGEN_TOOL} --pcap ${PCAP} --unix ${SOCK} --count)

# arpsec-lint, over a one-file root
refused("unknown argument '--bogus'" ${W}/lint.json
        ${LINT_TOOL} --root ${W}/lint-root --json ${W}/lint.json --bogus)
refused("missing value for --baseline" ${W}/lint.json
        ${LINT_TOOL} --root ${W}/lint-root --json ${W}/lint.json --baseline)
write_fails(/dev/full ${LINT_TOOL} --root ${W}/lint-root --json /dev/full)

# A sweep bench
refused("bad value 'abc' for --jobs" ${W}/f3.json
        ${SWEEP_BENCH} --smoke --jobs abc --out ${W}/f3.json)
refused("missing value for --out" NONE ${SWEEP_BENCH} --smoke --out)
refused("unknown argument 'f3.json'" ${W}/f3.json ${SWEEP_BENCH} --smoke f3.json)
write_fails(/dev/full ${SWEEP_BENCH} --smoke --out /dev/full)

file(GLOB stray ${W}/*.runs.json)
if(stray)
  message(FATAL_ERROR "a refused bench run wrote ${stray}")
endif()

message(STATUS "cli smoke: bad values refused, unwritable outputs reported")
