#!/usr/bin/env bash
# Serve smoke, run via ctest (arpsec_serve_smoke) and the CI arpsec-serve
# job: a unix-socket round trip through arpsec-served must produce an alert
# file byte-identical to offline arpsec-replay (arpwatch at one shard, then
# every registered scheme at four shards on a 50k-frame trace), the
# snapshot -> freeze -> restore -> resume flow must reproduce the offline
# run as a set, and a negative --read-timeout-ms must be refused.
#
# usage: serve_smoke.sh TRACE_TOOL REPLAY_TOOL SERVED_TOOL LOADGEN_TOOL WORK_DIR [FRAMES]
set -euo pipefail

TRACE_TOOL=$1
REPLAY_TOOL=$2
SERVED_TOOL=$3
LOADGEN_TOOL=$4
WORK_DIR=$5
FRAMES=${6:-5000}

rm -rf "$WORK_DIR"
mkdir -p "$WORK_DIR"
cd "$WORK_DIR"

# sun_path caps unix socket paths at ~108 bytes; the build tree can be
# deeper than that, so the socket lives in a short-lived tmp dir.
SOCK_DIR=$(mktemp -d)
trap 'rm -rf "$SOCK_DIR"' EXIT
SOCK="$SOCK_DIR/s.sock"

"$TRACE_TOOL" --frames "$FRAMES" --jobs 2 --out trace.pcap > /dev/null

# Offline ground truth: same scheme, same (default) grace window.
"$REPLAY_TOOL" --pcap trace.pcap --schemes arpwatch \
    --alerts replay_alerts.jsonl --out replay_artifact.json > /dev/null

wait_listen() { # pid logfile
    for _ in $(seq 1 100); do
        grep -q "listening on" "$2" 2> /dev/null && return 0
        kill -0 "$1" 2> /dev/null || { cat "$2" >&2; return 1; }
        sleep 0.1
    done
    echo "daemon never printed its listening line" >&2
    return 1
}

# --- a non-positive read timeout is refused before anything is bound -----
# (-1 would block each read where SIGTERM cannot reach a quiet stream.)
STATUS=0
"$SERVED_TOOL" --unix "$SOCK" --read-timeout-ms -1 > refused.log 2>&1 || STATUS=$?
if [ "$STATUS" -ne 2 ] || ! grep -q "read_timeout_ms must be > 0" refused.log ||
    [ -e "$SOCK" ]; then
    echo "option check FAILED: --read-timeout-ms -1 exited $STATUS (see refused.log)" >&2
    exit 1
fi
echo "serve smoke: --read-timeout-ms -1 refused with a typed error"

# --- leg 0: full stream over the socket; the equivalence gate -------------
"$SERVED_TOOL" --unix "$SOCK" --schemes arpwatch \
    --alerts served_alerts.jsonl --summary served_summary.json \
    > served.log 2>&1 &
SERVED_PID=$!
wait_listen "$SERVED_PID" served.log
"$LOADGEN_TOOL" --pcap trace.pcap --unix "$SOCK" > loadgen.log 2>&1
wait "$SERVED_PID"
if ! cmp served_alerts.jsonl replay_alerts.jsonl; then
    echo "serve<->replay equivalence FAILED: alert files differ" >&2
    exit 1
fi
echo "serve smoke: socket alerts byte-identical to offline replay"

# --- snapshot -> freeze -> restore -> resume ------------------------------
# Leg 1 streams the first half and hangs up without END: the daemon freezes
# state (no grace window) and snapshots exactly what it saw. Leg 2 restores
# the snapshot and streams the rest to a clean END.
HALF=$((FRAMES / 2))
"$SERVED_TOOL" --unix "$SOCK" --schemes arpwatch \
    --alerts part1_alerts.jsonl --snapshot snap.json > served1.log 2>&1 &
SERVED_PID=$!
wait_listen "$SERVED_PID" served1.log
"$LOADGEN_TOOL" --pcap trace.pcap --unix "$SOCK" --count "$HALF" --no-end \
    > loadgen1.log 2>&1
wait "$SERVED_PID"

"$SERVED_TOOL" --unix "$SOCK" --schemes arpwatch --restore snap.json \
    --alerts part2_alerts.jsonl > served2.log 2>&1 &
SERVED_PID=$!
wait_listen "$SERVED_PID" served2.log
"$LOADGEN_TOOL" --pcap trace.pcap --unix "$SOCK" --skip "$HALF" \
    > loadgen2.log 2>&1
wait "$SERVED_PID"

# The two legs' alerts, as a set, are exactly the offline run's (drop the
# schema header line of each file before comparing).
tail -n +2 part1_alerts.jsonl > union.jsonl
tail -n +2 part2_alerts.jsonl >> union.jsonl
sort union.jsonl > union_sorted.jsonl
tail -n +2 replay_alerts.jsonl | sort > offline_sorted.jsonl
if ! cmp union_sorted.jsonl offline_sorted.jsonl; then
    echo "snapshot/restore resume FAILED: alert union differs from offline run" >&2
    exit 1
fi
echo "serve smoke: snapshot/restore resume matches the offline run"

# --- leg 3: every registered scheme x 4 shards, 50k frames ---------------
# Thousands of alert records stream back while the loadgen is still
# writing frames; a client that does not read them stalls the daemon, so
# the loadgen runs under a timeout that turns a stall into a failure.
"$TRACE_TOOL" --frames 50000 --jobs 2 --out trace50k.pcap > /dev/null
# arpsec-replay runs every registered scheme by default; the daemon runs
# only arpwatch by default, so it gets the replay's scheme list explicitly.
"$REPLAY_TOOL" --pcap trace50k.pcap \
    --alerts replay50k_alerts.jsonl --out replay50k_artifact.json > /dev/null
ALL_SCHEMES=$(grep -o '"scheme": "[^"]*"' replay50k_artifact.json | cut -d'"' -f4 |
    paste -sd, -)
if [ -z "$ALL_SCHEMES" ]; then
    echo "all-scheme leg FAILED: no scheme list in replay50k_artifact.json" >&2
    exit 1
fi
"$SERVED_TOOL" --unix "$SOCK" --schemes "$ALL_SCHEMES" --shards 4 \
    --alerts served50k_alerts.jsonl > served50k.log 2>&1 &
SERVED_PID=$!
wait_listen "$SERVED_PID" served50k.log
if ! timeout 60 "$LOADGEN_TOOL" --pcap trace50k.pcap --unix "$SOCK" > loadgen50k.log 2>&1; then
    echo "all-scheme leg FAILED: loadgen failed or stalled (see loadgen50k.log)" >&2
    kill "$SERVED_PID" 2> /dev/null || true
    exit 1
fi
wait "$SERVED_PID"
if ! cmp served50k_alerts.jsonl replay50k_alerts.jsonl; then
    echo "serve<->replay equivalence FAILED: all-scheme alert files differ" >&2
    exit 1
fi
echo "serve smoke: $(echo "$ALL_SCHEMES" | tr , '\n' | wc -l) schemes x 4 shards," \
    "alerts byte-identical to offline replay"
