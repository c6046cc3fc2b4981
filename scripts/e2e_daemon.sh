#!/bin/sh
# End-to-end flowrankd check: replay a generated trace through the real
# daemon binary, scrape /metrics over HTTP, and require the per-bin
# counters to match what flowtop prints for the same trace, sampling seed
# and worker count. Both binaries are front-ends of one pipeline
# (internal/pipeline), so what this guards is the front-ends — flag
# wiring, the record-to-metrics mapping, the text report — not a second
# implementation of the monitor. Then SIGTERM the daemon and require a
# clean drain (exit 0). CI runs this as the daemon-e2e job; locally:
# make e2e-daemon.
#
# Both runs close the loop (-invert parametric -adapt 1), so the daemon
# must also have retuned its sampler at least once. Record-by-record
# equivalence of the two front-ends is TestJournalParityWithDaemon in
# cmd/flowtop.
set -eu

dir="$(mktemp -d)"
daemon_pid=""
cleanup() {
    if [ -n "$daemon_pid" ]; then
        kill "$daemon_pid" 2>/dev/null || true
    fi
    rm -rf "$dir"
}
trap cleanup EXIT

go build -o "$dir/tracegen" ./cmd/tracegen
go build -o "$dir/flowtop" ./cmd/flowtop
go build -o "$dir/flowrankd" ./cmd/flowrankd

"$dir/tracegen" -preset sprint5 -seconds 12 -rate 0.5 -seed 3 -packets -o "$dir/trace.pkts"

# Batch reference: the bin count and the last bin's flow and
# swapped-pairs counts, parsed from the pinned title line
#   == binN: t=[..s,..s) F flows, swapped pairs: ranking R (..) detection D (..) ==
"$dir/flowtop" -in "$dir/trace.pkts" -p 0.1 -t 5 -bin 4 -seed 7 -workers 4 \
    -invert parametric -adapt 1 >"$dir/batch.txt"
bins="$(grep -c '^== bin' "$dir/batch.txt")"
last="$(grep '^== bin' "$dir/batch.txt" | tail -n 1)"
flows="$(printf '%s\n' "$last" | awk '{print $4}')"
ranking="$(printf '%s\n' "$last" | awk '{print $9}')"
detection="$(printf '%s\n' "$last" | awk '{print $12}')"
test "$bins" -gt 0
test "$flows" -gt 0

# The daemon on the same trace, sampling seed and worker count. Port 0:
# the bound address is read from the startup log record's addr attribute
# (slog text format: msg="serving /metrics and /healthz" addr=HOST:PORT).
"$dir/flowrankd" -in "$dir/trace.pkts" -p 0.1 -t 5 -bin 4 -seed 7 -workers 4 \
    -invert parametric -adapt 1 -listen 127.0.0.1:0 2>"$dir/daemon.log" &
daemon_pid=$!

addr=""
i=0
while [ -z "$addr" ]; do
    addr="$(sed -n 's|.*msg="serving [^"]*" addr=\([^ ]*\).*|\1|p' "$dir/daemon.log" | head -n 1)"
    [ -n "$addr" ] && break
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "flowrankd never announced its address:" >&2
        cat "$dir/daemon.log" >&2
        exit 1
    fi
    sleep 0.1
done

# A finite trace drains to EOF and the daemon keeps serving the final
# values; wait for that steady state before comparing.
i=0
until curl -fsS "http://$addr/metrics" 2>/dev/null | grep -q '^flowrankd_source_eof 1$'; do
    i=$((i + 1))
    if [ "$i" -gt 200 ]; then
        echo "flowrankd never reached source EOF:" >&2
        cat "$dir/daemon.log" >&2
        exit 1
    fi
    sleep 0.1
done

test "$(curl -fsS "http://$addr/healthz")" = "ok"
curl -fsS "http://$addr/metrics" >"$dir/metrics.txt"

metric() {
    awk -v name="$1" '$1 == name { print $2 }' "$dir/metrics.txt"
}
check() {
    got="$(metric "$1")"
    if [ "$got" != "$2" ]; then
        echo "metric $1 = $got, want $2 (from flowtop batch run)" >&2
        exit 1
    fi
}
check flowrankd_up 1
check flowrankd_bins_total "$bins"
check flowrankd_bin_flows "$flows"
check flowrankd_bin_ranking_pairs "$ranking"
check flowrankd_bin_detection_pairs "$detection"
# The daemon counts the packets its source returns, the engine the
# packets it is fed: at EOF both have seen the whole trace.
ingested="$(metric flowrankd_packets_ingested_total)"
fed="$(metric flowrankd_pipeline_packets_total)"
if [ "$ingested" != "$fed" ] || ! awk -v n="$ingested" 'BEGIN { exit !(n + 0 > 0) }'; then
    echo "metric flowrankd_packets_ingested_total = $ingested, flowrankd_pipeline_packets_total = $fed, want equal and > 0" >&2
    exit 1
fi
changes="$(metric flowrankd_adapt_changes_total)"
if ! [ "${changes:-0}" -gt 0 ]; then
    echo "metric flowrankd_adapt_changes_total = $changes, want > 0" >&2
    exit 1
fi

# Graceful drain: SIGTERM must produce a clean exit, not a kill.
kill -TERM "$daemon_pid"
pid="$daemon_pid"
daemon_pid=""
if ! wait "$pid"; then
    echo "flowrankd exited non-zero after SIGTERM:" >&2
    cat "$dir/daemon.log" >&2
    exit 1
fi

echo "flowrankd e2e: /metrics matches flowtop batch ($bins bins, last bin $flows flows, $changes rate retunes, $ingested packets ingested), SIGTERM drained cleanly"
