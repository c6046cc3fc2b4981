#!/bin/sh
# End-to-end flowrankd check (make e2e-daemon): replay a generated trace
# through the real daemon binary with the bin journal and pprof on, and
# require, from outside the test harness:
#
#   1. /metrics to match what flowtop prints for the same trace, sampling
#      seed and worker count: bins, the last bin's flows and swapped
#      pairs. Both binaries are front-ends of one pipeline
#      (internal/pipeline), so this guards the front-ends, flag wiring and
#      the record-to-metrics mapping, not a second implementation;
#   2. every packet read to have been fed to the engine, and the closed
#      loop to have retuned the rate at least once;
#   3. the per-stage pipeline and runtime series on /metrics, and a heap
#      profile on /debug/pprof/heap;
#   4. the journal to pass journalcheck with a record per bin, and its
#      per-bin sampled packets to sum to flowrankd_packets_sampled_total;
#   5. SIGTERM to drain cleanly (exit 0).
#
# The run is scripts/matrix.txt's native-parametric-adapt row at
# -workers 4. Record-by-record equivalence of the two front-ends is
# TestJournalParityWithDaemon in cmd/flowtop.
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

go build -o "$dir/" ./cmd/tracegen ./cmd/flowtop ./cmd/flowrankd ./cmd/journalcheck

row="$(grep '^native-parametric-adapt ' scripts/matrix.txt)"
gen="$(printf '%s\n' "$row" | cut -d '|' -f 2)"
mon="$(printf '%s\n' "$row" | cut -d '|' -f 3) -workers 4"
# shellcheck disable=SC2086 # the flag lists are split on purpose
"$dir/tracegen" $gen -o "$dir/trace" 2>/dev/null

# Batch reference: the bin count and the last bin's flow and
# swapped-pairs counts, parsed from the pinned title line
#   == binN: t=[..s,..s) F flows, swapped pairs: ranking R (..) detection D (..) ==
# shellcheck disable=SC2086
"$dir/flowtop" -in "$dir/trace" $mon >"$dir/batch.txt"
bins="$(grep -c '^== bin' "$dir/batch.txt")"
last="$(grep '^== bin' "$dir/batch.txt" | tail -n 1)"
flows="$(printf '%s\n' "$last" | awk '{print $4}')"
ranking="$(printf '%s\n' "$last" | awk '{print $9}')"
detection="$(printf '%s\n' "$last" | awk '{print $12}')"
test "$bins" -gt 0
test "$flows" -gt 0

# Port 0: the bound address is read from the startup log record's addr
# attribute (slog text: msg="serving /metrics and /healthz" addr=HOST:PORT).
# shellcheck disable=SC2086
"$dir/flowrankd" -in "$dir/trace" $mon -listen 127.0.0.1:0 \
    -journal "$dir/journal.jsonl" -pprof 2>"$dir/daemon.log" &
daemon_pid=$!

# wait_for WHAT CMD...: polls CMD every 0.1 s, for up to 20 s.
wait_for() {
    what=$1
    shift
    i=0
    until "$@"; do
        i=$((i + 1))
        if [ "$i" -gt 200 ]; then
            echo "flowrankd never $what:" >&2
            cat "$dir/daemon.log" >&2
            exit 1
        fi
        sleep 0.1
    done
}
announced() {
    addr="$(sed -n 's|.*msg="serving [^"]*" addr=\([^ ]*\).*|\1|p' "$dir/daemon.log" | head -n 1)"
    [ -n "$addr" ]
}
at_eof() {
    curl -fsS "http://$addr/metrics" 2>/dev/null | grep -q '^flowrankd_source_eof 1$'
}
wait_for "announced its address" announced
# A finite trace drains to EOF and the daemon keeps serving the final
# values; wait for that steady state before comparing.
wait_for "reached source EOF" at_eof

test "$(curl -fsS "http://$addr/healthz")" = "ok"
curl -fsS "http://$addr/metrics" >"$dir/metrics.txt"

metric() {
    awk -v name="$1" '$1 == name { print $2 }' "$dir/metrics.txt"
}
check() {
    got="$(metric "$1")"
    if [ "$got" != "$2" ]; then
        echo "metric $1 = $got, want $2" >&2
        exit 1
    fi
}
# 1. The flowtop report.
check flowrankd_up 1
check flowrankd_bins_total "$bins"
check flowrankd_bin_flows "$flows"
check flowrankd_bin_ranking_pairs "$ranking"
check flowrankd_bin_detection_pairs "$detection"

# 2. The daemon counts the packets its source returns, the engine the
# packets it is fed: at EOF both have seen the whole trace.
ingested="$(metric flowrankd_packets_ingested_total)"
check flowrankd_pipeline_packets_total "$ingested"
awk -v n="$ingested" 'BEGIN { exit !(n + 0 > 0) }' || { echo "no packets ingested" >&2; exit 1; }
changes="$(metric flowrankd_adapt_changes_total)"
if ! [ "${changes:-0}" -gt 0 ]; then
    echo "metric flowrankd_adapt_changes_total = $changes, want > 0" >&2
    exit 1
fi

# 3. Stage instrumentation, runtime self-telemetry, pprof.
for series in \
    flowrankd_pipeline_reader_batches_total \
    flowrankd_pipeline_dispatch_seconds_count \
    flowrankd_pipeline_ingest_seconds_count \
    flowrankd_pipeline_barrier_seconds_count \
    flowrankd_pipeline_merge_seconds_count \
    flowrankd_pipeline_invert_seconds_count \
    flowrankd_pipeline_flush_seconds_count \
    flowrankd_goroutines \
    flowrankd_heap_alloc_bytes \
    flowrankd_uptime_seconds \
    flowrankd_gc_cycles_total \
    flowrank_build_info; do
    if ! grep -q "^$series[ {]" "$dir/metrics.txt"; then
        echo "missing series $series in /metrics" >&2
        exit 1
    fi
done
curl -fsS "http://$addr/debug/pprof/heap?debug=1" >"$dir/heap.txt"
grep -q '^heap profile:' "$dir/heap.txt" || { echo "/debug/pprof/heap served no heap profile" >&2; exit 1; }

# 4. The journal, and tied to /metrics.
"$dir/journalcheck" -min-bins "$bins" "$dir/journal.jsonl"
sampled="$(grep '"msg":"bin"' "$dir/journal.jsonl" |
    sed -n 's|.*"sampled_packets":\([0-9]*\),.*|\1|p' |
    awk '{ sum += $1 } END { print sum + 0 }')"
check flowrankd_packets_sampled_total "$sampled"

# 5. Graceful drain: SIGTERM must produce a clean exit, not a kill.
kill -TERM "$daemon_pid"
pid="$daemon_pid"
daemon_pid=""
if ! wait "$pid"; then
    echo "flowrankd exited non-zero after SIGTERM:" >&2
    cat "$dir/daemon.log" >&2
    exit 1
fi

echo "flowrankd e2e: /metrics matches flowtop ($bins bins, last bin $flows flows, $changes rate retunes, $ingested packets), stage and runtime series and pprof heap live, journal valid with $sampled sampled packets as on /metrics, SIGTERM drained cleanly"
