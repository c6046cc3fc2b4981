#!/bin/sh
# End-to-end flowtop cross-check: generate a small trace in both on-disk
# formats, run the monitor on one shard (-workers 1), on four (-workers 4)
# and on three (-workers 3, a partition by hash modulo rather than by
# mask), and require byte-identical bin reports and NetFlow exports, and a journal that validates with one record, stage timings
# included, per reported bin; run the two bounded sampled tables at one and
# three shards and require the exact run's flow counts and true top lists;
# then read one capture above source.Open's decode-ahead threshold
# both ways it can be read, and require the same bytes again. CI runs this
# after the unit suite; locally: make e2e.
set -eu

dir="$(mktemp -d)"
trap 'rm -rf "$dir"' EXIT

go build -o "$dir/tracegen" ./cmd/tracegen
go build -o "$dir/flowtop" ./cmd/flowtop
go build -o "$dir/journalcheck" ./cmd/journalcheck

"$dir/tracegen" -preset sprint5 -seconds 12 -rate 0.5 -seed 3 -packets -o "$dir/trace.pkts"
"$dir/tracegen" -preset sprint5 -seconds 12 -rate 0.5 -seed 3 -pcap -o "$dir/trace.pcap"

"$dir/flowtop" -in "$dir/trace.pkts" -p 0.1 -t 5 -bin 4 -seed 7 -workers 1 \
    -netflow "$dir/one.nf5" -journal "$dir/one.jsonl" >"$dir/one.txt"
"$dir/flowtop" -in "$dir/trace.pkts" -p 0.1 -t 5 -bin 4 -seed 7 -workers 4 \
    -netflow "$dir/four.nf5" >"$dir/four.txt"
"$dir/flowtop" -in "$dir/trace.pkts" -p 0.1 -t 5 -bin 4 -seed 7 -workers 3 \
    -netflow "$dir/three.nf5" >"$dir/three.txt"
diff "$dir/one.txt" "$dir/four.txt"
cmp "$dir/one.nf5" "$dir/four.nf5"
diff "$dir/one.txt" "$dir/three.txt"
cmp "$dir/one.nf5" "$dir/three.nf5"
test -s "$dir/one.txt"
test -s "$dir/one.nf5"

# The journal flowtop writes is checked as the daemon's is: it validates
# against BinRecord, holds one record per reported bin, and every record
# carries the bin's stage timings.
bins="$(grep -c '^== bin' "$dir/one.txt")"
test "$bins" -gt 0
"$dir/journalcheck" -min-bins "$bins" "$dir/one.jsonl"
records="$(grep -c '"msg":"bin"' "$dir/one.jsonl")"
staged="$(grep '"msg":"bin"' "$dir/one.jsonl" | grep -c '"stages":{')"
if [ "$records" != "$bins" ] || [ "$staged" != "$bins" ]; then
    echo "journal: $records records, $staged with stages, for $bins reported bins" >&2
    exit 1
fi

# A bounded -table caps the sampled table only: the original side of every
# bin (its flow count and true top list) is the exact run's, at any worker
# count. origside prints that side of a report, one bin header's flow count
# or one true top-list row (rank, flow, packets) a line.
origside() {
    awk '/^== bin/ { print $2, $3, $4 } /^ +[0-9]+ / { print $1, $2, $3, $4, $5, $6 }' "$1"
}
origside "$dir/one.txt" >"$dir/exact-orig.txt"
for table in countmin spacesaving; do
    for w in 1 3; do
        "$dir/flowtop" -in "$dir/trace.pkts" -p 0.1 -t 5 -bin 4 -seed 7 -workers $w \
            -table $table -memory 64 >"$dir/$table-$w.txt"
        grep -q 'count err <=' "$dir/$table-$w.txt"
        origside "$dir/$table-$w.txt" | diff "$dir/exact-orig.txt" -
    done
done

# The closed loop: a parametric inversion and a rate refit after every bin,
# run on the reader goroutine, so the retuned rates must not depend on the
# worker count either.
"$dir/flowtop" -in "$dir/trace.pkts" -p 0.1 -t 5 -bin 4 -seed 7 -workers 1 \
    -invert parametric -adapt 1 -netflow "$dir/one-adapt.nf5" >"$dir/one-adapt.txt"
"$dir/flowtop" -in "$dir/trace.pkts" -p 0.1 -t 5 -bin 4 -seed 7 -workers 4 \
    -invert parametric -adapt 1 -netflow "$dir/four-adapt.nf5" >"$dir/four-adapt.txt"
diff "$dir/one-adapt.txt" "$dir/four-adapt.txt"
cmp "$dir/one-adapt.nf5" "$dir/four-adapt.nf5"
grep -q '^adapt: ' "$dir/one-adapt.txt"

"$dir/flowtop" -in "$dir/trace.pcap" -pcap -p 0.1 -t 5 -bin 4 -seed 7 -workers 1 >"$dir/one-pcap.txt"
"$dir/flowtop" -in "$dir/trace.pcap" -pcap -p 0.1 -t 5 -bin 4 -seed 7 -workers 4 >"$dir/four-pcap.txt"
diff "$dir/one-pcap.txt" "$dir/four-pcap.txt"
test -s "$dir/one-pcap.txt"

# Both read paths of a capture: a file of 16 MiB or more is decoded ahead
# on a goroutine of its own, the same bytes through a pipe are read
# synchronously. Reports and exports must not tell them apart.
"$dir/tracegen" -preset sprint24 -seconds 4 -seed 3 -pcap -o "$dir/large.pcap"
test "$(wc -c <"$dir/large.pcap")" -ge 16777216
for w in 1 4; do
    "$dir/flowtop" -in "$dir/large.pcap" -pcap -p 0.1 -t 5 -bin 1 -seed 7 -workers $w \
        -netflow "$dir/ahead-$w.nf5" >"$dir/ahead-$w.txt"
    cat "$dir/large.pcap" | "$dir/flowtop" -in /dev/stdin -pcap -p 0.1 -t 5 -bin 1 -seed 7 -workers $w \
        -netflow "$dir/pipe-$w.nf5" >"$dir/pipe-$w.txt"
    cmp "$dir/ahead-$w.txt" "$dir/pipe-$w.txt"
    cmp "$dir/ahead-$w.nf5" "$dir/pipe-$w.nf5"
done
cmp "$dir/ahead-1.txt" "$dir/ahead-4.txt"
test -s "$dir/ahead-1.txt"
test -s "$dir/ahead-1.nf5"

echo "flowtop e2e: one-shard and four-shard outputs identical (native, native -adapt, pcap), three-shard too (native); journal valid, one staged record per bin; countmin and spacesaving at -memory 64 report the exact run's flow counts and true top lists at one and three shards; a large capture decoded ahead reads as it does through a pipe"
