#!/bin/sh
# End-to-end flowtop cross-check: generate a small trace in both on-disk
# formats, run the monitor sequentially (-workers 1) and sharded
# (-workers 4), and require byte-identical bin reports and NetFlow
# exports. CI runs this after the unit suite; locally: make e2e.
set -eu

dir="$(mktemp -d)"
trap 'rm -rf "$dir"' EXIT

go build -o "$dir/tracegen" ./cmd/tracegen
go build -o "$dir/flowtop" ./cmd/flowtop

"$dir/tracegen" -preset sprint5 -seconds 12 -rate 0.5 -seed 3 -packets -o "$dir/trace.pkts"
"$dir/tracegen" -preset sprint5 -seconds 12 -rate 0.5 -seed 3 -pcap -o "$dir/trace.pcap"

"$dir/flowtop" -in "$dir/trace.pkts" -p 0.1 -t 5 -bin 4 -seed 7 -workers 1 \
    -netflow "$dir/seq.nf5" >"$dir/seq.txt"
"$dir/flowtop" -in "$dir/trace.pkts" -p 0.1 -t 5 -bin 4 -seed 7 -workers 4 \
    -netflow "$dir/shard.nf5" >"$dir/shard.txt"
diff "$dir/seq.txt" "$dir/shard.txt"
cmp "$dir/seq.nf5" "$dir/shard.nf5"
test -s "$dir/seq.txt"
test -s "$dir/seq.nf5"

# The closed loop: a parametric inversion and a rate refit after every bin,
# run on the reader goroutine, so the retuned rates must not depend on the
# worker count either.
"$dir/flowtop" -in "$dir/trace.pkts" -p 0.1 -t 5 -bin 4 -seed 7 -workers 1 \
    -invert parametric -adapt 1 -netflow "$dir/seq-adapt.nf5" >"$dir/seq-adapt.txt"
"$dir/flowtop" -in "$dir/trace.pkts" -p 0.1 -t 5 -bin 4 -seed 7 -workers 4 \
    -invert parametric -adapt 1 -netflow "$dir/shard-adapt.nf5" >"$dir/shard-adapt.txt"
diff "$dir/seq-adapt.txt" "$dir/shard-adapt.txt"
cmp "$dir/seq-adapt.nf5" "$dir/shard-adapt.nf5"
grep -q '^adapt: ' "$dir/seq-adapt.txt"

"$dir/flowtop" -in "$dir/trace.pcap" -pcap -p 0.1 -t 5 -bin 4 -seed 7 -workers 1 >"$dir/seq-pcap.txt"
"$dir/flowtop" -in "$dir/trace.pcap" -pcap -p 0.1 -t 5 -bin 4 -seed 7 -workers 4 >"$dir/shard-pcap.txt"
diff "$dir/seq-pcap.txt" "$dir/shard-pcap.txt"
test -s "$dir/seq-pcap.txt"

echo "flowtop e2e: sequential and sharded outputs identical (native, native -adapt, pcap)"
