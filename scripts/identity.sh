#!/usr/bin/env bash
# Byte identity of the monitor between a revision and the working tree, as
# one command:
#
#   scripts/identity.sh BASE      (make identity BASE=<rev>)
#
# exports revision BASE into .bench_build/identity/base (git-ignored;
# removed on exit, also on failure) the way scripts/bench_pairs.sh does,
# builds tracegen and flowtop there and in this tree, and generates
# reduced-scale traces of the benchmark's four workload shapes (half the
# trace seconds of bench/workloads.go) with both tracegens. Each
# workload's monitor flags, copied from bench/workloads.go, then run
# through both flowtops at -workers 1, 2 and 4 with -netflow, on this
# tree's traces. A cell is one workload at one worker count (or one
# workload's trace); it is identical when both sides print the same stdout
# and write the same NetFlow bytes (or the same trace). A cell that differs
# is named with its first differing line, and the script exits non-zero.
#
# The two sides are compared cell by cell, never across worker counts: a
# bounded sampled table (pcap-sharded's Space-Saving, daemon-scrape's
# Count-Min) holds its slot budget per shard, so its report depends on the
# worker count by design.
set -euo pipefail

if [ $# -ne 1 ]; then
	echo "usage: $0 BASE" >&2
	exit 2
fi
base_rev=$1

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
work="$root/.bench_build/identity"
trap 'rm -rf "$work"' EXIT
rm -rf "$work"
mkdir -p "$work/base" "$work/bin/base" "$work/bin/change" "$work/out"
# A plain export, not `git worktree add`: nothing is registered in .git.
git -C "$root" archive "$base_rev" | tar -x -C "$work/base"
echo "identity: base $(git -C "$root" rev-parse --short "$base_rev") against the working tree" >&2

for side in base change; do
	tree="$root"
	[ "$side" = base ] && tree="$work/base"
	go -C "$tree" build -o "$work/bin/$side/tracegen" ./cmd/tracegen
	go -C "$tree" build -o "$work/bin/$side/flowtop" ./cmd/flowtop
done

# name, tracegen flags, monitor flags (flowtop's and flowrankd's shared
# ones; -workers is the matrix's). From bench/workloads.go, seed 1, with
# half of each trace's seconds; daemon-scrape's flowrankd -loop run
# becomes one flowtop pass, its NetFlow a file instead of UDP.
workloads=(
	"batch-exact|-preset sprint5 -seconds 15 -rate 4 -packets|-p 0.01 -t 10 -bin 60 -agg 5tuple -table exact"
	"pcap-sharded|-preset sprint24 -seconds 20 -rate 1 -pcap|-p 0.1 -t 10 -bin 5 -agg prefix24 -table spacesaving -pcap -memory 1024"
	"adapt-loop|-preset sprint5 -seconds 10 -rate 1 -packets|-p 0.1 -t 10 -bin 600 -agg 5tuple -table exact -invert parametric -adapt 1"
	"daemon-scrape|-preset sprint5 -seconds 15 -rate 4 -packets|-p 0.01 -t 10 -bin 5 -agg 5tuple -table countmin -memory 4096 -invert naive"
)

# quiet CMD...: runs a tool with its stderr (progress lines) kept aside,
# shown only if it fails.
quiet() {
	if ! "$@" 2>"$work/stderr"; then
		echo "identity: failed: $*" >&2
		tail -n 5 "$work/stderr" >&2
		exit 1
	fi
}

cells=0
differ=0
# report CELL A B KIND: counts the cell and, when A and B differ, names it
# with the first differing line (text) or byte (binary).
report() {
	local cell=$1 a=$2 b=$3 kind=$4
	cells=$((cells + 1))
	if cmp -s "$a" "$b"; then
		return
	fi
	differ=$((differ + 1))
	if [ "$kind" = text ]; then
		echo "DIFFERS $cell: $(diff "$a" "$b" | grep -m 2 '^[<>]' | tr '\n' ' ')"
	else
		echo "DIFFERS $cell: $(cmp "$a" "$b" 2>&1 | head -n 1)"
	fi
}

start=$SECONDS
for spec in "${workloads[@]}"; do
	IFS='|' read -r name gen mon <<<"$spec"
	for side in base change; do
		# shellcheck disable=SC2086 # the flag lists are split on purpose
		quiet "$work/bin/$side/tracegen" $gen -seed 1 -o "$work/out/$name.$side.trace"
	done
	report "$name trace" "$work/out/$name.base.trace" "$work/out/$name.change.trace" binary
	trace="$work/out/$name.change.trace"
	for workers in 1 2 4; do
		for side in base change; do
			out="$work/out/$name.w$workers.$side"
			# shellcheck disable=SC2086
			quiet "$work/bin/$side/flowtop" -in "$trace" $mon -workers "$workers" -netflow "$out.nf5" >"$out.txt"
		done
		out="$work/out/$name.w$workers"
		report "$name -workers $workers stdout" "$out.base.txt" "$out.change.txt" text
		report "$name -workers $workers netflow" "$out.base.nf5" "$out.change.nf5" binary
	done
	echo "$name: $(wc -l <"$work/out/$name.w1.change.txt") report lines, $(wc -c <"$work/out/$name.w1.change.nf5") NetFlow bytes at -workers 1"
done

if [ "$differ" -ne 0 ]; then
	echo "identity: $differ of $cells cells differ ($((SECONDS - start)) s after the builds)"
	exit 1
fi
echo "identity: all $cells cells identical ($((SECONDS - start)) s after the builds)"
