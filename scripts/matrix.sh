#!/usr/bin/env bash
# Runs the monitor matrix (scripts/matrix.txt) through the real binaries,
# each row at -workers 1, 2, 3 and 4 with -netflow and -journal:
#
#   scripts/matrix.sh        within the working tree (make e2e)
#   scripts/matrix.sh BASE   against revision BASE (make identity BASE=<rev>)
#
# A cell is one output of one row at one worker count: stdout, the NetFlow
# bytes, or the journal without its wall-clock fields (each line's "time"
# and the record's "stages"), so it holds every count, estimate and
# decision the journal reports. Runs write the same file names, which the
# journal records, and move them aside.
#
# Within the tree, an exact row's cells are identical at every worker
# count; a bounded row (its sampled table holds its slot budget per shard,
# so its report depends on the worker count by design) prints the original
# side, bin flow counts and true top lists, of its exact reference row;
# a -table map row (the exact table over a Go map) prints and exports
# byte for byte what its exact reference row does; every journal passes journalcheck with one staged record per reported
# bin; and a row on a capture of 16 MiB or more, which source.Open decodes
# ahead from the file, reads the same through a pipe.
#
# Against BASE, the revision is exported into .bench_build/matrix
# (git-ignored, removed on exit), both trees' tracegen and flowtop are
# built, and each cell, and each trace both tracegens write, is compared
# across the two. A row whose base binary rejects a flag it does not
# define is reported as new; any other failure fails the run.
#
# A cell that differs is named with its first differing line (text) or
# byte (binary), and the script exits non-zero. jq must be installed.
set -euo pipefail

if [ $# -gt 1 ]; then
	echo "usage: $0 [BASE]" >&2
	exit 2
fi
base_rev=${1:-}
command -v jq >/dev/null || {
	echo "matrix: jq not found (it strips the journal's timings)" >&2
	exit 2
}

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
work="$root/.bench_build/matrix"
trap 'rm -rf "$work"' EXIT
rm -rf "$work"
mkdir -p "$work/bin/change" "$work/out"
go -C "$root" build -o "$work/bin/change/" ./cmd/tracegen ./cmd/flowtop ./cmd/journalcheck
sides=change
if [ -n "$base_rev" ]; then
	sides="base change"
	mkdir -p "$work/base" "$work/bin/base"
	# A plain export, not `git worktree add`: nothing is registered in .git.
	git -C "$root" archive "$base_rev" | tar -x -C "$work/base"
	go -C "$work/base" build -o "$work/bin/base/" ./cmd/tracegen ./cmd/flowtop
	echo "matrix: base $(git -C "$root" rev-parse --short "$base_rev") against the working tree" >&2
fi

# tool SIDE NAME ARGS...: runs one binary with its stderr (progress lines)
# kept aside. A base binary that rejects an undefined flag returns 3; any
# other failure ends the script.
tool() {
	local side=$1 name=$2
	shift 2
	"$work/bin/$side/$name" "$@" 2>"$work/stderr" && return
	if [ "$side" = base ] && grep -q '^flag provided but not defined' "$work/stderr"; then
		return 3
	fi
	echo "matrix: failed: $side $name $*" >&2
	tail -n 5 "$work/stderr" >&2
	exit 1
}

# run SIDE IN OUT FLAGS...: one flowtop run, leaving OUT.txt, OUT.nf5,
# OUT.jsonl and the masked OUT.journal.
run() {
	local side=$1 in=$2 out=$3
	shift 3
	tool "$side" flowtop -in "$in" "$@" -netflow "$work/run.nf5" -journal "$work/run.journal" >"$out.txt" || return
	mv "$work/run.nf5" "$out.nf5"
	mv "$work/run.journal" "$out.jsonl" # -journal appends
	jq -c 'del(.time, .record.stages)' "$out.jsonl" >"$out.journal"
}

cells=0
differ=0
# report CELL A B: counts the cell and, when A and B differ, names it.
report() {
	cells=$((cells + 1))
	cmp -s "$2" "$3" && return
	differ=$((differ + 1))
	case $2 in
	*.nf5 | *.trace) echo "DIFFERS $1: $(cmp "$2" "$3" 2>&1 | head -n 1)" ;;
	*) echo "DIFFERS $1: $(diff "$2" "$3" | grep -m 2 '^[<>]' | tr '\n' ' ')" ;;
	esac
}
# fail CELL WHY: a within-tree check that does not hold.
fail() {
	cells=$((cells + 1))
	differ=$((differ + 1))
	echo "FAILS $1: $2"
}

# origside REPORT: the original side of each bin, its flow count and its
# true top list (rank, flow, packets), one line each.
origside() {
	awk '/^== bin/ { print $2, $3, $4 } /^ +[0-9]+ / { print $1, $2, $3, $4, $5, $6 }' "$1"
}

# check OUT CELL: the journal of one within-tree run validates, with one
# staged record per bin the report prints.
check() {
	local bins records staged
	bins="$(grep -c '^== bin' "$1.txt" || true)"
	records="$(grep -c '"msg":"bin"' "$1.jsonl" || true)"
	staged="$(grep '"msg":"bin"' "$1.jsonl" | grep -c '"stages":{' || true)"
	if [ "$bins" -eq 0 ] || [ "$records" != "$bins" ] || [ "$staged" != "$bins" ]; then
		fail "$2 journal" "$records records, $staged with stages, for $bins reported bins"
	elif ! "$work/bin/change/journalcheck" -min-bins "$bins" "$1.jsonl" >/dev/null 2>"$work/stderr"; then
		fail "$2 journal" "journalcheck: $(head -n 1 "$work/stderr")"
	fi
}

declare -A traces=() refs=()
new=0
piped=0
start=$SECONDS
mapfile -t rows < <(grep -vE '^[[:space:]]*(#|$)' "$root/scripts/matrix.txt")
for row in "${rows[@]}"; do
	IFS='|' read -r name gen mon <<<"$row"
	name=${name//[[:space:]]/}
	gen=$(echo $gen)
	mon=$(echo $mon)
	out="$work/out/$name"
	trace=${traces[$gen]:-}
	if [ -z "$trace" ]; then
		trace="$work/out/trace${#traces[@]}"
		traces[$gen]=$trace
		for side in $sides; do
			# shellcheck disable=SC2086 # the flag lists are split on purpose
			tool "$side" tracegen $gen -o "$trace.$side.trace" || echo "NEW trace of $name: base tracegen rejects a flag"
		done
		if [ -f "$trace.base.trace" ]; then
			report "trace of $name" "$trace.base.trace" "$trace.change.trace"
		fi
	fi
	in="$trace.change.trace"
	bounded=
	[[ " $mon " =~ " -table "(countmin|spacesaving)" " ]] && bounded=1
	mapped=
	[[ " $mon " == *" -table map "* ]] && mapped=1
	key="$gen|$(sed -E 's/ -(table|memory) [^ ]+//g' <<<" $mon")"
	for w in 1 2 3 4; do
		cell="$name -workers $w"
		for side in $sides; do
			# shellcheck disable=SC2086
			run "$side" "$in" "$out.w$w.$side" $mon -workers "$w" || {
				echo "NEW $name: base flowtop rejects a flag"
				new=$((new + 1))
				continue 3
			}
		done
		if [ -n "$base_rev" ]; then
			for ext in txt nf5 journal; do
				report "$cell ${ext/txt/stdout}" "$out.w$w.base.$ext" "$out.w$w.change.$ext"
			done
			continue
		fi
		o="$out.w$w.change"
		check "$o" "$cell"
		if [ -n "$bounded$mapped" ]; then
			ref=${refs[$key]:-}
			if [ -z "$ref" ]; then
				fail "$name" "no earlier exact row on its trace with its flags less -table and -memory"
				break
			fi
		fi
		if [ -n "$bounded" ]; then
			if [ "$w" = 1 ] && ! grep -q 'count err <=' "$o.txt"; then
				fail "$cell stdout" "the bounded table never overflowed one shard"
			fi
			origside "$work/out/$ref.w1.change.txt" >"$out.ref.orig"
			origside "$o.txt" >"$o.orig"
			report "$cell original side (vs $ref)" "$out.ref.orig" "$o.orig"
		elif [ "$w" -gt 1 ]; then
			for ext in txt nf5 journal; do
				report "$cell ${ext/txt/stdout} (vs -workers 1)" "$out.w1.change.$ext" "$o.$ext"
			done
		fi
		if [ -n "$mapped" ]; then
			# The journals differ in their table kind only.
			for ext in txt nf5; do
				report "$cell ${ext/txt/stdout} (vs $ref)" "$work/out/$ref.w$w.change.$ext" "$o.$ext"
			done
		fi
		if [[ " $mon " == *" -adapt "* ]] && ! grep -q '^adapt: ' "$o.txt"; then
			fail "$cell stdout" "no adapt line in a closed-loop report"
		fi
		if [[ " $mon " == *" -pcap "* ]] && [ "$(wc -c <"$in")" -ge 16777216 ]; then
			# shellcheck disable=SC2086
			cat "$in" | run change /dev/stdin "$o.pipe" $mon -workers "$w"
			for ext in txt nf5 journal; do
				report "$cell ${ext/txt/stdout} (file vs pipe)" "$o.$ext" "$o.pipe.$ext"
			done
			piped=$((piped + 1))
		fi
	done
	[ -z "$bounded$mapped" ] && refs[$key]=$name
	echo "$name: $(wc -l <"$out.w1.change.txt") report lines, $(wc -c <"$out.w1.change.nf5") NetFlow bytes, $(wc -l <"$out.w1.change.journal") journal records at -workers 1"
done
if [ -z "$base_rev" ] && [ "$piped" -eq 0 ]; then
	fail "matrix" "no row reads a capture of 16 MiB or more, so the decode-ahead went unchecked"
fi

took="${#rows[@]} rows, $((SECONDS - start)) s after the builds"
if [ "$differ" -ne 0 ]; then
	echo "matrix: $differ of $cells cells differ or fail ($took)"
	exit 1
fi
echo "matrix: all $cells cells identical, $new new rows ($took)"
