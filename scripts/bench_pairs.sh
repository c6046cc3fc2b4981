#!/usr/bin/env bash
# The pair protocol a performance PR is judged by, as one command:
#
#   scripts/bench_pairs.sh BASE WORKLOAD [N] [SEED]      (make bench-pairs)
#
# exports revision BASE into .bench_build/base (git-ignored; removed on
# exit, also on failure), runs
#   bench/run.sh --workload WORKLOAD --seconds 10 --seed SEED --trace 0
# N times in that tree and N times in this one, alternately and alternating
# which side goes first, and prints, per end-to-end metric of
# BENCHMARK.json: both sides' medians and quartiles, the ratio with its
# base, the pairs the working tree won (ties count for neither side), and
# `correct`/`failed` of every run. Each tree builds into its own
# .bench_build/, so the two never share a binary or a build cache.
#
# Exit status: non-zero only when a run fails the benchmark's correctness
# gate (or does not finish); time deltas are reported, never judged — on a
# shared machine they swing by 20-30 % between pairs.
set -euo pipefail

if [ $# -lt 2 ]; then
	echo "usage: $0 BASE WORKLOAD [N=10] [SEED=1]" >&2
	exit 2
fi
base_rev=$1
workload=$2
n=${3:-10}
seed=${4:-1}

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
base="$root/.bench_build/base"
out="$root/.bench_build/pairs"
trap 'rm -rf "$base" "$out"' EXIT
rm -rf "$base" "$out"
mkdir -p "$base" "$out"
# A plain export, not `git worktree add`: nothing is registered in .git,
# so a killed run leaves no stale worktree to prune.
git -C "$root" archive "$base_rev" | tar -x -C "$base"
echo "base $(git -C "$root" rev-parse --short "$base_rev"), workload $workload, seed $seed, $n pairs" >&2

# run SIDE TREE appends the result line (bench's last stdout line) to $out/SIDE.
bad=0
run() {
	local line
	line="$(bash "$2/bench/run.sh" --workload "$workload" --seconds 10 --seed "$seed" --trace 0 2>"$out/stderr" | tail -n 1)" || true
	if [ "${line#\{}" = "$line" ]; then # no result document: the harness itself failed
		echo "$1: run did not finish:" >&2
		tail -n 5 "$out/stderr" >&2
		line='{"correct":false,"failed":-1,"metrics":{}}'
	fi
	case "$line" in
	*'"correct":true'*'"failed":0,'*) ;;
	*) bad=1 ;;
	esac
	echo "$line" >>"$out/$1"
	echo "  $1: $line" >&2
}
for i in $(seq 1 "$n"); do
	echo "pair $i/$n" >&2
	if [ $((i % 2)) -eq 1 ]; then
		run base "$base"
		run change "$root"
	else
		run change "$root"
		run base "$base"
	fi
done

# value FILE METRIC: one number per run, empty where the run has none.
value() {
	sed -n "s/.*\"$2\":{\"value\":\([-+0-9.eE]*\).*/\1/p;t;s/.*//p" "$1"
}
# The end-to-end metrics and their direction, from BENCHMARK.json.
sed -n '/"end_to_end"/,/\]/s/.*"name": *"\([^"]*\)".*"better": *"\([^"]*\)".*/\1 \2/p' "$root/BENCHMARK.json" |
	while read -r metric better; do
		paste <(value "$out/base" "$metric") <(value "$out/change" "$metric") |
			awk -v metric="$metric" -v better="$better" '
			function quantile(v, n, q,    h, lo) { h = (n - 1) * q + 1; lo = int(h); return lo >= n ? v[n] : v[lo] + (h - lo) * (v[lo + 1] - v[lo]) }
			function sorted(src, dst, n,    i, j, t) { for (i = 1; i <= n; i++) dst[i] = src[i]; for (i = 2; i <= n; i++) { t = dst[i]; for (j = i - 1; j >= 1 && dst[j] > t; j--) dst[j + 1] = dst[j]; dst[j + 1] = t } }
			NF == 2 { n++; a[n] = $1; b[n] = $2
				if (better == "higher" ? $2 > $1 : $2 < $1) wins++
				else if ($1 != $2) losses++ }
			END {
				if (n == 0) { printf "%-16s no complete pair\n", metric; exit }
				sorted(a, sa, n); sorted(b, sb, n)
				ma = quantile(sa, n, 0.5); mb = quantile(sb, n, 0.5)
				printf "%-16s base %.4g [%.4g, %.4g]  change %.4g [%.4g, %.4g]  change/base %.3f (base %.4g)  change better in %d/%d pairs, worse in %d (%s is better)\n",
					metric, ma, quantile(sa, n, 0.25), quantile(sa, n, 0.75), mb, quantile(sb, n, 0.25), quantile(sb, n, 0.75),
					ma != 0 ? mb / ma : 0, ma, wins, n, losses, better
			}'
	done
for side in base change; do
	printf '%-7s correct/failed per run:' "$side"
	sed 's/.*"correct":\([a-z]*\).*"failed":\(-\{0,1\}[0-9]*\).*/ \1\/\2/' "$out/$side" | tr -d '\n'
	echo
done
if [ "$bad" -ne 0 ]; then
	echo "bench-pairs: at least one run failed the correctness gate" >&2
	exit 1
fi
