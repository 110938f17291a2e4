#!/usr/bin/env bash
# ab.sh measures the working tree against a base revision in alternating
# pairs of benchmark runs:
#
#   bash scripts/ab.sh BASE_REV WORKLOAD PAIRS SECONDS [SEED]
#
# BASE_REV's committed files are exported (git archive, so no worktree is
# registered) to .bench_build/ab-base-<sha>, removed again on exit, and
# each side is built and run by its own benchmark/run.sh with --trace 0
# for SECONDS at SEED (default 1). Pair k runs the base first when k is
# odd and second when it is even, so a drift of the machine falls on both
# sides alike. Each side appends its results, one JSON line a run, to
# .bench_build/ab/WORKLOAD/{base,head}.json. At the end the script prints
# WORKLOAD's rows of `benchmark -compare base head` (the bounds of
# BENCHMARK.json) and, per end-to-end metric, in how many pairs the head
# was better and in how many worse; it exits non-zero when -compare finds
# the head worse. Each run is its own process group: an
# INT or TERM sent to the script kills the run in progress, build and
# benchmark, before the base tree goes, so no benchmark outlives the
# script. Needs git, go, jq and setsid.
set -euo pipefail
if [ $# -ne 4 ] && [ $# -ne 5 ]; then
	echo "usage: $0 BASE_REV WORKLOAD PAIRS SECONDS [SEED]" >&2
	exit 2
fi
rev=$1 workload=$2 pairs=$3 seconds=$4 seed=${5:-1}
cd "$(dirname "$0")/.."
root=$PWD
sha=$(git rev-parse --verify "$rev^{commit}")
base="$root/.bench_build/ab-base-${sha:0:12}"
out="$root/.bench_build/ab/$workload"
# The base tree goes when the script ends: the CI greps read every file
# under the repository, and a second copy of the sources would trip them.
trap 'rm -rf "$base"' EXIT
child=
stop() {
	if [ -n "$child" ]; then
		kill -TERM -- "-$child" 2>/dev/null || true
		wait "$child" 2>/dev/null || true
	fi
	exit 130
}
trap stop INT TERM
rm -rf "$base"
mkdir -p "$base"
git archive "$sha" | tar -x -C "$base"
mkdir -p "$out"
rm -f "$out/base.json" "$out/head.json"

run() { # side directory
	echo "ab: $1 ($2)" >&2
	# In the background, so that a signal's trap runs at once (bash defers
	# it past a foreground child), and in a session of its own, whose
	# process group the trap kills.
	setsid bash "$2/benchmark/run.sh" --workload "$workload" --seed "$seed" --seconds "$seconds" \
		--trace 0 -out "$out/spans" -json "$out/$1.json" >/dev/null &
	child=$!
	wait "$child"
	child=
}
for k in $(seq 1 "$pairs"); do
	if [ $((k % 2)) -eq 1 ]; then
		run base "$base"
		run head "$root"
	else
		run head "$root"
		run base "$base"
	fi
done

status=0
"$root/.bench_build/benchmark" -compare "$out/base.json" "$out/head.json" |
	awk -v w="$workload" 'NR == 1 || $1 == w' || status=$?
jq -rn --arg w "$workload" --slurpfile spec BENCHMARK.json \
	--slurpfile a "$out/base.json" --slurpfile b "$out/head.json" '
	[$a[] | select(.workload == $w and .trace == 0)] as $A
	| [$b[] | select(.workload == $w and .trace == 0)] as $B
	| $spec[0].end_to_end[] as $m
	| [range(0; [($A | length), ($B | length)] | min) as $k
		| $A[$k].metrics[$m.name].value as $x
		| $B[$k].metrics[$m.name].value as $y
		| select($x != null and $y != null)
		| if $x == $y then "tie"
		  elif ($y < $x) == ($m.better == "lower") then "win"
		  else "loss" end] as $r
	| select($r | length > 0)
	| "\($m.name): head better in \([$r[] | select(. == "win")] | length) of \($r | length) pairs, worse in \([$r[] | select(. == "loss")] | length)"'
exit $status
