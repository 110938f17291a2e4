#!/usr/bin/env bash
# ab.sh measures the working tree against a base revision in alternating
# pairs of benchmark runs:
#
#   bash scripts/ab.sh BASE_REV WORKLOAD PAIRS SECONDS
#
# BASE_REV's committed files are exported (git archive, so no worktree is
# registered) to .bench_build/ab-base-<sha>, removed again on exit, and
# each side is built and run by its own benchmark/run.sh with --trace 0
# for SECONDS. Pair k runs the base first when k is odd and second when
# it is even, so a drift of the machine falls on both sides alike. Each side appends its results, one
# JSON line a run, to .bench_build/ab/WORKLOAD/{base,head}.json. At the end
# the script prints WORKLOAD's rows of `benchmark -compare base head` (the
# bounds of BENCHMARK.json) and, per end-to-end metric, in how many pairs
# the head was better and in how many worse; it exits non-zero when
# -compare finds the head worse. Needs git, go and jq.
set -euo pipefail
if [ $# -ne 4 ]; then
	echo "usage: $0 BASE_REV WORKLOAD PAIRS SECONDS" >&2
	exit 2
fi
rev=$1 workload=$2 pairs=$3 seconds=$4
cd "$(dirname "$0")/.."
root=$PWD
sha=$(git rev-parse --verify "$rev^{commit}")
base="$root/.bench_build/ab-base-${sha:0:12}"
out="$root/.bench_build/ab/$workload"
# The base tree goes when the script ends: the CI greps read every file
# under the repository, and a second copy of the sources would trip them.
trap 'rm -rf "$base"' EXIT
rm -rf "$base"
mkdir -p "$base"
git archive "$sha" | tar -x -C "$base"
mkdir -p "$out"
rm -f "$out/base.json" "$out/head.json"

run() { # side directory
	echo "ab: $1 ($2)" >&2
	(cd "$2" && bash benchmark/run.sh --workload "$workload" --seed 1 --seconds "$seconds" \
		--trace 0 -out "$out/spans" -json "$out/$1.json" >/dev/null)
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
