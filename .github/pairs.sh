#!/usr/bin/env bash
# Alternating parent/change pairs of one benchmark workload. Both commits
# are exported with git archive into one temporary directory (no worktree:
# the checkout's .git is left alone), each side's benchmark/run.sh runs N
# times at the benchmark's run length, alternating which side goes first,
# and one JSON line per pair is appended to BENCH_pairs.jsonl at the
# repository root: both commits, the workload, the seed, the order and
# each side's result line. Ends with every end-to-end metric's median per
# side and the pairs the change won by that metric's direction.
#
#   bash .github/pairs.sh PARENT CHANGE WORKLOAD N [SEED]   # SEED: 42
set -euo pipefail
if [ $# -lt 4 ] || [ $# -gt 5 ]; then
	echo "usage: $0 PARENT CHANGE WORKLOAD N [SEED]" >&2
	exit 2
fi
cd "$(dirname "$0")/.."
parent=$(git rev-parse --verify "$1^{commit}")
change=$(git rev-parse --verify "$2^{commit}")
workload=$3 n=$4 seed=${5:-42}
tmp=$(mktemp -d) && trap 'rm -rf "$tmp"' EXIT
for side in parent change; do
	mkdir "$tmp/$side"
	git archive "${!side}" | tar -x -C "$tmp/$side"
done
run() { # side: the benchmark's last output line, its result as JSON
	bash "$tmp/$1/benchmark/run.sh" -workload "$workload" -seed "$seed" | tail -n 1
}
for i in $(seq "$n"); do
	if ((i % 2)); then
		order=parent_first
		p=$(run parent)
		c=$(run change)
	else
		order=change_first
		c=$(run change)
		p=$(run parent)
	fi
	jq -cn --arg w "$workload" --argjson seed "$seed" --arg order "$order" \
		--arg pc "$parent" --arg cc "$change" --argjson p "$p" --argjson c "$c" \
		'{workload: $w, seed: $seed, order: $order,
		  parent: {commit: $pc, result: $p}, change: {commit: $cc, result: $c}}' |
		tee -a "$tmp/pairs.jsonl" >>BENCH_pairs.jsonl
	echo "pair $i of $n ($order) appended" >&2
done
jq -rs --slurpfile spec BENCHMARK.json '
	def median: map(select(. != null)) | sort |
		if length == 0 then "-" elif length % 2 == 1 then .[length / 2 | floor]
		else (.[length / 2 - 1] + .[length / 2]) / 2 end;
	. as $pairs |
	"metric\tparent median\tchange median\tchange won",
	($spec[0].end_to_end[] | .name as $k | .better as $b |
		[$pairs[] | [.parent.result.metrics[$k].value, .change.result.metrics[$k].value] |
			select(.[0] != null and .[1] != null) |
			select(if $b == "lower" then .[1] < .[0] else .[1] > .[0] end)] as $won |
		"\($k)\t\([$pairs[].parent.result.metrics[$k].value] | median)\t\([$pairs[].change.result.metrics[$k].value] | median)\t\($won | length) of \($pairs | length)"),
	"failed\t\([$pairs[].parent.result.failed] | add)\t\([$pairs[].change.result.failed] | add)\t-"
' "$tmp/pairs.jsonl"
