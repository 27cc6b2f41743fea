#!/usr/bin/env bash
# Alternating parent/change pairs of one benchmark workload. Both commits
# are exported with git archive into one temporary directory (no worktree:
# the checkout's .git is left alone), each side's benchmark/run.sh runs N
# times at the benchmark's run length, alternating which side goes first,
# and one JSON line per pair is appended to BENCH_pairs.jsonl at the
# repository root: both commits, the workload, the seed, the order and
# each side's result line. Ends with every end-to-end metric's median and
# quartiles per side, the gap between the medians against the spread
# between the parent's quartiles, and the pairs the change won by that
# metric's direction.
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
	# q(p): the p-quantile of the non-null values, linear between ranks;
	# q(0.5) is the median.
	def q(p): map(select(. != null)) | sort |
		if length == 0 then null
		else ((length - 1) * p) as $pos | ($pos | floor) as $i |
			.[$i] + (.[[$i + 1, length - 1] | min] - .[$i]) * ($pos - $i) end;
	def r: if . == null then "-" else . * 10000 | round / 10000 end;
	. as $pairs |
	"metric\tparent median [p25, p75]\tchange median [p25, p75]\tmedian gap\tparent p75-p25\tgap > spread\tchange won",
	($spec[0].end_to_end[] | .name as $k | .better as $b |
		[$pairs[] | [.parent.result.metrics[$k].value, .change.result.metrics[$k].value] |
			select(.[0] != null and .[1] != null) |
			select(if $b == "lower" then .[1] < .[0] else .[1] > .[0] end)] as $won |
		[$pairs[].parent.result.metrics[$k].value] as $p |
		[$pairs[].change.result.metrics[$k].value] as $c |
		(if ($p | q(0.5)) == null or ($c | q(0.5)) == null then null
		 else ($c | q(0.5)) - ($p | q(0.5)) end) as $gap |
		(if ($p | q(0.5)) == null then null else ($p | q(0.75)) - ($p | q(0.25)) end) as $spread |
		"\($k)\t\($p | q(0.5) | r) [\($p | q(0.25) | r), \($p | q(0.75) | r)]\t\($c | q(0.5) | r) [\($c | q(0.25) | r), \($c | q(0.75) | r)]\t\($gap | r)\t\($spread | r)\t\(if $gap == null then "-" elif ($gap | fabs) > $spread then "yes" else "no" end)\t\($won | length) of \($pairs | length)"),
	"failed\t\([$pairs[].parent.result.failed] | add)\t\([$pairs[].change.result.failed] | add)\t-\t-\t-\t-"
' "$tmp/pairs.jsonl"
