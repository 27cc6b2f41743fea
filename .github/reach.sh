#!/usr/bin/env bash
# Traffic map: builds every entry point (benchmark, the four commands, the
# examples) with coverage over repro/..., runs each at smoke size into one
# GOCOVERDIR, and fails on a function of internal/ or api.go that none of
# them executed and .github/reach.allow does not name.
set -euo pipefail
cd "$(dirname "$0")/.."
tmp=$(mktemp -d) && trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/bin" "$tmp/cov" && export GOCOVERDIR="$tmp/cov" GOFLAGS=-buildvcs=false
go build -cover -coverpkg=repro/... -o "$tmp/bin/" ./cmd/... ./examples/...
(cd benchmark && go build -cover -coverpkg=repro/... -o "$tmp/bin/benchmark" .)
for w in net_point embed_path net_pred durable_write advise; do
	(cd benchmark && "$tmp/bin/benchmark" -workload $w -seed 1 -seconds 2 -trace 1 >/dev/null)
done
"$tmp/bin/ixbench" -run all -ops 300 -out "$tmp/h.jsonl" >/dev/null
"$tmp/bin/ixselect" -example | "$tmp/bin/ixselect" -json >/dev/null
for ex in examples/*/; do "$tmp/bin/$(basename "$ex")" >/dev/null; done
# ixserved under ixstress: in-memory, in-memory sharded, durable and sharded
# durable, the last two a second time so that they recover what they wrote.
for mode in "" "-shards 2" "-dir $tmp/d1" "-dir $tmp/d1" "-dir $tmp/d2 -shards 2" "-dir $tmp/d2 -shards 2"; do
	"$tmp/bin/ixserved" -addr 127.0.0.1:7395 -checkevery 500 -paths 2=Person.age $mode 2>/dev/null &
	for try in $(seq 50); do
		"$tmp/bin/ixstress" -addr 127.0.0.1:7395 -conns 4 -ops 300 -write 0.2 -pred 0.3 >/dev/null 2>&1 && break
		sleep 0.2
	done
	kill -TERM $! && wait $!
done
# "file.go:Recv.Func percent" for every function in scope; then the 0 % ones.
go tool covdata func -i="$tmp/cov" | awk '$1 ~ /^repro\/(internal\/|api\.go)/ {
	split($1, f, ":"); print f[1] ":" $2, $NF }' | sort -u >"$tmp/all"
allow() { sed 's/[[:space:]]*#.*//; /^$/d' .github/reach.allow; }
dead=$(awk '$2 == "0.0%" { print $1 }' "$tmp/all" | grep -vxFf <(allow) || true)
[ -z "$dead" ] || { echo "reached by no entry point and not in .github/reach.allow:" && echo "$dead" && exit 1; }
gone=$(allow | grep -vxFf <(cut -d' ' -f1 "$tmp/all") || true)
[ -z "$gone" ] || { echo ".github/reach.allow names no function:" && echo "$gone" && exit 1; }
echo "reach: $(grep -c ' 0.0%$' "$tmp/all") of $(wc -l <"$tmp/all") functions unreached, all allowlisted"
