#!/usr/bin/env bash
# bench.sh — run the benchmark suite with -benchmem and record a JSON
# snapshot of ns/op, B/op, allocs/op and the custom figure metrics, so the
# repository's performance trajectory is tracked in version control.
#
# Usage: scripts/bench.sh [label]
#        scripts/bench.sh --perfbench WORKLOAD [label] [run.sh options...]
#
#   label               tag stored with the run (default: "snapshot")
#
# The --perfbench mode runs the repository benchmark instead,
#   bash perfbench/run.sh --workload WORKLOAD --seed 1 --seconds 10 --trace 0
# (later run.sh options override these defaults), and records its JSON
# result line with the commit, host CPUs and GOMAXPROCS. Setting
# CHECKOUT=dir runs perfbench in another checkout (e.g. a clone of the
# parent commit) and records that checkout's commit, so alternating
# before/after runs land in one file:
#
#   CHECKOUT=../parent scripts/bench.sh --perfbench sim-memory before
#   scripts/bench.sh --perfbench sim-memory after
#
# Environment overrides:
#   BENCH_RE=regex      which benchmarks to run (default: all, -bench .)
#   BENCHTIME=value     -benchtime per benchmark (default: 1x)
#   OUT=path            output file (default: BENCH_<YYYY-MM-DD>.json)
#   CHECKOUT=dir        checkout perfbench runs in (default: this one)
#
# If OUT already exists, the new run is appended to its "runs" array, so
# before/after comparisons (e.g. around an optimization) live in one file:
#
#   scripts/bench.sh pre-change
#   ... hack ...
#   scripts/bench.sh post-change
#
# Compare two runs with jq, e.g.:
#   jq '.runs[] | {label, f11: (.benchmarks[] | select(.name|test("Figure11"))
#       | .metrics | {"ns/op", "allocs/op"})}' BENCH_<date>.json
set -euo pipefail
cd "$(dirname "$0")/.."

command -v jq >/dev/null || { echo "bench.sh: jq is required" >&2; exit 1; }

out="$(realpath -m "${OUT:-BENCH_$(date +%Y-%m-%d).json}")"

# append_run adds one run object to the "runs" array of $out.
append_run() {
	if [ -f "$out" ]; then
		jq --argjson run "$1" '.runs += [$run]' "$out" > "$out.tmp" && mv "$out.tmp" "$out"
	else
		jq -n --argjson run "$1" '{runs: [$run]}' > "$out"
	fi
}

if [ "${1:-}" = "--perfbench" ]; then
	workload="${2:?usage: scripts/bench.sh --perfbench WORKLOAD [label] [run.sh options...]}"
	label="${3:-snapshot}"
	shift $(( $# < 3 ? $# : 3 ))
	cd "${CHECKOUT:-.}"
	args=(--workload "$workload" --seed 1 --seconds 10 --trace 0 "$@")
	echo "bench.sh: bash perfbench/run.sh ${args[*]} (in $(pwd))" >&2
	result="$(bash perfbench/run.sh "${args[@]}" | tail -n 1)"
	run_json=$(jq -n \
		--arg runlabel "$label" \
		--arg date "$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
		--arg go "$(go version | sed 's/^go version //')" \
		--arg commit "$(git describe --always --dirty)" \
		--argjson cpus "$(nproc --all)" \
		--argjson gomaxprocs "${GOMAXPROCS:-$(nproc)}" \
		--arg workload "$workload" \
		--arg args "${args[*]}" \
		--argjson result "$result" \
		'{"label": $runlabel, "date": $date, "go": $go, "commit": $commit,
		  "host_cpus": $cpus, "gomaxprocs": $gomaxprocs,
		  "perfbench": {"workload": $workload, "args": $args, "result": $result}}')
	append_run "$run_json"
	echo "bench.sh: wrote $out (label: $label, workload: $workload)" >&2
	exit 0
fi

label="${1:-snapshot}"
bench_re="${BENCH_RE:-.}"
benchtime="${BENCHTIME:-1x}"

raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

echo "bench.sh: go test -bench '$bench_re' -benchtime $benchtime ..." >&2
go test -run '^$' -bench "$bench_re" -benchmem -benchtime "$benchtime" . | tee "$raw" >&2

# Benchmark lines are: name, iteration count, then value/unit pairs
# (ns/op, B/op, allocs/op, and any b.ReportMetric custom metrics).
run_json=$(awk '
	/^Benchmark/ {
		name = $1
		sub(/-[0-9]+$/, "", name) # strip the GOMAXPROCS suffix
		printf "{\"name\":\"%s\",\"iterations\":%s,\"metrics\":{", name, $2
		sep = ""
		for (i = 3; i + 1 <= NF; i += 2) {
			printf "%s\"%s\":%s", sep, $(i+1), $i
			sep = ","
		}
		print "}}"
	}
' "$raw" | jq -s \
	--arg runlabel "$label" \
	--arg date "$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
	--arg go "$(go version | sed 's/^go version //')" \
	--arg benchtime "$benchtime" \
	'{"label": $runlabel, "date": $date, "go": $go, "benchtime": $benchtime, "benchmarks": .}')

if [ "$(echo "$run_json" | jq '.benchmarks | length')" -eq 0 ]; then
	echo "bench.sh: no benchmarks matched '$bench_re'" >&2
	exit 1
fi

append_run "$run_json"
echo "bench.sh: wrote $out (label: $label)" >&2
