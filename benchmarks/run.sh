#!/usr/bin/env bash
# Build spine and run the benchmark from the repository root.
#
#   benchmarks/run.sh [-seed N] [-repeat K]
#       every workload, each pass in its own process: the measured pass (end-to-end
#       metrics, tracing off) and then the traced pass (per-layer metrics, spans).
#       Results land in benchmarks/out/<workload>.json and trace_<workload>.json.
#       -repeat K runs the measured passes K times (seeds N..N+K-1) first and
#       prints each metric's quartiles and spread beside its bound.
#
#   benchmarks/run.sh --workload W --seed N --seconds S --trace 0|1
#       one pass, as the driver calls it; the last line of output is its JSON.
#
# Everything the build leaves behind goes to .bench_build/, everything a run
# leaves behind to benchmarks/out/; both are ignored by git.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f go.mod ]; then
	echo "run.sh: no go.mod next to benchmarks/; spine imports the repository's internal packages" >&2
	exit 2
fi

# The go command keeps its cache, module path, temp files and telemetry
# counters under .bench_build/ too: a run writes nothing outside the checkout.
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOENV=off
# benchmarks/ is a module of its own (benchmarks/go.mod) that replaces the
# graphit module with the checkout it sits in.
go -C benchmarks build -o "$build/spine" ./spine
SPINE_COMMIT=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
export SPINE_COMMIT
spine="$build/spine"
out=benchmarks/out

case "${1:-}" in
--workload | -workload | --workload=* | -workload=*)
	exec "$spine" -out "$out" "$@"
	;;
esac

seed=1
repeat=0
while [ $# -gt 0 ]; do
	case "$1" in
	-seed | --seed) seed=$2; shift 2 ;;
	-repeat | --repeat) repeat=$2; shift 2 ;;
	*) echo "usage: benchmarks/run.sh [-seed N] [-repeat K]" >&2; exit 2 ;;
	esac
done

workloads="road_nav social_hot social_churn paper_suite"
# The human-readable lines are for the terminal; the driver's JSON line is not.
show() { grep -v '^{' || true; }

if [ "$repeat" -gt 0 ]; then
	rm -rf "$out/repeat"
	for i in $(seq 1 "$repeat"); do
		for w in $workloads; do
			"$spine" -out "$out/repeat/rep$i" -workload "$w" -seed $((seed + i - 1)) -trace 0 | show
		done
	done
	"$spine" -summarize "$out/repeat"
fi
for w in $workloads; do
	"$spine" -out "$out" -workload "$w" -seed "$seed" -trace 0 | show
done
for w in $workloads; do
	"$spine" -out "$out" -workload "$w" -seed "$seed" -trace 1 | show
done
