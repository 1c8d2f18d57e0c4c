#!/usr/bin/env bash
# Builds the repository benchmark from source and runs one workload:
#
#   bash perfbench/run.sh --workload fig6-websearch --seed 1 --seconds 42 --trace 0
#
# Run it from the repository root. The binary, the Go build cache and each
# run's temporary files (fabric caches, checkpoints, profiles, span traces) stay
# under .bench_build/ there. The last line of standard output is the result
# object; see perfbench/README.md.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d internal/harness ] || [ ! -f perfbench/go.mod ]; then
	echo "perfbench: run from the repository root; go.mod, internal/ and perfbench/ are required" >&2
	exit 2
fi

root=$PWD
out=$root/.bench_build
mkdir -p "$out/home"
# Keep every file the go command writes (build cache, module cache, its
# configuration and telemetry) inside the checkout, and never reach a network.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=readonly GOENV=off

(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -workdir "$out" "$@"
