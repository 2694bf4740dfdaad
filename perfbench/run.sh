#!/usr/bin/env bash
# Builds cmd/sidqserve and the perfbench command from source, then runs
# perfbench. Run it from the root of a sidq checkout:
#
#	bash perfbench/run.sh --workload stream-durable --seed 1 --seconds 30 --trace 0
#
# Every build product, Go cache and temporary file stays under
# .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config/go/telemetry"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOPROXY=off GOWORK=off GOTOOLCHAIN=local GOFLAGS=
# With telemetry in its default "local" mode, the go command forks a
# detached sidecar process that outlives it. Turn telemetry off so that
# every process this script starts has ended when it exits.
echo off >"$out/config/go/telemetry/mode"

go build -o "$out/sidqserve" ./cmd/sidqserve
go -C perfbench build -o "$out/perfbench" .
# go build rewrites both binaries on every run; flush them to disk now,
# so that their writeback does not land in the measured run.
sync "$out/sidqserve" "$out/perfbench"
exec "$out/perfbench" -server-bin "$out/sidqserve" -work "$out" "$@"
