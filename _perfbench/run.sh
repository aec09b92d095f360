#!/usr/bin/env bash
# Builds cmd/serve, cmd/pipeline and perfbench from the source tree in
# the current directory (the repository root), then runs perfbench with
# the given arguments. Every build and run artifact stays
# under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local GOPROXY=off GOENV=off GOWORK=off GOFLAGS=-buildvcs=false CGO_ENABLED=0
# The go command's temporary build directories and its telemetry files.
export TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"

mkdir -p "$out/bin" "$TMPDIR" "$XDG_CONFIG_HOME"
go build -o "$out/bin/serve" ./cmd/serve >&2
go build -o "$out/bin/pipeline" ./cmd/pipeline >&2
(cd "$root/_perfbench" && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" -bin "$out/bin" -work "$out/work" "$@"
