#!/bin/bash
# Builds the harness from the checkout's sources and runs it. Build
# outputs, the Go caches and the checkpoint directories all stay under
# .bench_build in the checkout, which .gitignore names.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
(cd "$root/bench" && go build -o "$out/bench" .)
exec "$out/bench" -ckptdir "$out/ckpt" "$@"
