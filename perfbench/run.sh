#!/usr/bin/env bash
# run.sh — build ppserve and the perfbench program from this checkout, then
# run one benchmark workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload analyze-mix --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run leave behind (Go build cache, binaries,
# per-run scratch directories) stays under .bench_build/ in the checkout.
# Without the repository's sources next to perfbench/ it fails at once.
set -euo pipefail

root="$(pwd)"
if [ ! -f "$root/perfbench/go.mod" ] || [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/ppserve" ]; then
  echo "run.sh: run from the root of a repository checkout (need go.mod, cmd/ppserve and perfbench/)" >&2
  exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/gocache" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
  TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
  GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOTELEMETRY=off

go build -o "$build/bin/ppserve" ./cmd/ppserve
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" -ppserve "$build/bin/ppserve" -workdir "$build/tmp" "$@"
