#!/usr/bin/env bash
# Builds lrmserve and the benchmark program from this checkout and runs
# one benchmark run; arguments pass through to the program, e.g.
#   bash servebench/run.sh --workload warm-dense --seed 1 --seconds 10 --trace 0
# Everything it writes (build cache, binaries, temp dirs, traces) stays
# under .bench_build in the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/tmp" "$build/config" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
# The go command's config (and its local telemetry) and GOPATH go under
# the checkout too.
export XDG_CONFIG_HOME="$build/config" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
# With telemetry on (its default is local), a go command may start a
# detached telemetry process that outlives this run; turning it off in
# the config dir above stops every later go command here from doing so.
go telemetry off
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/lrmserve" ]; then
  echo "servebench: no lrmserve source under $root" >&2
  exit 1
fi
(cd "$root"&& go build -o "$build/bin/lrmserve" ./cmd/lrmserve)
(cd "$here" && go build -o "$build/bin/servebench" .)
cd "$root"
exec "$build/bin/servebench" -root "$root" -server "$build/bin/lrmserve" "$@"
