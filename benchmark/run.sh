#!/usr/bin/env bash
# run.sh — the repo benchmark's one command (BENCHMARK.json "command").
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   bash benchmark/run.sh -workload all -sets 2 [-out benchmark/out]
#
# Every invocation compiles a fresh binary from the checkout's sources
# into .bench_build/ under a name no earlier run used (SNIPPETS #3: a
# stale binary is how benchmarks lie), runs it with the given
# arguments, and removes it. The Go build cache lives in .bench_build/
# too, so nothing is read or written outside the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"

# HOME too: the go command keeps its telemetry counters under it.
export HOME="$build/home" GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOENV=off
commit="$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
built="$(date -u +%Y-%m-%dT%H:%M:%SZ)"

# mktemp -u: the name must not exist yet — the build creates it, and an
# existing file under that name is never reused.
bin="$(mktemp -u "$build/milr-benchmark.XXXXXXXX")"
trap 'rm -f "$bin"' EXIT
go -C "$here" build -o "$bin" -ldflags "-X main.commit=$commit -X main.buildTime=$built" .

cd "$root"
"$bin" "$@"
