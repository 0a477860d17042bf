#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ inside the current
# checkout and runs it with the arguments given. Everything the Go tool
# writes (build cache, module cache, binary) stays inside the checkout.
set -euo pipefail
root="$PWD"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS=-mod=mod \
       GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0
go build -C "$root/benchmark" -o "$build/sfdbench" .
exec "$build/sfdbench" "$@"
