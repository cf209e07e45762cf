#!/bin/sh
# Repo-wide verification: formatting (with simplification), vet, the
# qoslint determinism/durability analyzers, build, the full test suite
# under the race detector, and vet + tests of the qosbench module.
# ROADMAP.md's tier-1 verify line points here.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt -s"
unformatted=$(gofmt -s -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt -s needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet ./..."
go vet ./...

echo "== qoslint ./..."
go run ./cmd/qoslint ./...

echo "== go build ./..."
go build ./...

echo "== go test -race ./..."
go test -race ./...

# The benchmark harness is a module of its own (qosbench/go.mod), so the
# ./... patterns above never compile it; vet and test it here so a deleted
# export it needs fails locally, not only in CI.
echo "== qosbench: go vet ./... && go test ./..."
(cd qosbench && go vet ./... && go test ./...)

echo "== qossim validate internal/scenario/zoo"
go run ./cmd/qossim validate internal/scenario/zoo

echo "OK"
