#!/bin/sh
# Repo-wide verification: formatting (with simplification), vet, the
# qoslint determinism/durability analyzers, build, the full test suite
# under the race detector, vet + tests of the qosbench module, and the
# full-scale sweep against its archive.
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

# EXPERIMENTS.md quotes docs/sweep_full.txt: the full-scale sweep must
# reproduce it byte for byte. After an intentional change, re-record it
# with the same command and explain the diff.
echo "== qossweep -exp all vs docs/sweep_full.txt"
sweep=$(mktemp)
trap 'rm -f "$sweep"' EXIT
go run ./cmd/qossweep -exp all >"$sweep"
if ! cmp "$sweep" docs/sweep_full.txt; then
    echo "qossweep -exp all no longer matches docs/sweep_full.txt:" >&2
    diff "$sweep" docs/sweep_full.txt >&2 || true
    exit 1
fi

echo "OK"
