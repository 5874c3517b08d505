#!/bin/sh
# check.sh — the pre-commit gate: gofmt, build, vet, full test suite, the
# benchmark module's vet and tests, and the race detector on the
# concurrency-heavy packages (the observability registry/tracer/eventlog,
# the continuous profiler, the admin HTTP plane, the GridFTP engine with
# its marker emitters, the hosted transfer service, and the network
# simulator).
#
# Usage: ./scripts/check.sh [extra go-test args]
set -eu
cd "$(dirname "$0")/.."

echo "==> gofmt -l"
unformatted=$(gofmt -l cmd internal)
if [ -n "$unformatted" ]; then
	echo "gofmt: the following files need formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...

echo "==> go test ./..."
go test "$@" ./...

# perfbench/ is its own module (the repository benchmark), so the root
# build never compiles it; vet and test it against this tree too.
echo "==> perfbench: go vet ./... && go test ./..."
(cd perfbench && go vet ./... && go test "$@" ./...)

echo "==> go test -race (obs tree, collector, tenant, streamstats, profile, fleet, admin, gridftp, xio, transfer, netsim, usagestats)"
go test -race "$@" \
	./internal/obs/... \
	./internal/obs/collector/ \
	./internal/obs/tsdb/ \
	./internal/obs/tenant/ \
	./internal/obs/streamstats/ \
	./internal/obs/profile/ \
	./internal/obs/fleet/ \
	./internal/admin/ \
	./internal/gridftp/ \
	./internal/xio/ \
	./internal/transfer/ \
	./internal/netsim/ \
	./internal/usagestats/

echo "OK"
