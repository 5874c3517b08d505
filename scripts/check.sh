#!/bin/sh
# check.sh — the pre-commit gate: gofmt, build, vet, full test suite, the
# benchmark module's vet and tests, and the race detector on the
# concurrency-heavy packages (the observability tree with the continuous
# profiler, the admin HTTP plane, the GridFTP engine with its marker
# emitters and data-channel endpoint, the hosted transfer service, the
# network simulator, and the three-process integration tests whose session
# pairs negotiate both legs concurrently), once more at GOMAXPROCS=1 for the
# GridFTP engine, the transfer service and the integration tests.
#
# Setting CHECK_CONTENTION=N adds an opt-in stage that runs the packages
# whose tests have flaked under load N times at GOMAXPROCS=1, four test
# binaries at once; the default run does not include it.
#
# Usage: [CHECK_CONTENTION=N] ./scripts/check.sh [extra go-test args]
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

echo "==> go test -race (obs tree, admin, gridftp, xio, transfer, netsim, usagestats, integration)"
go test -race "$@" \
	./internal/obs/... \
	./internal/admin/ \
	./internal/gridftp/ \
	./internal/xio/ \
	./internal/transfer/ \
	./internal/netsim/ \
	./internal/usagestats/ \
	./internal/integration/

# One P and repeated runs reorder the data-channel accept pumps, the
# handshake goroutines and the receive's seal against each other.
echo "==> GOMAXPROCS=1 go test -race -count=3 (gridftp, transfer, integration)"
GOMAXPROCS=1 go test -race -count=3 "$@" ./internal/gridftp/ ./internal/transfer/ ./internal/integration/

if [ -n "${CHECK_CONTENTION:-}" ]; then
	echo "==> GOMAXPROCS=1 go test -count=$CHECK_CONTENTION -p 4 (contention: baseline, myproxy, integration, gridftp)"
	# A cached pass from an earlier run says nothing about this one.
	go clean -testcache
	GOMAXPROCS=1 go test -count="$CHECK_CONTENTION" -p 4 "$@" \
		./internal/baseline/ ./internal/myproxy/ ./internal/integration/ ./internal/gridftp/
fi

echo "OK"
