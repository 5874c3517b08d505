package gridftp

import (
	"errors"
	"testing"

	"gridftp.dev/instant/internal/gsi"
)

// TestTransferRecordAllocFreeWithoutTelemetry pins the cost of the
// completion record on a server with no Obs, Tenants or Usage — the
// configuration the data-path benchmarks run — at zero allocations for
// both outcomes.
func TestTransferRecordAllocFreeWithoutTelemetry(t *testing.T) {
	sess := &session{
		srv:       &Server{},
		identity:  &gsi.VerifiedIdentity{Identity: "/CN=alice"},
		localUser: "alice",
	}
	failed := errors.New("aborted")
	for _, err := range []error{nil, failed} {
		allocs := testing.AllocsPerRun(100, func() {
			rec := sess.beginTransfer("STOR", "/f", -1)
			rec.end(1<<20, err)
		})
		if allocs != 0 {
			t.Errorf("begin+end with err=%v: %v allocs, want 0", err, allocs)
		}
	}
}
