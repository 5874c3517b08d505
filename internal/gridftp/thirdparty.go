package gridftp

import (
	"fmt"
	"time"

	"gridftp.dev/instant/internal/ftp"
	"gridftp.dev/instant/internal/gsi"
	"gridftp.dev/instant/internal/obs"
)

// DCSCTarget selects which endpoint of a third-party transfer receives a
// DCSC command.
type DCSCTarget int

const (
	// DCSCNone sends no DCSC command (conventional DCAU: both endpoints
	// must trust each other's CA).
	DCSCNone DCSCTarget = iota
	// DCSCSource installs the context on the source (sending) server.
	DCSCSource
	// DCSCDest installs the context on the destination (receiving) server.
	DCSCDest
	// DCSCBoth installs the context on both servers — used with a random
	// self-signed credential for clients that "desire higher security"
	// (§V).
	DCSCBoth
)

// ThirdPartyOptions configure a third-party transfer.
type ThirdPartyOptions struct {
	// Striped requests SPAS/SPOR striped listeners on the destination.
	Striped bool
	// DCSC, when non-nil, is the credential installed per DCSCTarget.
	DCSC       *gsi.Credential
	DCSCTarget DCSCTarget
	// Size, when positive, is the file's size: the destination gets it
	// as ALLO in the same flush as its STOR, so its storage preallocates
	// once instead of growing block by block. A restarted transfer
	// resumes an existing file and sends no ALLO.
	Size int64
	// Restart seeds the transfer with already-received ranges.
	Restart []Range
	// OnMarker receives restart markers from the destination.
	OnMarker func([]Range)
	// Trace, when valid, is forwarded to both endpoints via SITE TRACE so
	// the source's RETR span and the destination's STOR span join the
	// caller's distributed trace. Endpoints without the TRACE feature
	// simply keep rooting their spans locally.
	Trace obs.SpanContext
}

// ThirdPartyResult reports the outcome.
type ThirdPartyResult struct {
	Duration time.Duration
	// Markers holds the last restart markers observed (for retries).
	Markers []Range
}

// ThirdParty performs a third-party transfer: the client directs src to
// send srcPath directly to dst as dstPath — data never touches the client
// (§II.C, §VII of the paper). The destination is the listener, the source
// issues the connects, exactly as the protocol requires.
func ThirdParty(src *Client, srcPath string, dst *Client, dstPath string, opts ThirdPartyOptions) (*ThirdPartyResult, error) {
	// Each endpoint's DCSC and SITE TRACE go out as one pipelined batch.
	srcSetup := SessionSetup{Trace: opts.Trace}
	dstSetup := SessionSetup{Trace: opts.Trace}
	if opts.DCSCTarget == DCSCSource || opts.DCSCTarget == DCSCBoth {
		srcSetup.DCSC = opts.DCSC
	}
	if opts.DCSCTarget == DCSCDest || opts.DCSCTarget == DCSCBoth {
		dstSetup.DCSC = opts.DCSC
	}
	if _, err := src.Configure(srcSetup); err != nil {
		return nil, fmt.Errorf("gridftp: source set-up: %w", err)
	}
	if _, err := dst.Configure(dstSetup); err != nil {
		return nil, fmt.Errorf("gridftp: destination set-up: %w", err)
	}

	// Both endpoints must agree on the data channel parameters; the
	// client has already negotiated them per-session. Passive first: the
	// destination (receiver) listens.
	addrs, err := dst.Passive(opts.Striped)
	if err != nil {
		return nil, fmt.Errorf("gridftp: destination passive: %w", err)
	}
	if err := src.Port(addrs); err != nil {
		return nil, fmt.Errorf("gridftp: source port: %w", err)
	}
	if len(opts.Restart) > 0 {
		marker := FromRanges(opts.Restart).Marker()
		if _, err := dst.cmdExpect("REST", marker, ftp.CodeNeedAccount); err != nil {
			return nil, fmt.Errorf("gridftp: destination REST: %w", err)
		}
		if _, err := src.cmdExpect("REST", marker, ftp.CodeNeedAccount); err != nil {
			return nil, fmt.Errorf("gridftp: source REST: %w", err)
		}
	}

	start := time.Now()
	dst.resetPerf()
	var lastMarkers []Range

	// Issue STOR on the destination and RETR on the source; the replies
	// stream back concurrently on the two control channels.
	size := opts.Size
	if len(opts.Restart) > 0 {
		size = 0
	}
	prologue, err := dst.sendStor(dstPath, size, nil)
	if err != nil {
		return nil, err
	}
	src.countCommand("RETR")
	if err := src.ctrl.Cmd("RETR", "%s", srcPath); err != nil {
		return nil, err
	}

	type final struct {
		reply ftp.Reply
		err   error
	}
	dstCh := make(chan final, 1)
	go func() {
		r, err := dst.finalReply(prologue, func(p ftp.Reply) {
			if ranges := dst.handlePreliminary(p); ranges != nil {
				lastMarkers = ranges
				if opts.OnMarker != nil {
					opts.OnMarker(ranges)
				}
			}
		})
		dstCh <- final{r, err}
	}()
	srcReply, srcErr := src.ctrl.ReadFinalReply(nil)
	dstFinal := <-dstCh

	res := &ThirdPartyResult{Duration: time.Since(start), Markers: lastMarkers}
	if srcErr != nil {
		return res, fmt.Errorf("gridftp: source control channel: %w", srcErr)
	}
	if dstFinal.err != nil {
		return res, fmt.Errorf("gridftp: destination control channel: %w", dstFinal.err)
	}
	if err := srcReply.Err(); err != nil {
		return res, fmt.Errorf("gridftp: source: %w", err)
	}
	if err := dstFinal.reply.Err(); err != nil {
		return res, fmt.Errorf("gridftp: destination: %w", err)
	}
	return res, nil
}
