package gridftp

import (
	"fmt"
	"net"
	"strings"
	"time"

	"gridftp.dev/instant/internal/dsi"
	"gridftp.dev/instant/internal/ftp"
	"gridftp.dev/instant/internal/netsim"
	"gridftp.dev/instant/internal/obs"
	"gridftp.dev/instant/internal/obs/eventlog"
	"gridftp.dev/instant/internal/obs/streamstats"
	"gridftp.dev/instant/internal/usagestats"
	"gridftp.dev/instant/internal/xio"
)

// deflateDriver is the shared MODE E compression driver: one instance,
// because its flate writer/reader pools are what make per-channel
// compression affordable on channel-caching workloads.
var deflateDriver = &xio.DeflateDriver{}

// maybeDeflate layers DEFLATE over a secured channel when the session
// negotiated "OPTS RETR Deflate=1;". Compression sits above the security
// layer (compress-then-encrypt) and below the MODE E framing, so block
// headers and payload travel as one continuous DEFLATE stream that
// survives pooled-channel reuse.
func maybeDeflate(sec net.Conn, on bool) net.Conn {
	if !on {
		return sec
	}
	return deflateDriver.Wrap(sec)
}

func msDuration(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }

// handlePassive opens listener(s) and reports their addresses. For a
// striped server, SPAS opens one listener per stripe node (§II.B); PASV
// opens a single listener on the PI host.
func (sess *session) handlePassive(striped bool) {
	hosts := []*netsim.Host{sess.srv.host}
	if striped && len(sess.srv.cfg.StripeNodes) > 0 {
		hosts = sess.srv.stripeHosts()
	}
	addrs, err := sess.listen(hosts)
	if err != nil {
		sess.reply(ftp.CodeCantOpenData, errText(err))
		return
	}
	if striped {
		lines := append([]string{"Entering Striped Passive Mode"}, addrs...)
		lines = append(lines, "End")
		sess.reply(ftp.CodeEnteringExtPasv, lines...)
		return
	}
	sess.reply(ftp.CodeEnteringPassive, fmt.Sprintf("Entering Passive Mode (%s)", addrs[0]))
}

// handlePort records the remote data address(es) for active transfers.
func (sess *session) handlePort(params string, striped bool) {
	addrs := strings.Fields(params)
	if len(addrs) == 0 {
		sess.reply(ftp.CodeParamSyntaxError, "No data address given")
		return
	}
	if !striped && len(addrs) > 1 {
		sess.reply(ftp.CodeParamSyntaxError, "PORT takes one address (use SPOR)")
		return
	}
	for _, a := range addrs {
		if _, _, err := net.SplitHostPort(a); err != nil {
			sess.reply(ftp.CodeParamSyntaxError, "Bad data address "+a)
			return
		}
	}
	// PORT replaces only the dial targets and the channels dialed to
	// them: the listeners and their accepted channels still serve STOR.
	sess.dialTo(addrs)
	sess.reply(ftp.CodeOK, "Data address(es) accepted")
}

// setup is what the session's next data channels are secured with.
func (sess *session) setup() channelSetup {
	return channelSetup{spec: sess.spec, ctx: sess.dataContext()}
}

// requireDataAuth checks the DCAU prerequisites before a transfer.
func (sess *session) requireDataAuth() bool {
	if sess.spec.DCAU == DCAUNone {
		return true
	}
	if sess.dataContext() == nil {
		sess.reply(ftp.CodeNotLoggedIn,
			"Data channel authentication requires a delegated credential or DCSC context")
		return false
	}
	return true
}

// handleRetr sends a file. off/length >= 0 restrict to a region (ERET).
func (sess *session) handleRetr(params string, off, length int64) {
	p, err := sess.resolve(params)
	if err != nil {
		sess.reply(ftp.CodeBadFileName, errText(err))
		return
	}
	if !sess.requireDataAuth() {
		return
	}
	f, err := sess.srv.cfg.Storage.Open(sess.localUser, p)
	if err != nil {
		sess.reply(ftp.CodeFileUnavailable, errText(err))
		return
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil {
		sess.reply(ftp.CodeLocalError, errText(err))
		return
	}
	var ranges []Range
	switch {
	case off >= 0:
		end := off + length
		if end > size {
			end = size
		}
		if off > size {
			off = size
		}
		ranges = []Range{{off, end}}
	case len(sess.restart) > 0:
		ranges = FromRanges(sess.restart).Missing(size)
		sess.restart = nil
	default:
		ranges = []Range{{0, size}}
	}

	sess.cmdSpan.SetAttr("path", p)
	sess.cmdSpan.SetAttr("size", size)
	// In MODE E the sender connects, so RETR dials whenever PORT/SPOR
	// gave targets; in stream mode the last of PASV/PORT decides.
	dial := sess.portLast
	if sess.spec.Mode == ModeExtended {
		dial = len(sess.targets) > 0
	}
	est := sess.cmdSpan.Child("gridftp.data.establish")
	chans, err := sess.establish(sess.spec.Parallelism, sess.setup(), dial)
	est.SetError(err)
	est.End()
	if err != nil {
		sess.reply(ftp.CodeCantOpenData, errText(err))
		return
	}
	sess.reply(ftp.CodeFileStatusOK, fmt.Sprintf("Opening data connection for %s (%d bytes)", p, size))
	rec := sess.beginTransfer("RETR", p, size)
	var sendErr error
	var tracker *streamstats.Transfer
	if sess.spec.Mode == ModeExtended {
		// Emit in-flight 112 performance markers (per-stripe bytes sent)
		// while the send runs; the final set is flushed before the
		// completion reply so the last marker carries the end totals.
		perf := &perfTracker{}
		perfStop := make(chan struct{})
		perfDone := make(chan struct{})
		go func() {
			defer close(perfDone)
			perfEmitter(perf, sess.markerInterval(), sess.emitPerf, perfStop)
		}()
		tracker = sess.streams.Begin(sess.streamLabel("RETR"), "RETR")
		sendErr = send(tracker, chans, f, ranges, sess.spec.BlockSize, perf.add)
		close(perfStop)
		<-perfDone
	} else {
		from := int64(0)
		if len(ranges) > 0 {
			from = ranges[0].Start
		}
		sendErr = sendStream(chans[0].sec, f, from, size, sess.spec.BlockSize)
	}
	sendErr = sess.retire(tracker, chans, sess.spec.Mode, sendErr)
	rec.end(totalLen(ranges), sendErr)
	sess.replyTransfer(sendErr)
}

// handleStor receives a file, emitting restart markers while it runs.
func (sess *session) handleStor(params string) {
	p, err := sess.resolve(params)
	if err != nil {
		sess.reply(ftp.CodeBadFileName, errText(err))
		return
	}
	if !sess.requireDataAuth() {
		return
	}
	restart := sess.restart
	sess.restart = nil
	var f dsi.File
	if len(restart) > 0 {
		// Resuming: keep existing contents.
		f, err = sess.srv.cfg.Storage.Open(sess.localUser, p)
		if err != nil {
			f, err = sess.srv.cfg.Storage.Create(sess.localUser, p)
		}
	} else {
		f, err = sess.srv.cfg.Storage.Create(sess.localUser, p)
	}
	if err != nil {
		sess.reply(ftp.CodeFileUnavailable, errText(err))
		return
	}
	defer f.Close()
	if hint := sess.alloHint; hint > 0 {
		sess.alloHint = 0
		preallocate(f, hint)
	}

	sess.cmdSpan.SetAttr("path", p)
	if sess.spec.Mode == ModeStream {
		est := sess.cmdSpan.Child("gridftp.data.establish")
		chans, err := sess.establish(1, sess.setup(), sess.portLast)
		est.SetError(err)
		est.End()
		if err != nil {
			sess.reply(ftp.CodeCantOpenData, errText(err))
			return
		}
		sess.reply(ftp.CodeFileStatusOK, "Opening data connection")
		rec := sess.beginTransfer("STOR", p, -1)
		offset := int64(0)
		if len(restart) == 1 && restart[0].Start == 0 {
			offset = restart[0].End
		}
		n, recvErr := recvStream(chans[0].sec, f, offset, sess.spec.BlockSize)
		closeChannels(chans)
		rec.end(n, recvErr)
		sess.replyTransfer(recvErr)
		return
	}

	// MODE E receive with restart markers. The sender connects, so the
	// receiver takes pooled channels first, then fresh ones off the
	// listeners.
	in, err := sess.receive(sess.setup(), sess.streamLabel("STOR"), "STOR")
	if err != nil {
		sess.reply(ftp.CodeCantOpenData, errText(err))
		return
	}
	received := FromRanges(restart)
	sess.reply(ftp.CodeFileStatusOK, "Opening data connection")
	rec := sess.beginTransfer("STOR", p, -1)

	stop := make(chan struct{})
	markerDone := make(chan struct{})
	// Capture the command span before launching the marker goroutine: it
	// must not read sess.cmdSpan concurrently with the command loop.
	cmdSpan := sess.cmdSpan
	go func() {
		defer close(markerDone)
		markerEmitter(received, sess.markerInterval(), func(m string) {
			sess.reply(ftp.CodeRestartMarker, "Range Marker "+m)
			// Each restart marker is a durable checkpoint: record it so
			// /debug/events shows how far a later resume could pick up.
			kv := []any{"component", "gridftp-server", "session", sess.id,
				"path", p, "ranges", m}
			sess.srv.cfg.Obs.EventLog().Append(eventlog.Checkpoint, traceFields(kv, cmdSpan)...)
		}, stop)
	}()
	// Performance markers ride alongside restart markers: restart markers
	// carry *which ranges* landed (for checkpointing), perf markers carry
	// *per-stripe throughput counters* (for in-flight monitoring).
	perf := &perfTracker{}
	perfDone := make(chan struct{})
	go func() {
		defer close(perfDone)
		perfEmitter(perf, sess.markerInterval(), sess.emitPerf, stop)
	}()
	res := recvModeE(in.accept, f, received, sess.spec.BlockSize, perf.add, in.cancel)
	close(stop)
	<-markerDone
	<-perfDone
	res.Err = in.end(res.Err)
	rec.end(res.Received.Covered(), res.Err)
	sess.replyTransfer(res.Err)
}

func (sess *session) markerInterval() time.Duration {
	if sess.spec.MarkerInterval > 0 {
		return sess.spec.MarkerInterval
	}
	return sess.srv.cfg.MarkerInterval
}

// handleMlsd streams a machine-readable directory listing over a fresh,
// uncached data connection (stream mode regardless of session mode).
func (sess *session) handleMlsd(params string) {
	p, err := sess.resolve(params)
	if err != nil {
		sess.reply(ftp.CodeBadFileName, errText(err))
		return
	}
	infos, err := sess.srv.cfg.Storage.List(sess.localUser, p)
	if err != nil {
		sess.reply(ftp.CodeFileUnavailable, errText(err))
		return
	}
	if !sess.requireDataAuth() {
		return
	}
	sess.flush() // MLSD never reuses transfer channels
	chans, err := sess.establish(1, sess.setup(), sess.portLast)
	if err != nil {
		sess.reply(ftp.CodeCantOpenData, errText(err))
		return
	}
	sess.reply(ftp.CodeFileStatusOK, "Opening data connection for MLSD")
	var listing strings.Builder
	for _, fi := range infos {
		listing.WriteString(mlstFacts(fi))
		listing.WriteString("\r\n")
	}
	_, werr := chans[0].sec.Write([]byte(listing.String()))
	if hc, ok := chans[0].sec.(interface{ CloseWrite() error }); ok && werr == nil {
		werr = hc.CloseWrite()
	}
	closeChannels(chans)
	if werr != nil {
		sess.reply(ftp.CodeTransferAborted, errText(werr))
		return
	}
	sess.reply(ftp.CodeClosingData, "MLSD complete")
}

// emitPerf writes one 112 performance marker on the control channel
// (serialized with all other replies via replyMu).
func (sess *session) emitPerf(m PerfMarker) {
	sess.reply(CodePerfMarker, perfMarkerLines(m)...)
}

// traceFields appends span's wire ids to an event's key/value list so
// events and spans cross-reference; a nil span appends nothing.
func traceFields(kv []any, span *obs.Span) []any {
	if span != nil {
		kv = append(kv, "trace", span.TraceID.String(), "span", span.SpanID.String())
	}
	return kv
}

// transferRecord is one server transfer's completion record. It is begun
// once, when the data transfer starts, and ended once with the outcome;
// end is the only place a transfer reaches telemetry.
type transferRecord struct {
	sess  *session
	op    string
	path  string
	start time.Time
}

// beginTransfer opens the record and emits the transfer-start event
// (size < 0 = unknown, e.g. an inbound STOR whose length only the sender
// knows).
func (sess *session) beginTransfer(op, path string, size int64) transferRecord {
	if o := sess.srv.cfg.Obs; o != nil {
		kv := []any{"component", "gridftp-server", "session", sess.id,
			"user", sess.localUser, "op", op, "path", path}
		if size >= 0 {
			kv = append(kv, "size", size)
		}
		o.EventLog().Append(eventlog.TransferStart, traceFields(kv, sess.cmdSpan)...)
	}
	return transferRecord{sess: sess, op: op, path: path, start: time.Now()}
}

// end closes the record with the transfer's outcome. A completed
// transfer feeds the transfer and byte counters, the tenant's bytes, the
// command span, the log, the event ring and the usage collector; both
// outcomes feed the latency histograms, with the command span's trace id
// as the bucket exemplar so a fleet latency alert can name a
// representative transfer trace.
func (r *transferRecord) end(bytes int64, err error) {
	sess, cfg := r.sess, &r.sess.srv.cfg
	dur := time.Since(r.start)
	if err == nil {
		if sess.identity != nil {
			cfg.Tenants.BytesMoved(string(sess.identity.Identity), bytes)
		}
		cfg.Usage.Report(usagestats.TransferRecord{
			Endpoint: cfg.EndpointName, User: sess.localUser, Op: r.op, Path: r.path,
			Bytes: bytes, Duration: dur, When: time.Now(),
		})
	}
	o := cfg.Obs
	if o == nil {
		return
	}
	reg := o.Registry()
	var traceID string
	if sess.cmdSpan != nil {
		traceID = sess.cmdSpan.TraceID.String()
	}
	outcome := "outcome=ok"
	if err != nil {
		outcome = "outcome=err"
	}
	reg.Histogram("gridftp.server.transfer_seconds", obs.DefaultDurationBuckets).
		ObserveExemplar(dur.Seconds(), traceID)
	reg.Histogram(obs.Name("gridftp.server.transfer_seconds", outcome), obs.DefaultDurationBuckets).
		ObserveExemplar(dur.Seconds(), traceID)
	kv := []any{"component", "gridftp-server", "session", sess.id,
		"user", sess.localUser, "op", r.op, "path", r.path}
	if err != nil {
		kv = append(kv, "err", err.Error())
		o.EventLog().Append(eventlog.TransferAbort, traceFields(kv, sess.cmdSpan)...)
		return
	}
	reg.Counter("gridftp.server.transfers_total").Inc()
	reg.Counter(obs.Name(obs.TransferBytesCounter, r.op)).Add(bytes)
	sess.cmdSpan.SetAttr("bytes", bytes)
	sess.log.Info("transfer complete",
		"op", r.op, "path", r.path, "bytes", bytes, "dur", dur.Round(time.Microsecond))
	kv = append(kv, "bytes", bytes, "dur", dur.Round(time.Microsecond).String())
	o.EventLog().Append(eventlog.TransferComplete, traceFields(kv, sess.cmdSpan)...)
}

// replyTransfer sends a transfer's final reply: 226, or 426 with err.
func (sess *session) replyTransfer(err error) {
	if err != nil {
		sess.reply(ftp.CodeTransferAborted, errText(err))
		return
	}
	sess.reply(ftp.CodeClosingData, "Transfer complete")
}

// streamLabel names this session's current transfer in the stream-health
// plane: the SITE TASK label when one is installed — with a "-src" suffix
// on RETR, so the sending leg of a third-party transfer stays
// distinguishable from the receiving leg under one task prefix — or empty,
// which makes the registry generate a per-transfer label.
func (sess *session) streamLabel(verb string) string {
	if sess.task == "" {
		return ""
	}
	if verb == "RETR" {
		return sess.task + "-src"
	}
	return sess.task
}

func totalLen(rs []Range) int64 {
	var n int64
	for _, r := range rs {
		n += r.Len()
	}
	return n
}
