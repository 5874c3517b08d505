package gridftp

import (
	"crypto/tls"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"gridftp.dev/instant/internal/dsi"
	"gridftp.dev/instant/internal/ftp"
	"gridftp.dev/instant/internal/gsi"
	"gridftp.dev/instant/internal/netsim"
	"gridftp.dev/instant/internal/obs"
	"gridftp.dev/instant/internal/obs/streamstats"
)

// Client is a GridFTP client protocol interpreter with its own DTP, able
// to upload, download, list, and orchestrate third-party transfers.
type Client struct {
	ctrl  *ftp.Conn
	host  *netsim.Host
	cred  *gsi.Credential
	trust *gsi.TrustStore

	// ServerIdentity is the GSI identity the server's host certificate
	// presented on the control channel.
	ServerIdentity gsi.DN

	spec     ChannelSpec
	restart  []Range
	markerCB func([]Range)
	perfCB   func(PerfMarker)

	// obs receives client-side metrics: perf-marker observations feed
	// gauges/counters so callers can watch a transfer without polling.
	obs *obs.Obs
	// perfBytes holds the latest per-stripe byte counts reported by 112
	// markers for the current transfer; perfSeen counts markers.
	perfMu    sync.Mutex
	perfBytes map[int]int64
	perfSeen  int

	delegated bool

	// task labels the client's own transfers in stream telemetry (see
	// SetTask).
	task string

	// The client's data channels: its active-mode listener, the server's
	// PASV address as dial target, and the channel pools.
	dataEndpoint
}

// DialOptions tweak client connection behaviour.
type DialOptions struct {
	// DisableChannelCache turns off data channel reuse across transfers.
	DisableChannelCache bool
	// Obs receives client-side metrics and logs (nil = disabled).
	Obs *obs.Obs
	// Streams, if non-nil, receives per-stream wire telemetry for this
	// client's MODE E transfers (see internal/obs/streamstats).
	Streams *streamstats.Registry
}

// Dial connects to a GridFTP server at addr from the given simulated host,
// performs the AUTH TLS security exchange with cred, and verifies the
// server against trust.
func Dial(host *netsim.Host, addr string, cred *gsi.Credential, trust *gsi.TrustStore) (*Client, error) {
	return DialWithOptions(host, addr, cred, trust, DialOptions{})
}

// DialWithOptions is Dial with explicit options.
func DialWithOptions(host *netsim.Host, addr string, cred *gsi.Credential, trust *gsi.TrustStore, opts DialOptions) (*Client, error) {
	raw, err := host.Dial(addr)
	if err != nil {
		return nil, fmt.Errorf("gridftp: dial %s: %w", addr, err)
	}
	c := &Client{
		ctrl:      ftp.NewConn(raw),
		host:      host,
		cred:      cred,
		trust:     trust,
		spec:      ChannelSpec{Mode: ModeExtended}.Normalize(),
		obs:       opts.Obs,
		perfBytes: make(map[int]int64),
		dataEndpoint: dataEndpoint{dialFrom: []*netsim.Host{host},
			noCache: opts.DisableChannelCache, streams: opts.Streams},
	}
	if _, err := c.ctrl.Expect(ftp.CodeReadyForNewUser); err != nil {
		raw.Close()
		return nil, err
	}
	if err := c.ctrl.Cmd("AUTH", "TLS"); err != nil {
		raw.Close()
		return nil, err
	}
	if _, err := c.ctrl.Expect(ftp.CodeAuthOK); err != nil {
		raw.Close()
		return nil, err
	}
	tc := tls.Client(raw, gsi.ClientTLSConfig(cred, trust))
	raw.SetDeadline(time.Now().Add(30 * time.Second))
	if err := tc.Handshake(); err != nil {
		raw.Close()
		return nil, fmt.Errorf("gridftp: control handshake: %w", err)
	}
	raw.SetDeadline(time.Time{})
	srvID, err := gsi.PeerIdentity(tc, trust)
	if err != nil {
		raw.Close()
		return nil, fmt.Errorf("gridftp: server verification: %w", err)
	}
	c.ServerIdentity = srvID.Identity
	c.ctrl.Upgrade(tc)
	if _, err := c.ctrl.Expect(ftp.CodeUserLoggedIn); err != nil {
		raw.Close()
		return nil, fmt.Errorf("gridftp: login: %w", err)
	}
	// Negotiate the client's default mode (MODE E) explicitly — the
	// server session starts in RFC 959 stream mode.
	if _, err := c.cmdExpect("MODE", "E", ftp.CodeOK); err != nil {
		raw.Close()
		return nil, fmt.Errorf("gridftp: MODE E: %w", err)
	}
	return c, nil
}

// Close ends the session with QUIT. It reports a failed QUIT exchange or
// a reply other than 221.
func (c *Client) Close() error {
	c.dataEndpoint.close()
	err := c.ctrl.Cmd("QUIT", "")
	if err == nil {
		_, err = c.ctrl.Expect(221)
	}
	// After its 221 the server hangs up first, so the TLS close-notify
	// sent here routinely fails; that failure says nothing about the
	// session.
	c.ctrl.Close()
	if err != nil {
		return fmt.Errorf("gridftp: quit: %w", err)
	}
	return nil
}

// countCommand records one control-channel command on the per-verb
// counter, giving observability stacks (and tests) a command trace: e.g.
// asserting a directory transfer issued zero per-file SIZE commands.
func (c *Client) countCommand(name string) {
	c.obs.Registry().Counter(obs.Name("gridftp.client.commands", "cmd="+name)).Inc()
}

// cmdExpect sends a command and requires one of the given reply codes.
func (c *Client) cmdExpect(name, params string, want ...int) (ftp.Reply, error) {
	c.countCommand(name)
	if err := c.ctrl.Cmd(name, "%s", params); err != nil {
		return ftp.Reply{}, err
	}
	return c.ctrl.Expect(want...)
}

// Delegate delegates a proxy of the client credential to the server over
// the encrypted control channel; the server uses it to authenticate data
// channels on the user's behalf (required for DCAU unless DCSC is used).
func (c *Client) Delegate(lifetime time.Duration) error {
	if c.cred == nil {
		return ErrLiteNoDelegation
	}
	c.countCommand("DELG")
	if err := c.ctrl.Cmd("DELG", ""); err != nil {
		return err
	}
	if _, err := c.ctrl.Expect(335); err != nil {
		return err
	}
	if err := gsi.Delegate(c.ctrl.RW(), c.cred, lifetime); err != nil {
		return err
	}
	if _, err := c.ctrl.Expect(ftp.CodeOK); err != nil {
		return err
	}
	c.delegated = true
	// The server flushes its channel pools on DELG (the security context
	// changed); keep the pools in lockstep.
	c.reset()
	return nil
}

// Features runs FEAT and returns the advertised feature lines.
func (c *Client) Features() ([]string, error) {
	r, err := c.cmdExpect("FEAT", "", ftp.CodeFeatures)
	if err != nil {
		return nil, err
	}
	if len(r.Lines) >= 2 {
		return r.Lines[1 : len(r.Lines)-1], nil
	}
	return nil, nil
}

// SupportsDCSC reports whether the server advertises the DCSC extension.
func (c *Client) SupportsDCSC() bool {
	feats, err := c.Features()
	if err != nil {
		return false
	}
	for _, f := range feats {
		if strings.HasPrefix(strings.ToUpper(strings.TrimSpace(f)), "DCSC") {
			return true
		}
	}
	return false
}

// SetParallelism negotiates the number of parallel data streams.
func (c *Client) SetParallelism(n int) error {
	if n == c.spec.Parallelism {
		return nil
	}
	if _, err := c.cmdExpect("OPTS", fmt.Sprintf("RETR Parallelism=%d,%d,%d;", n, n, n), ftp.CodeOK); err != nil {
		return err
	}
	c.spec.Parallelism = n
	c.reset()
	return nil
}

// SetBlockSize negotiates the MODE E block size. Renegotiating the value
// already in effect is a no-op (the autotuner calls this per transfer).
func (c *Client) SetBlockSize(n int) error {
	if n == c.spec.BlockSize {
		return nil
	}
	if _, err := c.cmdExpect("OPTS", fmt.Sprintf("RETR BlockSize=%d;", n), ftp.CodeOK); err != nil {
		return err
	}
	c.spec.BlockSize = n
	return nil
}

// SetMode switches between stream (S) and extended block (E) mode.
func (c *Client) SetMode(m TransferMode) error {
	if _, err := c.cmdExpect("MODE", string(rune(m)), ftp.CodeOK); err != nil {
		return err
	}
	c.spec.Mode = m
	c.spec = c.spec.Normalize()
	c.reset()
	return nil
}

// SetDCAU sets the data channel authentication mode.
func (c *Client) SetDCAU(m DCAUMode) error {
	if _, err := c.cmdExpect("DCAU", string(rune(m)), ftp.CodeOK); err != nil {
		return err
	}
	c.spec.DCAU = m
	if m == DCAUNone {
		c.spec.Prot = ProtClear
	}
	c.reset()
	return nil
}

// SetTransport selects the data channel transport protocol: TCP (default)
// or UDT, the rate-based protocol GridFTP reaches through its XIO driver
// interface (§II.A [9]). UDT streams are not window- or loss-limited.
func (c *Client) SetTransport(tr netsim.Transport) error {
	name := "TCP"
	if tr == netsim.TransportUDT {
		name = "UDT"
	}
	if _, err := c.cmdExpect("OPTS", "RETR Transport="+name+";", ftp.CodeOK); err != nil {
		return err
	}
	c.spec.Transport = tr
	c.reset()
	return nil
}

// SetDeflate toggles DEFLATE compression on the data channels
// ("OPTS RETR Deflate=1;"). Both ends wrap every subsequent channel
// symmetrically; existing pools flush on both sides.
func (c *Client) SetDeflate(on bool) error {
	flag := "0"
	if on {
		flag = "1"
	}
	if _, err := c.cmdExpect("OPTS", "RETR Deflate="+flag+";", ftp.CodeOK); err != nil {
		return err
	}
	if on != c.spec.Deflate {
		c.spec.Deflate = on
		c.reset()
	}
	return nil
}

// SetProt sets the data channel protection level.
func (c *Client) SetProt(p ProtLevel) error {
	if _, err := c.cmdExpect("PBSZ", "0", ftp.CodeOK); err != nil {
		return err
	}
	if _, err := c.cmdExpect("PROT", string(rune(p)), ftp.CodeOK); err != nil {
		return err
	}
	c.spec.Prot = p
	c.reset()
	return nil
}

// SetRestart arms restart ranges (bytes already transferred) for the next
// transfer command.
func (c *Client) SetRestart(ranges []Range) { c.restart = ranges }

// OnMarker registers a callback receiving restart-marker updates during
// transfers.
func (c *Client) OnMarker(cb func([]Range)) { c.markerCB = cb }

// dataContext is the security context for the client's own data channels
// (nil for credential-less GridFTP-Lite sessions, whose data channels run
// without DCAU).
func (c *Client) dataContext() *SecurityContext {
	if c.cred == nil {
		return nil
	}
	return &SecurityContext{
		Cred:           c.cred,
		Trust:          c.trust,
		ExpectIdentity: c.cred.Identity(),
	}
}

// sendRestart transmits any armed restart ranges.
func (c *Client) sendRestart() ([]Range, error) {
	if len(c.restart) == 0 {
		return nil, nil
	}
	ranges := c.restart
	c.restart = nil
	if _, err := c.cmdExpect("REST", FromRanges(ranges).Marker(), ftp.CodeNeedAccount); err != nil {
		return nil, err
	}
	return ranges, nil
}

// storPrologue is what an upload batches ahead of its STOR: ALLO and
// REST, whose final replies arrive before STOR's.
type storPrologue struct {
	c *Client
	// allo and rest are set while the command's reply is unread.
	allo, rest bool
	restarted  bool
}

// sendStor opens an upload in one flush: ALLO size when the size is
// known, so the server's storage preallocates once instead of
// grow-copying per block; REST when restart ranges are given, immediately
// before the transfer command as RFC 959 requires; then STOR path. The
// returned prologue reads the replies to ALLO and REST; STOR's follow.
func (c *Client) sendStor(path string, size int64, restart []Range) (*storPrologue, error) {
	pro := &storPrologue{c: c, allo: size > 0, rest: len(restart) > 0}
	var cmds []ftp.Command
	add := func(name, params string) {
		c.countCommand(name)
		cmds = append(cmds, ftp.Command{Name: name, Params: params})
	}
	if pro.allo {
		add("ALLO", strconv.FormatInt(size, 10))
	}
	if pro.rest {
		add("REST", FromRanges(restart).Marker())
	}
	add("STOR", path)
	return pro, c.ctrl.WriteCommands(cmds...)
}

// read reads the prologue's unread replies (none on a nil prologue) and
// reports whether the server took REST. A refused ALLO is ignored: the
// size is only a hint. A server that refuses REST stores the whole file.
func (p *storPrologue) read() (restarted bool, err error) {
	if p == nil {
		return false, nil
	}
	if p.allo {
		if _, err := p.c.ctrl.ReadFinalReply(nil); err != nil {
			return false, err
		}
		p.allo = false
	}
	if p.rest {
		r, err := p.c.ctrl.ReadFinalReply(nil)
		if err != nil {
			return false, err
		}
		p.rest, p.restarted = false, r.Code == ftp.CodeNeedAccount
	}
	return p.restarted, nil
}

// finalReply reads the final reply of a transfer command sent after
// prologue (nil when none), handing preliminary replies to onPrelim.
func (c *Client) finalReply(prologue *storPrologue, onPrelim func(ftp.Reply)) (ftp.Reply, error) {
	if _, err := prologue.read(); err != nil {
		return ftp.Reply{}, err
	}
	return c.ctrl.ReadFinalReply(onPrelim)
}

// passive puts the server in passive mode and returns the data address.
func (c *Client) passive() ([]string, error) {
	r, err := c.cmdExpect("PASV", "", ftp.CodeEnteringPassive)
	if err != nil {
		return nil, err
	}
	open := strings.Index(r.Lines[0], "(")
	closeIdx := strings.LastIndex(r.Lines[0], ")")
	if open < 0 || closeIdx <= open {
		return nil, fmt.Errorf("gridftp: unparsable PASV reply %q", r.Lines[0])
	}
	return []string{r.Lines[0][open+1 : closeIdx]}, nil
}

// spas puts the (striped) server in striped passive mode and returns all
// data addresses.
func (c *Client) spas() ([]string, error) {
	r, err := c.cmdExpect("SPAS", "", ftp.CodeEnteringExtPasv)
	if err != nil {
		return nil, err
	}
	if len(r.Lines) < 3 {
		return nil, fmt.Errorf("gridftp: unparsable SPAS reply %v", r.Lines)
	}
	return r.Lines[1 : len(r.Lines)-1], nil
}

// Passive exposes PASV/SPAS for third-party orchestration: it returns the
// receiver's listening addresses (one per stripe).
func (c *Client) Passive(striped bool) ([]string, error) {
	passive := c.passive
	if striped {
		passive = c.spas
	}
	addrs, err := passive()
	if err != nil {
		return nil, err
	}
	// PASV replaces the server's listeners and closes the channels it
	// accepted on them, which are the ones this end dialed: drop those
	// and the old addresses. Channels the server dialed to this end stay
	// warm on both ends. Keeping the pools in lockstep is what makes
	// channel caching safe.
	c.dialTo(nil)
	return addrs, nil
}

// Port sends data addresses to this server, which then connects to them
// (the sender of a third-party transfer, or this client's listener).
func (c *Client) Port(addrs []string) error {
	var err error
	if len(addrs) == 1 {
		_, err = c.cmdExpect("PORT", addrs[0], ftp.CodeOK)
	} else {
		_, err = c.cmdExpect("SPOR", strings.Join(addrs, " "), ftp.CodeOK)
	}
	if err != nil {
		return err
	}
	// PORT replaces the server's dial targets and closes the channels it
	// dialed to the old ones, which are the ones this end accepted.
	c.flushAccepted()
	return nil
}

// ensurePassive guarantees the server is listening for data connections.
// It must run BEFORE the transfer command is sent: once the command is in
// flight the server is busy with the transfer and cannot answer PASV.
func (c *Client) ensurePassive() error {
	if len(c.targets) > 0 {
		return nil
	}
	addrs, err := c.Passive(false)
	if err != nil {
		return err
	}
	c.dialTo(addrs)
	return nil
}

// ensureListener opens (once) the client-side data listener for
// active-mode transfers and registers it with the server via PORT.
func (c *Client) ensureListener() error {
	if len(c.listeners) == 0 {
		if _, err := c.listen([]*netsim.Host{c.host}); err != nil {
			return err
		}
	}
	return c.Port([]string{c.listeners[0].Addr().String()})
}

// setup is what the client's next data channels are secured with.
func (c *Client) setup() channelSetup {
	return channelSetup{spec: c.spec, ctx: c.dataContext()}
}

// parseOpeningSize extracts the announced byte count from a 150 reply of
// the form "Opening data connection for <path> (N bytes)"; 0 when absent.
func parseOpeningSize(r ftp.Reply) int64 {
	if r.Code != ftp.CodeFileStatusOK || len(r.Lines) == 0 {
		return 0
	}
	text := r.Lines[0]
	open := strings.LastIndexByte(text, '(')
	if open < 0 || !strings.HasSuffix(text, " bytes)") {
		return 0
	}
	n, err := strconv.ParseInt(text[open+1:len(text)-len(" bytes)")], 10, 64)
	if err != nil || n < 0 {
		return 0
	}
	return n
}

// handlePreliminary dispatches 1xx replies that arrive during a transfer:
// 111 restart markers (returns the parsed ranges) and 112 performance
// markers (feeds the perf callback and the client metrics registry).
func (c *Client) handlePreliminary(r ftp.Reply) []Range {
	switch r.Code {
	case ftp.CodeRestartMarker:
		text := strings.TrimPrefix(r.Lines[0], "Range Marker")
		ranges, err := ParseRanges(strings.TrimSpace(text))
		if err != nil {
			return nil
		}
		if c.markerCB != nil {
			c.markerCB(ranges)
		}
		return ranges
	case CodePerfMarker:
		if m, ok := ParsePerfMarker(r); ok {
			c.notePerf(m)
		}
	}
	return nil
}

// notePerf records one performance marker: latest per-stripe totals,
// marker count, metrics, and the user callback.
func (c *Client) notePerf(m PerfMarker) {
	c.perfMu.Lock()
	c.perfBytes[m.Stripe] = m.StripeBytes
	c.perfSeen++
	var total int64
	for _, b := range c.perfBytes {
		total += b
	}
	c.perfMu.Unlock()
	reg := c.obs.Registry()
	reg.Counter("gridftp.client.perf_markers").Inc()
	reg.Gauge("gridftp.client.perf_bytes").Set(total)
	reg.Gauge("gridftp.client.perf_stripes").Set(int64(m.TotalStripes))
	// Feed the time-series flight recorder at the marker's own timestamp
	// (the sender's sampling clock, which may arrive out of order): the
	// per-stripe cumulative byte timeline for this session.
	c.obs.TimeSeries().Observe(
		fmt.Sprintf("gridftp.client.stripe.%d.bytes", m.Stripe),
		m.Timestamp, float64(m.StripeBytes))
	if c.perfCB != nil {
		c.perfCB(m)
	}
}

// resetPerf clears per-transfer performance state (called when a new
// transfer command is issued).
func (c *Client) resetPerf() {
	c.perfMu.Lock()
	c.perfBytes = make(map[int]int64)
	c.perfMu.Unlock()
}

// PerfSnapshot returns the in-flight progress reported by 112 performance
// markers for the current (or last) transfer: total bytes across stripes,
// the number of stripes reporting, and how many markers this session has
// observed in total.
func (c *Client) PerfSnapshot() (total int64, stripes, markers int) {
	c.perfMu.Lock()
	defer c.perfMu.Unlock()
	for _, b := range c.perfBytes {
		total += b
	}
	return total, len(c.perfBytes), c.perfSeen
}

// OnPerf registers a callback receiving in-flight 112 performance markers
// during transfers.
func (c *Client) OnPerf(cb func(PerfMarker)) { c.perfCB = cb }

// TransferStats reports what a transfer moved.
type TransferStats struct {
	Bytes    int64
	Duration time.Duration
	// Markers holds the last restart-marker ranges seen (PUT) or the
	// locally received ranges (GET); on failure they seed a restart.
	Markers []Range
}

// Put uploads src to the remote path (passive mode: the server listens,
// this client connects and sends — the canonical GridFTP direction).
func (c *Client) Put(path string, src dsi.File) (*TransferStats, error) {
	size, err := src.Size()
	if err != nil {
		return nil, err
	}
	restart := c.restart
	c.restart = nil
	start := time.Now()
	c.resetPerf()
	if c.spec.Mode == ModeStream {
		// Stream mode keeps RFC 959's rule that the last of PASV/PORT
		// wins, so every stream upload negotiates PASV afresh.
		c.reset()
	}
	if len(c.pooledDialed) != c.spec.Parallelism {
		if err := c.ensurePassive(); err != nil {
			return nil, err
		}
	}
	prologue, err := c.sendStor(path, size, restart)
	if err != nil {
		return nil, err
	}
	ranges := []Range{{0, size}}
	from := int64(0)
	if len(restart) > 0 {
		// What to send depends on whether the server took REST. Without
		// a restart the data goes out before ALLO's reply is read.
		restarted, err := prologue.read()
		if err != nil {
			return nil, err
		}
		if restarted {
			ranges = FromRanges(restart).Missing(size)
			if len(restart) == 1 && restart[0].Start == 0 {
				from = restart[0].End
			}
		}
	}
	var lastMarkers []Range
	onMarker := func(rs []Range) { lastMarkers = rs }
	if c.spec.Mode == ModeStream {
		err = c.sendStreamWithReplies(src, from, size, prologue, onMarker)
		if err != nil {
			return &TransferStats{Markers: lastMarkers}, err
		}
		return &TransferStats{Bytes: size - from, Duration: time.Since(start), Markers: lastMarkers}, nil
	}
	err = c.sendWithReplies(src, ranges, prologue, onMarker)
	if err != nil {
		return &TransferStats{Markers: lastMarkers}, err
	}
	return &TransferStats{Bytes: totalLen(ranges), Duration: time.Since(start), Markers: lastMarkers}, nil
}

// sendStreamWithReplies runs one stream-mode upload whose STOR is already
// sent: it sends src from offset from over one fresh channel and reads
// the final reply, passing restart markers to onMarker. The error is the
// send's, else the control channel's, else the final reply's.
func (c *Client) sendStreamWithReplies(src dsi.File, from, size int64, prologue *storPrologue, onMarker func([]Range)) error {
	onPrelim := func(p ftp.Reply) {
		if rs := c.handlePreliminary(p); rs != nil {
			onMarker(rs)
		}
	}
	chans, err := c.establish(1, c.setup(), true)
	if err != nil {
		c.finalReply(prologue, nil)
		return err
	}
	err = sendStream(chans[0].sec, src, from, size, c.spec.BlockSize)
	closeChannels(chans)
	r, rerr := c.finalReply(prologue, onPrelim)
	if err == nil {
		err = rerr
	}
	if err == nil {
		err = r.Err()
	}
	return err
}

// sendWithReplies runs one MODE E upload whose STOR is already sent
// after prologue (nil when none): it establishes (or reuses) the
// channels, sends ranges of src and reads the final reply, passing
// restart markers to onMarker (nil = ignore). The error is the send's,
// else the control channel's, else the final reply's.
func (c *Client) sendWithReplies(src dsi.File, ranges []Range, prologue *storPrologue, onMarker func([]Range)) error {
	chans, err := c.establish(c.spec.Parallelism, c.setup(), true)
	if err != nil {
		// The server is waiting for a transfer that will not happen; it
		// will time out its accept and report 425/426. Renegotiate both
		// directions before the next transfer.
		c.finalReply(prologue, nil)
		c.reset()
		return err
	}
	sent := c.obs.Registry().Counter("gridftp.client.bytes_sent")
	t := c.streams.Begin(c.task, "put")
	err = send(t, chans, src, ranges, c.spec.BlockSize, func(_ int, n int64) { sent.Add(n) })
	r, rerr := c.finalReply(prologue, func(p ftp.Reply) {
		if rs := c.handlePreliminary(p); rs != nil && onMarker != nil {
			onMarker(rs)
		}
	})
	if err == nil {
		err = rerr
	}
	if err == nil {
		err = r.Err()
	}
	if err = c.retire(t, chans, c.spec.Mode, err); err != nil {
		// The server flushed both its pools; forget the targets too, so
		// the next transfer in each direction renegotiates.
		c.reset()
	}
	return err
}

// Get downloads the remote path into dst. Active mode (default): this
// client listens and the server — the sender — connects, the canonical
// GridFTP arrangement.
func (c *Client) Get(path string, dst dsi.File) (*TransferStats, error) {
	restart, err := c.sendRestart()
	if err != nil {
		return nil, err
	}
	return c.retrieve("RETR", path, restart, dst)
}

// GetPartial retrieves length bytes starting at off via the ERET command;
// the data lands at its original file offsets in dst.
func (c *Client) GetPartial(path string, off, length int64, dst dsi.File) (*TransferStats, error) {
	return c.retrieve("ERET", fmt.Sprintf("P %d %d %s", off, length, path), nil, dst)
}

func (c *Client) retrieve(verb, params string, restart []Range, dst dsi.File) (*TransferStats, error) {
	start := time.Now()
	c.resetPerf()

	if c.spec.Mode == ModeStream {
		if err := c.ensureListener(); err != nil {
			return nil, err
		}
		c.countCommand(verb)
		if err := c.ctrl.Cmd(verb, "%s", params); err != nil {
			return nil, err
		}
		chans, err := c.establish(1, c.setup(), false)
		if err != nil {
			c.ctrl.ReadFinalReply(nil)
			return nil, err
		}
		offset := int64(0)
		if len(restart) == 1 && restart[0].Start == 0 {
			offset = restart[0].End
		}
		n, recvErr := recvStream(chans[0].sec, dst, offset, c.spec.BlockSize)
		closeChannels(chans)
		r, rerr := c.ctrl.ReadFinalReply(nil)
		if recvErr != nil {
			return nil, recvErr
		}
		if rerr != nil {
			return nil, rerr
		}
		if err := r.Err(); err != nil {
			return nil, err
		}
		return &TransferStats{Bytes: n, Duration: time.Since(start)}, nil
	}

	// MODE E active: pooled channels first, fresh ones off our listener.
	if len(c.pooledAccepted) == 0 {
		if err := c.ensureListener(); err != nil {
			return nil, err
		}
	}
	c.countCommand(verb)
	if err := c.ctrl.Cmd(verb, "%s", params); err != nil {
		return nil, err
	}

	received := FromRanges(restart)
	err := c.recvWithReplies(dst, received)
	markers := received.Ranges()
	if c.markerCB != nil && received.Covered() > 0 {
		c.markerCB(markers)
	}
	if err != nil {
		return &TransferStats{Markers: markers}, err
	}
	return &TransferStats{
		Bytes:    received.Covered() - totalLen(restart),
		Duration: time.Since(start),
		Markers:  markers,
	}, nil
}

// recvWithReplies runs one MODE E receive into received whose command is
// already sent, reading control-channel replies concurrently so a refusal
// (e.g. 530 before any data connection exists) cancels the receive
// instead of timing it out. The error is the control channel's, else the
// final reply's, else the receive's: the server's error reply names the
// root cause, and a receive it cancels is just its consequence.
func (c *Client) recvWithReplies(dst dsi.File, received *RangeSet) error {
	in, err := c.receive(c.setup(), c.task, "get")
	if err != nil {
		c.ctrl.ReadFinalReply(nil)
		return err
	}
	replyCh := make(chan error, 1)
	go func() {
		r, err := c.ctrl.ReadFinalReply(func(p ftp.Reply) {
			// The sender's 150 announces the transfer size; preallocating
			// the destination here spares the grow-copy per landed block.
			if n := parseOpeningSize(p); n > 0 {
				preallocate(dst, n)
			}
			c.handlePreliminary(p)
		})
		if err == nil {
			err = r.Err()
		}
		replyCh <- err
	}()
	resCh := make(chan recvResult, 1)
	go func() { resCh <- recvModeE(in.accept, dst, received, c.spec.BlockSize, nil, in.cancel) }()

	var res recvResult
	select {
	case res = <-resCh:
		err = <-replyCh
	case err = <-replyCh:
		if err != nil {
			in.abort()
		}
		res = <-resCh
	}
	if err == nil {
		err = res.Err
	}
	if err = in.end(err); err != nil {
		// As after a failed upload: both ends flushed, renegotiate.
		c.reset()
	}
	return err
}

// --- Simple file operations ---

// Size returns the remote file size.
func (c *Client) Size(path string) (int64, error) {
	r, err := c.cmdExpect("SIZE", path, ftp.CodeFileStatus)
	if err != nil {
		return 0, err
	}
	var n int64
	if _, err := fmt.Sscanf(r.Lines[0], "%d", &n); err != nil {
		return 0, fmt.Errorf("gridftp: bad SIZE reply %q", r.Lines[0])
	}
	return n, nil
}

// Mkdir creates a remote directory.
func (c *Client) Mkdir(path string) error {
	_, err := c.cmdExpect("MKD", path, ftp.CodePathCreated)
	return err
}

// Delete removes a remote file or empty directory.
func (c *Client) Delete(path string) error {
	_, err := c.cmdExpect("DELE", path, ftp.CodeFileActionOK)
	return err
}

// Rename moves a remote file.
func (c *Client) Rename(from, to string) error {
	if _, err := c.cmdExpect("RNFR", from, ftp.CodeNeedAccount); err != nil {
		return err
	}
	_, err := c.cmdExpect("RNTO", to, ftp.CodeFileActionOK)
	return err
}

// Chdir changes the remote working directory.
func (c *Client) Chdir(path string) error {
	_, err := c.cmdExpect("CWD", path, ftp.CodeFileActionOK)
	return err
}

// Noop pings the server.
func (c *Client) Noop() error {
	_, err := c.cmdExpect("NOOP", "", ftp.CodeOK)
	return err
}

// Stat runs MLST and returns the facts line for one path.
func (c *Client) Stat(path string) (string, error) {
	r, err := c.cmdExpect("MLST", path, ftp.CodeFileActionOK)
	if err != nil {
		return "", err
	}
	if len(r.Lines) < 2 {
		return "", fmt.Errorf("gridftp: bad MLST reply %v", r.Lines)
	}
	return strings.TrimSpace(r.Lines[1]), nil
}

// List runs MLSD over a fresh data channel and returns the entry lines.
func (c *Client) List(path string) ([]string, error) {
	c.reset()
	if err := c.ensurePassive(); err != nil {
		return nil, err
	}
	c.countCommand("MLSD")
	if err := c.ctrl.Cmd("MLSD", "%s", path); err != nil {
		return nil, err
	}
	chans, err := c.establish(1, c.setup(), true)
	if err != nil {
		c.ctrl.ReadFinalReply(nil)
		return nil, err
	}
	var listing []byte
	buf := make([]byte, 32*1024)
	for {
		n, rerr := chans[0].sec.Read(buf)
		listing = append(listing, buf[:n]...)
		if rerr != nil {
			break
		}
	}
	closeChannels(chans)
	r, err := c.ctrl.ReadFinalReply(nil)
	if err != nil {
		return nil, err
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	var out []string
	for _, line := range strings.Split(string(listing), "\r\n") {
		if strings.TrimSpace(line) != "" {
			out = append(out, line)
		}
	}
	return out, nil
}

// Parallelism returns the current negotiated parallelism.
func (c *Client) Parallelism() int { return c.spec.Parallelism }

// Mode returns the current transfer mode.
func (c *Client) Mode() TransferMode { return c.spec.Mode }
