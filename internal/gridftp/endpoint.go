package gridftp

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"gridftp.dev/instant/internal/dsi"
	"gridftp.dev/instant/internal/netsim"
	"gridftp.dev/instant/internal/obs/streamstats"
)

// defaultDataWait bounds each wait for an inbound data connection;
// ServerConfig.DataTimeout overrides it on the server.
const defaultDataWait = 30 * time.Second

// errTransferConcluded is what a wait for a data channel returns once its
// transfer has ended without it.
var errTransferConcluded = errors.New("transfer concluded")

// dataChannel is one established (and secured) data connection.
type dataChannel struct {
	raw net.Conn
	sec net.Conn
	// acceptor records the TCP role (and hence TLS role) this end played.
	acceptor bool
}

func (d *dataChannel) close() {
	d.raw.Close()
}

// closeChannels closes chans, skipping the nil slots a failed concurrent
// establishment leaves.
func closeChannels(chans []*dataChannel) {
	for _, ch := range chans {
		if ch != nil {
			ch.close()
		}
	}
}

// channelSetup is what securing a new data channel needs: the negotiated
// channel parameters and the security context (nil for credential-less
// sessions, whose channels run without DCAU).
type channelSetup struct {
	spec ChannelSpec
	ctx  *SecurityContext
}

// dataEndpoint is one end of a session's data channels; the server
// session and the Client both embed one. It owns the listeners this end
// accepts on (the server's PASV/SPAS, the client's active-mode listener),
// the addresses it dials (the server's PORT/SPOR targets, the client's
// PASV reply) and the cross-transfer channel cache. Channel caching avoids
// re-paying connection setup and DCAU handshakes for every file, which is
// what makes lots-of-small-files workloads viable (§II.A [11]). Both ends
// see the same negotiation commands, so their pools flush in lockstep and
// a pooled channel is reused only while both ends agree it is valid.
//
// In MODE E the sender connects, so each direction has its own state: the
// listeners and the accepted pool carry uploads to the listening end, the
// targets and the dialed pool carry downloads from it. PASV/SPAS replaces
// only the former and PORT/SPOR only the latter, so a session that
// alternates GET and PUT keeps one warm channel set per direction.
//
// Only the owner's goroutine changes the fields; accept pumps and
// handshake goroutines reach the endpoint through values captured when
// they start.
type dataEndpoint struct {
	// dialFrom are the hosts outbound channels originate from,
	// round-robin: a striped server's stripe nodes, else the one host.
	dialFrom []*netsim.Host
	// wait bounds each wait for an inbound connection (0 = defaultDataWait).
	wait    time.Duration
	noCache bool
	// streams receives per-stream wire telemetry (nil = off).
	streams *streamstats.Registry

	listeners []net.Listener
	targets   []string
	// portLast records whether the targets were set after the listeners
	// opened: stream-mode transfers and MLSD follow RFC 959, where the
	// last of PASV/PORT decides the TCP role.
	portLast bool
	// acceptCh/acceptErr are fed by one pump goroutine per listener. A
	// single owner per listener is essential: per-transfer Accept
	// goroutines would race and strand connections in abandoned channels
	// when a transfer is canceled.
	acceptCh  chan net.Conn
	acceptErr chan error

	// pools of idle channels, by TCP role.
	pooledAccepted []*dataChannel
	pooledDialed   []*dataChannel
}

// flushAccepted closes the pooled channels this end accepted.
func (e *dataEndpoint) flushAccepted() {
	closeChannels(e.pooledAccepted)
	e.pooledAccepted = nil
}

// flushDialed closes the pooled channels this end dialed.
func (e *dataEndpoint) flushDialed() {
	closeChannels(e.pooledDialed)
	e.pooledDialed = nil
}

// flush closes every pooled channel; called whenever the data channel
// parameters (mode, parallelism, protection, DCSC, delegation) change and
// after a failed transfer.
func (e *dataEndpoint) flush() {
	e.flushAccepted()
	e.flushDialed()
}

// reset flushes the pools and forgets the dial targets, so the next
// transfer renegotiates PASV or PORT and with it the peer's data state.
func (e *dataEndpoint) reset() {
	e.flush()
	e.targets = nil
}

// dialTo replaces the dial targets and flushes the dialed pool, whose
// channels lead to the old ones. The listeners and the accepted pool stay.
func (e *dataEndpoint) dialTo(addrs []string) {
	e.flushDialed()
	e.targets = addrs
	e.portLast = true
}

// closeListeners closes the listeners and flushes the accepted pool.
func (e *dataEndpoint) closeListeners() {
	e.flushAccepted()
	for _, l := range e.listeners {
		l.Close()
	}
	e.listeners = nil
	e.acceptCh, e.acceptErr = nil, nil
}

// close tears down all data state: pools, dial targets and listeners.
func (e *dataEndpoint) close() {
	e.reset()
	e.closeListeners()
}

// listen replaces the listeners with one per host, starts their accept
// pumps and returns their addresses. It flushes the accepted pool; the
// dial targets and the dialed pool stay.
func (e *dataEndpoint) listen(hosts []*netsim.Host) ([]string, error) {
	e.closeListeners()
	e.portLast = false
	addrs := make([]string, 0, len(hosts))
	for _, h := range hosts {
		l, err := h.Listen(0)
		if err != nil {
			e.closeListeners()
			return nil, err
		}
		e.listeners = append(e.listeners, l)
		addrs = append(addrs, l.Addr().String())
	}
	// The backlog holds connections the peer opens before a transfer
	// claims them; past 64 unclaimed ones the pumps refuse more, so a
	// misbehaving peer cannot queue without bound.
	conns := make(chan net.Conn, 64)
	errs := make(chan error, len(e.listeners))
	for _, l := range e.listeners {
		go func() {
			for {
				c, err := l.Accept()
				if err != nil {
					errs <- err
					return
				}
				select {
				case conns <- c:
				default:
					c.Close() // backlog overflow: refuse
				}
			}
		}()
	}
	e.acceptCh, e.acceptErr = conns, errs
	return addrs, nil
}

// acceptor returns a function that takes the next connection off the
// accept pumps, waiting at most the data timeout or until stop closes.
// It captures the pump channels, so handshake goroutines may keep
// calling it after the owner has moved on.
func (e *dataEndpoint) acceptor() func(stop <-chan struct{}) (net.Conn, error) {
	conns, errs, wait := e.acceptCh, e.acceptErr, e.wait
	if wait <= 0 {
		wait = defaultDataWait
	}
	return func(stop <-chan struct{}) (net.Conn, error) {
		if conns == nil {
			return nil, errors.New("no passive listeners")
		}
		t := time.NewTimer(wait)
		defer t.Stop()
		select {
		case c := <-conns:
			return c, nil
		case err := <-errs:
			return nil, err
		case <-stop:
			return nil, errTransferConcluded
		case <-t.C:
			return nil, errors.New("timed out waiting for data connection")
		}
	}
}

// secure runs the DCAU handshake on raw, as the TLS server when this end
// accepted the connection, and layers DEFLATE when negotiated. raw is
// closed on failure.
func secure(raw net.Conn, acceptor bool, s channelSetup) (*dataChannel, error) {
	sec, err := secureData(raw, s.ctx, s.spec.DCAU, s.spec.Prot, acceptor)
	if err != nil {
		raw.Close()
		return nil, err
	}
	return &dataChannel{raw: raw, sec: maybeDeflate(sec, s.spec.Deflate), acceptor: acceptor}, nil
}

// establish produces n secured channels for a transfer this end starts,
// dialing the targets when dial is set and accepting off the listeners
// otherwise. It reuses the pool of that TCP role when it holds exactly n.
// Dialed channels connect and handshake concurrently; accepted ones are
// taken off the listeners one at a time and secured concurrently. Either
// way n channels cost one handshake latency, not n.
func (e *dataEndpoint) establish(n int, s channelSetup, dial bool) ([]*dataChannel, error) {
	pool, ready := &e.pooledDialed, len(e.targets) > 0
	if !dial {
		pool, ready = &e.pooledAccepted, len(e.listeners) > 0
	}
	if !ready {
		return nil, errors.New("no data channel established (use PASV/SPAS or PORT/SPOR)")
	}
	if len(*pool) == n {
		chans := *pool
		*pool = nil
		return chans, nil
	}
	closeChannels(*pool)
	*pool = nil

	var accept func(stop <-chan struct{}) (net.Conn, error)
	if !dial {
		accept = e.acceptor()
	}
	chans := make([]*dataChannel, n)
	errs := make([]error, n)
	var failure error // the first error: an accept's, else the first channel's
	var wg sync.WaitGroup
	for i := range chans {
		var raw net.Conn
		if !dial {
			var err error
			if raw, err = accept(nil); err != nil {
				failure = fmt.Errorf("accept data: %w", err)
				break
			}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if dial {
				addr := e.targets[i%len(e.targets)]
				c, err := e.dialFrom[i%len(e.dialFrom)].DialTransport(addr, s.spec.Transport)
				if err != nil {
					errs[i] = fmt.Errorf("dial data %s: %w", addr, err)
					return
				}
				raw = c
			}
			chans[i], errs[i] = secure(raw, !dial, s)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if failure == nil {
			failure = err
		}
	}
	if failure != nil {
		closeChannels(chans)
		return nil, failure
	}
	return chans, nil
}

// send streams ranges of f over chans in MODE E, instrumented as transfer
// t, whose stall watchdog aborts the channels.
func send(t *streamstats.Transfer, chans []*dataChannel, f dsi.File, ranges []Range, blockSize int, onBytes func(stream int, n int64)) error {
	conns := make([]net.Conn, len(chans))
	for i, ch := range chans {
		conns[i] = t.Wrap(i, ch.sec, ch.raw)
	}
	t.SetAbort(func() { abortChannels(chans) })
	return sendModeE(conns, f, ranges, blockSize, onBytes)
}

// abortChannels force-closes data connections, preferring a hard abort
// (netsim's TCP RST analogue) so even writers paced out by a rate limiter
// release immediately. The stall watchdog uses this to fail a stalled
// transfer fast enough for the retry to matter.
func abortChannels(chans []*dataChannel) {
	for _, ch := range chans {
		if ab, ok := ch.raw.(interface{ Abort() }); ok {
			ab.Abort()
		} else {
			ch.raw.Close()
		}
	}
}

// retire ends transfer t with its outcome err and disposes of its
// channels: after a successful MODE E transfer they join the pool of their
// TCP role (unless caching is off), else they close. A failure also flushes both
// pools, as the peer flushes its own. retire returns err, annotated when
// the stall watchdog caused it.
func (e *dataEndpoint) retire(t *streamstats.Transfer, chans []*dataChannel, mode TransferMode, err error) error {
	if err != nil && t.StallAborted() {
		err = fmt.Errorf("stalled stream aborted by watchdog: %w", err)
	}
	t.Done(err)
	switch {
	case err != nil:
		closeChannels(chans)
		e.flush()
	case mode != ModeExtended || e.noCache:
		closeChannels(chans)
	case len(chans) > 0 && chans[0].acceptor:
		e.pooledAccepted = chans
	default:
		e.pooledDialed = chans
	}
	return err
}

// inbound is the channel source of one MODE E receive: the pooled
// accepted channels first, then fresh connections off the listeners, each
// secured on its own goroutine so N channels cost one handshake latency.
// recvModeE calls accept from a single goroutine; end concludes the
// receive.
type inbound struct {
	e       *dataEndpoint
	setup   channelSetup
	tracker *streamstats.Transfer
	raw     func(stop <-chan struct{}) (net.Conn, error)
	// cancel aborts the receive. The stall watchdog closes it, and so
	// does the owner when the control channel reports a failure.
	cancel     chan struct{}
	cancelOnce sync.Once

	// Used only by the accept goroutine: the stream index of the next
	// channel, and the handshake pump's outputs once it has started.
	n       int
	secured chan *dataChannel
	failed  chan error

	mu     sync.Mutex
	pooled []*dataChannel
	next   int // pooled[:next] joined the transfer
	fresh  []*dataChannel
	sealed bool // set by end: a later handshake's channel has no owner
}

// receive prepares the channel source for one MODE E receive, recorded in
// stream telemetry under label and verb. In MODE E the sender connects, so
// it fails when this end has neither pooled accepted channels nor a
// listener.
func (e *dataEndpoint) receive(s channelSetup, label, verb string) (*inbound, error) {
	if len(e.pooledAccepted) == 0 && len(e.listeners) == 0 {
		return nil, errors.New("no data channel to receive on: the receiver must listen (PASV/SPAS)")
	}
	in := &inbound{e: e, setup: s, raw: e.acceptor(), cancel: make(chan struct{}), pooled: e.pooledAccepted}
	e.pooledAccepted = nil
	in.tracker = e.streams.Begin(label, verb)
	in.tracker.SetAbort(in.abort)
	return in, nil
}

// abort cancels the receive.
func (in *inbound) abort() { in.cancelOnce.Do(func() { close(in.cancel) }) }

// accept hands recvModeE its next channel, instrumented for stream
// telemetry.
func (in *inbound) accept(stop <-chan struct{}) (net.Conn, error) {
	ch, err := in.nextChannel(stop)
	if err != nil {
		return nil, err
	}
	i := in.n
	in.n++
	return in.tracker.Wrap(i, ch.sec, ch.raw), nil
}

func (in *inbound) nextChannel(stop <-chan struct{}) (*dataChannel, error) {
	in.mu.Lock()
	switch {
	case in.sealed:
		in.mu.Unlock()
		return nil, errTransferConcluded
	case in.next < len(in.pooled):
		ch := in.pooled[in.next]
		in.next++
		in.mu.Unlock()
		return ch, nil
	}
	in.mu.Unlock()
	if in.secured == nil {
		in.startHandshakes(stop)
	}
	select {
	case ch := <-in.secured:
		return ch, nil
	case err := <-in.failed:
		return nil, err
	case <-stop:
		return nil, errTransferConcluded
	}
}

// startHandshakes launches the pump that keeps accepting raw connections
// and secures each on its own goroutine, until stop closes or the accept
// fails. Every secured channel is recorded before it is offered, so end
// retires it even when the transfer concluded without it.
func (in *inbound) startHandshakes(stop <-chan struct{}) {
	secured, failed := make(chan *dataChannel), make(chan error, 1)
	in.secured, in.failed = secured, failed
	fail := func(err error) {
		select {
		case failed <- err:
		default:
		}
	}
	go func() {
		for {
			raw, err := in.raw(stop)
			if err != nil {
				fail(err)
				return
			}
			go func() {
				ch, err := secure(raw, true, in.setup)
				if err != nil {
					fail(err)
					return
				}
				in.mu.Lock()
				if in.sealed {
					in.mu.Unlock()
					ch.close()
					return
				}
				in.fresh = append(in.fresh, ch)
				in.mu.Unlock()
				select {
				case secured <- ch:
				case <-stop:
				}
			}()
		}
	}()
}

// end concludes the receive with its outcome err and retires the channels
// it used. Pooled channels the sender did not reuse are stale and close.
func (in *inbound) end(err error) error {
	in.mu.Lock()
	in.sealed = true
	stale := in.pooled[in.next:]
	used := append(in.pooled[:in.next:in.next], in.fresh...)
	in.mu.Unlock()
	closeChannels(stale)
	return in.e.retire(in.tracker, used, in.setup.spec.Mode, err)
}
