package gridftp

import (
	"bytes"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gridftp.dev/instant/internal/dsi"
	"gridftp.dev/instant/internal/ftp"
	"gridftp.dev/instant/internal/netsim"
)

// transferChecker moves files over one session and checks every byte,
// counting the data connections opened on the laptop–site link.
type transferChecker struct {
	t        *testing.T
	nw       *netsim.Network
	s        *site
	c        *Client
	payloads map[string][]byte
}

func newTransferChecker(t *testing.T, parallelism int, cfgMut ...func(*ServerConfig)) *transferChecker {
	t.Helper()
	nw := netsim.NewNetwork()
	s := newSite(t, nw, "siteA", cfgMut...)
	c := s.connect(t, nw.Host("laptop"), true)
	if err := c.SetParallelism(parallelism); err != nil {
		t.Fatal(err)
	}
	return &transferChecker{t: t, nw: nw, s: s, c: c, payloads: make(map[string][]byte)}
}

func (tc *transferChecker) conns() int64 { return tc.nw.LinkStats("laptop", "siteA").Conns }

// put uploads a fresh payload to path and checks the stored bytes.
func (tc *transferChecker) put(path string, size int) {
	tc.t.Helper()
	p := pattern(size)
	tc.payloads[path] = p
	if _, err := tc.c.Put(path, dsi.NewBufferFile(p)); err != nil {
		tc.t.Fatalf("put %s: %v", path, err)
	}
	if got := tc.s.readFile(tc.t, path); !bytes.Equal(got, p) {
		tc.t.Fatalf("put %s: stored content differs", path)
	}
}

// get downloads path and checks it against the payload put there.
func (tc *transferChecker) get(path string) {
	tc.t.Helper()
	dst := dsi.NewBufferFile(nil)
	if _, err := tc.c.Get(path, dst); err != nil {
		tc.t.Fatalf("get %s: %v", path, err)
	}
	if !bytes.Equal(dst.Bytes(), tc.payloads[path]) {
		tc.t.Fatalf("get %s: content differs", path)
	}
}

// TestChannelReuseConnectionCount pins how many data connections one MODE
// E session opens as it alternates directions and renegotiates. Each
// direction keeps its own warm set of p channels: uploads reuse the
// channels the client dialed to the server's PASV listener, downloads the
// ones the server dialed to the client's PORT listener, and a direction
// change touches neither. A DCAU change flushes both. The count is what
// the benchmark's netsim.conns_per_file reports, so a change to channel
// caching shows up here first.
func TestChannelReuseConnectionCount(t *testing.T) {
	tc := newTransferChecker(t, 2)
	before := tc.conns()
	for i := 0; i < 3; i++ {
		tc.put(fmt.Sprintf("/p%d", i), 3*DefaultBlockSize+i*4099)
	}
	for i := 0; i < 3; i++ {
		tc.get(fmt.Sprintf("/p%d", i))
	}
	tc.put("/p3", 3*DefaultBlockSize+3*4099)
	tc.get("/p3")
	if err := tc.c.SetDCAU(DCAUNone); err != nil {
		t.Fatal(err)
	}
	tc.get("/p0")

	// Three channel sets of two: the first PUT, the first GET and the GET
	// after DCAU; the PUT and GET after the switch back reuse theirs.
	if got := tc.conns() - before; got != 6 {
		t.Fatalf("session opened %d data connections, want 6", got)
	}
}

// TestModeEStorAfterPortRefused checks that a MODE E STOR after PORT is
// refused with 425 before any 150, at once rather than after a data
// timeout: in MODE E the sender connects, so an active-mode receiver has
// nowhere to take channels from. The session stays usable.
func TestModeEStorAfterPortRefused(t *testing.T) {
	nw := netsim.NewNetwork()
	s := newSite(t, nw, "siteA")
	c := s.connect(t, nw.Host("laptop"), true)

	// A peer that accepts and then stays silent: dialing it would hang
	// a DCAU handshake until its deadline.
	l, err := nw.Host("laptop").Listen(0)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			defer conn.Close() // held open until the listener closes
		}
	}()
	if _, err := c.cmdExpect("PORT", l.Addr().String(), ftp.CodeOK); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := c.ctrl.Cmd("STOR", "%s", "/refused"); err != nil {
		t.Fatal(err)
	}
	var prelim []int
	r, err := c.ctrl.ReadFinalReply(func(p ftp.Reply) { prelim = append(prelim, p.Code) })
	if err != nil {
		t.Fatal(err)
	}
	if r.Code != ftp.CodeCantOpenData || len(prelim) > 0 {
		t.Fatalf("STOR after PORT: preliminary %v then %v, want 425 alone", prelim, r)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("425 took %v", d)
	}

	// The client still believes nothing was negotiated, so its next
	// transfers renegotiate PASV and PORT themselves.
	payload := pattern(2*DefaultBlockSize + 17)
	if _, err := c.Put("/after", dsi.NewBufferFile(payload)); err != nil {
		t.Fatalf("put after refusal: %v", err)
	}
	dst := dsi.NewBufferFile(nil)
	if _, err := c.Get("/after", dst); err != nil {
		t.Fatalf("get after refusal: %v", err)
	}
	if !bytes.Equal(dst.Bytes(), payload) {
		t.Fatal("content differs after refusal")
	}
}

// TestCloseReportsQuitOutcome checks that Close reports the QUIT exchange:
// nil after a 221, whatever the TLS teardown that follows the server's
// hang-up does, and an error when QUIT fails or gets another reply.
func TestCloseReportsQuitOutcome(t *testing.T) {
	nw := netsim.NewNetwork()
	s := newSite(t, nw, "siteA")
	for i := 0; i < 5; i++ {
		c, err := Dial(nw.Host("laptop"), s.addr, s.user, s.trust)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Close(); err != nil {
			t.Fatalf("close %d after 221: %v", i, err)
		}
	}

	// A fake server that answers QUIT with reply, or hangs up when reply
	// is empty.
	fake := func(reply string) *Client {
		t.Helper()
		l, err := nw.Host("fake").Listen(0)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		go func() {
			raw, err := l.Accept()
			if err != nil {
				return
			}
			defer raw.Close()
			sc := ftp.NewConn(raw)
			sc.WriteReply(ftp.CodeReadyForNewUser, "ready")
			sc.ReadCommand() // MODE E
			sc.WriteReply(ftp.CodeOK, "ok")
			sc.ReadCommand() // QUIT
			if reply != "" {
				sc.WriteReply(ftp.CodeSyntaxError, reply)
			}
		}()
		conn, err := nw.Host("laptop").Dial(l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		c, err := DialLite(nw.Host("laptop"), conn)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	if err := fake("no").Close(); err == nil || !strings.Contains(err.Error(), "500") {
		t.Fatalf("close after a 500 to QUIT: %v, want the 500", err)
	}
	if err := fake("").Close(); err == nil {
		t.Fatal("close without a QUIT reply returned nil")
	}
}

// TestAlternatingTransfersKeepBothDirectionsWarm alternates PUT and GET
// eight times at p=2: the first PUT and the first GET each open a channel
// set, and every later transfer reuses its direction's set, so the
// session opens exactly four data connections.
func TestAlternatingTransfersKeepBothDirectionsWarm(t *testing.T) {
	tc := newTransferChecker(t, 2)
	before := tc.conns()
	for i := 0; i < 4; i++ {
		path := fmt.Sprintf("/alt%d", i)
		tc.put(path, 2*DefaultBlockSize+i*1021)
		tc.get(path)
	}
	if got := tc.conns() - before; got != 4 {
		t.Fatalf("8 alternating transfers opened %d data connections, want 4", got)
	}
}

// TestFailedTransferRenegotiatesBothDirections fails one upload (a
// server-side storage fault) and one download (a client-side one) mid
// stream, with both directions warm each time. Both ends flush both
// pools on a failure, so the next PUT and the next GET each succeed on a
// fresh set of channels instead of taking a channel the peer closed.
func TestFailedTransferRenegotiatesBothDirections(t *testing.T) {
	const p = 2
	var faulty *dsi.FaultStorage
	tc := newTransferChecker(t, p, func(cfg *ServerConfig) {
		faulty = dsi.NewFaultStorage(cfg.Storage)
		cfg.Storage = faulty
	})
	const size = 1 << 20
	tc.put("/warm", 3*DefaultBlockSize)
	tc.get("/warm")

	// fresh runs op and checks that it opened exactly one new channel set.
	fresh := func(name string, op func()) {
		t.Helper()
		before := tc.conns()
		op()
		if got := tc.conns() - before; got != p {
			t.Fatalf("%s after a failure opened %d data connections, want %d", name, got, p)
		}
	}

	faulty.Arm(size / 4)
	if _, err := tc.c.Put("/fail-up", dsi.NewBufferFile(pattern(size))); err == nil {
		t.Fatal("upload with a storage fault succeeded")
	}
	fresh("GET", func() { tc.get("/warm") })
	fresh("PUT", func() { tc.put("/after-up", size) })

	mem := dsi.NewMemStorage()
	mem.AddUser("alice")
	local := dsi.NewFaultStorage(mem)
	local.Arm(size / 4)
	dst, err := local.Create("alice", "/fail-down")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tc.c.Get("/after-up", dst); err == nil {
		t.Fatal("download into a faulting file succeeded")
	}
	if faulty.Trips() != 1 || local.Trips() != 1 {
		t.Fatalf("fault trips: server %d, client %d, want 1 each", faulty.Trips(), local.Trips())
	}
	fresh("PUT", func() { tc.put("/after-down", size) })
	fresh("GET", func() { tc.get("/after-up") })
}

// spyListener accepts and counts connections on host, so a test can
// prove a server never dialed an address it was given.
func spyListener(t *testing.T, host *netsim.Host) (addr string, accepted func() int64) {
	t.Helper()
	l, err := host.Listen(0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	var n atomic.Int64
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			n.Add(1)
			conn.Close()
		}
	}()
	return l.Addr().String(), n.Load
}

// TestStreamModeFollowsLastOfPasvAndPort checks RFC 959's rule for
// stream-mode transfers and MLSD: after PORT then PASV the server
// accepts on its listener, even though it still holds the PORT target.
func TestStreamModeFollowsLastOfPasvAndPort(t *testing.T) {
	tc := newTransferChecker(t, 1)
	if err := tc.c.SetMode(ModeStream); err != nil {
		t.Fatal(err)
	}
	spy, dialed := spyListener(t, tc.nw.Host("laptop"))
	if err := tc.c.Port([]string{spy}); err != nil {
		t.Fatal(err)
	}
	// Put and List each send PASV before their command.
	tc.put("/stream.bin", 3*DefaultBlockSize+5)
	entries, err := tc.c.List("/")
	if err != nil {
		t.Fatalf("MLSD after PORT then PASV: %v", err)
	}
	if len(entries) != 1 || !strings.HasSuffix(entries[0], " stream.bin") {
		t.Fatalf("MLSD entries %q, want stream.bin", entries)
	}
	if n := dialed(); n != 0 {
		t.Fatalf("server dialed the stale PORT target %d times", n)
	}
}

// TestModeERetrAfterPasvThenPortDials checks that in MODE E the sender
// connects: after PASV then PORT, RETR dials the PORT target and leaves
// the listener alone.
func TestModeERetrAfterPasvThenPortDials(t *testing.T) {
	tc := newTransferChecker(t, 2)
	tc.put("/e.bin", 4*DefaultBlockSize+9)
	if _, err := tc.c.Passive(false); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	tc.get("/e.bin") // sends PORT for the client's listener
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("RETR took %v: the server waited on its listener", d)
	}
}
