package gridftp

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"gridftp.dev/instant/internal/dsi"
	"gridftp.dev/instant/internal/ftp"
	"gridftp.dev/instant/internal/netsim"
)

// TestChannelReuseConnectionCount pins how many data connections one MODE
// E session opens as it alternates directions and renegotiates: each run
// of same-direction transfers reuses one set of p channels, a direction
// change (PASV after PORT or back) opens a fresh set, and so does a DCAU
// change. The count is what the benchmark's netsim.conns_per_file
// reports, so a change to channel caching shows up here first.
func TestChannelReuseConnectionCount(t *testing.T) {
	nw := netsim.NewNetwork()
	s := newSite(t, nw, "siteA")
	c := s.connect(t, nw.Host("laptop"), true)
	if err := c.SetParallelism(2); err != nil {
		t.Fatal(err)
	}
	conns := func() int64 { return nw.LinkStats("laptop", "siteA").Conns }
	before := conns()

	payloads := make(map[string][]byte)
	put := func(path string) {
		t.Helper()
		p := pattern(3*DefaultBlockSize + len(payloads)*4099)
		payloads[path] = p
		if _, err := c.Put(path, dsi.NewBufferFile(p)); err != nil {
			t.Fatalf("put %s: %v", path, err)
		}
		if got := s.readFile(t, path); !bytes.Equal(got, p) {
			t.Fatalf("put %s: stored content differs", path)
		}
	}
	get := func(path string) {
		t.Helper()
		dst := dsi.NewBufferFile(nil)
		if _, err := c.Get(path, dst); err != nil {
			t.Fatalf("get %s: %v", path, err)
		}
		if !bytes.Equal(dst.Bytes(), payloads[path]) {
			t.Fatalf("get %s: content differs", path)
		}
	}
	for i := 0; i < 3; i++ {
		put(fmt.Sprintf("/p%d", i))
	}
	for i := 0; i < 3; i++ {
		get(fmt.Sprintf("/p%d", i))
	}
	put("/p3")
	get("/p3")
	if err := c.SetDCAU(DCAUNone); err != nil {
		t.Fatal(err)
	}
	get("/p0")

	// Five channel sets of two: PUT×3, GET×3, PUT, GET, GET after DCAU.
	if got := conns() - before; got != 10 {
		t.Fatalf("session opened %d data connections, want 10", got)
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
