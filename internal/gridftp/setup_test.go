package gridftp

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"gridftp.dev/instant/internal/dsi"
	"gridftp.dev/instant/internal/ftp"
	"gridftp.dev/instant/internal/gsi"
	"gridftp.dev/instant/internal/netsim"
	"gridftp.dev/instant/internal/obs"
)

// replyCode returns the code of the reply an error carries (0 if none).
func replyCode(err error) int {
	var re *ftp.ReplyError
	if errors.As(err, &re) {
		return re.Reply.Code
	}
	return 0
}

// TestPipelineAttributesRepliesAroundRefusal sends a batch whose middle
// command is refused and checks that every command gets its own reply, in
// order, that the error is the refused command's, and that the session
// keeps working afterwards.
func TestPipelineAttributesRepliesAroundRefusal(t *testing.T) {
	nw := netsim.NewNetwork()
	s := newSite(t, nw, "siteA")
	payload := pattern(96 << 10)
	s.putFile(t, "/data.bin", payload)
	c := s.connect(t, nw.Host("laptop"), true)

	var got []ftp.Reply
	record := func(r ftp.Reply) error {
		got = append(got, r)
		return r.Want(ftp.CodeOK)
	}
	err := c.pipeline(
		pipelined{"SITE", "TASK batch-1", record},
		pipelined{"OPTS", "RETR Markers=-5;", record},
		pipelined{"NOOP", "", record},
		pipelined{"SITE", "HELP", record},
	)
	if replyCode(err) != ftp.CodeParamSyntaxError || !strings.Contains(err.Error(), "marker") {
		t.Fatalf("batch error = %v, want the refused OPTS's 501", err)
	}
	want := []struct {
		code int
		text string
	}{
		{ftp.CodeOK, "Task label accepted"},
		{ftp.CodeParamSyntaxError, "Bad marker interval"},
		{ftp.CodeOK, "NOOP ok"},
		{ftp.CodeOK, "SITE subcommands"},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d replies, want %d: %v", len(got), len(want), got)
	}
	for i, w := range want {
		if got[i].Code != w.code || !strings.Contains(got[i].Text(), w.text) {
			t.Errorf("reply %d = %s, want %d %q", i, got[i], w.code, w.text)
		}
	}

	// The public batch: the trace joins, the refused marker cadence leaves
	// the client's spec alone, the task label still lands.
	parent := obs.NewTracer().StartSpan("task")
	before := c.spec.MarkerInterval
	joined, err := c.Configure(SessionSetup{
		Trace: parent.Context(), MarkerInterval: -time.Millisecond, Task: "batch-2",
	})
	if replyCode(err) != ftp.CodeParamSyntaxError {
		t.Fatalf("Configure error = %v, want the refused OPTS's 501", err)
	}
	if !joined {
		t.Error("SITE TRACE ahead of the refused command should report joined")
	}
	if c.spec.MarkerInterval != before {
		t.Errorf("refused OPTS changed the marker interval to %v", c.spec.MarkerInterval)
	}
	if c.task != "batch-2" {
		t.Errorf("task label = %q, want batch-2", c.task)
	}

	// Nothing is left unread on the control channel: the next commands
	// and a transfer get their own replies.
	if err := c.Noop(); err != nil {
		t.Fatalf("NOOP after refused batch: %v", err)
	}
	dst := dsi.NewBufferFile(nil)
	if _, err := c.Get("/data.bin", dst); err != nil {
		t.Fatalf("GET after refused batch: %v", err)
	}
	if !bytes.Equal(dst.Bytes(), payload) {
		t.Fatal("GET after refused batch: content differs")
	}
}

// TestDCSCResetOnlyAfterAccept checks that the client drops its pooled
// channels on DCSC only when the server accepts it: a refused DCSC leaves
// both ends' pools in place and the next transfer reuses them.
func TestDCSCResetOnlyAfterAccept(t *testing.T) {
	nw := netsim.NewNetwork()
	s := newSite(t, nw, "siteA")
	payload := pattern(3 * DefaultBlockSize)
	s.putFile(t, "/data.bin", payload)
	c := s.connect(t, nw.Host("laptop"), true)
	if err := c.SetParallelism(2); err != nil {
		t.Fatal(err)
	}
	get := func() {
		t.Helper()
		dst := dsi.NewBufferFile(nil)
		if _, err := c.Get("/data.bin", dst); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(dst.Bytes(), payload) {
			t.Fatal("content differs")
		}
	}
	get()
	conns := func() int64 { return nw.LinkStats("laptop", "siteA").Conns }
	before := conns()

	// A blob without a private key is refused with 501.
	keyless := &gsi.Credential{Cert: s.user.Cert}
	if err := c.SendDCSC(keyless); replyCode(err) != ftp.CodeParamSyntaxError {
		t.Fatalf("keyless DCSC: %v, want 501", err)
	}
	if len(c.pooledAccepted) != 2 {
		t.Fatalf("refused DCSC dropped the pool: %d channels left", len(c.pooledAccepted))
	}
	get()
	if got := conns() - before; got != 0 {
		t.Fatalf("GET after refused DCSC opened %d data connections, want 0 (pool reuse)", got)
	}

	if err := c.SendDCSC(s.user); err != nil {
		t.Fatal(err)
	}
	if len(c.pooledAccepted) != 0 || len(c.targets) != 0 {
		t.Fatal("accepted DCSC must reset the client's data state")
	}
}

// TestDelegateKeepsPoolsInLockstep: the server flushes its channel pools
// on DELG, so a late delegation must flush the client's too; otherwise the
// next MODE E transfer takes pooled channels the server has closed.
func TestDelegateKeepsPoolsInLockstep(t *testing.T) {
	nw := netsim.NewNetwork()
	s := newSite(t, nw, "siteA")
	payloads := [][]byte{pattern(3 * DefaultBlockSize), pattern(2*DefaultBlockSize + 777)}
	s.putFile(t, "/a.bin", payloads[0])
	s.putFile(t, "/b.bin", payloads[1])
	c := s.connect(t, nw.Host("laptop"), true)
	if err := c.SetParallelism(2); err != nil {
		t.Fatal(err)
	}
	for i, path := range []string{"/a.bin", "/b.bin"} {
		if i == 1 {
			if err := c.Delegate(time.Hour); err != nil {
				t.Fatal(err)
			}
		}
		dst := dsi.NewBufferFile(nil)
		if _, err := c.Get(path, dst); err != nil {
			t.Fatalf("GET %s (delegations so far: %d): %v", path, i+1, err)
		}
		if !bytes.Equal(dst.Bytes(), payloads[i]) {
			t.Fatalf("GET %s: content differs", path)
		}
	}
}

// TestTraceRefusedMeansNotJoined: a server without the TRACE feature
// answers SITE TRACE with 500, which PropagateTrace reports as not joined
// without a FEAT probe, and without poisoning the rest of the batch.
func TestTraceRefusedMeansNotJoined(t *testing.T) {
	nw := netsim.NewNetwork()
	o := obs.Nop()
	s := newSite(t, nw, "siteA", func(cfg *ServerConfig) { cfg.DisableTrace = true })
	proxy, err := gsi.NewProxy(s.user, gsi.ProxyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := DialWithOptions(nw.Host("laptop"), s.addr, proxy, s.trust, DialOptions{Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	parent := obs.NewTracer().StartSpan("task")
	joined, err := c.Configure(SessionSetup{Trace: parent.Context(), MarkerInterval: 40 * time.Millisecond, Task: "t1"})
	if err != nil || joined {
		t.Fatalf("Configure against DisableTrace server: joined=%v err=%v, want false, nil", joined, err)
	}
	if c.spec.MarkerInterval != 40*time.Millisecond {
		t.Errorf("marker interval after batch = %v", c.spec.MarkerInterval)
	}
	reg := o.Registry()
	if n := reg.Counter(obs.Name("gridftp.client.commands", "cmd=FEAT")).Value(); n != 0 {
		t.Errorf("trace propagation sent %d FEAT commands, want 0", n)
	}
	if n := reg.Counter(obs.Name("gridftp.client.commands", "cmd=SITE")).Value(); n != 2 {
		t.Errorf("gridftp.client.commands{cmd=SITE} = %d, want 2", n)
	}
}

// recordingConn records each Write on a connection. ftp.Conn writes a
// pipelined batch with one flush, so one Write is one batch.
type recordingConn struct {
	net.Conn
	mu     sync.Mutex
	writes []string
}

func (r *recordingConn) Write(p []byte) (int, error) {
	r.mu.Lock()
	r.writes = append(r.writes, string(p))
	r.mu.Unlock()
	return r.Conn.Write(p)
}

// batchWith returns the one recorded write that contains cmd.
func (r *recordingConn) batchWith(t *testing.T, cmd string) string {
	t.Helper()
	r.mu.Lock()
	defer r.mu.Unlock()
	var found []string
	for _, w := range r.writes {
		if strings.Contains(w, cmd) {
			found = append(found, w)
		}
	}
	if len(found) != 1 {
		t.Fatalf("%d writes carry %q, want 1: %q", len(found), cmd, found)
	}
	return found[0]
}

// TestPutSendsAlloRestStorInOneFlush checks an upload's prologue on the
// wire of a plaintext (GridFTP-Lite) control channel: ALLO, then REST
// when a restart is armed, immediately followed by STOR, all in one
// flush; and that the restarted upload moves only the missing bytes and
// lands byte-exact.
func TestPutSendsAlloRestStorInOneFlush(t *testing.T) {
	nw := netsim.NewNetwork()
	s := newSite(t, nw, "siteA")
	l, err := s.host.Listen(0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		s.server.ServeLite(conn, "alice")
	}()
	raw, err := nw.Host("laptop").Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	wire := &recordingConn{Conn: raw}
	c, err := DialLite(nw.Host("laptop"), wire)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	payload := pattern(200000)
	if _, err := c.Put("/whole.bin", dsi.NewBufferFile(payload)); err != nil {
		t.Fatal(err)
	}
	if got, want := wire.batchWith(t, "STOR /whole.bin"), "ALLO 200000\r\nSTOR /whole.bin\r\n"; got != want {
		t.Fatalf("upload batch %q, want %q", got, want)
	}

	s.putFile(t, "/r.bin", payload[:150000])
	c.SetRestart([]Range{{0, 150000}})
	stats, err := c.Put("/r.bin", dsi.NewBufferFile(payload))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := wire.batchWith(t, "STOR /r.bin"), "ALLO 200000\r\nREST 0-150000\r\nSTOR /r.bin\r\n"; got != want {
		t.Fatalf("restarted upload batch %q, want %q", got, want)
	}
	if stats.Bytes != 50000 {
		t.Fatalf("restarted put moved %d bytes, want 50000", stats.Bytes)
	}
	if got := s.readFile(t, "/r.bin"); !bytes.Equal(got, payload) {
		t.Fatal("content mismatch after restarted put")
	}
	if err := c.Noop(); err != nil {
		t.Fatalf("session after the uploads: %v", err)
	}
}

// preallocSpy records the sizes its created files are preallocated to.
type preallocSpy struct {
	dsi.Storage
	mu    sync.Mutex
	sizes []int64
}

func (s *preallocSpy) Create(user, p string) (dsi.File, error) {
	f, err := s.Storage.Create(user, p)
	if err != nil {
		return nil, err
	}
	return &spyFile{File: f, spy: s}, nil
}

func (s *preallocSpy) recorded() []int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]int64(nil), s.sizes...)
}

type spyFile struct {
	dsi.File
	spy *preallocSpy
}

func (f *spyFile) Preallocate(n int64) {
	f.spy.mu.Lock()
	f.spy.sizes = append(f.spy.sizes, n)
	f.spy.mu.Unlock()
	preallocate(f.File, n)
}

// TestThirdPartyPreallocatesDestination checks that ThirdPartyOptions.Size
// reaches the destination's storage as one preallocation, and that the
// only command it adds per file is the ALLO pipelined with STOR.
func TestThirdPartyPreallocatesDestination(t *testing.T) {
	nw := netsim.NewNetwork()
	a := newSite(t, nw, "siteA")
	spy := &preallocSpy{}
	b := newSite(t, nw, "siteB", func(cfg *ServerConfig) {
		spy.Storage = cfg.Storage
		cfg.Storage = spy
	})
	laptop := nw.Host("laptop")
	src := a.connect(t, laptop, true)
	proxy, err := gsi.NewProxy(b.user, gsi.ProxyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	o := obs.Nop()
	dst, err := DialWithOptions(laptop, b.addr, proxy, b.trust, DialOptions{Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	if err := dst.Delegate(time.Hour); err != nil {
		t.Fatal(err)
	}
	dcsc := credWithRoot(t, a.user, a.ca)
	commands := func() map[string]int64 {
		n := make(map[string]int64)
		for _, m := range o.Registry().Snapshot() {
			if cmd, ok := strings.CutPrefix(m.Name, "gridftp.client.commands{cmd="); ok {
				n[strings.TrimSuffix(cmd, "}")] = m.Value
			}
		}
		return n
	}

	payload := pattern(300000)
	a.putFile(t, "/src.bin", payload)
	var perFile [2]map[string]int64
	for i, size := range []int64{0, int64(len(payload))} {
		before := commands()
		dstPath := fmt.Sprintf("/dst%d.bin", i)
		if _, err := ThirdParty(src, "/src.bin", dst, dstPath, ThirdPartyOptions{
			DCSC: dcsc, DCSCTarget: DCSCDest, Size: size,
		}); err != nil {
			t.Fatal(err)
		}
		if got := b.readFile(t, dstPath); !bytes.Equal(got, payload) {
			t.Fatalf("%s: content mismatch", dstPath)
		}
		perFile[i] = commands()
		for cmd, v := range before {
			perFile[i][cmd] -= v
		}
	}
	if got := spy.recorded(); len(got) != 1 || got[0] != int64(len(payload)) {
		t.Fatalf("destination preallocations %v, want [%d]", got, len(payload))
	}
	perFile[0]["ALLO"]++
	if !maps.Equal(perFile[0], perFile[1]) {
		t.Fatalf("commands per file without Size %v (ALLO added), with Size %v", perFile[0], perFile[1])
	}
}
