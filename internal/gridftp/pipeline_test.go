package gridftp

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"gridftp.dev/instant/internal/dsi"
	"gridftp.dev/instant/internal/gsi"
	"gridftp.dev/instant/internal/netsim"
	"gridftp.dev/instant/internal/obs"
	"gridftp.dev/instant/internal/obs/streamstats"
)

func TestPutManyGetManyRoundTrip(t *testing.T) {
	nw := netsim.NewNetwork()
	s := newSite(t, nw, "siteA")
	c := s.connect(t, nw.Host("laptop"), true)

	const n = 20
	var puts []PutItem
	var payloads [][]byte
	for i := 0; i < n; i++ {
		p := pattern(1000 + i*137)
		payloads = append(payloads, p)
		puts = append(puts, PutItem{Path: fmt.Sprintf("/f%02d", i), Src: dsi.NewBufferFile(p)})
	}
	if err := c.PutMany(puts); err != nil {
		t.Fatal(err)
	}
	for i := range puts {
		if got := s.readFile(t, puts[i].Path); !bytes.Equal(got, payloads[i]) {
			t.Fatalf("file %d mismatch", i)
		}
	}

	var gets []GetItem
	var dsts []*dsi.BufferFile
	for i := 0; i < n; i++ {
		d := dsi.NewBufferFile(nil)
		dsts = append(dsts, d)
		gets = append(gets, GetItem{Path: fmt.Sprintf("/f%02d", i), Dst: d})
	}
	if err := c.GetMany(gets); err != nil {
		t.Fatal(err)
	}
	for i := range gets {
		if !bytes.Equal(dsts[i].Bytes(), payloads[i]) {
			t.Fatalf("get %d mismatch", i)
		}
	}
}

func TestGetManyMissingFileFailsCleanly(t *testing.T) {
	nw := netsim.NewNetwork()
	s := newSite(t, nw, "siteA")
	c := s.connect(t, nw.Host("laptop"), true)
	s.putFile(t, "/ok", pattern(100))
	err := c.GetMany([]GetItem{
		{Path: "/ok", Dst: dsi.NewBufferFile(nil)},
		{Path: "/missing", Dst: dsi.NewBufferFile(nil)},
	})
	if err == nil {
		t.Fatal("missing file in pipeline should fail")
	}
	// Session must still be usable after the failure.
	if err := c.Noop(); err != nil {
		t.Fatalf("session dead after pipelined failure: %v", err)
	}
}

func TestPipeliningBeatsSequentialOnHighRTT(t *testing.T) {
	nw := netsim.NewNetwork()
	nw.SetLink("laptop", "siteA", netsim.LinkParams{
		Bandwidth: 100e6, RTT: 20 * time.Millisecond, StreamWindow: 1 << 22,
	})
	s := newSite(t, nw, "siteA")
	const n = 15
	for i := 0; i < n; i++ {
		s.putFile(t, fmt.Sprintf("/f%02d", i), pattern(4096))
	}

	// Sequential: one Get at a time (still cached channels).
	cSeq := s.connect(t, nw.Host("laptop"), true)
	start := time.Now()
	for i := 0; i < n; i++ {
		if _, err := cSeq.Get(fmt.Sprintf("/f%02d", i), dsi.NewBufferFile(nil)); err != nil {
			t.Fatal(err)
		}
	}
	seq := time.Since(start)

	// Pipelined.
	cPipe := s.connect(t, nw.Host("laptop"), true)
	var gets []GetItem
	for i := 0; i < n; i++ {
		gets = append(gets, GetItem{Path: fmt.Sprintf("/f%02d", i), Dst: dsi.NewBufferFile(nil)})
	}
	start = time.Now()
	if err := cPipe.GetMany(gets); err != nil {
		t.Fatal(err)
	}
	piped := time.Since(start)

	if piped >= seq {
		t.Fatalf("pipelining (%v) should beat sequential (%v) at 20ms RTT", piped, seq)
	}
	t.Logf("sequential %v, pipelined %v (%.1fx)", seq, piped, float64(seq)/float64(piped))
}

// TestPipelinedTransfersReachClientTelemetry checks that GetMany and
// PutMany go through the same client bookkeeping as Get and Put: one
// command count per transfer and one finished stream-telemetry transfer
// per file.
func TestPipelinedTransfersReachClientTelemetry(t *testing.T) {
	nw := netsim.NewNetwork()
	s := newSite(t, nw, "siteA")
	proxy, err := gsi.NewProxy(s.user, gsi.ProxyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	o := obs.Nop()
	streams := streamstats.New(streamstats.Options{})
	defer streams.Close()
	c, err := DialWithOptions(nw.Host("laptop"), s.addr, proxy, s.trust, DialOptions{Obs: o, Streams: streams})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Delegate(time.Hour); err != nil {
		t.Fatal(err)
	}

	const n = 4
	var puts []PutItem
	var gets []GetItem
	for i := 0; i < n; i++ {
		path := fmt.Sprintf("/t%d", i)
		puts = append(puts, PutItem{Path: path, Src: dsi.NewBufferFile(pattern(5000 + i))})
		gets = append(gets, GetItem{Path: path, Dst: dsi.NewBufferFile(nil)})
	}
	if err := c.PutMany(puts); err != nil {
		t.Fatal(err)
	}
	if err := c.GetMany(gets); err != nil {
		t.Fatal(err)
	}

	for _, cmd := range []string{"STOR", "RETR"} {
		if v := o.Registry().Counter(obs.Name("gridftp.client.commands", "cmd="+cmd)).Value(); v != n {
			t.Errorf("counted %d %s commands, want %d", v, cmd, n)
		}
	}
	verbs := make(map[string]int)
	for _, th := range streams.Health() {
		if !th.Done || th.Error != "" {
			t.Errorf("stream transfer %s/%s: done=%v err=%q", th.Label, th.Verb, th.Done, th.Error)
		}
		verbs[th.Verb]++
	}
	if verbs["put"] != n || verbs["get"] != n {
		t.Errorf("stream telemetry recorded %v, want %d put and %d get", verbs, n, n)
	}
}
