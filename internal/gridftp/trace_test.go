package gridftp

import (
	"strings"
	"testing"
	"time"

	"gridftp.dev/instant/internal/dsi"
	"gridftp.dev/instant/internal/gsi"
	"gridftp.dev/instant/internal/netsim"
	"gridftp.dev/instant/internal/obs"
)

// obsSite builds a site whose server records into a fresh obs bundle.
func obsSite(t *testing.T, nw *netsim.Network, name string, mut ...func(*ServerConfig)) (*site, *obs.Obs) {
	t.Helper()
	o := obs.Nop()
	muts := append([]func(*ServerConfig){func(cfg *ServerConfig) { cfg.Obs = o }}, mut...)
	return newSite(t, nw, name, muts...), o
}

// advertises reports whether the server lists feature in its FEAT reply.
func advertises(t *testing.T, c *Client, feature string) bool {
	t.Helper()
	feats, err := c.Features()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range feats {
		if strings.EqualFold(strings.TrimSpace(f), feature) {
			return true
		}
	}
	return false
}

func TestSiteHelpAndUnknown(t *testing.T) {
	nw := netsim.NewNetwork()
	s := newSite(t, nw, "siteA")
	c := s.connect(t, nw.Host("laptop"), false)

	r, err := c.cmdExpect("SITE", "HELP", 200)
	if err != nil {
		t.Fatalf("SITE HELP: %v", err)
	}
	text := strings.Join(r.Lines, "\n")
	for _, want := range []string{"HELP", "TRACE"} {
		if !strings.Contains(text, want) {
			t.Errorf("SITE HELP missing %q:\n%s", want, text)
		}
	}

	if _, err := c.cmdExpect("SITE", "FROBNICATE", 500); err != nil {
		t.Fatalf("unknown SITE subcommand: want 500, got %v", err)
	}
	if _, err := c.cmdExpect("SITE", "", 501); err != nil {
		t.Fatalf("bare SITE: want 501, got %v", err)
	}
	// The session must still work after rejected SITE commands.
	if err := c.Noop(); err != nil {
		t.Fatalf("session poisoned after SITE errors: %v", err)
	}
}

func TestSiteTraceBindsTransferSpans(t *testing.T) {
	nw := netsim.NewNetwork()
	s, o := obsSite(t, nw, "siteA")
	s.putFile(t, "/data.bin", pattern(128<<10))
	c := s.connect(t, nw.Host("laptop"), true)

	if !advertises(t, c, "TRACE") {
		t.Fatal("server should advertise TRACE")
	}
	caller := obs.NewTracer()
	parent := caller.StartSpan("task")
	joined, err := c.PropagateTrace(parent.Context())
	if err != nil || !joined {
		t.Fatalf("PropagateTrace: joined=%v err=%v", joined, err)
	}

	if _, err := c.Get("/data.bin", dsi.NewBufferFile(nil)); err != nil {
		t.Fatal(err)
	}

	var retr *obs.SpanInfo
	for _, si := range o.Trace.Spans() {
		if si.Name == "gridftp.retr" {
			retr = &si
			break
		}
	}
	if retr == nil {
		t.Fatalf("no gridftp.retr span recorded; have %v", o.Trace.Spans())
	}
	if retr.TraceID != parent.TraceID.String() {
		t.Errorf("retr span trace id = %s, want %s", retr.TraceID, parent.TraceID)
	}
	if retr.ParentSpanID != parent.SpanID.String() {
		t.Errorf("retr span parent = %s, want %s", retr.ParentSpanID, parent.SpanID)
	}
	if !retr.Ended {
		t.Error("retr span not ended")
	}
	if retr.Attrs["path"] != "/data.bin" {
		t.Errorf("retr span path attr = %q", retr.Attrs["path"])
	}
}

func TestSiteTraceMalformedDoesNotPoisonSession(t *testing.T) {
	nw := netsim.NewNetwork()
	s, o := obsSite(t, nw, "siteA")
	s.putFile(t, "/data.bin", pattern(64<<10))
	c := s.connect(t, nw.Host("laptop"), true)

	for _, bad := range []string{"TRACE", "TRACE nonsense", "TRACE 00-zz-zz-01"} {
		if _, err := c.cmdExpect("SITE", bad, 501); err != nil {
			t.Fatalf("SITE %s: want 501, got %v", bad, err)
		}
	}
	// The transfer still works, and its span roots locally (fresh trace).
	if _, err := c.Get("/data.bin", dsi.NewBufferFile(nil)); err != nil {
		t.Fatalf("session poisoned after malformed SITE TRACE: %v", err)
	}
	for _, si := range o.Trace.Spans() {
		if si.Name == "gridftp.retr" {
			if si.ParentSpanID != "" {
				t.Errorf("span should root locally after rejected traceparent, parent=%s", si.ParentSpanID)
			}
			if si.TraceID == "" {
				t.Error("locally rooted span has no trace id")
			}
			return
		}
	}
	t.Fatal("no gridftp.retr span recorded")
}

// TestSiteTraceMalformedKeepsPriorContext proves a rejected traceparent
// leaves a previously installed context in force.
func TestSiteTraceMalformedKeepsPriorContext(t *testing.T) {
	nw := netsim.NewNetwork()
	s, o := obsSite(t, nw, "siteA")
	s.putFile(t, "/data.bin", pattern(8<<10))
	c := s.connect(t, nw.Host("laptop"), true)

	caller := obs.NewTracer()
	parent := caller.StartSpan("task")
	if joined, err := c.PropagateTrace(parent.Context()); err != nil || !joined {
		t.Fatalf("PropagateTrace: joined=%v err=%v", joined, err)
	}
	if _, err := c.cmdExpect("SITE", "TRACE garbage", 501); err != nil {
		t.Fatalf("want 501, got %v", err)
	}
	if _, err := c.Get("/data.bin", dsi.NewBufferFile(nil)); err != nil {
		t.Fatal(err)
	}
	for _, si := range o.Trace.Spans() {
		if si.Name == "gridftp.retr" {
			if si.TraceID != parent.TraceID.String() {
				t.Errorf("prior trace context lost: got %s want %s", si.TraceID, parent.TraceID)
			}
			return
		}
	}
	t.Fatal("no gridftp.retr span recorded")
}

func TestTraceDisabledDegradesGracefully(t *testing.T) {
	nw := netsim.NewNetwork()
	s, o := obsSite(t, nw, "siteA", func(cfg *ServerConfig) { cfg.DisableTrace = true })
	s.putFile(t, "/data.bin", pattern(32<<10))
	c := s.connect(t, nw.Host("laptop"), true)

	if advertises(t, c, "TRACE") {
		t.Fatal("DisableTrace server must not advertise TRACE")
	}
	caller := obs.NewTracer()
	parent := caller.StartSpan("task")
	joined, err := c.PropagateTrace(parent.Context())
	if err != nil {
		t.Fatalf("PropagateTrace against no-TRACE server must not error: %v", err)
	}
	if joined {
		t.Fatal("PropagateTrace should report not joined")
	}
	// SITE TRACE sent anyway is rejected as unknown, and SITE HELP hides it.
	if _, err := c.cmdExpect("SITE", "TRACE "+obs.Inject(parent.Context()), 500); err != nil {
		t.Fatalf("SITE TRACE on disabled server: want 500, got %v", err)
	}
	r, err := c.cmdExpect("SITE", "HELP", 200)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(strings.Join(r.Lines, "\n"), "TRACE") {
		t.Error("SITE HELP should not list TRACE when disabled")
	}
	// Transfers still work; spans root locally.
	if _, err := c.Get("/data.bin", dsi.NewBufferFile(nil)); err != nil {
		t.Fatal(err)
	}
	for _, si := range o.Trace.Spans() {
		if si.Name == "gridftp.retr" && si.TraceID == parent.TraceID.String() {
			t.Error("span joined remote trace despite DisableTrace")
		}
	}
}

func TestThirdPartyTraceJoinsBothEndpoints(t *testing.T) {
	nw := netsim.NewNetwork()
	srcSite, srcObs := obsSite(t, nw, "src")
	dstSite, dstObs := obsSite(t, nw, "dst")
	// Cross-trust so the third-party data channels authenticate.
	srcSite.trust.AddCA(dstSite.ca.Certificate())
	dstSite.trust.AddCA(srcSite.ca.Certificate())
	dstSite.gridmap.AddEntry(srcSite.user.DN(), "alice")
	srcSite.putFile(t, "/src.bin", pattern(256<<10))

	laptop := nw.Host("laptop")
	src := srcSite.connect(t, laptop, true)
	proxy, err := gsi.NewProxy(srcSite.user, gsi.ProxyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	dst, err := Dial(laptop, dstSite.addr, proxy, dstSite.trust)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dst.Close() })
	if err := dst.Delegate(time.Hour); err != nil {
		t.Fatal(err)
	}

	caller := obs.NewTracer()
	parent := caller.StartSpan("task")
	if _, err := ThirdParty(src, "/src.bin", dst, "/dst.bin", ThirdPartyOptions{
		Trace: parent.Context(),
	}); err != nil {
		t.Fatal(err)
	}
	if got := dstSite.readFile(t, "/dst.bin"); len(got) != 256<<10 {
		t.Fatalf("destination file has %d bytes", len(got))
	}

	check := func(o *obs.Obs, name string) {
		t.Helper()
		for _, si := range o.Trace.Spans() {
			if si.Name == name {
				if si.TraceID != parent.TraceID.String() {
					t.Errorf("%s trace id = %s, want %s", name, si.TraceID, parent.TraceID)
				}
				if si.ParentSpanID != parent.SpanID.String() {
					t.Errorf("%s parent = %s, want %s", name, si.ParentSpanID, parent.SpanID)
				}
				return
			}
		}
		t.Errorf("no %s span recorded", name)
	}
	check(srcObs, "gridftp.retr")
	check(dstObs, "gridftp.stor")
}
