package streamstats

import (
	"errors"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"gridftp.dev/instant/internal/obs"
	"gridftp.dev/instant/internal/obs/eventlog"
)

// nullConn accepts every write and fills every read; it has no wire
// counters. Only Read and Write are ever called on it.
type nullConn struct{ net.Conn }

func (nullConn) Read(p []byte) (int, error)  { return len(p), nil }
func (nullConn) Write(p []byte) (int, error) { return len(p), nil }

// recordingSink is a SeriesSink that also records retirements.
type recordingSink struct {
	mu      sync.Mutex
	last    map[string]float64
	retired []string
}

func (s *recordingSink) Observe(series string, _ time.Time, v float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.last == nil {
		s.last = make(map[string]float64)
	}
	s.last[series] = v
}

func (s *recordingSink) RetireSeries(prefix string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.retired = append(s.retired, prefix)
	return 1
}

func (s *recordingSink) value(series string) (float64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.last[series]
	return v, ok
}

// newTestRegistry returns a registry whose background poller never ticks
// during a test, so each pass runs from an explicit poll(now).
func newTestRegistry(t *testing.T, opts Options) (*Registry, *obs.Obs, *recordingSink) {
	t.Helper()
	o := obs.Nop()
	sink := &recordingSink{}
	o.Series = sink
	opts.Obs = o
	opts.Interval = time.Hour
	r := New(opts)
	t.Cleanup(r.Close)
	return r, o, sink
}

func countEvents(l *eventlog.Log, typ string) int {
	n := 0
	for _, e := range l.Events() {
		if e.Type == typ {
			n++
		}
	}
	return n
}

func write(t *testing.T, c net.Conn, n int) {
	t.Helper()
	if _, err := c.Write(make([]byte, n)); err != nil {
		t.Fatal(err)
	}
}

func TestPollUpdatesThroughputEWMA(t *testing.T) {
	r, _, sink := newTestRegistry(t, Options{EWMAAlpha: 0.5})
	tr := r.Begin("task-1", "retr")
	c := tr.Wrap(0, nullConn{}, nil)

	base := time.Now()
	r.poll(base) // first pass only sets the baseline
	write(t, c, 1000)
	r.poll(base.Add(time.Second)) // 1000 B/s: 0.5*1000 + 0.5*0
	write(t, c, 3000)
	r.poll(base.Add(2 * time.Second)) // 3000 B/s: 0.5*3000 + 0.5*500

	h := r.Health()
	if len(h) != 1 || len(h[0].Streams) != 1 {
		t.Fatalf("health = %+v, want one transfer with one stream", h)
	}
	st := h[0].Streams[0]
	if math.Abs(st.Throughput-1750) > 1e-9 {
		t.Fatalf("EWMA throughput = %v, want 1750", st.Throughput)
	}
	if st.Bytes != 4000 {
		t.Fatalf("bytes = %d, want 4000", st.Bytes)
	}
	if v, ok := sink.value("gridftp.stream.task-1.0.throughput"); !ok || math.Abs(v-1750) > 1e-9 {
		t.Fatalf("throughput series = %v (present %v), want 1750", v, ok)
	}
	if _, ok := sink.value("gridftp.stream.task-1.0.rtt"); ok {
		t.Fatal("rtt series emitted for a stream without wire counters")
	}
}

func TestStallAndRecoverEdges(t *testing.T) {
	const stall = time.Minute
	r, o, _ := newTestRegistry(t, Options{Stall: stall})
	tr := r.Begin("task-2", "stor")
	c := tr.Wrap(0, nullConn{}, nil)
	write(t, c, 10)
	events := o.EventLog()
	stalledGauge := o.Registry().Gauge("gridftp.streams.stalled")

	idle := time.Now().Add(2 * stall)
	r.poll(idle)
	r.poll(idle.Add(time.Second)) // still stalled: no second event
	if n := countEvents(events, eventlog.StreamStalled); n != 1 {
		t.Fatalf("%d stream.stalled events, want 1", n)
	}
	if r.StalledStreams() != 1 || stalledGauge.Value() != 1 {
		t.Fatalf("stalled = %d, gauge %d; want 1", r.StalledStreams(), stalledGauge.Value())
	}
	if countEvents(events, eventlog.StreamRecovered) != 0 {
		t.Fatal("stream.recovered before any progress")
	}

	write(t, c, 10) // progress
	r.poll(time.Now())
	r.poll(time.Now())
	if n := countEvents(events, eventlog.StreamRecovered); n != 1 {
		t.Fatalf("%d stream.recovered events, want 1", n)
	}
	if r.StalledStreams() != 0 || stalledGauge.Value() != 0 {
		t.Fatalf("stalled = %d, gauge %d after progress; want 0", r.StalledStreams(), stalledGauge.Value())
	}

	// A stream still stalled when its transfer ends recovers as closed.
	r.poll(time.Now().Add(2 * stall))
	tr.Done(nil)
	if n := countEvents(events, eventlog.StreamRecovered); n != 2 {
		t.Fatalf("%d stream.recovered events after Done, want 2", n)
	}
	if n := countEvents(events, eventlog.StreamStalled); n != 2 {
		t.Fatalf("%d stream.stalled events, want 2", n)
	}
}

func TestAbortOnStallCallsAbortOnce(t *testing.T) {
	const stall = time.Minute
	r, _, _ := newTestRegistry(t, Options{Stall: stall, AbortOnStall: true})
	tr := r.Begin("task-3", "retr")
	c0 := tr.Wrap(0, nullConn{}, nil)
	c1 := tr.Wrap(1, nullConn{}, nil)
	aborts := 0
	tr.SetAbort(func() { aborts++ })
	write(t, c0, 1)
	write(t, c1, 1)

	idle := time.Now().Add(2 * stall)
	r.poll(idle) // both streams stall in one pass
	r.poll(idle.Add(time.Second))
	// Recover, then stall again: the transfer was already aborted.
	write(t, c0, 1)
	r.poll(time.Now())
	r.poll(time.Now().Add(2 * stall))
	if aborts != 1 {
		t.Fatalf("abort called %d times, want 1", aborts)
	}
	if !tr.StallAborted() {
		t.Fatal("StallAborted false after a watchdog abort")
	}

	// Without AbortOnStall the watchdog only reports.
	r2, _, _ := newTestRegistry(t, Options{Stall: stall})
	tr2 := r2.Begin("task-4", "retr")
	write(t, tr2.Wrap(0, nullConn{}, nil), 1)
	tr2.SetAbort(func() { t.Error("abort called without AbortOnStall") })
	r2.poll(time.Now().Add(2 * stall))
	if tr2.StallAborted() {
		t.Fatal("StallAborted true without AbortOnStall")
	}
}

func TestDoneRetiresSeriesWithLastTransferOfLabel(t *testing.T) {
	r, _, sink := newTestRegistry(t, Options{Retain: 1})
	first := r.Begin("task-5", "stor")
	second := r.Begin("task-5", "stor")
	other := r.Begin("task-6", "retr")
	for _, tr := range []*Transfer{first, second, other} {
		write(t, tr.Wrap(0, nullConn{}, nil), 1)
	}
	r.poll(time.Now())

	first.Done(nil)
	if len(sink.retired) != 0 {
		t.Fatalf("retired %v while a transfer under the label is live", sink.retired)
	}
	second.Done(errors.New("boom"))
	second.Done(nil) // a second Done is a no-op
	if len(sink.retired) != 1 || sink.retired[0] != "gridftp.stream.task-5." {
		t.Fatalf("retired %v, want [gridftp.stream.task-5.]", sink.retired)
	}

	// Retain bounds the finished ring; the active transfer comes first.
	h := r.Health()
	if len(h) != 2 || h[0].Label != "task-6" || h[0].Done || !h[1].Done || h[1].Error != "boom" {
		t.Fatalf("health = %+v, want active task-6 then the last finished task-5", h)
	}
	// Finished transfers drop out of the poll.
	r.poll(time.Now())
	if got := r.opts.Obs.Registry().Gauge("gridftp.streams.active").Value(); got != 1 {
		t.Fatalf("active streams = %d, want 1", got)
	}
}

func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	tr := r.Begin("task-7", "retr")
	if tr != nil {
		t.Fatal("nil registry returned a transfer")
	}
	conn := nullConn{}
	if got := tr.Wrap(0, conn, conn); got != net.Conn(conn) {
		t.Fatal("nil transfer wrapped the connection")
	}
	tr.SetAbort(func() { t.Error("abort on a nil transfer") })
	tr.Done(errors.New("ignored"))
	if tr.Label() != "" || tr.StallAborted() {
		t.Fatal("nil transfer reports state")
	}
	if r.Stall() != 0 || r.StalledStreams() != 0 || r.Health() != nil {
		t.Fatal("nil registry reports state")
	}
	if _, ok := r.WireSummary("task-"); ok {
		t.Fatal("nil registry matched a wire summary")
	}
	r.Close()
}
