package fleet_test

// Tests for the push envelope: one StartPusher envelope per tick carries
// an instance's metrics, tenant table and profile summary through the
// head's admin-mounted /v1/push route, and the head folds restarts and
// staleness for all three together.

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"gridftp.dev/instant/internal/admin"
	"gridftp.dev/instant/internal/dsi"
	"gridftp.dev/instant/internal/gcmu"
	"gridftp.dev/instant/internal/netsim"
	"gridftp.dev/instant/internal/obs"
	"gridftp.dev/instant/internal/obs/expfmt"
	"gridftp.dev/instant/internal/obs/fleet"
	"gridftp.dev/instant/internal/obs/tenant"
	"gridftp.dev/instant/internal/pam"
)

// fixedProfiler is a continuous profiler whose newest summary is fixed.
type fixedProfiler struct{ sum obs.ProfileSummary }

func (p fixedProfiler) ProfileSummary() (obs.ProfileSummary, bool) { return p.sum, true }

// pushedInstance is one process's telemetry as StartPusher sees it: a
// registry with a controllable start time, a tenant accountant, and a
// profile summary.
type pushedInstance struct {
	o    *obs.Obs
	acct *tenant.Accountant
}

func newPushedInstance(start int64, bytes int64) *pushedInstance {
	o := obs.Nop()
	o.Registry().GaugeFunc("process.start_time_seconds", func() int64 { return start })
	o.Registry().Counter(obs.Name(obs.TransferBytesCounter, "RETR")).Add(bytes)
	o.Registry().Gauge("transfer.active_transfers").Set(2)
	o.Profile = fixedProfiler{obs.ProfileSummary{
		Window:   obs.ProfileWindow{ID: int(start)},
		TopCPU:   []obs.ProfileFrame{{Func: "gridftp.sendModeE", Flat: 70}},
		TopAlloc: []obs.ProfileFrame{{Func: "xio.frame", Flat: 4096}},
	}}
	acct := tenant.New(tenant.Options{Capacity: 8, TopK: 4})
	acct.BytesMoved("/CN=alice", bytes)
	acct.TransferStarted("/CN=alice")
	return &pushedInstance{o: o, acct: acct}
}

// push runs StartPusher with an interval that never fires: stop makes
// exactly one final push and waits for it.
func (p *pushedInstance) push(url string) {
	fleet.StartPusher(url+"/v1/push", "ep-a", p.o, p.acct, time.Hour)()
}

type fleetView struct {
	counter, gauge int64
	gaugeLive      bool
	tenant         tenant.Stat
	profile        fleet.FleetProfile
	instance       fleet.Instance
}

// view reads the head's three planes over HTTP.
func view(t *testing.T, ts *httptest.Server) fleetView {
	t.Helper()
	var v fleetView
	resp, err := ts.Client().Get(ts.URL + "/fleet/metrics")
	if err != nil {
		t.Fatal(err)
	}
	agg, err := expfmt.ParseTextSnapshot(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("/fleet/metrics: %v", err)
	}
	for _, m := range agg.Metrics {
		switch m.Name {
		case "fleet_gridftp_server_bytes{RETR}":
			v.counter = m.Value
		case "fleet_transfer_active_transfers":
			v.gauge, v.gaugeLive = m.Value, true
		}
	}
	var tenants struct {
		Tenants []tenant.Stat `json:"tenants"`
	}
	getJSON(t, ts.Client(), ts.URL+"/fleet/tenants", &tenants)
	if len(tenants.Tenants) != 1 || tenants.Tenants[0].DN != "/CN=alice" {
		t.Fatalf("/fleet/tenants = %+v, want alice alone", tenants.Tenants)
	}
	v.tenant = tenants.Tenants[0]
	getJSON(t, ts.Client(), ts.URL+"/fleet/profile", &v.profile)
	var insts []fleet.Instance
	getJSON(t, ts.Client(), ts.URL+"/fleet/instances", &insts)
	if len(insts) != 1 {
		t.Fatalf("/fleet/instances = %+v, want one", insts)
	}
	v.instance = insts[0]
	return v
}

func TestPusherEndToEnd(t *testing.T) {
	clk := &fleetClock{now: time.Unix(1_700_000_000, 0)}
	headObs := obs.Nop()
	svc := fleet.New(fleet.Options{Obs: headObs, StaleAfter: 3 * time.Second, Now: clk.Now})
	adm := admin.New(headObs)
	adm.SetFleet(svc.Handler())
	ts := httptest.NewServer(adm.Handler())
	defer ts.Close()

	// One envelope populates all three planes.
	newPushedInstance(100, 500).push(ts.URL)
	svc.Tick(clk.Now())
	v := view(t, ts)
	if v.counter != 500 || v.gauge != 2 || v.instance.Pushes != 1 || v.instance.StartTime != 100 {
		t.Fatalf("after first push: counter %d gauge %d instance %+v, want 500, 2, 1 push at start 100",
			v.counter, v.gauge, v.instance)
	}
	if v.tenant.Bytes != 500 || v.tenant.Active != 1 {
		t.Fatalf("tenant after first push = %+v, want 500 bytes, 1 active", v.tenant)
	}
	if got := v.profile.Instances["ep-a"].Window.ID; got != 100 {
		t.Fatalf("profile window id %d, want 100", got)
	}
	if len(v.profile.TopCPU) != 1 || v.profile.TopCPU[0].Func != "gridftp.sendModeE" {
		t.Fatalf("fleet TopCPU = %+v", v.profile.TopCPU)
	}

	// Restart: a new process (new start time, counters and tenant table
	// starting over at 80) folds the old epoch exactly once, however many
	// times the new epoch pushes.
	restarted := newPushedInstance(200, 80)
	for i := 0; i < 3; i++ {
		restarted.push(ts.URL)
		svc.Tick(clk.Advance(time.Second))
	}
	v = view(t, ts)
	if v.counter != 580 || v.tenant.Bytes != 580 || v.instance.Restarts != 1 {
		t.Fatalf("after restart: counter %d, tenant bytes %d, restarts %d; want 580, 580, 1",
			v.counter, v.tenant.Bytes, v.instance.Restarts)
	}
	if v.tenant.Active != 1 || v.profile.Instances["ep-a"].Window.ID != 200 {
		t.Fatalf("after restart: tenant %+v, profile %+v", v.tenant, v.profile.Instances)
	}

	// Staleness: one silent horizon drops the gauges, the tenant's Active
	// and the profile rankings together; cumulative sums stay frozen and
	// the profile stays listed.
	svc.Tick(clk.Advance(time.Minute))
	v = view(t, ts)
	if !v.instance.Stale || v.gaugeLive {
		t.Fatalf("stale instance: %+v, gauge still aggregated: %v", v.instance, v.gaugeLive)
	}
	if v.tenant.Active != 0 || v.tenant.Bytes != 580 || v.counter != 580 {
		t.Fatalf("stale instance: tenant %+v, counter %d; want 0 active, 580 bytes frozen", v.tenant, v.counter)
	}
	if len(v.profile.TopCPU) != 0 || len(v.profile.Instances) != 1 {
		t.Fatalf("stale profile: rankings %+v, instances %d; want none ranked, one listed",
			v.profile.TopCPU, len(v.profile.Instances))
	}

	// Malformed envelopes are rejected before they reach the registry.
	for _, body := range []string{`{"version":1,"metrics":""}`, `{"version":9,"instance":"x"}`, `not json`} {
		resp, err := ts.Client().Post(ts.URL+"/v1/push", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("POST %s = %d, want 400", body, resp.StatusCode)
		}
	}
}

// TestServerPushYieldsGoodput pushes a real GridFTP server's registry and
// checks that fleet goodput reads the byte counters the server emits.
func TestServerPushYieldsGoodput(t *testing.T) {
	nw := netsim.NewNetwork()
	dir := pam.NewLDAPDirectory("dc=siteA")
	dir.AddEntry("alice", "pw")
	accounts := pam.NewAccountDB()
	accounts.Add(pam.Account{Name: "alice"})
	o := obs.Nop()
	ep, err := gcmu.Install(gcmu.Options{
		Name: "siteA", Host: nw.Host("siteA"), Accounts: accounts, Obs: o,
		Auth: pam.NewStack("myproxy", accounts, pam.Entry{Control: pam.Required, Module: &pam.LDAPModule{Dir: dir}}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()

	var now atomic.Int64
	now.Store(1_700_000_000)
	clock := func() time.Time { return time.Unix(now.Load(), 0) }
	svc := fleet.New(fleet.Options{Obs: obs.Nop(), Now: clock})
	adm := admin.New(obs.Nop())
	adm.SetFleet(svc.Handler())
	ts := httptest.NewServer(adm.Handler())
	defer ts.Close()
	push := func() { fleet.StartPusher(ts.URL+"/v1/push", "siteA", o, nil, time.Hour)() }

	push()
	svc.Tick(clock())

	client, err := ep.Connect(nw.Host("laptop"), "alice", pam.PasswordConv("pw"))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	const size = 64 << 10
	if _, err := client.Put("/f", dsi.NewBufferFile(make([]byte, size))); err != nil {
		t.Fatal(err)
	}
	now.Add(1)
	push()
	svc.Tick(clock())

	if got := svc.Instances()[0].GoodputBps; got != size {
		t.Fatalf("instance goodput %v B/s, want %d (one %d-byte STOR over 1s)", got, size, size)
	}
	pts := svc.Recorder().Query("fleet.goodput.bytes_per_sec", time.Time{}, 0)
	if len(pts) == 0 || pts[len(pts)-1].V != size {
		t.Fatalf("fleet.goodput.bytes_per_sec = %+v, want last point %d", pts, size)
	}
}
