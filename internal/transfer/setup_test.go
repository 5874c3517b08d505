package transfer

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"gridftp.dev/instant/internal/authz"
	"gridftp.dev/instant/internal/dsi"
	"gridftp.dev/instant/internal/gridftp"
	"gridftp.dev/instant/internal/gsi"
	"gridftp.dev/instant/internal/obs"
)

// pairProxies derives per-attempt proxies from both activations, as an
// attempt does.
func pairProxies(t *testing.T, svc *Service, src, dst string) (*gsi.Credential, *gsi.Credential) {
	t.Helper()
	var proxies [2]*gsi.Credential
	for i, name := range []string{src, dst} {
		cred, err := svc.credentialFor(name, "alice")
		if err != nil {
			t.Fatal(err)
		}
		if proxies[i], err = gsi.NewProxy(cred, gsi.ProxyOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	return proxies[0], proxies[1]
}

// TestDialPairClosesSurvivingLeg: when one leg of a session pair fails,
// the other leg's session is closed (the server's active-session gauge
// returns to where it was), and the error is the source's when both fail.
func TestDialPairClosesSurvivingLeg(t *testing.T) {
	o := obs.Nop()
	w := buildWorld(t, Config{Obs: o}, false)
	activateBoth(t, w)
	srcEP, err := w.svc.endpoint("siteA")
	if err != nil {
		t.Fatal(err)
	}
	dstEP, err := w.svc.endpoint("siteB")
	if err != nil {
		t.Fatal(err)
	}
	srcProxy, dstProxy := pairProxies(t, w.svc, "siteA", "siteB")
	reg := o.Registry()
	active := reg.Gauge("gridftp.server.sessions_active")
	opened := reg.Counter("gridftp.server.sessions_total")
	activeBefore, openedBefore := active.Value(), opened.Value()

	deadDst, deadSrc := *dstEP, *srcEP
	deadDst.GridFTPAddr = "siteB:1" // nothing listens there
	deadSrc.GridFTPAddr = "siteA:1"
	sc := obs.NewTracer().StartSpan("task").Context()

	_, err = w.svc.dialPair(srcEP, &deadDst, srcProxy, dstProxy, sc, true, "t-1")
	if err == nil || !strings.Contains(err.Error(), "siteB:1") {
		t.Fatalf("dialPair with a dead destination: %v", err)
	}
	if got := opened.Value() - openedBefore; got != 1 {
		t.Fatalf("source server saw %d new sessions, want 1", got)
	}
	waitFor(t, 5*time.Second, "source session closed", func() bool {
		return active.Value() == activeBefore
	})

	_, err = w.svc.dialPair(&deadSrc, &deadDst, srcProxy, dstProxy, sc, true, "t-1")
	if err == nil || !strings.Contains(err.Error(), "siteA:1") {
		t.Fatalf("both legs dead: error %v, want the source's", err)
	}

	// A healthy pair still dials after the failures.
	pair, err := w.svc.dialPair(srcEP, dstEP, srcProxy, dstProxy, sc, true, "t-1")
	if err != nil {
		t.Fatal(err)
	}
	pair.Close()
	waitFor(t, 5*time.Second, "pair sessions closed", func() bool {
		return active.Value() == activeBefore
	})
}

// TestCrossCATaskInstallsDCSCPerPair runs a traced cross-CA directory
// task over several workers: each session pair installs DCSC during its
// set-up, before its first file (the cross-CA data channels authenticate
// only through it), and trace propagation sends no FEAT probe.
func TestCrossCATaskInstallsDCSCPerPair(t *testing.T) {
	o := obs.Nop()
	w := buildWorld(t, Config{Obs: o, TaskConcurrency: 3}, false)
	activateBoth(t, w)
	makeTree(t, w, "/tree", 9, 24<<10)

	task, err := w.svc.Submit("alice", "siteA", "/tree", "siteB", "/tree")
	if err != nil {
		t.Fatal(err)
	}
	done, err := w.svc.Wait(task.ID, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if done.Status != TaskSucceeded {
		t.Fatalf("task: %s (%s)", done.Status, done.Error)
	}
	if done.Workers != 3 {
		t.Fatalf("workers = %d, want 3", done.Workers)
	}
	reg := o.Registry()
	cmds := func(verb string) int64 {
		return reg.Counter(obs.Name("gridftp.client.commands", "cmd="+verb)).Value()
	}
	if got := cmds("DCSC"); got != int64(done.Workers) {
		t.Errorf("DCSC sent %d times, want one per session pair (%d)", got, done.Workers)
	}
	if got := cmds("FEAT"); got != 0 {
		t.Errorf("traced task sent %d FEAT commands, want 0", got)
	}
	// SITE TRACE and SITE TASK on both legs of every pair.
	if got := cmds("SITE"); got != int64(4*done.Workers) {
		t.Errorf("SITE sent %d times, want %d", got, 4*done.Workers)
	}
	for i := 0; i < 9; i++ {
		rel := fmt.Sprintf("/tree/f%03d.bin", i)
		if !bytes.Equal(w.readDst(t, rel), pattern(24<<10)) {
			t.Fatalf("%s: content differs", rel)
		}
	}
}

// TestTracedTaskWithoutServerTrace runs a traced cross-CA task between
// servers that do not offer SITE TRACE: propagation reports "not joined"
// inside each leg's set-up batch, the batch's later commands (marker
// cadence, task label, DCSC) still apply, and the task succeeds with the
// servers' spans rooted locally.
func TestTracedTaskWithoutServerTrace(t *testing.T) {
	o := obs.Nop()
	svc, storages := plainWorld(t, Config{Obs: o}, func(cfg *gridftp.ServerConfig) {
		cfg.DisableTrace = true
	})
	payload := pattern(300 << 10)
	f, err := storages[0].Create("alice", "/data.bin")
	if err != nil {
		t.Fatal(err)
	}
	if err := dsi.WriteAll(f, payload); err != nil {
		t.Fatal(err)
	}
	f.Close()

	task, err := svc.Submit("alice", "plainA", "/data.bin", "plainB", "/data.bin")
	if err != nil {
		t.Fatal(err)
	}
	done, err := svc.Wait(task.ID, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if done.Status != TaskSucceeded || done.Attempts != 1 {
		t.Fatalf("task: %s after %d attempts (%s)", done.Status, done.Attempts, done.Error)
	}
	got, err := storages[1].Open("alice", "/data.bin")
	if err != nil {
		t.Fatal(err)
	}
	data, err := dsi.ReadAll(got)
	got.Close()
	if err != nil || !bytes.Equal(data, payload) {
		t.Fatalf("destination content differs (err %v)", err)
	}
	reg := o.Registry()
	if n := reg.Counter(obs.Name("gridftp.client.commands", "cmd=FEAT")).Value(); n != 0 {
		t.Errorf("FEAT sent %d times, want 0", n)
	}
	// SITE TRACE (refused) and SITE TASK on both legs of the one pair.
	if n := reg.Counter(obs.Name("gridftp.client.commands", "cmd=SITE")).Value(); n != 4 {
		t.Errorf("SITE sent %d times, want 4", n)
	}
	var taskTrace string
	for _, si := range o.Trace.Spans() {
		if si.Name == "task" {
			taskTrace = si.TraceID
		}
	}
	if taskTrace == "" {
		t.Fatal("no task span recorded")
	}
	for _, si := range o.Trace.Spans() {
		if (si.Name == "gridftp.retr" || si.Name == "gridftp.stor") && si.TraceID == taskTrace {
			t.Errorf("%s joined the task trace on a server without TRACE", si.Name)
		}
	}
}

// plainWorld registers two bare GridFTP servers with separate CAs (so
// their transfers need DCSC) with a fresh service and activates alice on
// both directly, for server options gcmu.Install does not expose.
func plainWorld(t *testing.T, cfg Config, mut func(*gridftp.ServerConfig)) (*Service, [2]*dsi.MemStorage) {
	t.Helper()
	w := buildWorld(t, cfg, false) // only its network and service are used
	var storages [2]*dsi.MemStorage
	for i, name := range []string{"plainA", "plainB"} {
		ca, err := gsi.NewCA(gsi.DN("/O=Grid/OU="+name+"/CN=CA"), 24*time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		hostCred, err := ca.Issue(gsi.IssueOptions{
			Subject: gsi.DN("/O=Grid/OU=" + name + "/CN=host"), Lifetime: 12 * time.Hour, Host: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		user, err := ca.Issue(gsi.IssueOptions{
			Subject: gsi.DN("/O=Grid/OU=" + name + "/CN=alice"), Lifetime: 12 * time.Hour,
		})
		if err != nil {
			t.Fatal(err)
		}
		trust := gsi.NewTrustStore()
		trust.AddCA(ca.Certificate())
		gridmap := authz.NewGridmap()
		gridmap.AddEntry(user.DN(), "alice")
		storages[i] = dsi.NewMemStorage()
		storages[i].AddUser("alice")
		scfg := gridftp.ServerConfig{
			HostCred: hostCred, Trust: trust, Authz: gridmap, Storage: storages[i],
			MarkerInterval: 20 * time.Millisecond, DataTimeout: 2 * time.Second,
			EndpointName: name, Obs: cfg.Obs,
		}
		mut(&scfg)
		srv, err := gridftp.NewServer(w.nw.Host(name), scfg)
		if err != nil {
			t.Fatal(err)
		}
		addr, err := srv.ListenAndServe(gridftp.DefaultPort)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		if err := w.svc.RegisterEndpoint(Endpoint{
			Name: name, GridFTPAddr: addr.String(), Trust: trust, CADN: ca.DN(),
		}); err != nil {
			t.Fatal(err)
		}
		w.svc.storeActivation(name, "alice", user)
	}
	return w.svc, storages
}
