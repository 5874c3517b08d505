package main

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"time"

	"gridftp.dev/instant/internal/dsi"
	"gridftp.dev/instant/internal/gcmu"
	"gridftp.dev/instant/internal/netsim"
	"gridftp.dev/instant/internal/pam"
	"gridftp.dev/instant/internal/transfer"
)

// hosted-dataset: the hosted service runs third-party directory tasks
// between two GCMU endpoints whose CAs differ, so every worker pair
// installs DCSC. Each task copies a seeded dataset from siteA to a fresh
// directory on siteB over 10 ms RTT hops, one task in flight. Ops are
// bound by round trips, not CPU.
const (
	hostedFiles   = 48
	hostedMinSize = 16 << 10
	hostedMaxSize = 4 << 20
)

var hostedLink = netsim.LinkParams{RTT: 10 * time.Millisecond, StreamWindow: 4 << 20}

type hostedWorld struct {
	rec      *recorder
	nw       *netsim.Network
	svc      *transfer.Service
	eps      []*gcmu.Endpoint
	src, dst *dsi.MemStorage // undecorated stores, for seeding and checks
	sums     [hostedFiles]digest
	dataset  int64
	scratch  []byte

	task *transfer.Task
	ctr  counters
}

func hostedSrc(k int) string { return fmt.Sprintf("/data/f%02d.bin", k) }

func hostedDir(op int) string { return fmt.Sprintf("/t%06d", op) }

func newHosted(seed uint64, rec *recorder) (world, error) {
	nw := netsim.NewNetwork()
	for _, pair := range [][2]string{{"globusonline", "siteA"}, {"globusonline", "siteB"}, {"siteA", "siteB"}} {
		nw.SetLink(pair[0], pair[1], hostedLink)
	}
	w := &hostedWorld{rec: rec, nw: nw, scratch: make([]byte, 1<<20)}
	svc := transfer.NewService(nw.Host("globusonline"), transfer.Config{})
	for _, name := range []string{"siteA", "siteB"} {
		mem, ep, err := w.install(name, "pw-"+name)
		if err != nil {
			w.close()
			return nil, err
		}
		if name == "siteA" {
			w.src = mem
		} else {
			w.dst = mem
		}
		if err := svc.RegisterEndpoint(transfer.Endpoint{
			Name: ep.Name, GridFTPAddr: ep.GridFTPAddr, MyProxyAddr: ep.MyProxyAddr,
			Trust: ep.Trust, CADN: ep.SigningCA.DN(),
		}); err != nil {
			w.close()
			return nil, err
		}
	}
	w.svc = svc
	for _, name := range []string{"siteA", "siteB"} {
		t := rec.start("myproxy.activate", -1, 0)
		err := svc.ActivateWithPassword(name, user, "pw-"+name)
		rec.end(t, 0)
		if err != nil {
			w.close()
			return nil, err
		}
	}
	if err := w.src.Mkdir(user, "/data"); err != nil {
		w.close()
		return nil, err
	}
	sizes := rand.New(rand.NewPCG(seed, 4))
	for k, size := range logUniformSizes(sizes, hostedFiles, hostedMinSize, hostedMaxSize) {
		data := payload(seed, uint64(k), size)
		f, err := w.src.Create(user, hostedSrc(k))
		if err == nil {
			err = dsi.WriteAll(f, data)
			f.Close()
		}
		if err != nil {
			w.close()
			return nil, err
		}
		w.sums[k] = digestOf(data)
		w.dataset += int64(len(data))
	}
	return w, nil
}

// install sets up one GCMU endpoint with a one-user LDAP PAM stack.
func (w *hostedWorld) install(name, password string) (*dsi.MemStorage, *gcmu.Endpoint, error) {
	dir := pam.NewLDAPDirectory("dc=" + name)
	dir.AddEntry(user, password)
	accounts := pam.NewAccountDB()
	accounts.Add(pam.Account{Name: user})
	stack := pam.NewStack("myproxy", accounts, pam.Entry{Control: pam.Required, Module: &pam.LDAPModule{Dir: dir}})
	mem := dsi.NewMemStorage()
	mem.AddUser(user)
	var storage dsi.Storage = mem
	if w.rec != nil {
		storage = &timedStorage{inner: mem, rec: w.rec}
	}
	t := w.rec.start("gcmu.install", -1, 0)
	ep, err := gcmu.Install(gcmu.Options{Name: name, Host: w.nw.Host(name), Auth: stack, Accounts: accounts, Storage: storage})
	w.rec.end(t, 0)
	if err != nil {
		return nil, nil, err
	}
	w.eps = append(w.eps, ep)
	return mem, ep, nil
}

func (w *hostedWorld) prepare(int) { w.task = nil }

func (w *hostedWorld) paths(op int) []string {
	ps := []string{"/data", hostedDir(op)}
	for k := 0; k < hostedFiles; k++ {
		ps = append(ps, hostedSrc(k), hostedDir(op)+hostedSrc(k)[len("/data"):])
	}
	return ps
}

func (w *hostedWorld) op(i int) (time.Time, error) {
	start := time.Now()
	t := w.rec.start("op", i, 0)
	var paths []string
	if w.rec != nil {
		paths = w.paths(i)
		for _, p := range paths {
			w.rec.bind(p, i, t.id)
		}
	}
	ts := w.rec.start("transfer.submit", i, t.id)
	task, err := w.svc.Submit(user, "siteA", "/data", "siteB", hostedDir(i))
	w.rec.end(ts, 0)
	if err == nil {
		// Wait polls; the op ends at Task.Finished, not at Wait's return.
		task, err = w.svc.Wait(task.ID, 2*time.Minute)
	}
	w.rec.end(t, 0)
	w.rec.unbind(paths...)
	if err != nil {
		return time.Now(), err
	}
	w.task = task
	if w.rec != nil {
		w.rec.add("transfer.queue", i, t.id, start, task.Started)
		w.rec.add("transfer.run", i, t.id, task.Started, task.Finished)
	}
	w.ctr.tasks++
	w.ctr.workers += int64(task.Workers)
	w.ctr.attempts += int64(task.Attempts)
	w.ctr.markers += int64(task.PerfMarkers)
	if task.Status != transfer.TaskSucceeded {
		return task.Finished, fmt.Errorf("task %s %s: %s", task.ID, task.Status, task.Error)
	}
	w.ctr.files += hostedFiles
	w.ctr.payload += w.dataset
	return task.Finished, nil
}

// check verifies every file of the task's destination directory on siteB,
// then removes the directory so siteB's memory stays flat.
func (w *hostedWorld) check(i int) (int64, error) {
	if w.task == nil {
		return 0, errors.New("no finished task")
	}
	dir := hostedDir(i)
	var errs []error
	for k, want := range w.sums {
		p := dir + hostedSrc(k)[len("/data"):]
		f, err := w.dst.Open(user, p)
		if err == nil {
			err = verifyFile(f, want, w.scratch)
			f.Close()
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("siteB %s: %w", p, err))
		}
		if err := w.dst.Remove(user, p); err != nil && !errors.Is(err, dsi.ErrNotExist) {
			errs = append(errs, err)
		}
	}
	if err := w.dst.Remove(user, dir); err != nil {
		errs = append(errs, err)
	}
	if err := errors.Join(errs...); err != nil {
		return 0, err
	}
	return w.dataset, nil
}

func (w *hostedWorld) counters() counters {
	c := w.ctr
	ab := w.nw.LinkStats("siteA", "siteB")
	ga := w.nw.LinkStats("globusonline", "siteA")
	gb := w.nw.LinkStats("globusonline", "siteB")
	c.dataConns = ab.Conns
	c.ctrlConns = ga.Conns + gb.Conns
	c.wireBytes = ab.Bytes + ga.Bytes + gb.Bytes
	c.maxQueueKB = float64(max(ab.MaxQueue, ga.MaxQueue, gb.MaxQueue)) / 1024
	return c
}

func (w *hostedWorld) close() {
	for _, ep := range w.eps {
		ep.Close()
	}
}
