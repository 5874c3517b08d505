package main

import (
	"fmt"
	"time"

	"gridftp.dev/instant/internal/authz"
	"gridftp.dev/instant/internal/dsi"
	"gridftp.dev/instant/internal/gridftp"
	"gridftp.dev/instant/internal/gsi"
	"gridftp.dev/instant/internal/netsim"
)

// site is one GridFTP server with its own CA and one user, reached from a
// client host over an unshaped netsim link.
type site struct {
	rec     *recorder
	nw      *netsim.Network
	client  *netsim.Host
	server  *gridftp.Server
	storage *dsi.MemStorage // the undecorated store, for seeding and checks
	addr    string
	trust   *gsi.TrustStore
	proxy   *gsi.Credential
}

const user = "alice"

// newSite issues the CA's credentials, starts the server and makes the
// user's proxy. With a recorder the server's storage is decorated.
func newSite(rec *recorder) (*site, error) {
	ca, err := gsi.NewCA("/O=Bench/CN=CA", 24*time.Hour)
	if err != nil {
		return nil, err
	}
	issue := func(opts gsi.IssueOptions) (*gsi.Credential, error) {
		t := rec.start("gsi.issue", -1, 0)
		c, err := ca.Issue(opts)
		rec.end(t, 0)
		return c, err
	}
	hostCred, err := issue(gsi.IssueOptions{Subject: "/O=Bench/CN=host server", Lifetime: 12 * time.Hour, Host: true})
	if err != nil {
		return nil, err
	}
	userCred, err := issue(gsi.IssueOptions{Subject: "/O=Bench/CN=" + user, Lifetime: 12 * time.Hour})
	if err != nil {
		return nil, err
	}
	proxy, err := gsi.NewProxy(userCred, gsi.ProxyOptions{})
	if err != nil {
		return nil, err
	}
	trust := gsi.NewTrustStore()
	if err := trust.AddCA(ca.Certificate()); err != nil {
		return nil, err
	}
	gm := authz.NewGridmap()
	gm.AddEntry(userCred.DN(), user)
	mem := dsi.NewMemStorage()
	mem.AddUser(user)
	var storage dsi.Storage = mem
	if rec != nil {
		storage = &timedStorage{inner: mem, rec: rec}
	}
	nw := netsim.NewNetwork()
	srv, err := gridftp.NewServer(nw.Host("server"), gridftp.ServerConfig{
		HostCred: hostCred, Trust: trust, Authz: gm, Storage: storage, EndpointName: "server",
	})
	if err != nil {
		return nil, err
	}
	addr, err := srv.ListenAndServe(gridftp.DefaultPort)
	if err != nil {
		srv.Close()
		return nil, err
	}
	return &site{rec: rec, nw: nw, client: nw.Host("client"), server: srv, storage: mem,
		addr: addr.String(), trust: trust, proxy: proxy}, nil
}

// seed stores data at path and returns its digest.
func (s *site) seed(path string, data []byte) (digest, error) {
	f, err := s.storage.Create(user, path)
	if err != nil {
		return digest{}, err
	}
	if err := dsi.WriteAll(f, data); err != nil {
		f.Close()
		return digest{}, err
	}
	return digestOf(data), f.Close()
}

// verifyStored checks the file the server holds at path.
func (s *site) verifyStored(path string, want digest, scratch []byte) error {
	f, err := s.storage.Open(user, path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := verifyFile(f, want, scratch); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// dial opens a delegated session, timing each call as a span of op.
func (s *site) dial(op int, parent int64) (*gridftp.Client, error) {
	t := s.rec.start("control.dial", op, parent)
	c, err := gridftp.Dial(s.client, s.addr, s.proxy, s.trust)
	s.rec.end(t, 0)
	if err != nil {
		return nil, err
	}
	t = s.rec.start("gsi.delegate", op, parent)
	err = c.Delegate(time.Hour)
	s.rec.end(t, 0)
	if err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// get downloads path into dst, timed as span name. The server's DSI calls
// on path and the client's writes become its children.
func (s *site) get(c *gridftp.Client, name string, op int, parent int64, path string, dst *dsi.BufferFile) (*gridftp.TransferStats, error) {
	t := s.rec.start(name, op, parent)
	s.rec.bind(path, op, t.id)
	var f dsi.File = dst
	if s.rec != nil {
		f = timeFile(dst, s.rec, binding{op: op, parent: t.id}, "dsi.client_write")
	}
	st, err := c.Get(path, f)
	var n int64
	if st != nil {
		n = st.Bytes
	}
	s.rec.end(t, n)
	s.rec.unbind(path)
	return st, err
}

// put uploads src to path, timed as span name.
func (s *site) put(c *gridftp.Client, name string, op int, parent int64, path string, src dsi.File) (*gridftp.TransferStats, error) {
	t := s.rec.start(name, op, parent)
	s.rec.bind(path, op, t.id)
	st, err := c.Put(path, src)
	var n int64
	if st != nil {
		n = st.Bytes
	}
	s.rec.end(t, n)
	s.rec.unbind(path)
	return st, err
}

func (s *site) linkCounters(c *counters) {
	ls := s.nw.LinkStats("client", "server")
	c.dataConns = ls.Conns
	c.wireBytes = ls.Bytes
	c.maxQueueKB = float64(ls.MaxQueue) / 1024
}

func (s *site) close() { s.server.Close() }
