package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"gridftp.dev/instant/internal/dsi"
)

// span is one timed call into a layer. Spans of one op share Op; set-up
// spans have Op -1. Start and End are offsets from the recorder's base.
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent"`
	Op     int           `json:"op"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Bytes  int64         `json:"bytes,omitempty"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// token is an open span; the zero token (from a nil recorder) is inert.
type token struct {
	id, parent int64
	op         int
	name       string
	start      time.Duration
}

// binding attributes server-side DSI calls on a path to an op and the
// client call that caused them.
type binding struct {
	op     int
	parent int64
}

// recorder keeps the traced run's spans in memory until the run ends. A
// nil recorder records nothing, so untraced worlds call it freely.
type recorder struct {
	base   time.Time
	nextID atomic.Int64

	mu    sync.Mutex
	spans []span
	binds map[string]binding
}

func newRecorder() *recorder {
	return &recorder{base: time.Now(), binds: make(map[string]binding)}
}

func (r *recorder) start(name string, op int, parent int64) token {
	if r == nil {
		return token{}
	}
	return token{id: r.nextID.Add(1), parent: parent, op: op, name: name, start: time.Since(r.base)}
}

func (r *recorder) end(t token, bytes int64) {
	if r == nil {
		return
	}
	s := span{ID: t.id, Parent: t.parent, Op: t.op, Name: t.name, Start: t.start, End: time.Since(r.base), Bytes: bytes}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// add records a span whose times were measured elsewhere, such as a
// transfer task's Started and Finished.
func (r *recorder) add(name string, op int, parent int64, start, end time.Time) {
	if r == nil {
		return
	}
	s := span{ID: r.nextID.Add(1), Parent: parent, Op: op, Name: name, Start: start.Sub(r.base), End: end.Sub(r.base)}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// bind routes later DSI calls on path to op, as children of parent.
func (r *recorder) bind(path string, op int, parent int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.binds[path] = binding{op: op, parent: parent}
	r.mu.Unlock()
}

func (r *recorder) unbind(paths ...string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	for _, p := range paths {
		delete(r.binds, p)
	}
	r.mu.Unlock()
}

// lookup returns the binding of path; calls on an unbound path are
// attributed to op -1.
func (r *recorder) lookup(path string) binding {
	if c, err := dsi.CleanPath(path); err == nil {
		path = c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if b, ok := r.binds[path]; ok {
		return b
	}
	return binding{op: -1}
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeSpans writes one JSON object per span.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedStorage decorates a server's dsi.Storage: every call becomes a
// span attributed through the path's binding. Its files are timed too.
type timedStorage struct {
	inner dsi.Storage
	rec   *recorder
}

func (s *timedStorage) meta(name, p string, call func() error) error {
	b := s.rec.lookup(p)
	t := s.rec.start(name, b.op, b.parent)
	err := call()
	s.rec.end(t, 0)
	return err
}

func (s *timedStorage) Open(user, p string) (dsi.File, error) {
	var f dsi.File
	err := s.meta("dsi.open", p, func() (err error) { f, err = s.inner.Open(user, p); return })
	if err != nil {
		return nil, err
	}
	return timeFile(f, s.rec, s.rec.lookup(p), "dsi.write"), nil
}

func (s *timedStorage) Create(user, p string) (dsi.File, error) {
	var f dsi.File
	err := s.meta("dsi.create", p, func() (err error) { f, err = s.inner.Create(user, p); return })
	if err != nil {
		return nil, err
	}
	return timeFile(f, s.rec, s.rec.lookup(p), "dsi.write"), nil
}

func (s *timedStorage) Stat(user, p string) (fi dsi.FileInfo, err error) {
	err = s.meta("dsi.stat", p, func() (err error) { fi, err = s.inner.Stat(user, p); return })
	return fi, err
}

func (s *timedStorage) List(user, p string) (fis []dsi.FileInfo, err error) {
	err = s.meta("dsi.list", p, func() (err error) { fis, err = s.inner.List(user, p); return })
	return fis, err
}

func (s *timedStorage) Mkdir(user, p string) error {
	return s.meta("dsi.mkdir", p, func() error { return s.inner.Mkdir(user, p) })
}

func (s *timedStorage) Remove(user, p string) error {
	return s.meta("dsi.remove", p, func() error { return s.inner.Remove(user, p) })
}

func (s *timedStorage) Rename(user, from, to string) error {
	return s.meta("dsi.rename", from, func() error { return s.inner.Rename(user, from, to) })
}

// timedFile decorates a dsi.File. The data path probes files for
// Preallocate and OSFile; timedFile forwards Preallocate (every DSI file
// in the repository has it) and timeFile returns a timedOSFile exactly
// when the wrapped file has OSFile, so a traced transfer takes the same
// path as an untraced one.
type timedFile struct {
	f     dsi.File
	rec   *recorder
	b     binding
	write string // span name of WriteAt
}

func timeFile(f dsi.File, rec *recorder, b binding, write string) dsi.File {
	tf := &timedFile{f: f, rec: rec, b: b, write: write}
	if of, ok := f.(interface{ OSFile() *os.File }); ok {
		return &timedOSFile{timedFile: tf, os: of}
	}
	return tf
}

func (t *timedFile) ReadAt(p []byte, off int64) (int, error) {
	tok := t.rec.start("dsi.read", t.b.op, t.b.parent)
	n, err := t.f.ReadAt(p, off)
	t.rec.end(tok, int64(n))
	return n, err
}

func (t *timedFile) WriteAt(p []byte, off int64) (int, error) {
	tok := t.rec.start(t.write, t.b.op, t.b.parent)
	n, err := t.f.WriteAt(p, off)
	t.rec.end(tok, int64(n))
	return n, err
}

func (t *timedFile) Size() (int64, error) {
	tok := t.rec.start("dsi.size", t.b.op, t.b.parent)
	n, err := t.f.Size()
	t.rec.end(tok, 0)
	return n, err
}

func (t *timedFile) Close() error {
	tok := t.rec.start("dsi.close", t.b.op, t.b.parent)
	err := t.f.Close()
	t.rec.end(tok, 0)
	return err
}

// Preallocate forwards the data path's size hint.
func (t *timedFile) Preallocate(size int64) {
	if p, ok := t.f.(interface{ Preallocate(int64) }); ok {
		p.Preallocate(size)
	}
}

type timedOSFile struct {
	*timedFile
	os interface{ OSFile() *os.File }
}

// OSFile exposes the wrapped file's descriptor for the zero-copy paths.
func (t *timedOSFile) OSFile() *os.File { return t.os.OSFile() }
