package main

import (
	"fmt"
	"time"

	"gridftp.dev/instant/internal/dsi"
	"gridftp.dev/instant/internal/gridftp"
)

// bulk-get: one long session repeatedly GETs a large seeded file over
// MODE E with two parallel streams (one per core of the reference
// machine), PROT C and DCAU on, across an unshaped link. Handshakes are
// paid once, so the op is CPU-bound on the data path: MODE E framing,
// netsim copies, DSI reads and the client's destination writes.
const (
	bulkFileSize = 64 << 20
	bulkPath     = "/bulk/f.bin"
)

type bulkWorld struct {
	*site
	c       *gridftp.Client
	want    digest
	scratch []byte

	// dst is the client's destination, reused by every op and poisoned
	// before each, so a block the transfer fails to write shows up as a
	// content mismatch.
	dst     *dsi.BufferFile
	poison  []byte
	st      *gridftp.TransferStats
	payload int64
	xfer    time.Duration
	files   int64
}

func newBulk(seed uint64, rec *recorder) (world, error) {
	s, err := newSite(rec)
	if err != nil {
		return nil, err
	}
	w := &bulkWorld{site: s, scratch: make([]byte, 1<<20), poison: make([]byte, 1<<20),
		dst: dsi.NewBufferFile(make([]byte, bulkFileSize))}
	for i := range w.poison {
		w.poison[i] = 0xA5
	}
	if err := s.storage.Mkdir(user, "/bulk"); err != nil {
		s.close()
		return nil, err
	}
	if w.want, err = s.seed(bulkPath, payload(seed, 0, bulkFileSize)); err != nil {
		s.close()
		return nil, err
	}
	if w.c, err = s.dial(-1, 0); err != nil {
		s.close()
		return nil, err
	}
	for _, set := range []func() error{
		func() error { return w.c.SetParallelism(2) },
		func() error { return w.c.SetProt(gridftp.ProtClear) },
		func() error { return w.c.SetDCAU(gridftp.DCAUSelf) },
	} {
		if err := set(); err != nil {
			w.close()
			return nil, err
		}
	}
	return w, nil
}

func (w *bulkWorld) prepare(int) {
	for off := int64(0); off < bulkFileSize; off += int64(len(w.poison)) {
		w.dst.WriteAt(w.poison, off)
	}
}

func (w *bulkWorld) op(i int) (time.Time, error) {
	t := w.rec.start("op", i, 0)
	st, err := w.get(w.c, "data.get", i, t.id, bulkPath, w.dst)
	end := time.Now()
	w.rec.end(t, 0)
	w.st = st
	if err != nil {
		return end, err
	}
	w.files++
	w.payload += st.Bytes
	w.xfer += st.Duration
	return end, nil
}

func (w *bulkWorld) check(int) (int64, error) {
	if w.st.Bytes != w.want.size {
		return 0, fmt.Errorf("%s: transferred %d bytes, want %d", bulkPath, w.st.Bytes, w.want.size)
	}
	if err := verifyFile(w.dst, w.want, w.scratch); err != nil {
		return 0, fmt.Errorf("%s: %w", bulkPath, err)
	}
	return w.want.size, nil
}

func (w *bulkWorld) counters() counters {
	_, _, markers := w.c.PerfSnapshot()
	c := counters{files: w.files, payload: w.payload, xferTime: w.xfer, markers: int64(markers)}
	w.linkCounters(&c)
	return c
}

func (w *bulkWorld) close() {
	if w.c != nil {
		w.c.Close()
	}
	w.site.close()
}
