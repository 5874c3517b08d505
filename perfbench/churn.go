package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"gridftp.dev/instant/internal/dsi"
	"gridftp.dev/instant/internal/gridftp"
)

// session-churn: sessions back to back, each like one globus-url-copy
// invocation: Dial, Delegate, 1-8 small files (about a quarter PUT), then
// Close. The proxy is made once, at set-up. Ops are CPU-bound on session
// and channel set-up (TLS and DCAU handshakes); the payload is small.
const (
	churnGetFiles = 32
	churnPutSrcs  = 16
	churnMinSize  = 4 << 10
	churnMaxSize  = 256 << 10
	churnMaxFiles = 8
)

type churnFile struct {
	put bool
	src int // index into the GET pool or the PUT sources
}

type churnWorld struct {
	*site
	rng     *rand.Rand
	getSums [churnGetFiles]digest
	putSrcs [churnPutSrcs]*dsi.BufferFile
	putSums [churnPutSrcs]digest
	scratch []byte
	plan    []churnFile
	got     []*dsi.BufferFile
	files   int64
	payload int64
	xfer    time.Duration
	markers int64
}

func churnGetPath(i int) string { return fmt.Sprintf("/pool/g%02d.bin", i) }

func churnPutPath(op, k int) string { return fmt.Sprintf("/up/s%07d-%d.bin", op, k) }

func newChurn(seed uint64, rec *recorder) (world, error) {
	s, err := newSite(rec)
	if err != nil {
		return nil, err
	}
	w := &churnWorld{site: s, rng: rand.New(rand.NewPCG(seed, 2)), scratch: make([]byte, churnMaxSize)}
	sizes := rand.New(rand.NewPCG(seed, 3))
	for _, d := range []string{"/pool", "/up"} {
		if err := s.storage.Mkdir(user, d); err != nil {
			s.close()
			return nil, err
		}
	}
	for i, size := range logUniformSizes(sizes, churnGetFiles, churnMinSize, churnMaxSize) {
		data := payload(seed, uint64(i), size)
		if w.getSums[i], err = s.seed(churnGetPath(i), data); err != nil {
			s.close()
			return nil, err
		}
	}
	for i, size := range logUniformSizes(sizes, churnPutSrcs, churnMinSize, churnMaxSize) {
		data := payload(seed, uint64(1000+i), size)
		w.putSrcs[i] = dsi.NewBufferFile(data)
		w.putSums[i] = digestOf(data)
	}
	return w, nil
}

func (w *churnWorld) prepare(int) {
	w.plan = w.plan[:0]
	for k := 1 + w.rng.IntN(churnMaxFiles); k > 0; k-- {
		if w.rng.IntN(4) == 0 {
			w.plan = append(w.plan, churnFile{put: true, src: w.rng.IntN(churnPutSrcs)})
		} else {
			w.plan = append(w.plan, churnFile{src: w.rng.IntN(churnGetFiles)})
		}
	}
	w.got = w.got[:0]
}

func (w *churnWorld) op(i int) (time.Time, error) {
	t := w.rec.start("op", i, 0)
	defer w.rec.end(t, 0)
	c, err := w.dial(i, t.id)
	if err != nil {
		return time.Now(), err
	}
	_, _, markers0 := c.PerfSnapshot()
	for k, f := range w.plan {
		dir := "get"
		if f.put {
			dir = "put"
		}
		name := "data." + dir
		if k == 0 {
			name = "data.first_" + dir
		}
		var st *gridftp.TransferStats
		if f.put {
			st, err = w.put(c, name, i, t.id, churnPutPath(i, k), w.putSrcs[f.src])
		} else {
			dst := dsi.NewBufferFile(nil)
			w.got = append(w.got, dst)
			st, err = w.get(c, name, i, t.id, churnGetPath(f.src), dst)
		}
		if err != nil {
			c.Close()
			return time.Now(), err
		}
		w.xfer += st.Duration
		w.payload += st.Bytes
		w.files++
	}
	_, _, markers1 := c.PerfSnapshot()
	w.markers += int64(markers1 - markers0)
	tc := w.rec.start("control.close", i, t.id)
	// Close's error is dropped: after the server's 221 reply the server
	// hangs up first, so the client's TLS close-notify routinely fails,
	// and the session's transfers are already complete.
	_ = c.Close()
	w.rec.end(tc, 0)
	return time.Now(), nil
}

func (w *churnWorld) check(i int) (int64, error) {
	var n int64
	got := w.got
	for k, f := range w.plan {
		if f.put {
			p := churnPutPath(i, k)
			if err := w.verifyStored(p, w.putSums[f.src], w.scratch); err != nil {
				return n, err
			}
			if err := w.storage.Remove(user, p); err != nil {
				return n, err
			}
			n += w.putSums[f.src].size
			continue
		}
		if err := verifyFile(got[0], w.getSums[f.src], w.scratch); err != nil {
			return n, fmt.Errorf("%s: %w", churnGetPath(f.src), err)
		}
		got = got[1:]
		n += w.getSums[f.src].size
	}
	return n, nil
}

func (w *churnWorld) counters() counters {
	c := counters{files: w.files, payload: w.payload, xferTime: w.xfer, markers: w.markers}
	w.linkCounters(&c)
	return c
}

func (w *churnWorld) close() { w.site.close() }
