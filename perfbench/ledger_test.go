package main

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"gridftp.dev/instant/internal/dsi"
)

type osFiler interface{ OSFile() *os.File }

type preallocator interface{ Preallocate(int64) }

// The data path probes DSI files for Preallocate and OSFile (the
// gridftp package's preallocate and osFiler). The timing decorators must
// answer those probes exactly as the wrapped file does, or a traced run
// would take a different path than an untraced one.
func TestTimedFileForwardsOptionalInterfaces(t *testing.T) {
	rec := newRecorder()

	mem := dsi.NewMemStorage()
	mem.AddUser(user)
	memStore := &timedStorage{inner: mem, rec: rec}
	mf, err := memStore.Create(user, "/a.bin")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := mf.(osFiler); ok {
		t.Error("decorated memory file claims OSFile; the stream path would take the sendfile branch")
	}
	p, ok := mf.(preallocator)
	if !ok {
		t.Fatal("decorated memory file lost Preallocate")
	}
	p.Preallocate(1 << 20)
	if _, err := mf.WriteAt([]byte("x"), 0); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	px, err := dsi.NewPosixStorage(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := px.AddUser(user); err != nil {
		t.Fatal(err)
	}
	pxStore := &timedStorage{inner: px, rec: rec}
	pf, err := pxStore.Create(user, "/b.bin")
	if err != nil {
		t.Fatal(err)
	}
	defer pf.Close()
	of, ok := pf.(osFiler)
	if !ok {
		t.Fatal("decorated posix file lost OSFile; the stream path would miss sendfile")
	}
	raw, err := px.Open(user, "/b.bin")
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if of.OSFile() == nil || of.OSFile().Name() != raw.(osFiler).OSFile().Name() {
		t.Errorf("OSFile() = %v, want the wrapped file's descriptor", of.OSFile())
	}
	if _, ok := pf.(preallocator); !ok {
		t.Error("decorated posix file lost Preallocate")
	}
	// Posix preallocation extends the file, which makes the forwarded
	// call visible from outside.
	pf.(preallocator).Preallocate(4096)
	if st, err := os.Stat(filepath.Join(dir, user, "b.bin")); err != nil || st.Size() != 4096 {
		t.Errorf("Preallocate did not reach the posix file: %v, %v", st, err)
	}
}

// A traced transfer must deliver the same bytes as an untraced one, and
// its server-side DSI spans must land on the op bound to the path.
func TestTracedGetDeliversAndAttributes(t *testing.T) {
	rec := newRecorder()
	s, err := newSite(rec)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	data := payload(7, 0, 3<<20+123)
	want, err := s.seed("/f.bin", data)
	if err != nil {
		t.Fatal(err)
	}
	c, err := s.dial(5, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	dst := dsi.NewBufferFile(nil)
	if _, err := s.get(c, "data.get", 5, 0, "/f.bin", dst); err != nil {
		t.Fatal(err)
	}
	if err := verifyFile(dst, want, make([]byte, 64<<10)); err != nil {
		t.Fatal(err)
	}
	var reads, clientWrites int64
	for _, sp := range rec.snapshot() {
		if sp.Op != 5 {
			continue
		}
		switch sp.Name {
		case "dsi.read":
			reads += sp.Bytes
		case "dsi.client_write":
			clientWrites += sp.Bytes
		}
	}
	if reads != int64(len(data)) || clientWrites != int64(len(data)) {
		t.Errorf("op 5 spans read %d and wrote %d bytes, want %d each", reads, clientWrites, len(data))
	}
	got := make([]byte, len(data))
	if _, err := dst.ReadAt(got, 0); err != nil || !bytes.Equal(got, data) {
		t.Errorf("content differs: %v", err)
	}
}

func TestTailCapsPercentile(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i)
	}
	if v, pct := tail(xs); pct != maxTailPct || v != quantile(xs, maxTailPct/100.0) {
		t.Errorf("tail of 1000 = %v at p%v, want p%v", v, pct, maxTailPct)
	}
	if v, pct := tail(xs[:20]); pct != 50 || v != quantile(xs[:20], 0.5) {
		t.Errorf("tail of 20 = %v at p%v, want p50", v, pct)
	}
	if v, pct := tail(xs[:10]); pct != 100 || v != 9 {
		t.Errorf("tail of 10 = %v at p%v, want the maximum", v, pct)
	}
}

func TestUnionMergesOverlaps(t *testing.T) {
	m := time.Millisecond
	ss := []span{{Start: 0, End: 4 * m}, {Start: 2 * m, End: 6 * m}, {Start: 8 * m, End: 9 * m}}
	if got := union(ss, 0, 1<<62); got != 7*m {
		t.Errorf("union = %v, want 7ms", got)
	}
	if got := union(ss, 3*m, 8500*time.Microsecond); got != 3500*time.Microsecond {
		t.Errorf("clipped union = %v, want 3.5ms", got)
	}
}

// quietHalf keeps the ops of the least-stolen half of the one-second
// windows.
func TestQuietHalfDropsStolenWindows(t *testing.T) {
	base := time.Now()
	steal := []float64{0, 50, 0, 80} // steal ticks of 100 in each window
	var samples []sample
	var ticks, stolen float64
	for w, st := range steal {
		for k := 0; k < 4; k++ {
			at := base.Add(time.Duration(4*w+k) * quietWindow / 4)
			samples = append(samples, sample{op: 4*w + k, start: mark{at: at, ticks: ticks, steal: stolen}})
			ticks += 25
			stolen += st / 4
		}
	}
	end := mark{at: base.Add(4 * quietWindow), ticks: ticks, steal: stolen}
	kept, keptSteal, allSteal := quietHalf(samples, end)
	var ops []int
	for _, s := range kept {
		ops = append(ops, s.op)
	}
	want := []int{0, 1, 2, 3, 8, 9, 10, 11}
	if !slices.Equal(ops, want) || keptSteal != 0 || allSteal != 32.5 {
		t.Errorf("kept ops %v (steal %v%% of %v%%), want %v (0%% of 32.5%%)", ops, keptSteal, allSteal, want)
	}
}
