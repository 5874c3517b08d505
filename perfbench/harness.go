package main

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"time"
)

// world is one built instance of a workload: credentials issued, servers
// listening, storage seeded. Ops run one at a time (a closed loop).
type world interface {
	// prepare draws op i's inputs from the seeded generator; it is not
	// timed.
	prepare(i int)
	// op performs op i and returns the time it completed.
	op(i int) (time.Time, error)
	// check verifies op i's outputs, outside the timed interval, and
	// returns the payload bytes verified.
	check(i int) (int64, error)
	// counters reads the world's public layer counters.
	counters() counters
	close()
}

// counters are cumulative values read from the layers' public APIs
// (netsim.LinkStats, Client.PerfSnapshot, TransferStats, transfer.Task).
// Each world has its own network and clients, so the traced world's
// counters move only with its own ops.
type counters struct {
	files      int64         // files moved
	payload    int64         // payload bytes moved
	xferTime   time.Duration // summed TransferStats.Duration
	markers    int64         // 112 performance markers seen by clients
	dataConns  int64         // connections on the links carrying data
	wireBytes  int64         // bytes on every link of the world
	maxQueueKB float64       // highest link queue watermark
	ctrlConns  int64         // service-to-site connections (hosted)
	tasks      int64
	workers    int64 // summed Task.Workers
	attempts   int64 // summed Task.Attempts
}

func (c counters) sub(o counters) counters {
	return counters{
		files: c.files - o.files, payload: c.payload - o.payload,
		xferTime: c.xferTime - o.xferTime, markers: c.markers - o.markers,
		dataConns: c.dataConns - o.dataConns, wireBytes: c.wireBytes - o.wireBytes,
		maxQueueKB: c.maxQueueKB, ctrlConns: c.ctrlConns - o.ctrlConns,
		tasks: c.tasks - o.tasks, workers: c.workers - o.workers, attempts: c.attempts - o.attempts,
	}
}

// workload describes how to build one workload's world.
type workload struct {
	name string
	// setups is how many times an untraced run builds the world; setup_s
	// is the median, and the last world built is the one measured.
	setups int
	// warm is the number of discarded warm-up ops per world.
	warm  int
	build func(seed uint64, rec *recorder) (world, error)
}

// sample is one measured op.
type sample struct {
	op    int
	world int
	start mark // when the op's iteration began; see quietHalf
	dur   time.Duration
	cpu   time.Duration
	bytes int64
	err   error
	mem   memDelta // over the op (plain world of a traced run only)
}

// memDelta holds the runtime.MemStats differences the ledger reports; a
// whole MemStats per sample would itself inflate peak_rss_MB.
type memDelta struct {
	mallocs, allocBytes, gcs, pauseNs uint64
}

func memDiff(a, b *runtime.MemStats) memDelta {
	return memDelta{
		mallocs:    a.Mallocs - b.Mallocs,
		allocBytes: a.TotalAlloc - b.TotalAlloc,
		gcs:        uint64(a.NumGC - b.NumGC),
		pauseNs:    a.PauseTotalNs - b.PauseTotalNs,
	}
}

// mark is a point in time with the machine's total and stolen CPU ticks
// so far.
type mark struct {
	at           time.Time
	ticks, steal float64
}

func markNow() mark {
	m := mark{at: time.Now()}
	m.ticks, m.steal = cpuTicks()
	return m
}

// runOps runs a closed loop over ws, op i on world i%len(ws), until
// seconds have passed, and returns the mark that ends the last op's
// iteration. In a traced run (ledger set) it also reads runtime.MemStats
// deltas around the plain world's ops, outside the timed interval; the
// statistics are process-wide, so they cannot be read once per run.
func runOps(ws []world, first int, seconds time.Duration, ledger bool) ([]sample, mark) {
	var out []sample
	start := time.Now()
	for i := first; time.Since(start) < seconds; i++ {
		k := i % len(ws)
		w := ws[k]
		s := sample{op: i, world: k, start: markNow()}
		memStats := ledger && k == plainWorld
		w.prepare(i)
		var m0 runtime.MemStats
		if memStats {
			runtime.ReadMemStats(&m0)
		}
		cpu0 := cpuTime()
		t0 := time.Now()
		end, err := w.op(i)
		cpu1 := cpuTime()
		if memStats {
			var m1 runtime.MemStats
			runtime.ReadMemStats(&m1)
			s.mem = memDiff(&m1, &m0)
		}
		s.dur, s.cpu = end.Sub(t0), cpu1-cpu0
		if err == nil {
			s.bytes, err = w.check(i)
		}
		if err != nil {
			s.err = fmt.Errorf("op %d: %w", i, err)
			fmt.Fprintln(os.Stderr, "perfbench:", s.err)
		}
		out = append(out, s)
	}
	return out, markNow()
}

// quietWindow is the minimum length of a steal window.
const quietWindow = time.Second

// quietHalf splits the ops into windows of at least quietWindow and
// returns the ops of the half of the windows in which the hypervisor stole
// the least CPU time, with the steal share of those windows and of the
// whole run; end closes the last window. The runs share their host with
// other machines: time stolen from this machine's CPUs is not the
// program's, and it comes in bursts of a second or so that would
// otherwise decide a CPU-bound run's figures.
func quietHalf(samples []sample, end mark) (kept []sample, keptSteal, allSteal float64) {
	type window struct {
		from, to     int // samples[from:to] are the window's ops
		steal, ticks float64
	}
	markAt := func(i int) mark {
		if i == len(samples) {
			return end
		}
		return samples[i].start
	}
	var ws []window
	from := 0
	for i := 1; i <= len(samples); i++ {
		a, b := markAt(from), markAt(i)
		if b.at.Sub(a.at) >= quietWindow || i == len(samples) {
			ws = append(ws, window{from: from, to: i, steal: b.steal - a.steal, ticks: b.ticks - a.ticks})
			from = i
		}
	}
	if len(ws) == 0 {
		return nil, 0, 0
	}
	share := func(w window) float64 {
		if w.ticks <= 0 {
			return 0
		}
		return w.steal / w.ticks
	}
	var allS, allT float64
	for _, w := range ws {
		allS += w.steal
		allT += w.ticks
	}
	slices.SortStableFunc(ws, func(a, b window) int {
		switch sa, sb := share(a), share(b); {
		case sa < sb:
			return -1
		case sa > sb:
			return 1
		}
		return 0
	})
	var keptS, keptT float64
	for _, w := range ws[:(len(ws)+1)/2] {
		kept = append(kept, samples[w.from:w.to]...)
		keptS += w.steal
		keptT += w.ticks
	}
	ratio := func(a, b float64) float64 {
		if b <= 0 {
			return 0
		}
		return 100 * a / b
	}
	return kept, ratio(keptS, keptT), ratio(allS, allT)
}

// warmUp runs n discarded ops on each world; any failure is returned.
func warmUp(ws []world, n int) (int, error) {
	i := 0
	for ; i < n*len(ws); i++ {
		w := ws[i%len(ws)]
		w.prepare(i)
		if _, err := w.op(i); err != nil {
			return i + 1, fmt.Errorf("warm-up op %d: %w", i, err)
		}
		if _, err := w.check(i); err != nil {
			return i + 1, fmt.Errorf("warm-up op %d: %w", i, err)
		}
	}
	return i, nil
}

// result is what one run reports.
type result struct {
	attempted, failed int
	metrics           []metric
	notes             map[string]any
}

type metric struct {
	name, unit string
	value      float64
}

// endToEnd computes the untraced run's metrics. When the ops are
// CPU-bound (the process used at least half a CPU-second per second of op
// time) only the quieter half of the run's windows counts; ops that
// mostly wait on round trips lose little to stolen CPU, and halving their
// few samples would leave no tail to report.
func endToEnd(samples []sample, end mark, setups []time.Duration, peakMB float64) ([]metric, map[string]any) {
	var cpu, wall time.Duration
	for _, s := range samples {
		cpu += s.cpu
		wall += s.dur
	}
	kept, keptSteal, allSteal := quietHalf(samples, end)
	cpuBound := 2*cpu >= wall
	if !cpuBound {
		kept, keptSteal = samples, allSteal
	}
	out, notes := opMetrics(kept, setups, peakMB)
	notes["steal_filter"] = cpuBound
	allOut, _ := opMetrics(samples, setups, peakMB)
	unf := map[string]float64{}
	for _, m := range allOut {
		unf[m.name] = m.value
	}
	notes["unfiltered"] = unf
	notes["steal_pct_kept_windows"] = keptSteal
	notes["steal_pct_all_windows"] = allSteal
	notes["ops_kept"] = len(kept)
	return out, notes
}

func opMetrics(samples []sample, setups []time.Duration, peakMB float64) ([]metric, map[string]any) {
	var durs, cpus []float64
	var bytes int64
	var timed time.Duration
	for _, s := range samples {
		if s.err != nil {
			continue
		}
		durs = append(durs, ms(s.dur))
		cpus = append(cpus, ms(s.cpu))
		bytes += s.bytes
		timed += s.dur
	}
	setupS := make([]float64, len(setups))
	for i, d := range setups {
		setupS[i] = d.Seconds()
	}
	tailV, tailPct := tail(durs)
	goodput := 0.0
	if timed > 0 {
		goodput = float64(bytes) / 1e6 / timed.Seconds()
	}
	out := []metric{
		{"setup_s", "s", quantile(setupS, 0.5)},
		{"goodput_MBps", "MB/s", goodput},
		{"op_ms_p50", "ms", quantile(durs, 0.5)},
		{"op_ms_tail", "ms", tailV},
		{"cpu_ms_per_op", "ms", mean(cpus)},
		{"peak_rss_MB", "MB", peakMB},
	}
	notes := map[string]any{
		"op_ms_tail_percentile": tailPct,
		"op_ms_tail_n":          len(durs),
		"op_ms_quartiles":       []float64{quantile(durs, 0.1), quantile(durs, 0.25), quantile(durs, 0.5), quantile(durs, 0.75), quantile(durs, 0.9)},
		"setup_s_samples":       setupS,
	}
	return out, notes
}

// failures counts failed samples.
func failures(samples []sample) int {
	n := 0
	for _, s := range samples {
		if s.err != nil {
			n++
		}
	}
	return n
}
