// Command perfbench is the repository's benchmark. It drives one of three
// seeded closed-loop workloads in one process through the public APIs of
// gridftp, gsi, dsi, netsim, transfer, gcmu and myproxy, verifies every
// byte delivered, and prints its metrics as one JSON object on the last
// line of standard output:
//
//	bash perfbench/run.sh --workload bulk-get --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of BENCHMARK.json. With
// --trace 1 it builds an untraced and a traced world from the same seed,
// alternates ops between them, and reports the per-layer ledger: spans
// around every call the benchmark makes into a layer, a timing decorator
// on the servers' dsi.Storage and the client's destination dsi.File, and
// deltas of public counters (netsim.LinkStats, Client.PerfSnapshot,
// transfer.Task, runtime.MemStats). The program itself is not
// instrumented. The spans and a detailed result, stamped with the host's
// core count, Go version, commit and load, are written under
// $PERFBENCH_OUT. Any verification failure makes the exit code non-zero.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"time"
)

var workloads = []workload{
	{name: "bulk-get", setups: 7, warm: 3, build: newBulk},
	{name: "session-churn", setups: 21, warm: 50, build: newChurn},
	{name: "hosted-dataset", setups: 5, warm: 1, build: newHosted},
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload: bulk-get, session-churn or hosted-dataset")
	seed := flag.Uint64("seed", 1, "seed of the workload's inputs")
	seconds := flag.Int("seconds", 10, "how long to measure, in seconds")
	trace := flag.Int("trace", 0, "1 reports the per-layer ledger instead of the end-to-end metrics")
	flag.Parse()
	i := slices.IndexFunc(workloads, func(w workload) bool { return w.name == *name })
	if i < 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload (bulk-get, session-churn, hosted-dataset), --seconds >= 1 and --trace 0|1")
		return 2
	}
	wl := workloads[i]
	stamp := hostStamp(*seed)
	total0, steal0 := cpuTicks()
	dur := time.Duration(*seconds) * time.Second

	var res result
	var spans []span
	var err error
	if *trace == 1 {
		res, spans, err = runTraced(wl, *seed, dur)
	} else {
		res, err = runPlain(wl, *seed, dur)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	load := loadAvg1()
	stamp["load1_after"] = load
	total1, steal1 := cpuTicks()
	steal := 0.0
	if total1 > total0 {
		steal = 100 * (steal1 - steal0) / (total1 - total0)
	}
	stamp["steal_pct"] = steal
	for k, v := range res.notes {
		stamp[k] = v
	}
	// This benchmark defines the baseline; it claims no gain.
	stamp["claim"] = nil
	stamp["attempted"], stamp["failed"] = res.attempted, res.failed
	stamp["fail_ratio"] = float64(res.failed) / float64(res.attempted)
	if err := writeDetail(wl.name, *seed, *trace, stamp, res, spans); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing detail:", err)
	}
	fmt.Printf("# %s seed=%d trace=%d nproc=%v gomaxprocs=%v go=%v commit=%v load1=%v->%v steal=%.1f%% contended=%v fail_ratio=%v\n",
		wl.name, *seed, *trace, stamp["nproc"], stamp["gomaxprocs"], stamp["go"], stamp["commit"],
		stamp["load1_before"], load, steal, stamp["contended"], stamp["fail_ratio"])
	if stamp["contended"] == true {
		fmt.Fprintln(os.Stderr, "perfbench: warning: the 1-minute load exceeded the core count when the run started")
	}
	out := map[string]any{"correct": res.failed == 0, "attempted": res.attempted, "failed": res.failed,
		"metrics": metricsJSON(res.metrics)}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(b))
	if res.failed > 0 {
		return 1
	}
	return 0
}

// runPlain builds the world wl.setups times (timing each), warms up the
// last one and measures it untraced.
func runPlain(wl workload, seed uint64, dur time.Duration) (result, error) {
	var w world
	var setups []time.Duration
	for i := 0; i < wl.setups; i++ {
		if w != nil {
			w.close()
			w = nil
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if w, err = wl.build(seed, nil); err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0))
	}
	defer w.close()
	n, err := warmUp([]world{w}, wl.warm)
	if err != nil {
		return failedWarmUp(n, err)
	}
	peakReset := resetPeakRSS()
	samples, end := runOps([]world{w}, n, dur, false)
	metrics, notes := endToEnd(samples, end, setups, peakRSSMB())
	notes["peak_rss_reset"] = peakReset
	return result{attempted: len(samples), failed: failures(samples), metrics: metrics, notes: notes}, nil
}

// runTraced alternates ops between an untraced and a traced world.
func runTraced(wl workload, seed uint64, dur time.Duration) (result, []span, error) {
	rec := newRecorder()
	plain, err := wl.build(seed, nil)
	if err != nil {
		return result{}, nil, fmt.Errorf("set-up: %w", err)
	}
	defer plain.close()
	traced, err := wl.build(seed, rec)
	if err != nil {
		return result{}, nil, fmt.Errorf("set-up: %w", err)
	}
	defer traced.close()
	ws := []world{plainWorld: plain, tracedWorld: traced}
	n, err := warmUp(ws, wl.warm)
	if err != nil {
		r, err := failedWarmUp(n, err)
		return r, nil, err
	}
	c0 := traced.counters()
	samples, _ := runOps(ws, n, dur, true)
	ctr := traced.counters().sub(c0)
	spans := rec.snapshot()
	metrics, notes := perLayer(samples, ctr, spans)
	return result{attempted: len(samples), failed: failures(samples), metrics: metrics, notes: notes}, spans, nil
}

// failedWarmUp reports a run whose warm-up failed: nothing was measured,
// and the failure counts against the ops attempted.
func failedWarmUp(attempted int, err error) (result, error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	return result{attempted: attempted, failed: 1, notes: map[string]any{"error": err.Error()}}, nil
}

// hostStamp records what the run ran on, and flags a run that started on
// a machine already busier than its core count.
func hostStamp(seed uint64) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	load := loadAvg1()
	return map[string]any{
		"nproc":        runtime.NumCPU(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"go":           runtime.Version(),
		"commit":       commit,
		"seed":         seed,
		"load1_before": load,
		"contended":    load > float64(runtime.NumCPU()),
	}
}

// writeDetail writes the stamped result, and for a traced run the spans,
// under $PERFBENCH_OUT.
func writeDetail(name string, seed uint64, trace int, stamp map[string]any, res result, spans []span) error {
	dir := os.Getenv("PERFBENCH_OUT")
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d", name, seed, trace))
	stamp["metrics"] = metricsJSON(res.metrics)
	b, err := json.MarshalIndent(stamp, "", "  ")
	if err != nil {
		return err
	}
	var errs []error
	errs = append(errs, os.WriteFile(base+".json", append(b, '\n'), 0o644))
	if spans != nil {
		errs = append(errs, writeSpans(base+".spans.jsonl", spans))
	}
	return errors.Join(errs...)
}

func metricsJSON(ms []metric) map[string]any {
	out := map[string]any{}
	for _, m := range ms {
		out[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	return out
}
