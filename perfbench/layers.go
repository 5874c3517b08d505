package main

import (
	"slices"
	"strings"
	"time"
)

// Worlds of a traced run: ops alternate between an untraced world and a
// traced one built from the same seed, so both halves see the same
// machine conditions and trace.overhead_pct compares like with like.
const (
	plainWorld  = 0
	tracedWorld = 1
)

// setupNames are the calls that open and close a session's channels: the
// share of op time they take is what channel caching and handshake work
// can save.
var setupNames = []string{"control.dial", "gsi.delegate", "data.first_get", "data.first_put", "control.close"}

// isMeta reports whether a span is a DSI metadata call.
func isMeta(name string) bool {
	switch name {
	case "dsi.open", "dsi.create", "dsi.stat", "dsi.list", "dsi.mkdir", "dsi.remove", "dsi.rename", "dsi.size", "dsi.close":
		return true
	}
	return false
}

// perLayer computes the traced run's per-layer metrics from its samples,
// the traced world's counter deltas and its spans. Layers a workload does
// not cross read 0.
func perLayer(samples []sample, ctr counters, spans []span) ([]metric, map[string]any) {
	traced := map[int]bool{}
	var plainDur, tracedDur, cpu []float64
	var opTime, opCPU time.Duration
	var mallocs, allocB, gcs, pauseNs float64
	for _, s := range samples {
		if s.err != nil {
			continue
		}
		if s.world == tracedWorld {
			traced[s.op] = true
			tracedDur = append(tracedDur, ms(s.dur))
			opTime += s.dur
			opCPU += s.cpu
			continue
		}
		plainDur = append(plainDur, ms(s.dur))
		cpu = append(cpu, ms(s.cpu))
		mallocs += float64(s.mem.mallocs)
		allocB += float64(s.mem.allocBytes)
		gcs += float64(s.mem.gcs)
		pauseNs += float64(s.mem.pauseNs)
	}
	plainOps := float64(len(plainDur))
	ops := float64(len(traced))

	// Set-up spans (op -1) feed only the set-up metrics; a session the
	// world opened at set-up is not one of the measured ops.
	byName := map[string][]span{}
	setupByName := map[string][]span{}
	byOp := map[int][]span{}
	for _, s := range spans {
		if s.Op == -1 {
			setupByName[s.Name] = append(setupByName[s.Name], s)
			continue
		}
		if !traced[s.Op] {
			continue
		}
		byName[s.Name] = append(byName[s.Name], s)
		byOp[s.Op] = append(byOp[s.Op], s)
	}
	dursIn := func(m map[string][]span, names ...string) []float64 {
		var out []float64
		for _, n := range names {
			for _, s := range m[n] {
				out = append(out, ms(s.dur()))
			}
		}
		return out
	}
	durs := func(names ...string) []float64 { return dursIn(byName, names...) }
	setupMean := func(name string) float64 { return mean(dursIn(setupByName, name)) }
	busy := func(name string) float64 { return sum(durs(name)) }
	count := func(name string) float64 { return float64(len(byName[name])) }
	var metaCalls float64
	for name, ss := range byName {
		if isMeta(name) {
			metaCalls += float64(len(ss))
		}
	}

	// Ledger shares: each op's time split into session set-up calls, DSI
	// (the union of server and client storage spans) and the transfer
	// spans' self time, which is their duration minus the DSI time their
	// child spans cover.
	var setupT, dsiT, selfT time.Duration
	for _, ss := range byOp {
		var dsiSpans []span
		children := map[int64][]span{}
		for _, s := range ss {
			if slices.Contains(setupNames, s.Name) {
				setupT += s.dur()
			}
			if strings.HasPrefix(s.Name, "dsi.") {
				dsiSpans = append(dsiSpans, s)
				children[s.Parent] = append(children[s.Parent], s)
			}
		}
		dsiT += union(dsiSpans, 0, 1<<62)
		for _, s := range ss {
			if s.Name == "data.get" || s.Name == "data.put" {
				selfT += s.dur() - union(children[s.ID], s.Start, s.End)
			}
		}
	}

	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	overhead := 0.0
	if p := quantile(plainDur, 0.5); p > 0 && len(tracedDur) > 0 {
		overhead = 100 * (quantile(tracedDur, 0.5) - p) / p
	}
	out := []metric{
		{"control.dial_ms_p50", "ms", quantile(durs("control.dial"), 0.5)},
		{"gsi.delegate_ms_p50", "ms", quantile(durs("gsi.delegate"), 0.5)},
		{"control.close_ms_p50", "ms", quantile(durs("control.close"), 0.5)},
		{"data.first_xfer_ms_p50", "ms", quantile(durs("data.first_get", "data.first_put"), 0.5)},
		{"data.reuse_get_ms_p50", "ms", quantile(durs("data.get"), 0.5)},
		{"data.reuse_put_ms_p50", "ms", quantile(durs("data.put"), 0.5)},
		{"data.channel_setup_ms", "ms", channelSetup(byName)},
		{"data.payload_MBps", "MB/s", ratio(float64(ctr.payload)/1e6, ctr.xferTime.Seconds())},
		{"data.markers_per_op", "count", ratio(float64(ctr.markers), ops)},
		{"dsi.read_busy_ms_per_op", "ms", ratio(busy("dsi.read"), ops)},
		{"dsi.read_calls_per_op", "count", ratio(count("dsi.read"), ops)},
		{"dsi.write_busy_ms_per_op", "ms", ratio(busy("dsi.write"), ops)},
		{"dsi.write_calls_per_op", "count", ratio(count("dsi.write"), ops)},
		{"dsi.meta_calls_per_file", "count", ratio(metaCalls, float64(ctr.files))},
		{"dsi.client_write_busy_ms_per_op", "ms", ratio(busy("dsi.client_write"), ops)},
		{"netsim.conns_per_file", "count", ratio(float64(ctr.dataConns), float64(ctr.files))},
		{"netsim.wire_bytes_per_payload_byte", "ratio", ratio(float64(ctr.wireBytes), float64(ctr.payload))},
		{"netsim.max_queue_KB", "KB", ctr.maxQueueKB},
		{"transfer.submit_ms_p50", "ms", quantile(durs("transfer.submit"), 0.5)},
		{"transfer.queue_ms_p50", "ms", quantile(durs("transfer.queue"), 0.5)},
		{"transfer.run_ms_p50", "ms", quantile(durs("transfer.run"), 0.5)},
		{"transfer.workers", "count", ratio(float64(ctr.workers), float64(ctr.tasks))},
		{"transfer.attempts_per_task", "count", ratio(float64(ctr.attempts), float64(ctr.tasks))},
		{"transfer.control_conns_per_task", "count", ratio(float64(ctr.ctrlConns), float64(ctr.tasks))},
		{"gcmu.install_ms", "ms", setupMean("gcmu.install")},
		{"myproxy.activate_ms", "ms", setupMean("myproxy.activate")},
		{"gsi.issue_ms", "ms", setupMean("gsi.issue")},
		{"runtime.mallocs_per_op", "count", ratio(mallocs, plainOps)},
		{"runtime.alloc_KB_per_op", "KB", ratio(allocB/1024, plainOps)},
		{"runtime.gc_per_op", "count", ratio(gcs, plainOps)},
		{"runtime.gc_pause_ms_per_op", "ms", ratio(pauseNs/1e6, plainOps)},
		{"trace.overhead_pct", "%", overhead},
		{"ledger.session_setup_share", "ratio", ratio(setupT.Seconds(), opTime.Seconds())},
		{"ledger.dsi_share", "ratio", ratio(dsiT.Seconds(), opTime.Seconds())},
		{"ledger.transfer_self_share", "ratio", ratio(selfT.Seconds(), opTime.Seconds())},
		{"ledger.cpu_share", "ratio", ratio(opCPU.Seconds(), opTime.Seconds())},
	}
	notes := map[string]any{
		"traced_ops":        len(traced),
		"plain_ops":         len(plainDur),
		"plain_op_ms_p50":   quantile(plainDur, 0.5),
		"traced_op_ms_p50":  quantile(tracedDur, 0.5),
		"plain_cpu_ms_mean": mean(cpu),
		"spans":             len(spans),
	}
	return out, notes
}

// channelSetup estimates what opening a data channel costs: the first
// transfer of a session minus a transfer on the cached channel, matched
// by direction and size class (powers of two), weighted by the number of
// first transfers in each class.
func channelSetup(byName map[string][]span) float64 {
	class := func(b int64) int {
		c := 0
		for b > 1 {
			b >>= 1
			c++
		}
		return c
	}
	var total, weight float64
	for _, dir := range []string{"get", "put"} {
		first := map[int][]float64{}
		reuse := map[int][]float64{}
		for _, s := range byName["data.first_"+dir] {
			first[class(s.Bytes)] = append(first[class(s.Bytes)], ms(s.dur()))
		}
		for _, s := range byName["data."+dir] {
			reuse[class(s.Bytes)] = append(reuse[class(s.Bytes)], ms(s.dur()))
		}
		for c, f := range first {
			r, ok := reuse[c]
			if !ok {
				continue
			}
			n := float64(len(f))
			total += n * (quantile(f, 0.5) - quantile(r, 0.5))
			weight += n
		}
	}
	if weight == 0 {
		return 0
	}
	return total / weight
}

// union is the length of the union of the spans' intervals clipped to
// [lo, hi]; parallel streams' DSI calls overlap.
func union(ss []span, lo, hi time.Duration) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(ss))
	for _, s := range ss {
		a, b := max(s.Start, lo), min(s.End, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	slices.SortFunc(ivs, func(x, y iv) int { return int(x.a - y.a) })
	var total, end time.Duration
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		total += v.b - max(v.a, end)
		end = v.b
	}
	return total
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}
