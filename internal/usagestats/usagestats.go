// Package usagestats implements the opt-in usage reporting stream behind
// the paper's Figure 1 ("more than 10 million transfers totaling
// approximately half a petabyte of data every day", aggregated from
// servers that choose to enable reporting). Servers post per-transfer
// records to a Collector; the aggregator reduces them to per-day series of
// transfer counts and bytes moved, which is exactly the chart Fig 1 plots.
package usagestats

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// TransferRecord is one completed transfer as reported by a server.
type TransferRecord struct {
	Endpoint string
	User     string
	Op       string // RETR or STOR
	Path     string
	Bytes    int64
	Duration time.Duration
	When     time.Time
}

// Collector receives usage reports. It is safe for concurrent use by many
// servers; a nil Collector discards reports.
type Collector struct {
	mu         sync.Mutex
	byDay      map[string]*DayStats
	byEndpoint map[string]int64
}

// DayStats aggregates one day of fleet activity — one point of Fig 1.
type DayStats struct {
	Day       string // "2012-02-01"
	Transfers int64
	Bytes     int64
	Endpoints map[string]bool
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{
		byDay:      make(map[string]*DayStats),
		byEndpoint: make(map[string]int64),
	}
}

// Report records one transfer.
func (c *Collector) Report(r TransferRecord) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	day := r.When.UTC().Format("2006-01-02")
	ds, ok := c.byDay[day]
	if !ok {
		ds = &DayStats{Day: day, Endpoints: make(map[string]bool)}
		c.byDay[day] = ds
	}
	ds.Transfers++
	ds.Bytes += r.Bytes
	ds.Endpoints[r.Endpoint] = true
	c.byEndpoint[r.Endpoint]++
}

// ReportBatch records a server's daily summary in one call — the form
// real fleet reporting takes (servers batch their counters rather than
// streaming every transfer).
func (c *Collector) ReportBatch(endpoint string, when time.Time, transfers, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	day := when.UTC().Format("2006-01-02")
	ds, ok := c.byDay[day]
	if !ok {
		ds = &DayStats{Day: day, Endpoints: make(map[string]bool)}
		c.byDay[day] = ds
	}
	ds.Transfers += transfers
	ds.Bytes += bytes
	ds.Endpoints[endpoint] = true
	c.byEndpoint[endpoint] += transfers
}

// Days returns the per-day aggregates in chronological order.
func (c *Collector) Days() []DayStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]DayStats, 0, len(c.byDay))
	for _, ds := range c.byDay {
		cp := *ds
		out = append(out, cp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Day < out[j].Day })
	return out
}

// Totals returns fleet-wide transfer count and bytes.
func (c *Collector) Totals() (transfers int64, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, ds := range c.byDay {
		transfers += ds.Transfers
		bytes += ds.Bytes
	}
	return
}

// EndpointCount returns how many distinct endpoints have reported.
func (c *Collector) EndpointCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.byEndpoint)
}

// TopEndpoints returns the n busiest endpoints by transfer count.
func (c *Collector) TopEndpoints(n int) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	type ec struct {
		name  string
		count int64
	}
	all := make([]ec, 0, len(c.byEndpoint))
	for name, count := range c.byEndpoint {
		all = append(all, ec{name, count})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].count != all[j].count {
			return all[i].count > all[j].count
		}
		return all[i].name < all[j].name
	})
	if n > len(all) {
		n = len(all)
	}
	out := make([]string, n)
	for i := 0; i < n; i++ {
		out[i] = all[i].name
	}
	return out
}

// FormatTable renders the Fig 1-style per-day series as an aligned text
// table (day, transfers, bytes, active endpoints).
func (c *Collector) FormatTable() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %14s %16s %10s\n", "day", "transfers", "bytes", "endpoints")
	for _, ds := range c.Days() {
		fmt.Fprintf(&b, "%-12s %14d %16d %10d\n", ds.Day, ds.Transfers, ds.Bytes, len(ds.Endpoints))
	}
	return b.String()
}
