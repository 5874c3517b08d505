package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"gridftp.dev/instant/internal/obs"
	"gridftp.dev/instant/internal/obs/expfmt"
	"gridftp.dev/instant/internal/obs/tenant"
)

// This file is the exporter side of federation: daemons push one
// envelope per tick to a fleet head (StartPusher), and the head pulls
// configured /metrics URLs (scrapeAll) — both land in Ingest, so a fleet
// can mix push-only processes behind NAT with scrapable long-lived ones.

var pushClient = &http.Client{Timeout: 10 * time.Second}

// envelopeVersion is the push envelope format the head accepts.
const envelopeVersion = 1

// maxEnvelope bounds one push body.
const maxEnvelope = 16 << 20

// Envelope is the one fleet push body (POST /v1/push, JSON): everything
// an instance reports in one tick, so the head folds it atomically.
type Envelope struct {
	Version  int    `json:"version"`
	Instance string `json:"instance"`
	// StartTime anchors restart detection on the head.
	StartTime int64 `json:"process_start_time_seconds"`
	// Metrics is the instance's registry in the expfmt text exposition.
	Metrics string `json:"metrics"`
	// Tenants is the full tenant sketch table (not a truncated top-K), so
	// the head can merge exact per-DN aggregates.
	Tenants []tenant.Stat `json:"tenants,omitempty"`
	// Profile is the newest continuous-profile summary.
	Profile *obs.ProfileSummary `json:"profile,omitempty"`
}

// newEnvelope captures o's registry, acct's tenant table (nil omits it)
// and o's newest profile summary as one envelope.
func newEnvelope(instance string, o *obs.Obs, acct *tenant.Accountant) (Envelope, error) {
	snap := expfmt.SnapshotRegistry(o.Registry())
	var text strings.Builder
	if err := expfmt.WriteSnapshot(&text, snap); err != nil {
		return Envelope{}, err
	}
	env := Envelope{Version: envelopeVersion, Instance: instance, Metrics: text.String(), Tenants: acct.Table()}
	for _, m := range snap.Metrics {
		if expfmt.CanonicalName(m.Name) == startTimeGauge {
			env.StartTime = m.Value
		}
	}
	if sum, ok := o.Profiler().ProfileSummary(); ok {
		env.Profile = &sum
	}
	return env, nil
}

// report decodes the envelope into the form Ingest folds.
func (e Envelope) report() (Report, error) {
	if e.Version != envelopeVersion {
		return Report{}, fmt.Errorf("fleet: envelope version %d, want %d", e.Version, envelopeVersion)
	}
	if e.Instance == "" {
		return Report{}, fmt.Errorf("fleet: envelope without instance name")
	}
	snap, err := expfmt.ParseTextSnapshot(strings.NewReader(e.Metrics))
	if err != nil {
		return Report{}, err
	}
	return Report{Instance: e.Instance, StartTime: e.StartTime, Metrics: snap,
		Tenants: e.Tenants, Profile: e.Profile}, nil
}

// push POSTs one envelope to a fleet head's /v1/push URL.
func push(url string, env Envelope) error {
	body, err := json.Marshal(env)
	if err != nil {
		return err
	}
	resp, err := pushClient.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("fleet: push to %s: %w", url, err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode >= 300 {
		return fmt.Errorf("fleet: push to %s: %s", url, resp.Status)
	}
	return nil
}

// StartPusher POSTs one envelope — o's registry, acct's tenant table
// when acct is non-nil, and o's newest profile summary when it carries a
// continuous profiler — to a fleet head's /v1/push url every interval
// until the returned stop function is called. Failures are logged at
// debug (the head may simply not be up yet) and retried on the next
// tick; a final push runs on stop so short-lived processes still report
// their last state.
func StartPusher(url, instance string, o *obs.Obs, acct *tenant.Accountant, interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = time.Second
	}
	pushOnce := func() {
		env, err := newEnvelope(instance, o, acct)
		if err == nil {
			err = push(url, env)
		}
		if err != nil {
			o.Logger().Debug("fleet: push failed", "url", url, "err", err.Error())
		}
	}
	stopCh := make(chan struct{})
	doneCh := make(chan struct{})
	go func() {
		defer close(doneCh)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				pushOnce()
			case <-stopCh:
				pushOnce()
				return
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() { close(stopCh) })
		<-doneCh
	}
}

// scrapeAll pulls every configured scrape target once, concurrently, and
// ingests what parses. A failed or unparsable scrape leaves the target's
// lastSeen untouched, which is exactly what drives it stale.
func (s *Service) scrapeAll(now time.Time) {
	s.mu.Lock()
	targets := make(map[string]string, len(s.scrapes))
	for name, url := range s.scrapes {
		targets[name] = url
	}
	s.mu.Unlock()
	if len(targets) == 0 {
		return
	}
	var wg sync.WaitGroup
	for name, url := range targets {
		wg.Add(1)
		go func(name, url string) {
			defer wg.Done()
			resp, err := pushClient.Get(url)
			if err != nil {
				s.o.Logger().Debug("fleet: scrape failed", "instance", name, "err", err.Error())
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode >= 300 {
				s.o.Logger().Debug("fleet: scrape failed", "instance", name, "status", resp.Status)
				return
			}
			snap, err := expfmt.ParseTextSnapshot(io.LimitReader(resp.Body, 16<<20))
			if err != nil {
				s.o.Logger().Debug("fleet: scrape unparsable", "instance", name, "err", err.Error())
				return
			}
			s.Ingest(url, Report{Instance: name, Metrics: snap}, now)
		}(name, url)
	}
	wg.Wait()
}
