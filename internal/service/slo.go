package service

// Scrape-time SLO burn rates. The server keeps a small minute-bucketed
// ring of request/error/slow counters — two atomic adds per request —
// and /metrics/prometheus derives multi-window burn rates from it at
// scrape time (the standard fast-burn/slow-burn alerting pair: a 5m
// window that fires on sharp regressions and a 1h window that catches
// slow bleeds). Nothing is aggregated in the background; an idle server
// spends zero cycles on SLOs.

import (
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

const (
	// sloAvailabilityTarget is the fraction of requests that must not be
	// 5xx (99.9%).
	sloAvailabilityTarget = 0.999
	// sloLatencyThreshold is the latency SLO's cutoff: requests slower
	// than this count against the latency budget.
	sloLatencyThreshold = 100 * time.Millisecond
	// sloLatencyTarget is the fraction of requests that must finish
	// within sloLatencyThreshold (99%).
	sloLatencyTarget = 0.99
	// sloRingMinutes sizes the ring: the longest burn window (1h) plus
	// slack so a scrape near a minute boundary never wraps into slots it
	// still needs.
	sloRingMinutes = 75
)

// sloWindows are the burn-rate windows exposed per SLO.
var sloWindows = []struct {
	label   string
	minutes int64
}{
	{"5m", 5},
	{"1h", 60},
}

// sloMinute is one ring slot: the absolute minute it covers plus that
// minute's counters. A slot is recycled in place when its minute lapses.
type sloMinute struct {
	minute   atomic.Int64 // unix time / 60; 0 = never used
	requests atomic.Uint64
	errors   atomic.Uint64 // 5xx responses
	slow     atomic.Uint64 // slower than sloLatencyThreshold
}

// sloRing is the fixed ring of per-minute counters.
type sloRing struct {
	slots [sloRingMinutes]sloMinute
	// nowFunc is swapped by tests for deterministic windows.
	nowFunc func() time.Time
}

func newSLORing() *sloRing { return &sloRing{nowFunc: time.Now} }

// observe counts one finished request into the current minute's slot.
// Slot recycling races (two goroutines crossing a minute boundary) can
// drop a handful of counts from the outgoing minute — irrelevant at
// burn-rate granularity and worth it to keep this lock-free.
func (r *sloRing) observe(code int, d time.Duration) {
	now := r.nowFunc().Unix() / 60
	slot := &r.slots[now%sloRingMinutes]
	if old := slot.minute.Load(); old != now {
		if slot.minute.CompareAndSwap(old, now) {
			slot.requests.Store(0)
			slot.errors.Store(0)
			slot.slow.Store(0)
		}
	}
	slot.requests.Add(1)
	if code >= 500 {
		slot.errors.Add(1)
	}
	if d > sloLatencyThreshold {
		slot.slow.Add(1)
	}
}

// window sums the last `minutes` complete-or-current minutes.
func (r *sloRing) window(minutes int64) (requests, errors, slow uint64) {
	now := r.nowFunc().Unix() / 60
	for i := range r.slots {
		m := r.slots[i].minute.Load()
		if m == 0 || m > now || now-m >= minutes {
			continue
		}
		requests += r.slots[i].requests.Load()
		errors += r.slots[i].errors.Load()
		slow += r.slots[i].slow.Load()
	}
	return requests, errors, slow
}

// burnRates computes the availability and latency burn rates over one
// window: observed bad-fraction divided by the error budget
// (1 - target). Burn 1.0 = exactly consuming budget at the sustainable
// rate; 14.4 on the 5m window is the classic page-now threshold. Empty
// windows burn 0.
func (r *sloRing) burnRates(minutes int64) (availability, latency float64, requests uint64) {
	req, errs, slow := r.window(minutes)
	if req == 0 {
		return 0, 0, 0
	}
	availability = (float64(errs) / float64(req)) / (1 - sloAvailabilityTarget)
	latency = (float64(slow) / float64(req)) / (1 - sloLatencyTarget)
	return availability, latency, req
}

// register declares the SLO families on reg under the namespace prefix:
// the SLO definitions as gauges (so alert rules can read targets off the
// exposition instead of hard-coding them) plus multi-window burn rates for
// the fast-burn/slow-burn alerting pair, computed from the ring at scrape
// time.
func (r *sloRing) register(reg *obs.Registry, ns string) {
	reg.GaugeFunc(ns+"slo_availability_target", "Availability SLO: fraction of requests that must not be 5xx.", func() float64 { return sloAvailabilityTarget })
	reg.GaugeFunc(ns+"slo_latency_target", "Latency SLO: fraction of requests that must finish within the threshold.", func() float64 { return sloLatencyTarget })
	reg.GaugeFunc(ns+"slo_latency_threshold_seconds", "Latency SLO threshold.", func() float64 { return sloLatencyThreshold.Seconds() })
	reg.Func(ns+"slo_burn_rate", "Error-budget burn rate by SLO and window (1.0 = consuming budget exactly at the sustainable rate).",
		obs.Gauge, []string{"slo", "window"}, func(emit func(float64, ...string)) {
			for _, w := range sloWindows {
				avail, lat, _ := r.burnRates(w.minutes)
				emit(avail, "availability", w.label)
				emit(lat, "latency", w.label)
			}
		})
	reg.Func(ns+"slo_window_requests", "Requests observed in each burn-rate window.",
		obs.Gauge, []string{"window"}, func(emit func(float64, ...string)) {
			for _, w := range sloWindows {
				_, _, req := r.burnRates(w.minutes)
				emit(float64(req), w.label)
			}
		})
}
