package service

import (
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/store"
)

// statusClasses maps code/100 to its class label without formatting.
var statusClasses = [...]string{"0xx", "1xx", "2xx", "3xx", "4xx", "5xx"}

// Metrics holds the server's handles into its metric registry. Each
// family is declared once in newMetrics; /metrics (JSON),
// /metrics/prometheus and /debug/vars (cmd/trustd publishes the registry)
// all render from those declarations. Each Server owns a private
// registry, so several servers in one process never collide.
type Metrics struct {
	reg *obs.Registry

	requests *obs.CounterVec   // by route; resolved per route in Server.instrument
	latency  *obs.HistogramVec // by route, shared HDR bounds with exemplars
	status   [len(statusClasses)]*obs.CounterVar
	outcomes *obs.CounterVec

	verdictHit, verdictMiss      *obs.CounterVar
	sharedBuilds, perStoreBuilds *obs.CounterVar
	poolBuild                    *obs.GaugeVar

	inFlight, batchQueue, watchers           *obs.GaugeVar
	verified, rejected, errors, reloads      *obs.CounterVar
	batches, batchLines, batchVerdicts       *obs.CounterVar
	batchRejects, simSweeps, simSweepBuilds  *obs.CounterVar
	simEvents                                *obs.CounterVec
	simSweepPairs, simSweepBuild, lastReload *obs.GaugeVar

	// slo feeds the scrape-time trustd_slo_* burn-rate families.
	slo *sloRing

	// db is the database the freshness gauges are computed against; it
	// follows the serving generation (recordReload) so scrape-time lag is
	// always measured against what is actually being served.
	db atomic.Pointer[store.Database]
}

func newMetrics(s *Server) *Metrics {
	r := obs.NewRegistry()
	m := &Metrics{reg: r, slo: newSLORing()}
	const ns = "trustd_"
	m.requests = r.CounterVec(ns+"requests_total", "HTTP requests by route.", "route")
	m.latency = r.HistogramVec(ns+"request_duration_seconds", "HTTP request latency by route (shared HDR log-linear buckets).", "route")
	status := r.CounterVec(ns+"responses_total", "HTTP responses by status class.", "class")
	for i, class := range statusClasses {
		m.status[i] = status.With(class)
	}
	m.outcomes = r.CounterVec(ns+"verify_outcomes_total", "Per-store verify verdicts by outcome.", "outcome")
	cache := r.CounterVec(ns+"cache_events_total", "Cache lookups by cache and result.", "cache", "result")
	m.verdictHit, m.verdictMiss = cache.With("verdict", "hit"), cache.With("verdict", "miss")
	builds := r.CounterVec(ns+"verify_chain_builds_total", "x509 chain builds on verdict-cache misses by path: shared (one per chain and instant, judged by every store) or per_store.", "path")
	m.sharedBuilds, m.perStoreBuilds = builds.With("shared"), builds.With("per_store")
	m.poolBuild = r.Gauge(ns+"verify_pool_build_seconds", "Wall time of the latest shared verify pool build (one per generation, on first use).")
	m.inFlight = r.Gauge(ns+"in_flight_requests", "Requests currently being served.")
	m.verified = r.Counter(ns+"verdicts_total", "Per-store verdicts computed, including cache hits.")
	m.batches = r.Counter(ns+"batches_total", "Batch verify requests started.")
	m.batchLines = r.Counter(ns+"batch_lines_total", "NDJSON lines consumed by /v1/verify/batch.")
	m.batchVerdicts = r.Counter(ns+"batch_verdicts_total", "Verdict rows streamed by /v1/verify/batch.")
	m.batchRejects = r.Counter(ns+"batch_rejected_lines_total", "Batch lines answered with a per-line error.")
	m.batchQueue = r.Gauge(ns+"batch_queue_depth", "Batch jobs queued between reader and writer.")
	m.simEvents = r.CounterVec(ns+"simulate_events_total", "What-if events evaluated by kind.", "kind")
	m.simSweeps = r.Counter(ns+"simulate_sweeps_total", "Sweep rankings served (cached or fresh).")
	m.simSweepBuilds = r.Counter(ns+"simulate_sweep_builds_total", "Sweep rankings computed (at most one per generation).")
	m.simSweepPairs = r.Gauge(ns+"simulate_sweep_pairs", "Scenario pairs in the latest sweep ranking.")
	m.simSweepBuild = r.Gauge(ns+"simulate_sweep_build_seconds", "Wall time of the latest sweep ranking build.")
	m.rejected = r.Counter(ns+"rejected_total", "Requests refused before verification (4xx).")
	m.errors = r.Counter(ns+"errors_total", "Responses that failed server-side (5xx).")
	m.reloads = r.Counter(ns+"reloads_total", "Database hot swaps installed after startup.")
	m.watchers = r.Gauge(ns+"event_watchers", "Live /v1/events/watch streams.")
	m.lastReload = r.Gauge(ns+"last_reload_timestamp_seconds", "Unix time the serving database was installed.")

	started := time.Now()
	r.GaugeFunc(ns+"uptime_seconds", "Seconds since the server started.", func() float64 { return time.Since(started).Seconds() })
	r.CounterFunc(ns+"traces_started_total", "Request traces started.", func() float64 { return float64(s.tracer.Started()) })
	r.GaugeFunc(ns+"generation_epoch", "Cluster epoch of the serving generation.", func() float64 { return float64(s.cur().epoch) })
	// Freshness is computed at scrape time against the serving database:
	// a provider whose lag keeps climbing is a store that stopped
	// publishing (the live form of the paper's update-lag measurement),
	// even if the server never reloads again.
	r.Func(ns+"provider_lag_seconds", "Seconds since each provider's newest snapshot date.", obs.Gauge, []string{"provider"},
		func(emit func(float64, ...string)) {
			now := time.Now()
			m.eachLatest(func(name string, latest *store.Snapshot) {
				emit(float64(now.Sub(latest.Date)/time.Second), name)
			})
		})
	r.Func(ns+"provider_kinds", "Serving providers by ecosystem kind.", obs.Gauge, []string{"kind"},
		func(emit func(float64, ...string)) {
			kinds := map[string]int{}
			m.eachLatest(func(_ string, latest *store.Snapshot) { kinds[string(latest.Kind.Normalize())]++ })
			for kind, n := range kinds {
				emit(float64(n), kind)
			}
		})
	m.slo.register(r, ns)
	obs.RegisterRuntime(r)
	return m
}

// eachLatest calls f with every serving provider's newest snapshot.
func (m *Metrics) eachLatest(f func(provider string, latest *store.Snapshot)) {
	db := m.db.Load()
	if db == nil {
		return
	}
	for _, name := range db.Providers() {
		if h := db.History(name); h != nil {
			if latest := h.Latest(); latest != nil {
				f(name, latest)
			}
		}
	}
}

// recordReload points the freshness gauges at the database being
// installed.
func (m *Metrics) recordReload(db *store.Database) {
	m.db.Store(db)
	m.lastReload.Set(float64(time.Now().UnixNano()) / 1e9)
}

// record counts one finished request: route, status class, refusal/error
// counters, the route's latency histogram (with the trace ID as a bucket
// exemplar) and the SLO ring.
func (m *Metrics) record(requests *obs.CounterVar, latency *obs.HDRHistogram, code int, d time.Duration, trace obs.TraceID) {
	requests.Inc()
	if c := code / 100; c < len(statusClasses) { // net/http allows 1xx-9xx; handlers write ≤ 5xx
		m.status[c].Inc()
	}
	if code >= 400 && code < 500 {
		m.rejected.Inc()
	}
	if code >= 500 {
		m.errors.Inc()
	}
	latency.ObserveTrace(d, trace)
	m.slo.observe(code, d)
}

// statusRecorder captures the response status for metrics.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// Unwrap lets http.ResponseController reach the underlying writer's
// Flusher — the SSE watch endpoint streams through this wrapper.
func (r *statusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

// handleMetrics serves the registry's JSON view.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	fmt.Fprintln(w, s.metrics.reg.String())
}

// handlePrometheus serves the registry in the Prometheus text exposition
// format (0.0.4).
func (s *Server) handlePrometheus(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := obs.WriteExposition(w, s.metrics.reg.Families()); err != nil {
		s.log.Warn("write prometheus exposition", "err", err)
	}
}
