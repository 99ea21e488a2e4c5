package service

import (
	"expvar"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/store"
)

// statusClasses maps code/100 to its class key without formatting.
var statusClasses = [...]string{"0xx", "1xx", "2xx", "3xx", "4xx", "5xx"}

// Metrics aggregates the server's expvar counters. Each Server owns a
// private expvar.Map rather than publishing process globals, so multiple
// servers (tests, embedded use) never collide on expvar names; cmd/trustd
// publishes the map under "trustd" for the standard /debug/vars view.
//
// Gauges that describe "now" — uptime, per-provider staleness — are
// expvar.Funcs computed at read time from the current serving database,
// so /debug/vars (which bypasses this type's handler entirely) and
// long-lived servers that never reload still report the truth.
type Metrics struct {
	root *expvar.Map

	requests *expvar.Map // per route: "GET /v1/providers" → count
	status   *expvar.Map // per status class: "2xx" → count
	outcomes *expvar.Map // per verify outcome: "ok", "no-anchor", ...
	cache    *expvar.Map // verifier/verdict cache hit/miss counters
	inFlight *expvar.Int
	verified *expvar.Int // total per-store verdicts computed (incl. cached)
	rejected *expvar.Int // requests refused before verification (4xx)

	// verdictHits/verdictMisses are the cache map's verdict entries,
	// resolved once so the verify core counts with one atomic add.
	verdictHits, verdictMisses *expvar.Int

	// Batch pipeline counters (POST /v1/verify/batch).
	batchBatches  *expvar.Int // batch requests started
	batchLines    *expvar.Int // NDJSON input lines consumed
	batchVerdicts *expvar.Int // verdict rows streamed out
	batchRejects  *expvar.Int // lines answered with a per-line error
	batchQueue    *expvar.Int // jobs currently queued between reader and writer (gauge)

	// What-if simulation counters (POST /v1/simulate, GET /v1/simulate/sweep).
	simEvents       *expvar.Map   // per event kind: "removal", "distrust-after", "ca-removal", "error"
	simSweeps       *expvar.Int   // sweep responses served (cached or fresh)
	simSweepBuilds  *expvar.Int   // sweep rankings actually computed (≤ one per generation)
	simSweepPairs   *expvar.Int   // (root, store) pairs in the latest ranking (gauge)
	simSweepBuildMs *expvar.Float // wall time of the latest ranking build (gauge)

	errors    *expvar.Int // responses that failed server-side (5xx)
	reloads   *expvar.Int // hot swaps installed after the initial database
	watchers  *expvar.Int // live /v1/events/watch streams
	lastLoad  *expvar.String
	startedAt time.Time

	// Latency is tracked in HDR log-linear histograms over the shared
	// obs.HDRBounds layout — the same bounds cmd/loadgen buckets against
	// on the client side, so the two can be diffed per bucket. routes
	// holds one exemplar-capturing histogram per registered route; all
	// registration happens while the Server is built, before any
	// request, so requests read the map without locking. latencyAll is
	// the cross-route aggregate (and the fallback for unregistered
	// routes).
	routes     map[string]*obs.HDRHistogram
	latencyAll *obs.HDRHistogram

	// slo feeds the scrape-time trustd_slo_* burn-rate families.
	slo *sloRing

	// db is the database the freshness gauges are computed against; it
	// follows the serving generation (recordReload) so scrape-time lag is
	// always measured against what is actually being served.
	db atomic.Pointer[store.Database]
}

func newMetrics() *Metrics {
	m := &Metrics{
		root:     new(expvar.Map).Init(),
		requests: new(expvar.Map).Init(),
		status:   new(expvar.Map).Init(),
		outcomes: new(expvar.Map).Init(),
		cache:    new(expvar.Map).Init(),
		inFlight: new(expvar.Int),
		verified: new(expvar.Int),
		rejected: new(expvar.Int),

		verdictHits:   new(expvar.Int),
		verdictMisses: new(expvar.Int),

		batchBatches:  new(expvar.Int),
		batchLines:    new(expvar.Int),
		batchVerdicts: new(expvar.Int),
		batchRejects:  new(expvar.Int),
		batchQueue:    new(expvar.Int),

		simEvents:       new(expvar.Map).Init(),
		simSweeps:       new(expvar.Int),
		simSweepBuilds:  new(expvar.Int),
		simSweepPairs:   new(expvar.Int),
		simSweepBuildMs: new(expvar.Float),

		errors:    new(expvar.Int),
		reloads:   new(expvar.Int),
		watchers:  new(expvar.Int),
		lastLoad:  new(expvar.String),
		startedAt: time.Now(),

		routes:     map[string]*obs.HDRHistogram{},
		latencyAll: obs.NewHDRHistogramExemplars(),
		slo:        newSLORing(),
	}
	m.root.Set("requests", m.requests)
	m.root.Set("status", m.status)
	m.root.Set("verify_outcomes", m.outcomes)
	m.root.Set("cache", m.cache)
	m.cache.Set("verdict_hits", m.verdictHits)
	m.cache.Set("verdict_misses", m.verdictMisses)
	m.root.Set("latency_ms", expvar.Func(m.latencySummary))
	m.root.Set("provider_lag_seconds", expvar.Func(m.providerLag))
	m.root.Set("provider_kinds", expvar.Func(m.providerKinds))
	m.root.Set("in_flight", m.inFlight)
	m.root.Set("batches_total", m.batchBatches)
	m.root.Set("batch_lines_total", m.batchLines)
	m.root.Set("batch_verdicts_total", m.batchVerdicts)
	m.root.Set("batch_rejected_lines_total", m.batchRejects)
	m.root.Set("batch_queue_depth", m.batchQueue)
	m.root.Set("simulate_events", m.simEvents)
	m.root.Set("simulate_sweeps_total", m.simSweeps)
	m.root.Set("simulate_sweep_builds_total", m.simSweepBuilds)
	m.root.Set("simulate_sweep_pairs", m.simSweepPairs)
	m.root.Set("simulate_sweep_build_ms", m.simSweepBuildMs)
	m.root.Set("verdicts_total", m.verified)
	m.root.Set("rejected_total", m.rejected)
	m.root.Set("errors_total", m.errors)
	m.root.Set("reloads_total", m.reloads)
	m.root.Set("event_watchers", m.watchers)
	m.root.Set("last_reload", m.lastLoad)
	m.root.Set("uptime_seconds", expvar.Func(func() any {
		return time.Since(m.startedAt).Seconds()
	}))
	return m
}

// recordReload points the freshness gauges at the database being
// installed. The per-provider lag itself — seconds between a provider's
// latest snapshot date and now — is computed on every read, so a
// provider whose gauge keeps growing is a store we have stopped
// receiving snapshots for (the live version of the paper's update-lag
// observation) even if the server never reloads again.
func (m *Metrics) recordReload(db *store.Database) {
	m.db.Store(db)
	m.lastLoad.Set(time.Now().UTC().Format(time.RFC3339))
}

// providerLag computes the per-provider staleness map at read time.
func (m *Metrics) providerLag() any {
	out := map[string]int64{}
	db := m.db.Load()
	if db == nil {
		return out
	}
	now := time.Now()
	for _, name := range db.Providers() {
		h := db.History(name)
		if h == nil {
			continue
		}
		if latest := h.Latest(); latest != nil {
			out[name] = int64(now.Sub(latest.Date) / time.Second)
		}
	}
	return out
}

// providerKinds counts serving providers by ecosystem kind ("tls", "ct",
// "manifest") at read time, following the serving generation like
// providerLag.
func (m *Metrics) providerKinds() any {
	out := map[string]int{}
	db := m.db.Load()
	if db == nil {
		return out
	}
	for _, name := range db.Providers() {
		h := db.History(name)
		if h == nil {
			continue
		}
		if latest := h.Latest(); latest != nil {
			out[string(latest.Kind.Normalize())]++
		}
	}
	return out
}

// ProviderKindCount returns how many serving providers have the given
// ecosystem kind (test hook).
func (m *Metrics) ProviderKindCount(kind string) int {
	if v, ok := m.providerKinds().(map[string]int)[kind]; ok {
		return v
	}
	return 0
}

// ReloadCount returns the number of hot swaps installed (test hook).
func (m *Metrics) ReloadCount() int64 { return m.reloads.Value() }

// BatchLines returns the NDJSON input-line counter (test hook).
func (m *Metrics) BatchLines() int64 { return m.batchLines.Value() }

// BatchVerdicts returns the streamed-verdict counter (test hook).
func (m *Metrics) BatchVerdicts() int64 { return m.batchVerdicts.Value() }

// BatchRejects returns the per-line error counter (test hook).
func (m *Metrics) BatchRejects() int64 { return m.batchRejects.Value() }

// BatchQueueDepth returns the live reader→writer queue occupancy; 0 when
// no batch is in flight (test hook — a leak here means jobs were dropped).
func (m *Metrics) BatchQueueDepth() int64 { return m.batchQueue.Value() }

// ErrorCount returns the 5xx response counter (test hook).
func (m *Metrics) ErrorCount() int64 { return m.errors.Value() }

// SimulateEvents returns the counter for one simulate event kind (test
// hook).
func (m *Metrics) SimulateEvents(kind string) int64 {
	if v, ok := m.simEvents.Get(kind).(*expvar.Int); ok {
		return v.Value()
	}
	return 0
}

// SimulateSweeps returns the sweep-response counter (test hook).
func (m *Metrics) SimulateSweeps() int64 { return m.simSweeps.Value() }

// SimulateSweepBuilds returns how many sweep rankings were actually
// computed — at most one per generation (test hook).
func (m *Metrics) SimulateSweepBuilds() int64 { return m.simSweepBuilds.Value() }

// ProviderLagSeconds returns a provider's freshness gauge (test hook);
// -1 when the provider is not in the serving database.
func (m *Metrics) ProviderLagSeconds(provider string) int64 {
	if v, ok := m.providerLag().(map[string]int64)[provider]; ok {
		return v
	}
	return -1
}

// Map exposes the metric tree, e.g. for expvar.Publish in cmd/trustd.
func (m *Metrics) Map() *expvar.Map { return m.root }

// registerRoute allocates the route's latency histogram. Called only
// during Server construction (see Metrics.routes).
func (m *Metrics) registerRoute(route string) {
	m.routes[route] = obs.NewHDRHistogramExemplars()
}

// observeLatency records one request into the per-route and aggregate
// HDR histograms (two atomic adds each) and, when the request was
// traced, stamps the trace ID as the bucket's exemplar so the
// exposition links straight to /debug/traces.
func (m *Metrics) observeLatency(route string, d time.Duration, trace obs.TraceID) {
	if h := m.routes[route]; h != nil {
		h.ObserveTrace(d, trace)
	}
	m.latencyAll.ObserveTrace(d, trace)
}

// latencySummary renders the /metrics JSON view of the latency state:
// per-route count, sum and headline quantiles computed at read time from
// the HDR histograms (the raw buckets are served by
// /metrics/prometheus, which machines should scrape instead).
func (m *Metrics) latencySummary() any {
	out := make(map[string]map[string]float64, len(m.routes)+1)
	add := func(name string, h *obs.HDRHistogram) {
		s := h.Snapshot()
		out[name] = map[string]float64{
			"count":   float64(s.Count),
			"sum_ms":  s.SumSeconds * 1000,
			"p50_ms":  s.Quantile(0.50) * 1000,
			"p90_ms":  s.Quantile(0.90) * 1000,
			"p99_ms":  s.Quantile(0.99) * 1000,
			"p999_ms": s.Quantile(0.999) * 1000,
		}
	}
	add("all", m.latencyAll)
	for route, h := range m.routes {
		add(route, h)
	}
	return out
}

// LatencySnapshot returns a route's HDR histogram snapshot, or the
// aggregate when route is "" (test hook).
func (m *Metrics) LatencySnapshot(route string) obs.HDRSnapshot {
	if route == "" {
		return m.latencyAll.Snapshot()
	}
	if h := m.routes[route]; h != nil {
		return h.Snapshot()
	}
	return obs.HDRSnapshot{}
}

// SLOBurnRates returns the availability and latency burn rates over a
// window (test hook; minutes as in the exposed window labels).
func (m *Metrics) SLOBurnRates(minutes int64) (availability, latency float64, requests uint64) {
	return m.slo.burnRates(minutes)
}

// outcomeCounter returns the counter for one verify outcome, creating it if
// absent, so callers can cache it and count with a single atomic add.
func (m *Metrics) outcomeCounter(outcome string) *expvar.Int {
	m.outcomes.Add(outcome, 0)
	ctr, _ := m.outcomes.Get(outcome).(*expvar.Int)
	return ctr
}

func (m *Metrics) cacheEvent(name string, hit bool) {
	if hit {
		m.cache.Add(name+"_hits", 1)
	} else {
		m.cache.Add(name+"_misses", 1)
	}
}

// CacheHits returns a cache counter's current value (test hook).
func (m *Metrics) CacheHits(name string) int64 {
	if v, ok := m.cache.Get(name + "_hits").(*expvar.Int); ok {
		return v.Value()
	}
	return 0
}

// RequestCount returns a route counter's current value (test hook).
func (m *Metrics) RequestCount(route string) int64 {
	if v, ok := m.requests.Get(route).(*expvar.Int); ok {
		return v.Value()
	}
	return 0
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

// record counts one finished request: route, status class, refusal/error
// counters, the latency histograms (with the trace ID as a bucket
// exemplar) and the SLO ring.
func (m *Metrics) record(route string, code int, d time.Duration, trace obs.TraceID) {
	m.requests.Add(route, 1)
	if c := code / 100; c >= 0 && c < len(statusClasses) {
		m.status.Add(statusClasses[c], 1)
	} else {
		m.status.Add(fmt.Sprintf("%dxx", c), 1)
	}
	if code >= 400 && code < 500 {
		m.rejected.Add(1)
	}
	if code >= 500 {
		m.errors.Add(1)
	}
	m.observeLatency(route, d, trace)
	m.slo.observe(code, d)
}

// handler serves the metric tree as JSON — the expvar wire format, scoped to
// this server's map.
func (m *Metrics) handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		fmt.Fprintln(w, m.root.String())
	})
}
