// Package service is the serving layer over the trust-anchor database: a
// concurrent HTTP API answering the question the offline pipeline only
// answers in batch — which stores trust this root, and does this chain
// verify, as seen by each client's root store (§6–§7 made queryable).
//
// The subsystem is stdlib-only (net/http, log/slog) like the rest
// of the module. Design notes:
//
//   - The database, its fingerprint → (provider, version) inverted index
//     (RootIndex), the caches keyed on its snapshots and its rendered read
//     bodies live together in one immutable state struct behind an atomic
//     pointer. Reads need no
//     locks; Swap installs a freshly ingested database without dropping a
//     single in-flight request — the hot-reload path internal/tracker
//     drives.
//   - verify.Verifier construction (cert-pool building) is the expensive
//     step, so verifiers are cached per snapshot in a sharded read-through
//     cache; verdicts are additionally memoized in an LRU keyed on
//     (chain-hash, snapshot, purpose, dns, time). Both caches belong to
//     the state they were built against and are dropped wholesale on swap,
//     so a re-ingested snapshot can never serve stale verdicts.
//   - POST /v1/verify and POST /v1/verify/batch share one verify core
//     (verify.go): a single verify is a batch of one. Cold verifications
//     run under a bounded worker semaphore and honour per-request context
//     timeouts. A request's misses at one instant build the chain once
//     against a per-generation pool of every certificate and judge it per
//     store.
//   - GET /v1/events replays the tracker's change-event log and
//     /v1/events/watch streams it live (SSE) when a tracker is attached.
package service

import (
	"context"
	"encoding/hex"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/archive"
	"repro/internal/obs"
	"repro/internal/simulate"
	"repro/internal/store"
	"repro/internal/verify"
)

// defaultWorkers sizes the verify semaphore: chain verification is CPU-bound
// (signature checks), so a small multiple of the core count saturates the
// machine without unbounded goroutine pileup.
func defaultWorkers() int {
	if n := 2 * runtime.NumCPU(); n > 4 {
		return n
	}
	return 4
}

// Config tunes the server. The zero value is usable; see the Default*
// constants.
type Config struct {
	// MaxBodyBytes caps request bodies (default 1 MiB).
	MaxBodyBytes int64
	// RequestTimeout bounds each request's context (default 10s).
	RequestTimeout time.Duration
	// WatchTimeout bounds an /v1/events/watch stream (default 5m) —
	// watch requests are exempt from RequestTimeout by design.
	WatchTimeout time.Duration
	// VerifyWorkers bounds concurrent per-store verifications across ALL
	// in-flight verify requests (default 2×NumCPU, min 4).
	VerifyWorkers int
	// BatchWorkers sizes the per-batch decode/verify/encode worker set of
	// POST /v1/verify/batch (default VerifyWorkers). Cold verifications
	// inside a batch additionally take a VerifyWorkers slot, so batches
	// share verification capacity with interactive requests rather than
	// multiplying it.
	BatchWorkers int
	// VerdictCacheSize is the LRU capacity (default 4096 verdicts).
	VerdictCacheSize int
	// Logger receives request logs; slog.Default() when nil.
	Logger *slog.Logger
	// Tracer records request traces. A default in-process tracer is built
	// when nil; Config.Tracer lets cmd/trustd share one tracer between the
	// server and the tracker so reload traces and request traces land in
	// the same /debug/traces ring.
	Tracer *obs.Tracer
	// DatabaseHash, when non-zero, is archive.HashDatabase of the database
	// handed to New, already known to the caller (a sidecar load yields
	// it). It becomes the first generation's entity tag, so the first
	// response need not encode the whole database to stamp it.
	DatabaseHash [archive.HashLen]byte
}

// Defaults for Config zero values.
//
// DefaultMaxBodyBytes is the single authority on request-body size across
// every POST route: withTimeout wraps each non-batch body in an
// http.MaxBytesReader with Config.MaxBodyBytes, and the batch endpoint
// applies the same value to each NDJSON line. New POST routes get the cap
// for free; none may carve out a different limit.
const (
	DefaultMaxBodyBytes     = 1 << 20
	DefaultRequestTimeout   = 10 * time.Second
	DefaultWatchTimeout     = 5 * time.Minute
	DefaultVerdictCacheSize = 4096
)

func (c Config) withDefaults() Config {
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = DefaultRequestTimeout
	}
	if c.WatchTimeout <= 0 {
		c.WatchTimeout = DefaultWatchTimeout
	}
	if c.VerifyWorkers <= 0 {
		c.VerifyWorkers = defaultWorkers()
	}
	if c.BatchWorkers <= 0 {
		c.BatchWorkers = c.VerifyWorkers
	}
	if c.VerdictCacheSize <= 0 {
		c.VerdictCacheSize = DefaultVerdictCacheSize
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	if c.Tracer == nil {
		c.Tracer = obs.NewTracer(obs.Options{Logger: c.Logger})
	}
	return c
}

// dbState is one immutable serving generation: a database, the index built
// over it, and the caches keyed on its snapshots. Handlers load it once at
// entry and use that generation for the whole request, so a concurrent
// Swap can never show a request half of one database and half of another.
type dbState struct {
	db        *store.Database
	index     *RootIndex
	verifiers *verifierCache
	verdicts  *lruCache

	// epoch is the generation ordinal: locally installed generations count
	// up from 1; generations installed from a cluster origin (SwapArchive)
	// carry the origin's epoch, so a whole fleet agrees on which
	// generation is newest.
	epoch uint64

	// etagVal is the generation's entity tag — the archive content hash of
	// db — computed lazily by dbState.etag on first conditional use, or
	// pre-seeded by SwapArchive when the generation was decoded from an
	// archive whose hash is already known.
	etagOnce sync.Once
	etagVal  string

	// The what-if engine and its sweep ranking are pure functions of db,
	// so both are built at most once per generation (first simulate
	// request) and die with it on swap — a stale ranking can never
	// outlive its database. See simulate.go.
	simOnce   sync.Once
	simEngine *simulate.Engine
	sweepOnce sync.Once
	sweepRes  *simulate.SweepResult
	sweepDur  time.Duration

	// verifyPoolOnce guards pool: every distinct certificate of db in one
	// x509 pool, which a verify builds a chain against once for all its
	// stores at one instant (verify.go). It is built on the first verify
	// miss that needs it, never in install, and dies with the generation.
	verifyPoolOnce sync.Once
	pool           *verify.Pool

	// The read bodies are pure functions of db as well: GET /v1/providers
	// and each provider's snapshot list (by position in the sorted
	// providers) are rendered on first request and die with the
	// generation. Root bodies live on the index.
	providers      []string
	providersBody  renderedBody
	snapshotBodies []renderedBody
}

// Server serves the trust-anchor API over an atomically swappable database.
type Server struct {
	cfg     Config
	state   atomic.Pointer[dbState]
	events  EventFeed
	sem     chan struct{}
	scratch sync.Pool // *verifyScratch, reused across requests and batch workers
	metrics *Metrics
	tracer  *obs.Tracer
	log     *slog.Logger
	mux     *http.ServeMux
	handler http.Handler

	// epochCounter allocates local generation ordinals; SwapArchive fast-
	// forwards it to the origin's epoch so local and remote swaps never
	// hand out the same epoch twice.
	epochCounter atomic.Uint64

	// exempt lists mounted path prefixes that RequestTimeout must not
	// apply to (long-polls, archive downloads); they get WatchTimeout.
	exempt []string
}

// New builds a server over the database: installs its (lazily built)
// root index and wires the routes. The database must not be mutated
// after being handed over; replace it wholesale with Swap.
func New(db *store.Database, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:    cfg,
		tracer: cfg.Tracer,
		log:    cfg.Logger,
		sem:    make(chan struct{}, cfg.VerifyWorkers),
		mux:    http.NewServeMux(),
	}
	s.metrics = newMetrics(s)
	s.scratch.New = newVerifyScratch
	s.install(db, hashTag(cfg.DatabaseHash), s.epochCounter.Add(1))

	s.route("GET /v1/providers", s.handleProviders)
	s.route("GET /v1/providers/{provider}/snapshots", s.handleSnapshots)
	s.route("GET /v1/roots/{fingerprint}", s.handleRoot)
	s.route("GET /v1/diff", s.handleDiff)
	s.route("POST /v1/verify", s.handleVerify)
	s.route("POST "+batchPath, s.handleVerifyBatch)
	s.route("POST /v1/simulate", s.handleSimulate)
	s.route("GET /v1/simulate/sweep", s.handleSimulateSweep)
	s.route("GET /v1/events", s.handleEvents)
	s.route("GET /v1/events/watch", s.handleEventsWatch)
	s.mux.Handle("GET /healthz", http.HandlerFunc(s.handleHealthz))
	s.mux.Handle("GET /metrics", http.HandlerFunc(s.handleMetrics))
	s.mux.Handle("GET /metrics/prometheus", http.HandlerFunc(s.handlePrometheus))
	s.mux.Handle("GET /debug/traces", s.tracer.TracesHandler())
	s.handler = s.withTimeout(s.mux)
	return s
}

// install publishes db as the current serving state. Its root index is
// built per root on first read, so nothing here walks the snapshots. tag,
// when non-empty, pre-seeds the generation's entity tag (the archive
// content hash the database was decoded from); otherwise the tag is
// computed lazily on first conditional use.
func (s *Server) install(db *store.Database, tag string, epoch uint64) {
	start := time.Now()
	providers := db.Providers()
	st := &dbState{
		db:             db,
		index:          BuildIndex(db),
		verifiers:      newVerifierCache(s.metrics),
		verdicts:       newLRUCache(s.cfg.VerdictCacheSize),
		epoch:          epoch,
		providers:      providers,
		snapshotBodies: make([]renderedBody, len(providers)),
	}
	if tag != "" {
		st.etagOnce.Do(func() { st.etagVal = tag })
	}
	s.state.Store(st)
	s.metrics.recordReload(db)
	s.log.Info("index built",
		"snapshots", db.TotalSnapshots(),
		"providers", len(db.Providers()),
		"epoch", epoch,
		"elapsed", time.Since(start).Round(time.Millisecond))
}

// Swap atomically replaces the serving database with a freshly ingested
// one. In-flight requests finish against the generation they started on;
// new requests see the new database immediately. This is the tracker's
// OnReload hook — trustd keeps answering mid-reload with no lock on any
// read path.
func (s *Server) Swap(db *store.Database) {
	s.SwapHashed(db, [archive.HashLen]byte{})
}

// SwapHashed is Swap for a database whose archive.HashDatabase value the
// caller already knows (zero: unknown, computed lazily as for Swap) — the
// tracker's reload path, which learns it from the sidecar compile. The
// first response of the generation then stamps its tag without encoding
// the database again.
func (s *Server) SwapHashed(db *store.Database, dbHash [archive.HashLen]byte) {
	s.install(db, hashTag(dbHash), s.epochCounter.Add(1))
	s.metrics.reloads.Inc()
}

// hashTag renders a database hash as an entity tag; "" for the zero hash,
// which install reads as "compute lazily".
func hashTag(h [archive.HashLen]byte) string {
	if h == ([archive.HashLen]byte{}) {
		return ""
	}
	return `"` + hex.EncodeToString(h[:]) + `"`
}

// SwapArchive installs a database decoded from a rootpack archive whose
// content hash and cluster epoch are already known — the replica's swap
// path. The hash becomes the generation's entity tag immediately (no lazy
// re-encode), so the ETag and X-Rootpack-Hash a replica serves are
// byte-identical to the origin's manifest, and the epoch is adopted so
// every node in the fleet reports the same generation ordinal.
func (s *Server) SwapArchive(db *store.Database, contentHash [archive.HashLen]byte, epoch uint64) {
	// Keep the local counter at least at the adopted epoch so a later
	// plain Swap still moves strictly forward.
	for {
		cur := s.epochCounter.Load()
		if cur >= epoch || s.epochCounter.CompareAndSwap(cur, epoch) {
			break
		}
	}
	s.install(db, hashTag(contentHash), epoch)
	s.metrics.reloads.Inc()
}

// verifyPool returns the generation's shared verify pool, building it on
// first use: one walk over the snapshots' entries (deduped by interned ID,
// copying no entry list) and one AddCert per distinct certificate, in
// fingerprint order. The build time is the trustd_verify_pool_build_seconds
// gauge.
func (st *dbState) verifyPool(s *Server) *verify.Pool {
	st.verifyPoolOnce.Do(func() {
		start := time.Now()
		st.pool = verify.NewPool(st.db.DistinctEntries())
		elapsed := time.Since(start)
		s.metrics.poolBuild.Set(elapsed.Seconds())
		s.log.Info("verify pool built", "certificates", st.pool.Len(), "epoch", st.epoch,
			"elapsed", elapsed.Round(time.Microsecond))
	})
	return st.pool
}

// cur returns the current serving generation.
func (s *Server) cur() *dbState { return s.state.Load() }

// AttachEvents wires a change-event feed (normally *tracker.Tracker) into
// /v1/events and /v1/events/watch. Call before serving; not safe to change
// while requests are in flight.
func (s *Server) AttachEvents(feed EventFeed) { s.events = feed }

// Mount attaches a subsystem handler (e.g. the cluster origin's
// /cluster/v1/* endpoints) under prefix on the server's mux, sharing the
// listener with the API. Mounted prefixes are exempt from RequestTimeout
// — they serve long-polls and multi-megabyte archive downloads — and are
// bounded by WatchTimeout instead. Call before serving.
func (s *Server) Mount(prefix string, h http.Handler) {
	s.exempt = append(s.exempt, prefix)
	s.mux.Handle(prefix, h)
}

// Generation reports the serving generation's identity: the archive
// content hash of the database (bare hex, no quotes) and the epoch. The
// same values ride every /v1 response as X-Rootpack-Hash/-Epoch headers.
func (s *Server) Generation() (hash string, epoch uint64) {
	st := s.cur()
	return st.hashHex(), st.epoch
}

// route registers an instrumented handler under a Go 1.22 mux pattern.
func (s *Server) route(pattern string, h http.HandlerFunc) {
	s.mux.Handle(pattern, s.instrument(pattern, h))
}

// instrument wraps an API handler with the observability onion: a trace
// span (joined to the caller's via the W3C traceparent header when one is
// sent), the in-flight gauge, and per-route request/status/latency
// counters. The outbound Traceparent and X-Trace-Id headers let callers
// correlate a response with its entry in /debug/traces.
func (s *Server) instrument(route string, next http.Handler) http.Handler {
	// The route's handles are resolved once, so a request counts without a
	// label lookup.
	requests, latency := s.metrics.requests.With(route), s.metrics.latency.With(route)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var (
			ctx  context.Context
			span *obs.Span
		)
		if h := r.Header.Get("traceparent"); h != "" {
			if tp, err := obs.ParseTraceparent(h); err == nil {
				ctx, span = s.tracer.StartRemote(r.Context(), route, tp)
			}
		}
		if span == nil {
			ctx, span = s.tracer.Start(r.Context(), route)
		}
		if hdr := span.Traceparent(); hdr != "" {
			// Direct map assignment: the keys are already canonical, and
			// this runs on every traced request.
			h := w.Header()
			h["Traceparent"] = []string{hdr}
			h["X-Trace-Id"] = []string{hdr[3:35]} // the trace-id field
		}

		s.metrics.inFlight.Add(1)
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		next.ServeHTTP(rec, r.WithContext(ctx))
		elapsed := time.Since(start)
		s.metrics.inFlight.Add(-1)
		s.metrics.record(requests, latency, rec.code, elapsed, span.TraceID())

		span.SetAttr("status", strconv.Itoa(rec.code))
		span.End()
	})
}

// Handler returns the root handler: the instrumented mux behind the
// request-timeout and body-limit middleware. Suitable for httptest.
func (s *Server) Handler() http.Handler { return s.handler }

// Metrics exposes the server's metric registry: cmd/trustd publishes it
// with expvar.Publish and includes its subsystems' registries (tracker,
// cluster origin or replica) in it; tests read series through Value.
func (s *Server) Metrics() *obs.Registry { return s.metrics.reg }

// Tracer exposes the server's tracer so debug listeners (cmd/trustd's
// -debug-addr mux) can serve the same trace ring the API writes into.
func (s *Server) Tracer() *obs.Tracer { return s.tracer }

// Index exposes the current root index (benchmarks and embedded callers).
func (s *Server) Index() *RootIndex { return s.cur().index }

// watchPath is exempt from the request timeout: it is a deliberate
// long-lived stream bounded by Config.WatchTimeout instead.
const watchPath = "/v1/events/watch"

// withTimeout bounds every request's context and caps its body size.
// Streaming paths (the SSE watch, NDJSON batches, mounted subsystems) get
// WatchTimeout instead of RequestTimeout; the batch path is additionally
// exempt from the whole-body cap — its stream is unbounded by design and
// each line is capped at MaxBodyBytes inside the pipeline instead.
func (s *Server) withTimeout(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		timeout := s.cfg.RequestTimeout
		batch := r.URL.Path == batchPath
		if batch || r.URL.Path == watchPath || s.isExempt(r.URL.Path) {
			timeout = s.cfg.WatchTimeout
		}
		ctx, cancel := context.WithTimeout(r.Context(), timeout)
		defer cancel()
		if r.Body != nil && !batch {
			r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		}
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}

// isExempt reports whether path falls under a Mount-registered prefix.
// The exempt list is tiny (one or two prefixes) and immutable once
// serving starts, so a linear scan beats any map here.
func (s *Server) isExempt(path string) bool {
	for _, p := range s.exempt {
		if strings.HasPrefix(path, p) {
			return true
		}
	}
	return false
}

// Run serves on addr until ctx is cancelled, then drains connections for up
// to drain before forcing the listener closed. This is the cmd/trustd
// serving loop; tests use Handler with httptest instead.
func (s *Server) Run(ctx context.Context, addr string, drain time.Duration) error {
	// Note: no BaseContext tied to ctx — in-flight requests must outlive
	// the cancellation so Shutdown can drain them.
	srv := &http.Server{
		Addr:              addr,
		Handler:           s.handler,
		ReadHeaderTimeout: 5 * time.Second,
		MaxHeaderBytes:    1 << 16,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	s.log.Info("listening", "addr", addr)

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	s.log.Info("shutting down", "drain", drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		s.log.Warn("forced close after drain timeout", "err", err)
		return srv.Close()
	}
	return nil
}
