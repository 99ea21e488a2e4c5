package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/archive"
	"repro/internal/httpcond"
	"repro/internal/obs"
	"repro/internal/store"
)

// OriginOptions configures an Origin. The zero value works.
type OriginOptions struct {
	// Logger receives publish and serve logs; slog.Default() when nil.
	Logger *slog.Logger
	// Tracer records publish spans; nil disables tracing.
	Tracer *obs.Tracer
	// MaxWait caps the ?wait= long-poll duration a client may request
	// (default 60s). Longer requests are clamped, not rejected.
	MaxWait time.Duration
}

// Origin is the distribution head of a trustd cluster: it holds the
// current archive in memory and serves the manifest + blob endpoints.
// Publish installs a new archive atomically; the previous blob is kept
// so replicas mid-download of generation N never 404 when generation N+1
// lands.
type Origin struct {
	log     *slog.Logger
	tracer  *obs.Tracer
	maxWait time.Duration

	mu       sync.Mutex
	manifest Manifest
	blob     []byte
	prev     Manifest // previous generation, still downloadable
	prevBlob []byte
	notify   chan struct{} // closed (and replaced) on each publish

	metrics                                           *obs.Registry
	publishes, manifestReqs, archiveReqs, bytesServed *obs.CounterVar
	waiters                                           *obs.GaugeVar
}

// NewOrigin builds an origin with no published archive; its handler
// returns 503 for the manifest until the first Publish.
func NewOrigin(opts OriginOptions) *Origin {
	if opts.Logger == nil {
		opts.Logger = slog.Default()
	}
	if opts.MaxWait <= 0 {
		opts.MaxWait = 60 * time.Second
	}
	o := &Origin{
		log:     opts.Logger,
		tracer:  opts.Tracer,
		maxWait: opts.MaxWait,
		notify:  make(chan struct{}),
		metrics: obs.NewRegistry(),
	}
	r := o.metrics
	r.GaugeFunc("trustd_cluster_origin_epoch", "Epoch of the archive the origin currently offers.",
		func() float64 { m, _ := o.Manifest(); return float64(m.Epoch) })
	o.publishes = r.Counter("trustd_cluster_publishes_total", "Distinct archives published by the origin.")
	o.manifestReqs = r.Counter("trustd_cluster_manifest_requests_total", "Manifest requests served.")
	o.archiveReqs = r.Counter("trustd_cluster_archive_requests_total", "Archive blob requests served.")
	o.bytesServed = r.Counter("trustd_cluster_archive_bytes_total", "Archive bytes written to replicas.")
	o.waiters = r.Gauge("trustd_cluster_manifest_waiters", "Long-poll manifest requests currently parked.")
	return o
}

// Metrics returns the origin's metric registry, for the hosting server to
// include.
func (o *Origin) Metrics() *obs.Registry { return o.metrics }

// Publish encodes db into a fresh rootpack archive and offers it to the
// fleet. Publishing a database whose archive hashes identically to the
// current one is a no-op (the epoch does not move), so callers may publish
// unconditionally on every reload. sourceHash ties the archive back to the
// input material it was compiled from (zero when unknown).
func (o *Origin) Publish(ctx context.Context, db *store.Database, sourceHash [archive.HashLen]byte) (Manifest, error) {
	ctx, span := o.tracer.Start(ctx, "cluster.publish")
	defer span.End()

	var buf bytes.Buffer
	_, encSpan := obs.StartSpan(ctx, "cluster.encode")
	hash, err := archive.Encode(&buf, db, sourceHash)
	encSpan.End()
	if err != nil {
		return Manifest{}, err
	}
	return o.publishBlob(buf.Bytes(), hash), nil
}

// PublishArchive offers pre-encoded archive bytes (e.g. a .rootpack file
// compiled elsewhere). The blob is fully verified before it is offered.
func (o *Origin) PublishArchive(blob []byte) (Manifest, error) {
	r, err := archive.NewReader(bytes.NewReader(blob), int64(len(blob)))
	if err != nil {
		return Manifest{}, err
	}
	if err := r.Verify(); err != nil {
		return Manifest{}, err
	}
	return o.publishBlob(blob, r.ContentHash()), nil
}

func (o *Origin) publishBlob(blob []byte, hash [archive.HashLen]byte) Manifest {
	m := Manifest{
		Hash:       hexHash(hash),
		Size:       int64(len(blob)),
		CompiledAt: time.Now().UTC(),
	}
	o.mu.Lock()
	if m.Hash == o.manifest.Hash {
		cur := o.manifest
		o.mu.Unlock()
		return cur // identical content: keep epoch and blob
	}
	m.Epoch = o.manifest.Epoch + 1
	if o.manifest.Hash != "" {
		o.prev, o.prevBlob = o.manifest, o.blob
	}
	o.manifest, o.blob = m, blob
	close(o.notify) // wake parked long-polls
	o.notify = make(chan struct{})
	o.mu.Unlock()

	o.publishes.Inc()
	o.log.Info("cluster: published archive",
		"hash", m.Hash[:12], "size", m.Size, "epoch", m.Epoch)
	return m
}

// Manifest returns the currently offered manifest; ok is false before the
// first publish.
func (o *Origin) Manifest() (Manifest, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.manifest, o.manifest.Hash != ""
}

// snapshot returns the current manifest plus the notification channel that
// will close on the next publish — the pair a long-poll needs atomically.
func (o *Origin) snapshot() (Manifest, <-chan struct{}) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.manifest, o.notify
}

// Handler serves the cluster wire protocol. Routes use absolute paths so
// the handler can be mounted directly on a service mux.
func (o *Origin) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /cluster/v1/manifest", o.handleManifest)
	mux.HandleFunc("GET /cluster/v1/archive/{hash}", o.handleArchive)
	return mux
}

// handleManifest serves the current manifest. With If-None-Match naming
// the current archive and ?wait=, the request parks until a new publish
// or the wait elapses (304). Without wait it behaves as a plain
// conditional GET.
func (o *Origin) handleManifest(w http.ResponseWriter, r *http.Request) {
	o.manifestReqs.Inc()

	var wait time.Duration
	if v := r.URL.Query().Get("wait"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d < 0 {
			http.Error(w, "wait must be a non-negative duration", http.StatusBadRequest)
			return
		}
		wait = min(d, o.maxWait)
	}

	m, notify := o.snapshot()
	if m.Hash == "" {
		http.Error(w, "no archive published yet", http.StatusServiceUnavailable)
		return
	}
	inm := r.Header.Get("If-None-Match")
	if wait > 0 && httpcond.MatchIfNoneMatch(inm, m.ETag()) {
		o.waiters.Add(1)
		timer := time.NewTimer(wait)
		select {
		case <-notify:
			m, _ = o.snapshot()
		case <-timer.C:
		case <-r.Context().Done():
		}
		timer.Stop()
		o.waiters.Add(-1)
	}

	w.Header().Set("ETag", m.ETag())
	w.Header().Set("Cache-Control", "no-cache")
	w.Header()["X-Rootpack-Hash"] = []string{m.Hash}
	w.Header()["X-Rootpack-Epoch"] = []string{strconv.FormatUint(m.Epoch, 10)}
	if httpcond.MatchIfNoneMatch(inm, m.ETag()) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(m); err != nil {
		o.log.Warn("cluster: write manifest", "err", err)
	}
}

// handleArchive serves a blob by content hash. The current and the
// immediately previous generation are addressable; anything else is gone.
// http.ServeContent supplies Range semantics, which is what makes replica
// download resume work.
func (o *Origin) handleArchive(w http.ResponseWriter, r *http.Request) {
	o.archiveReqs.Inc()
	hash := r.PathValue("hash")

	o.mu.Lock()
	var blob []byte
	var m Manifest
	switch hash {
	case o.manifest.Hash:
		blob, m = o.blob, o.manifest
	case o.prev.Hash:
		blob, m = o.prevBlob, o.prev
	}
	o.mu.Unlock()
	if blob == nil {
		http.Error(w, "unknown archive hash", http.StatusNotFound)
		return
	}

	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("ETag", m.ETag())
	w.Header()["X-Rootpack-Hash"] = []string{m.Hash}
	w.Header()["X-Rootpack-Epoch"] = []string{strconv.FormatUint(m.Epoch, 10)}
	cw := &countingWriter{ResponseWriter: w}
	// Immutable content: the modtime is irrelevant for caching (the hash is
	// the identity), but ServeContent wants one for Last-Modified.
	http.ServeContent(cw, r, hash+".rootpack", m.CompiledAt, bytes.NewReader(blob))
	o.bytesServed.Add(float64(cw.n))
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

func hexHash(h [archive.HashLen]byte) string {
	const digits = "0123456789abcdef"
	out := make([]byte, 0, 2*len(h))
	for _, b := range h {
		out = append(out, digits[b>>4], digits[b&0xf])
	}
	return string(out)
}
