package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/archive"
	"repro/internal/obs"
	"repro/internal/store"
)

// ReplicaConfig configures a Replica. OriginURL is required; everything
// else has working defaults.
type ReplicaConfig struct {
	// OriginURL is the origin's base URL, e.g. "http://origin:8080".
	OriginURL string
	// Client performs all origin requests; http.DefaultClient when nil.
	// Supply one with a Transport timeout budget larger than WaitFor.
	Client *http.Client
	// Interval is the minimum spacing between manifest polls when the
	// origin does not hold long-polls open (default 15s).
	Interval time.Duration
	// WaitFor is the long-poll duration requested via ?wait=. Zero
	// disables long-polling and falls back to plain Interval polling.
	WaitFor time.Duration
	// CacheDir holds downloaded archives as <hash>.rootpack files. Created
	// if missing; a private temp dir is used when empty. A persistent dir
	// gives the replica a last-known-good generation across restarts.
	CacheDir string
	// MaxBackoff caps the jittered exponential backoff after origin
	// failures (default 2m).
	MaxBackoff time.Duration
	// KeepCached bounds how many verified archives stay in CacheDir
	// (default 2: current + previous).
	KeepCached int
	// OnSwap is invoked after each verified download decodes, with the new
	// database and the manifest it came from. This is where cmd/trustd
	// hot-swaps the serving generation. May be nil (Bootstrap-only use).
	OnSwap func(*store.Database, Manifest)
	// Logger receives sync logs; slog.Default() when nil.
	Logger *slog.Logger
	// Tracer records sync/fetch/decode/swap spans; nil disables tracing.
	Tracer *obs.Tracer
}

func (c ReplicaConfig) withDefaults() (ReplicaConfig, error) {
	if c.OriginURL == "" {
		return c, errors.New("cluster: ReplicaConfig.OriginURL is required")
	}
	c.OriginURL = strings.TrimRight(c.OriginURL, "/")
	if c.Client == nil {
		c.Client = http.DefaultClient
	}
	if c.Interval <= 0 {
		c.Interval = 15 * time.Second
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 2 * time.Minute
	}
	if c.KeepCached <= 0 {
		c.KeepCached = 2
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	if c.CacheDir == "" {
		dir, err := os.MkdirTemp("", "trustd-cluster-*")
		if err != nil {
			return c, fmt.Errorf("cluster: create cache dir: %w", err)
		}
		c.CacheDir = dir
	} else if err := os.MkdirAll(c.CacheDir, 0o755); err != nil {
		return c, fmt.Errorf("cluster: create cache dir: %w", err)
	}
	return c, nil
}

// Replica keeps one trustd node converged on its origin's archive. It
// downloads into a content-addressed cache with resume, verifies the
// whole-file hash plus per-section digests before anything decodes, and
// keeps serving its last good generation through origin outages.
type Replica struct {
	cfg ReplicaConfig
	log *slog.Logger

	mu      sync.Mutex
	current Manifest // last manifest successfully synced (zero before first)
	db      *store.Database

	metrics                                 *obs.Registry
	originEpoch, syncedEpoch                *obs.GaugeVar
	lastSync                                atomic.Int64 // unix seconds of last successful sync
	fetchErrors, swaps, fetchBytes, resumes *obs.CounterVar
}

// NewReplica validates the config and prepares the cache directory. It
// performs no network I/O; call Bootstrap or Run.
func NewReplica(cfg ReplicaConfig) (*Replica, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	rep := &Replica{cfg: cfg, log: cfg.Logger, metrics: obs.NewRegistry()}
	r := rep.metrics
	rep.syncedEpoch = r.Gauge("trustd_cluster_replica_epoch", "Epoch of the generation this replica serves.")
	rep.originEpoch = r.Gauge("trustd_cluster_origin_epoch", "Newest epoch the origin has advertised to this replica.")
	// The lag is the time since the last successful manifest check: a
	// replica that cannot reach its origin shows unbounded growth here,
	// while origin minus replica epoch shows how many generations behind
	// it is.
	r.GaugeFunc("trustd_cluster_replica_lag_seconds", "Seconds since the last successful manifest check.", func() float64 {
		if ts := rep.lastSync.Load(); ts > 0 {
			return time.Since(time.Unix(ts, 0)).Seconds()
		}
		return 0
	})
	rep.fetchErrors = r.Counter("trustd_cluster_fetch_errors_total", "Failed sync attempts.")
	rep.swaps = r.Counter("trustd_cluster_swaps_total", "Generations installed by this replica.")
	rep.fetchBytes = r.Counter("trustd_cluster_fetch_bytes_total", "Archive bytes downloaded.")
	rep.resumes = r.Counter("trustd_cluster_resumes_total", "Downloads resumed from a partial file.")
	return rep, nil
}

// Metrics returns the replica's metric registry, for the hosting server
// to include.
func (r *Replica) Metrics() *obs.Registry { return r.metrics }

// Current returns the manifest of the generation this replica serves; ok
// is false before the first successful sync or cache load.
func (r *Replica) Current() (Manifest, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.current, r.current.Hash != ""
}

// Bootstrap produces the replica's first serving database. It tries one
// fresh sync; if the origin is unreachable and the cache holds a verified
// archive from a previous run, that last-known-good generation is served
// instead (its epoch is whatever the cache recorded). With neither, it
// retries the origin with jittered backoff until ctx ends.
func (r *Replica) Bootstrap(ctx context.Context) (*store.Database, Manifest, error) {
	bo := newBackoff(r.cfg.MaxBackoff)
	for {
		if _, err := r.SyncOnce(ctx); err == nil {
			r.mu.Lock()
			db, m := r.db, r.current
			r.mu.Unlock()
			return db, m, nil
		} else if ctx.Err() != nil {
			return nil, Manifest{}, ctx.Err()
		} else {
			r.fetchErrors.Inc()
			if db, m, ok := r.loadNewestCached(); ok {
				r.log.Warn("cluster: origin unreachable at bootstrap, serving cached generation",
					"err", err, "hash", m.Hash[:12], "epoch", m.Epoch)
				r.install(db, m, false)
				return db, m, nil
			}
			d := bo.next()
			r.log.Warn("cluster: bootstrap sync failed, retrying", "err", err, "backoff", d)
			select {
			case <-ctx.Done():
				return nil, Manifest{}, ctx.Err()
			case <-time.After(d):
			}
		}
	}
}

// Run keeps the replica converged until ctx ends. Failures back off
// exponentially with ±50% jitter and reset on the next success; the
// current generation keeps serving throughout.
func (r *Replica) Run(ctx context.Context) error {
	bo := newBackoff(r.cfg.MaxBackoff)
	for {
		start := time.Now()
		swapped, err := r.SyncOnce(ctx)
		if ctx.Err() != nil {
			return ctx.Err()
		}
		var sleep time.Duration
		if err != nil {
			r.fetchErrors.Inc()
			sleep = bo.next()
			r.log.Warn("cluster: sync failed", "err", err, "backoff", sleep)
		} else {
			bo.reset()
			if !swapped {
				// A long-poll that just timed out has already waited its
				// share; only top up to Interval after fast 304s.
				sleep = r.cfg.Interval - time.Since(start)
			}
		}
		if sleep > 0 {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(sleep):
			}
		}
	}
}

// SyncOnce performs one manifest check and, when the origin offers a new
// archive, the full download → verify → decode → swap sequence. It reports
// whether a new generation was installed.
func (r *Replica) SyncOnce(ctx context.Context) (swapped bool, err error) {
	ctx, span := r.cfg.Tracer.Start(ctx, "cluster.sync")
	defer func() {
		if err != nil {
			span.SetAttr("error", err.Error())
		} else if !swapped {
			span.Discard() // idle polls would drown the trace ring
		}
		span.End()
	}()

	m, changed, err := r.fetchManifest(ctx)
	if err != nil {
		return false, err
	}
	r.originEpoch.Set(float64(m.Epoch))
	if !changed {
		r.lastSync.Store(time.Now().Unix())
		return false, nil
	}

	path, err := r.fetchArchive(ctx, m)
	if err != nil {
		return false, err
	}
	db, err := r.decodeArchive(ctx, path, m)
	if err != nil {
		return false, err
	}

	_, swapSpan := obs.StartSpan(ctx, "cluster.swap")
	r.install(db, m, true)
	swapSpan.End()
	r.pruneCache(m.Hash)
	r.log.Info("cluster: synced generation",
		"hash", m.Hash[:12], "epoch", m.Epoch, "size", m.Size)
	return true, nil
}

// fetchManifest asks the origin for its manifest, long-polling when the
// replica already serves a generation. changed is false when the origin
// still offers what we serve (304 or identical hash).
func (r *Replica) fetchManifest(ctx context.Context) (Manifest, bool, error) {
	cur, haveCur := r.Current()
	url := r.cfg.OriginURL + "/cluster/v1/manifest"
	if haveCur && r.cfg.WaitFor > 0 {
		url += "?wait=" + r.cfg.WaitFor.String()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return Manifest{}, false, err
	}
	if haveCur {
		req.Header.Set("If-None-Match", cur.ETag())
	}
	res, err := r.cfg.Client.Do(req)
	if err != nil {
		return Manifest{}, false, err
	}
	defer func() {
		io.Copy(io.Discard, res.Body)
		res.Body.Close()
	}()
	switch res.StatusCode {
	case http.StatusNotModified:
		// Same content, but the epoch may still be news: after a cache
		// bootstrap (epoch unknown) or an origin restart (publishes
		// renumbered) the 304's X-Rootpack-Epoch is the only signal.
		if v := res.Header.Get("X-Rootpack-Epoch"); v != "" {
			if e, perr := strconv.ParseUint(v, 10, 64); perr == nil && e != cur.Epoch {
				cur.Epoch = e
				r.adoptEpoch(e)
			}
		}
		return cur, false, nil
	case http.StatusOK:
	default:
		return Manifest{}, false, fmt.Errorf("cluster: manifest fetch: %s", res.Status)
	}
	var m Manifest
	if err := json.NewDecoder(io.LimitReader(res.Body, 1<<16)).Decode(&m); err != nil {
		return Manifest{}, false, fmt.Errorf("cluster: decode manifest: %w", err)
	}
	if !m.Valid() {
		return Manifest{}, false, fmt.Errorf("cluster: origin sent invalid manifest %+v", m)
	}
	return m, m.Hash != cur.Hash, nil
}

// fetchArchive ensures CacheDir holds a fully verified copy of the
// manifest's archive and returns its path. A matching cached file is
// reused; a leftover partial download is resumed with a Range request.
func (r *Replica) fetchArchive(ctx context.Context, m Manifest) (string, error) {
	final := filepath.Join(r.cfg.CacheDir, m.Hash+".rootpack")
	if err := r.verifyFile(final, m); err == nil {
		return final, nil // already downloaded and intact
	} else if !os.IsNotExist(err) {
		os.Remove(final) // cached copy went bad; refetch
	}

	ctx, span := obs.StartSpan(ctx, "cluster.fetch")
	defer span.End()
	span.SetAttr("hash", m.Hash[:12])

	partial := final + ".partial"
	if err := r.download(ctx, m, partial); err != nil {
		return "", err
	}
	if err := r.verifyFile(partial, m); err != nil {
		os.Remove(partial) // poisoned bytes must not survive to resume
		return "", err
	}
	if err := os.Rename(partial, final); err != nil {
		return "", err
	}
	return final, nil
}

// download writes the archive blob to path, resuming any previous partial
// content with a Range request. The origin serves immutable
// content-addressed blobs, so appending to a partial file of the same hash
// is always coherent.
func (r *Replica) download(ctx context.Context, m Manifest, path string) error {
	var offset int64
	if fi, err := os.Stat(path); err == nil && fi.Size() > 0 && fi.Size() < m.Size {
		offset = fi.Size()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		r.cfg.OriginURL+"/cluster/v1/archive/"+m.Hash, nil)
	if err != nil {
		return err
	}
	if offset > 0 {
		req.Header.Set("Range", "bytes="+strconv.FormatInt(offset, 10)+"-")
	}
	res, err := r.cfg.Client.Do(req)
	if err != nil {
		return err
	}
	defer func() {
		io.Copy(io.Discard, res.Body)
		res.Body.Close()
	}()

	flags := os.O_CREATE | os.O_WRONLY
	switch res.StatusCode {
	case http.StatusPartialContent:
		flags |= os.O_APPEND
		r.resumes.Inc()
	case http.StatusOK:
		flags |= os.O_TRUNC // origin ignored the range; start over
	default:
		return fmt.Errorf("cluster: archive fetch: %s", res.Status)
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return err
	}
	n, copyErr := io.Copy(f, res.Body)
	r.fetchBytes.Add(float64(n))
	if err := f.Close(); err != nil && copyErr == nil {
		copyErr = err
	}
	if copyErr != nil {
		// Keep the partial file: whatever landed is resumable next round.
		return fmt.Errorf("cluster: archive download: %w", copyErr)
	}
	return nil
}

// verifyFile checks that path holds exactly the archive the manifest
// names: right size, parseable footer, matching content hash, and a clean
// whole-file hash recompute. Nothing decodes before this passes.
func (r *Replica) verifyFile(path string, m Manifest) error {
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	if fi.Size() != m.Size {
		return fmt.Errorf("cluster: archive %s is %d bytes, manifest says %d",
			filepath.Base(path), fi.Size(), m.Size)
	}
	ar, err := archive.Open(path)
	if err != nil {
		return err
	}
	defer ar.Close()
	want, err := m.HashBytes()
	if err != nil {
		return err
	}
	if ar.ContentHash() != want {
		return fmt.Errorf("cluster: archive %s footer hash does not match manifest %s",
			filepath.Base(path), m.Hash[:12])
	}
	return ar.VerifyContentHash()
}

// decodeArchive opens the verified file and decodes the database, with
// per-section digest checks folded into the decode path.
func (r *Replica) decodeArchive(ctx context.Context, path string, m Manifest) (*store.Database, error) {
	ctx, span := obs.StartSpan(ctx, "cluster.decode")
	defer span.End()
	ar, err := archive.Open(path)
	if err != nil {
		return nil, err
	}
	defer ar.Close()
	want, err := m.HashBytes()
	if err != nil {
		return nil, err
	}
	if ar.ContentHash() != want {
		return nil, fmt.Errorf("cluster: archive changed between verify and decode")
	}
	return ar.DatabaseCtx(ctx)
}

// adoptEpoch realigns the stored manifest's epoch with the origin's
// advertisement when the content already matches — gauges follow
// immediately; the serving layer's epoch catches up on the next publish.
func (r *Replica) adoptEpoch(e uint64) {
	r.mu.Lock()
	if r.current.Hash != "" {
		r.current.Epoch = e
	}
	r.mu.Unlock()
	r.syncedEpoch.Set(float64(e))
}

// install records the new serving generation and, when notify is set,
// invokes OnSwap.
func (r *Replica) install(db *store.Database, m Manifest, notify bool) {
	r.mu.Lock()
	r.current, r.db = m, db
	r.mu.Unlock()
	r.syncedEpoch.Set(float64(m.Epoch))
	r.originEpoch.Set(max(r.originEpoch.Value(), float64(m.Epoch)))
	r.lastSync.Store(time.Now().Unix())
	r.swaps.Inc()
	if notify && r.cfg.OnSwap != nil {
		r.cfg.OnSwap(db, m)
	}
}

// loadNewestCached scans CacheDir for verified .rootpack files and decodes
// the newest one. The manifest is reconstructed from the file itself
// (hash, size); the epoch is unknown offline and reported as 0 — it
// corrects itself on the first successful sync.
func (r *Replica) loadNewestCached() (*store.Database, Manifest, bool) {
	entries, err := os.ReadDir(r.cfg.CacheDir)
	if err != nil {
		return nil, Manifest{}, false
	}
	type cand struct {
		path string
		mod  time.Time
	}
	var cands []cand
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".rootpack") {
			continue
		}
		fi, err := e.Info()
		if err != nil {
			continue
		}
		cands = append(cands, cand{filepath.Join(r.cfg.CacheDir, e.Name()), fi.ModTime()})
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].mod.After(cands[j].mod) })
	for _, c := range cands {
		ar, err := archive.Open(c.path)
		if err != nil {
			continue
		}
		if err := ar.Verify(); err != nil {
			ar.Close()
			continue
		}
		db, err := ar.Database()
		hash := ar.ContentHash()
		fi, statErr := os.Stat(c.path)
		ar.Close()
		if err != nil || statErr != nil {
			continue
		}
		m := Manifest{Hash: hexHash(hash), Size: fi.Size(), CompiledAt: fi.ModTime().UTC()}
		return db, m, true
	}
	return nil, Manifest{}, false
}

// pruneCache deletes cached archives beyond KeepCached, never touching the
// one just installed. Stale .partial files for other hashes go too.
func (r *Replica) pruneCache(keepHash string) {
	entries, err := os.ReadDir(r.cfg.CacheDir)
	if err != nil {
		return
	}
	type cand struct {
		path string
		mod  time.Time
	}
	var packs []cand
	for _, e := range entries {
		name := e.Name()
		full := filepath.Join(r.cfg.CacheDir, name)
		if strings.HasSuffix(name, ".partial") && !strings.HasPrefix(name, keepHash) {
			os.Remove(full)
			continue
		}
		if !strings.HasSuffix(name, ".rootpack") {
			continue
		}
		fi, err := e.Info()
		if err != nil {
			continue
		}
		packs = append(packs, cand{full, fi.ModTime()})
	}
	if len(packs) <= r.cfg.KeepCached {
		return
	}
	sort.Slice(packs, func(i, j int) bool { return packs[i].mod.After(packs[j].mod) })
	for _, p := range packs[r.cfg.KeepCached:] {
		if filepath.Base(p.path) != keepHash+".rootpack" {
			os.Remove(p.path)
		}
	}
}

// backoff is jittered exponential: base 500ms doubling to max, each delay
// scaled by a uniform ±50% so a fleet losing its origin does not
// resynchronise into a reconnect stampede.
type backoff struct {
	cur, max time.Duration
}

func newBackoff(max time.Duration) *backoff {
	return &backoff{cur: 500 * time.Millisecond, max: max}
}

func (b *backoff) next() time.Duration {
	d := time.Duration(float64(b.cur) * (0.5 + rand.Float64()))
	b.cur = min(b.cur*2, b.max)
	return d
}

func (b *backoff) reset() { b.cur = 500 * time.Millisecond }
