// Command trustd serves the trust-anchor query & chain-verification API
// over a root-store database: the paper's cross-store comparisons as an
// online service.
//
// Usage:
//
//	trustd [-addr :8080] [-seed tracing-your-roots | -tree DIR | -archive FILE] [flags]
//
// The database comes from the deterministic synthetic ecosystem (-seed),
// from an on-disk <provider>/<version>/ release tree (-tree), the same
// layouts cmd/synthgen writes and internal/catalog ingests, or from a
// compiled rootpack archive (-archive FILE, see cmd/rootpack) for
// millisecond cold starts. With -tree, -archive instead overrides where the
// sidecar cache lives (default <tree>/.rootpack).
//
// Endpoints:
//
//	GET  /v1/providers                      providers + snapshot counts
//	GET  /v1/providers/{p}/snapshots        one provider's release history
//	GET  /v1/roots/{fingerprint}            who trusts this root (per purpose)
//	GET  /v1/diff?a=REF&b=REF               added/removed/trust-changed roots
//	POST /v1/verify                         per-store verdicts for a PEM chain
//	POST /v1/verify/batch                   NDJSON chain stream in, verdict stream out
//	GET  /v1/events                         change-event replay (with -watch)
//	GET  /v1/events/watch                   live change stream, SSE (with -watch)
//	GET  /healthz                           liveness + corpus size
//	GET  /metrics                           metric registry as JSON (same series)
//	GET  /metrics/prometheus                Prometheus text exposition
//	GET  /debug/traces                      recent + slowest request traces
//
// Snapshot REFs are "Provider" (latest, or in force at ?at=) or
// "Provider@Version". The server drains connections on SIGINT/SIGTERM.
//
// With -watch (requires -tree), trustd keeps watching the tree (inotify
// on local Linux filesystems, polling elsewhere) and hot-swaps the serving
// database whenever a snapshot directory appears or changes — in-flight
// requests finish on the old database, new ones see the new one, and
// every change becomes a classified event on /v1/events. A reload re-reads
// only the changed directories.
//
// -debug-addr starts a second, private listener with net/http/pprof, the
// process expvar tree and /debug/traces — diagnostics that do not belong
// on the public API address.
package main

import (
	"context"
	"expvar"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/archive"
	"repro/internal/catalog"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/synth"
	"repro/internal/tracker"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	seed := flag.String("seed", "tracing-your-roots", "synthetic ecosystem seed (ignored with -tree)")
	tree := flag.String("tree", "", "load snapshots from a <provider>/<version>/ directory tree instead of generating")
	archivePath := flag.String("archive", "", "rootpack archive: with -tree, the sidecar cache location (default <tree>/.rootpack); alone, a compiled archive to serve directly")
	timeout := flag.Duration("timeout", service.DefaultRequestTimeout, "per-request timeout")
	drain := flag.Duration("drain", 15*time.Second, "connection-drain budget on shutdown")
	maxBody := flag.Int64("max-body", service.DefaultMaxBodyBytes, "request body size limit in bytes")
	workers := flag.Int("workers", 0, "concurrent verification workers (0 = 2×CPU)")
	batchWorkers := flag.Int("batch-workers", 0, "per-batch pipeline workers for /v1/verify/batch (0 = same as -workers)")
	cacheSize := flag.Int("verdict-cache", service.DefaultVerdictCacheSize, "verdict LRU capacity")
	logJSON := flag.Bool("log-json", false, "emit JSON logs instead of text")
	watch := flag.Bool("watch", false, "keep watching -tree and hot-reload on snapshot changes")
	pollInterval := flag.Duration("poll-interval", tracker.DefaultInterval, "tree poll cadence with -watch (with inotify, the backstop that re-checks settling directories)")
	settle := flag.Duration("settle", 2*time.Second, "how long a new snapshot dir must be quiescent before ingest")
	eventsJSONL := flag.String("events-jsonl", "", "append change events to this JSONL file (with -watch)")
	debugAddr := flag.String("debug-addr", "", "serve pprof, expvar and /debug/traces on this private address (off when empty)")
	origin := flag.Bool("origin", false, "serve /cluster/v1/* archive-distribution endpoints and publish every generation to the fleet")
	originURL := flag.String("origin-url", "", "run as a replica of this origin's base URL (replaces -seed/-tree/-watch as the database source)")
	clusterCache := flag.String("cluster-cache", "", "replica archive cache directory (temp dir when empty; persistent dirs survive origin outages across restarts)")
	syncInterval := flag.Duration("sync-interval", 15*time.Second, "replica manifest poll spacing")
	syncWait := flag.Duration("sync-wait", 30*time.Second, "replica long-poll duration (0 = plain polling)")
	flag.Parse()

	var handler slog.Handler = slog.NewTextHandler(os.Stderr, nil)
	if *logJSON {
		handler = slog.NewJSONHandler(os.Stderr, nil)
	}
	logger := slog.New(handler)

	if *watch && *tree == "" {
		logger.Error("-watch requires -tree (a directory to poll)")
		os.Exit(1)
	}
	if *originURL != "" && (*watch || *tree != "" || *origin) {
		logger.Error("-origin-url (replica mode) is exclusive with -tree, -watch and -origin: the database comes from the origin")
		os.Exit(1)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// One tracer for the whole process: request traces from the server and
	// rescan traces from the tracker land in the same /debug/traces ring.
	tracer := obs.NewTracer(obs.Options{Logger: logger})

	var db *store.Database
	var dbHash [archive.HashLen]byte // archive.HashDatabase(db) when known for free
	var trk *tracker.Tracker
	var src *tracker.DirSource // the watched tree, with -watch
	var rep *cluster.Replica
	var repManifest cluster.Manifest
	switch {
	case *originURL != "":
		var err error
		rep, db, repManifest, err = startReplica(ctx, *originURL, *clusterCache, *syncInterval, *syncWait, tracer, logger)
		if err != nil {
			logger.Error("bootstrap replica", "err", err)
			os.Exit(1)
		}
	case *watch:
		var err error
		src = tracker.NewDirSource(*tree, *settle)
		trk, db, err = startTracker(src, *archivePath, *pollInterval, *eventsJSONL, tracer, logger)
		if err != nil {
			logger.Error("start tracker", "err", err)
			os.Exit(1)
		}
	default:
		var err error
		db, dbHash, err = loadDatabase(*seed, *tree, *archivePath, logger)
		if err != nil {
			logger.Error("load database", "err", err)
			os.Exit(1)
		}
	}
	if trk != nil {
		dbHash, _ = trk.DatabaseHash()
	}

	srv := service.New(db, service.Config{
		MaxBodyBytes:     *maxBody,
		RequestTimeout:   *timeout,
		VerifyWorkers:    *workers,
		BatchWorkers:     *batchWorkers,
		VerdictCacheSize: *cacheSize,
		Logger:           logger,
		Tracer:           tracer,
		DatabaseHash:     dbHash,
	})
	expvar.Publish("trustd", srv.Metrics())

	if *origin {
		org := cluster.NewOrigin(cluster.OriginOptions{Logger: logger, Tracer: tracer})
		m, err := org.Publish(ctx, db, [archive.HashLen]byte{})
		if err != nil {
			logger.Error("publish initial archive", "err", err)
			os.Exit(1)
		}
		clusterOrigin.Store(org)
		srv.Mount("/cluster/", org.Handler())
		srv.Metrics().Include(org.Metrics())
		// The origin serves the exact generation it advertises: adopt the
		// manifest's hash and epoch rather than re-deriving them.
		if hb, err := m.HashBytes(); err == nil {
			srv.SwapArchive(db, hb, m.Epoch)
		}
		logger.Info("cluster origin enabled", "hash", m.Hash[:12], "epoch", m.Epoch, "size", m.Size)
	}
	if rep != nil {
		if hb, err := repManifest.HashBytes(); err == nil {
			srv.SwapArchive(db, hb, repManifest.Epoch)
		}
		srv.Metrics().Include(rep.Metrics())
		watchSrv.Store(srv)
		go func() {
			if err := rep.Run(ctx); err != nil && ctx.Err() == nil {
				logger.Error("replica sync loop exited", "err", err)
			}
		}()
		logger.Info("replica syncing", "origin", *originURL,
			"hash", repManifest.Hash[:12], "epoch", repManifest.Epoch)
	}
	if trk != nil {
		srv.AttachEvents(trk)
		srv.Metrics().Include(trk.Metrics())
		watchSrv.Store(srv)
		go trk.Run(ctx)
		st := src.SourceStats()
		logger.Info("watching", "tree", *tree, "interval", *pollInterval, "inotify", st.Inotify)
		if st.PollReason != "" {
			logger.Warn("inotify unavailable; polling the whole tree", "reason", st.PollReason)
		}
	}
	if *debugAddr != "" {
		go runDebugServer(ctx, *debugAddr, tracer, logger)
	}

	if err := srv.Run(ctx, *addr, *drain); err != nil && err != http.ErrServerClosed {
		logger.Error("serve", "err", err)
		os.Exit(1)
	}
	logger.Info("bye")
}

// runDebugServer serves the private diagnostics mux — pprof, expvar,
// /debug/traces — until ctx is cancelled. Failures are logged, never
// fatal: losing pprof must not take the API down.
func runDebugServer(ctx context.Context, addr string, tracer *obs.Tracer, logger *slog.Logger) {
	srv := &http.Server{
		Addr:              addr,
		Handler:           obs.DebugMux(tracer),
		ReadHeaderTimeout: 5 * time.Second,
		MaxHeaderBytes:    1 << 16,
	}
	go func() {
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		srv.Shutdown(shutdownCtx)
	}()
	logger.Info("debug listener", "addr", addr)
	if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		logger.Warn("debug listener failed", "err", err)
	}
}

// watchSrv breaks the construction cycle between tracker and server: the
// tracker's OnReload needs the server, but the server needs the tracker's
// first ingested database. Reloads before the server exists are dropped
// (the server is then built from the same database anyway). The replica's
// OnSwap goes through the same pointer for the same reason.
var watchSrv atomic.Pointer[service.Server]

// clusterOrigin, when set, receives every reloaded database as a new
// published archive before the local server swaps to it.
var clusterOrigin atomic.Pointer[cluster.Origin]

// reloadFleet installs a freshly ingested database: with -origin it is
// first compiled and published so the manifest, the fleet, and the local
// server all advance to the identical generation; otherwise it is a plain
// local hot swap, tagged with the database hash the tracker learned from
// its sidecar compile. Publish failures fall back to the local swap — the
// origin node must keep serving fresh data even if encoding breaks.
//
// After a swap it collects once. While the tracker builds a generation,
// the old one is live beside it, so a GC cycle that ends mid-reload sets
// the next heap goal to twice both generations; until another cycle ran,
// serving could grow the heap that far, and whether it did depended on
// where the cycles fell against the reload. Collecting when the old
// generation has just been dropped sets the goal from the one generation
// left, so peak memory no longer depends on GC timing.
func reloadFleet(db *store.Database, dbHash [archive.HashLen]byte, logger *slog.Logger) {
	if o := clusterOrigin.Load(); o != nil {
		m, err := o.Publish(context.Background(), db, [archive.HashLen]byte{})
		if err == nil {
			s := watchSrv.Load()
			if s == nil {
				return
			}
			if hb, herr := m.HashBytes(); herr == nil {
				s.SwapArchive(db, hb, m.Epoch)
				runtime.GC()
				return
			}
		}
		logger.Warn("publish reloaded archive", "err", err)
	}
	if s := watchSrv.Load(); s != nil {
		s.SwapHashed(db, dbHash)
		runtime.GC()
	}
}

// startReplica joins an origin's fleet: bootstrap the first generation
// (fresh sync, or the cache's last-known-good when the origin is down) and
// hand later generations to the server through watchSrv.
func startReplica(ctx context.Context, originURL, cacheDir string, interval, wait time.Duration, tracer *obs.Tracer, logger *slog.Logger) (*cluster.Replica, *store.Database, cluster.Manifest, error) {
	rep, err := cluster.NewReplica(cluster.ReplicaConfig{
		OriginURL: originURL,
		CacheDir:  cacheDir,
		Interval:  interval,
		WaitFor:   wait,
		Logger:    logger,
		Tracer:    tracer,
		OnSwap: func(db *store.Database, m cluster.Manifest) {
			s := watchSrv.Load()
			if s == nil {
				return
			}
			if hb, err := m.HashBytes(); err == nil {
				s.SwapArchive(db, hb, m.Epoch)
			}
		},
	})
	if err != nil {
		return nil, nil, cluster.Manifest{}, err
	}
	start := time.Now()
	db, m, err := rep.Bootstrap(ctx)
	if err != nil {
		return nil, nil, cluster.Manifest{}, err
	}
	logger.Info("replica bootstrapped", "origin", originURL, "hash", m.Hash[:12],
		"epoch", m.Epoch, "elapsed", time.Since(start).Round(time.Millisecond))
	return rep, db, m, nil
}

// startTracker builds the tracker over the tree, performs the initial
// ingest (replaying history into the event log) and returns the first
// database to serve.
func startTracker(src *tracker.DirSource, archivePath string, interval time.Duration, eventsPath string, tracer *obs.Tracer, logger *slog.Logger) (*tracker.Tracker, *store.Database, error) {
	var log *tracker.Log
	if eventsPath != "" {
		var err error
		log, err = tracker.NewLog(tracker.LogOptions{Path: eventsPath})
		if err != nil {
			return nil, nil, fmt.Errorf("open event log: %w", err)
		}
	}
	trk, err := tracker.New(tracker.Config{
		Source:       src,
		Catalog:      catalog.Options{ArchivePath: archivePath},
		Interval:     interval,
		Log:          log,
		Logger:       logger,
		Tracer:       tracer,
		OnReloadHash: func(db *store.Database, dbHash [archive.HashLen]byte) { reloadFleet(db, dbHash, logger) },
	})
	if err != nil {
		return nil, nil, err
	}
	start := time.Now()
	n, err := trk.Rescan()
	if err != nil {
		return nil, nil, fmt.Errorf("initial ingest of %s: %w", src.Root(), err)
	}
	logger.Info("tree ingested", "dir", src.Root(), "snapshots", n,
		"events", trk.LastSeq(), "elapsed", time.Since(start).Round(time.Millisecond))
	return trk, trk.Database(), nil
}

// loadDatabase builds the database to serve, plus its archive database
// hash when the load learned it for free (a tree's sidecar), else zero.
func loadDatabase(seed, tree, archivePath string, logger *slog.Logger) (*store.Database, [archive.HashLen]byte, error) {
	var none [archive.HashLen]byte
	start := time.Now()
	if tree != "" {
		db, info, err := catalog.LoadTreeInfo(tree, catalog.Options{ArchivePath: archivePath})
		if err != nil {
			return nil, none, fmt.Errorf("ingest %s: %w", tree, err)
		}
		logger.Info("tree ingested", "dir", tree, "from_archive", info.FromArchive,
			"snapshots", db.TotalSnapshots(), "elapsed", time.Since(start).Round(time.Millisecond))
		return db, info.DatabaseHash, nil
	}
	if archivePath != "" {
		db, dbHash, err := readArchive(archivePath)
		if err != nil {
			return nil, none, fmt.Errorf("read archive %s: %w", archivePath, err)
		}
		logger.Info("archive loaded", "path", archivePath,
			"snapshots", db.TotalSnapshots(), "elapsed", time.Since(start).Round(time.Millisecond))
		return db, dbHash, nil
	}
	eco, err := synth.Cached(seed)
	if err != nil {
		return nil, none, fmt.Errorf("generate ecosystem: %w", err)
	}
	logger.Info("ecosystem generated", "seed", seed,
		"snapshots", eco.DB.TotalSnapshots(), "elapsed", time.Since(start).Round(time.Millisecond))
	return eco.DB, none, nil
}

// readArchive decodes a rootpack and reads its database hash off the same
// bytes.
func readArchive(path string) (*store.Database, [archive.HashLen]byte, error) {
	var none [archive.HashLen]byte
	r, err := archive.Open(path)
	if err != nil {
		return nil, none, err
	}
	defer r.Close()
	db, err := r.Database()
	if err != nil {
		return nil, none, err
	}
	dbHash, err := r.DatabaseHash()
	return db, dbHash, err
}
