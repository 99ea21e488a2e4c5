// Command rootwatch tails a root-store snapshot tree and narrates its
// changes: which roots appeared, which were pulled, which gained a
// Symantec-style distrust-after cutoff — each graded with the paper's
// removal-triage severities — plus a live recomputation of the
// removal-responsiveness deltas behind Table 4.
//
// Usage:
//
//	rootwatch -tree DIR [-interval 2s] [-once] [-replay] [-min-severity info]
//	          [-jsonl FILE] [-table4]
//	rootwatch -smoke
//
// The tree uses the module's shared snapshot layout (see
// internal/catalog): <root>/<provider>/<version>/<store files>, the same
// trees cmd/synthgen writes, cmd/rootstore exports into, and trustd -watch
// serves from. rootwatch ingests the whole tree first — replaying each
// provider's history into the event log chronologically — then watches
// for new or modified snapshot directories until interrupted (inotify on
// local Linux filesystems, so each change costs a re-stat of the
// directories it touched; elsewhere the whole tree is stat-walked every
// -interval).
//
// -once ingests, optionally replays, prints the responsiveness table and
// exits (cron-friendly). -jsonl makes the event log durable and resumable
// across runs. -smoke self-tests the pipeline against generated
// certificates and exits non-zero unless a removal event with a severity
// tag comes out the far end — CI runs it as a hermetic end-to-end check.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"text/tabwriter"
	"time"

	"repro/internal/catalog"
	"repro/internal/obs"
	"repro/internal/pemstore"
	"repro/internal/store"
	"repro/internal/testcerts"
	"repro/internal/tracker"
)

func main() {
	tree := flag.String("tree", "", "snapshot tree to watch (<provider>/<version>/ directories)")
	interval := flag.Duration("interval", tracker.DefaultInterval, "poll cadence (with inotify, the backstop that re-checks settling directories)")
	settle := flag.Duration("settle", 2*time.Second, "quiescence a new snapshot dir needs before ingest")
	once := flag.Bool("once", false, "ingest, report and exit instead of polling")
	replay := flag.Bool("replay", false, "print the events of the initial historical ingest too")
	minSeverity := flag.String("min-severity", "info", "only print events at or above this severity (info|notice|medium|high)")
	jsonl := flag.String("jsonl", "", "persist events to this JSONL file (resumes sequence across runs)")
	archivePath := flag.String("archive", "", "rootpack sidecar location for fast cold starts (default <tree>/.rootpack)")
	table4 := flag.Bool("table4", true, "print the removal-responsiveness table on exit")
	smoke := flag.Bool("smoke", false, "run a hermetic self-test and exit (0 = event pipeline works)")
	debugAddr := flag.String("debug-addr", "", "serve pprof, expvar and /debug/traces on this private address (off when empty)")
	flag.Parse()

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	if *smoke {
		os.Exit(runSmoke(logger))
	}
	if *tree == "" {
		fmt.Fprintln(os.Stderr, "rootwatch: -tree is required (or -smoke); see -h")
		os.Exit(2)
	}
	floor, err := tracker.ParseSeverity(*minSeverity)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rootwatch: %v\n", err)
		os.Exit(2)
	}

	var log *tracker.Log
	if *jsonl != "" {
		if log, err = tracker.NewLog(tracker.LogOptions{Path: *jsonl}); err != nil {
			fmt.Fprintf(os.Stderr, "rootwatch: open event log: %v\n", err)
			os.Exit(1)
		}
	}
	// Rescan traces (scan → parse/splice → classify) land in this ring,
	// served on -debug-addr alongside pprof.
	tracer := obs.NewTracer(obs.Options{Logger: logger})
	src := tracker.NewDirSource(*tree, *settle)
	trk, err := tracker.New(tracker.Config{
		Source:   src,
		Catalog:  catalog.Options{ArchivePath: *archivePath},
		Interval: *interval,
		Log:      log,
		Logger:   logger,
		Tracer:   tracer,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "rootwatch: %v\n", err)
		os.Exit(1)
	}
	if *debugAddr != "" {
		go runDebugServer(*debugAddr, tracer, logger)
	}

	// Subscribe before the first rescan so nothing slips between replay
	// and live tailing.
	live, cancel := trk.Subscribe(256)
	defer cancel()

	baseline := trk.LastSeq() // non-zero when -jsonl resumes an old log
	n, err := trk.Rescan()
	if err != nil {
		fmt.Fprintf(os.Stderr, "rootwatch: initial ingest: %v\n", err)
		os.Exit(1)
	}
	logger.Info("tree ingested", "snapshots", n, "events", trk.LastSeq()-baseline)
	if *replay {
		for _, ev := range trk.Replay(tracker.Filter{SinceSeq: baseline, MinSeverity: floor}) {
			fmt.Println(ev)
		}
	}

	if !*once {
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		go trk.Run(ctx)
		st := src.SourceStats()
		logger.Info("watching", "tree", *tree, "interval", *interval, "inotify", st.Inotify)
		if st.PollReason != "" {
			logger.Warn("inotify unavailable; polling the whole tree", "reason", st.PollReason)
		}
		replayed := trk.LastSeq()
	tail:
		for {
			select {
			case <-ctx.Done():
				break tail
			case ev := <-live:
				if ev.Seq <= replayed || ev.Severity < floor {
					continue // already printed by -replay, or below the floor
				}
				fmt.Println(ev)
			}
		}
	}

	if *table4 {
		printResponsiveness(trk.Responsiveness())
	}
}

// runDebugServer serves the private diagnostics mux — pprof, expvar,
// /debug/traces — for the life of the process. Failures are logged, never
// fatal: losing pprof must not stop the watch.
func runDebugServer(addr string, tracer *obs.Tracer, logger *slog.Logger) {
	srv := &http.Server{
		Addr:              addr,
		Handler:           obs.DebugMux(tracer),
		ReadHeaderTimeout: 5 * time.Second,
		MaxHeaderBytes:    1 << 16,
	}
	logger.Info("debug listener", "addr", addr)
	if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		logger.Warn("debug listener failed", "err", err)
	}
}

// printResponsiveness renders the live Table 4: per removed root, who
// pulled it first and how many days each other store lagged behind.
func printResponsiveness(rows []tracker.RemovalRow) {
	if len(rows) == 0 {
		fmt.Println("no removals observed")
		return
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "ROOT\tFIRST REMOVED BY\tON\tFOLLOWERS (lag days)")
	for _, row := range rows {
		name := row.Label
		if name == "" {
			name = row.Fingerprint[:16]
		}
		type follower struct {
			provider string
			days     int
		}
		var fs []follower
		for p, d := range row.LagDays {
			if p != row.FirstProvider {
				fs = append(fs, follower{p, d})
			}
		}
		sort.Slice(fs, func(i, j int) bool { return fs[i].days < fs[j].days })
		followers := ""
		for i, f := range fs {
			if i > 0 {
				followers += ", "
			}
			followers += fmt.Sprintf("%s +%dd", f.provider, f.days)
		}
		if followers == "" {
			followers = "(none yet)"
		}
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\n", name, row.FirstProvider, row.FirstDate.Format("2006-01-02"), followers)
	}
	w.Flush()
}

// runSmoke is the hermetic self-test: build a tiny two-provider tree from
// generated certificates, ingest it, apply a removal, and demand the
// pipeline produce a severity-tagged removal event plus a responsiveness
// row. Exit status is the verdict.
func runSmoke(logger *slog.Logger) int {
	root, err := os.MkdirTemp("", "rootwatch-smoke-*")
	if err != nil {
		fmt.Fprintf(os.Stderr, "rootwatch: smoke: %v\n", err)
		return 1
	}
	defer os.RemoveAll(root)

	entries := testcerts.Entries(3, store.ServerAuth)
	write := func(provider, version string, es []*store.TrustEntry) error {
		dir := filepath.Join(root, provider, version)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		f, err := os.Create(filepath.Join(dir, "tls-ca-bundle.pem"))
		if err != nil {
			return err
		}
		defer f.Close()
		return pemstore.WriteBundle(f, es)
	}
	if err := write("NSS", "2020-01-01", entries); err != nil {
		fmt.Fprintf(os.Stderr, "rootwatch: smoke: seed tree: %v\n", err)
		return 1
	}
	if err := write("Debian", "2020-01-01", entries); err != nil {
		fmt.Fprintf(os.Stderr, "rootwatch: smoke: seed tree: %v\n", err)
		return 1
	}

	src := tracker.NewDirSource(root, 0)
	defer src.Close()
	trk, err := tracker.New(tracker.Config{Source: src, Logger: logger})
	if err != nil {
		fmt.Fprintf(os.Stderr, "rootwatch: smoke: %v\n", err)
		return 1
	}
	if _, err := trk.Rescan(); err != nil {
		fmt.Fprintf(os.Stderr, "rootwatch: smoke: initial ingest: %v\n", err)
		return 1
	}

	// NSS pulls the first root; Debian still trusts it → high severity.
	if err := write("NSS", "2020-03-01", entries[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "rootwatch: smoke: removal snapshot: %v\n", err)
		return 1
	}
	if _, err := trk.Rescan(); err != nil {
		fmt.Fprintf(os.Stderr, "rootwatch: smoke: rescan: %v\n", err)
		return 1
	}

	removals := trk.Replay(tracker.Filter{Type: tracker.RootRemoved})
	if len(removals) != 1 {
		fmt.Fprintf(os.Stderr, "rootwatch: smoke: FAIL: %d removal events, want 1\n", len(removals))
		return 1
	}
	rm := removals[0]
	if rm.Severity != tracker.SeverityHigh {
		fmt.Fprintf(os.Stderr, "rootwatch: smoke: FAIL: removal severity %s, want high\n", rm.Severity)
		return 1
	}
	if rows := trk.Responsiveness(); len(rows) != 1 {
		fmt.Fprintf(os.Stderr, "rootwatch: smoke: FAIL: %d responsiveness rows, want 1\n", len(rows))
		return 1
	}
	fmt.Println(rm)
	printResponsiveness(trk.Responsiveness())
	fmt.Println("rootwatch smoke: OK")
	return 0
}
