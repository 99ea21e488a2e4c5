package tracker

import (
	"context"
	"fmt"
	"log/slog"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/archive"
	"repro/internal/catalog"
	"repro/internal/obs"
	"repro/internal/store"
)

// DefaultInterval is the poll cadence when Config.Interval is zero.
const DefaultInterval = 2 * time.Second

// Config wires a Tracker.
type Config struct {
	// Source enumerates snapshot directories (required). DirSource polls
	// a local catalog.TreeLayout tree.
	Source Source
	// Catalog tunes snapshot ingestion (JKS password, bundle purposes).
	Catalog catalog.Options
	// Interval is the poll cadence (DefaultInterval when 0).
	Interval time.Duration
	// Log receives events; a private in-memory log is created when nil.
	Log *Log
	// OnReload is called with the freshly ingested database after every
	// change batch, before the batch's events are appended and published
	// — the hot-swap hook cmd/trustd points at Server.Swap so queries
	// never observe events for state they cannot see yet.
	OnReload func(*store.Database)
	// OnReloadHash, when set, is called instead of OnReload with the
	// database's archive.HashDatabase value as well, whenever that is known
	// for free — the sidecar compile yields it — and zero otherwise. The
	// serving layer then need not encode the database again for its ETag.
	OnReloadHash func(db *store.Database, dbHash [archive.HashLen]byte)
	// Classifier grades event severity (zero value: cross-store holders
	// only, no external catalog).
	Classifier Classifier
	// Logger receives operational logs; slog.Default() when nil.
	Logger *slog.Logger
	// Tracer records a trace per change-processing Rescan (polls that find
	// nothing are discarded, not recorded). Nil disables tracing — every
	// span call is inert.
	Tracer *obs.Tracer
	// Now is the wall clock (test hook; time.Now when nil).
	Now func() time.Time
}

// Tracker watches a snapshot source, ingests changes through the catalog,
// and turns them into classified events. One Rescan is one atomic batch:
// scan → full catalog reload → per-snapshot diffs → OnReload swap →
// append + publish.
type Tracker struct {
	cfg Config
	log *Log
	bus *Bus

	// rescanMu serializes Rescan; digest is only touched under it.
	rescanMu sync.Mutex
	// digest remembers each ingested directory's content digest, so the
	// sidecar refresh after a change reads only the changed directories.
	digest *catalog.TreeDigest

	mu       sync.Mutex
	seen     map[string]stamp // SnapshotDir.Key() → change stamp
	db       *store.Database
	dbHash   [archive.HashLen]byte // archive.HashDatabase(db) when known, else zero
	removals map[string]*removalRecord

	// Pipeline metrics, atomic handles any goroutine can read without
	// taking mu. digested mirrors the digest's directory count, which only
	// the rescan goroutine may read.
	metrics                          *obs.Registry
	rescans, reloads, events, reload *obs.CounterVar
	lastReload                       *obs.GaugeVar
	digested                         atomic.Int64
}

// stamp is the change detector for one snapshot directory: a same-second
// rewrite escapes mtime granularity but moves the size, and either moving
// (in any direction — mtimes go backwards when trees are restored from
// archives) marks the directory changed.
type stamp struct {
	mod  time.Time
	size int64
}

func (s stamp) differs(d SnapshotDir) bool {
	return !d.ModTime.Equal(s.mod) || d.Size != s.size
}

// removalRecord is the live responsiveness ledger for one removed root:
// who dropped it first and when each store followed — Table 4's deltas.
type removalRecord struct {
	label         string
	firstProvider string
	firstDate     time.Time
	perProvider   map[string]time.Time
}

// New validates the config and returns an idle tracker; call Rescan (or
// Run) to load the initial tree.
func New(cfg Config) (*Tracker, error) {
	if cfg.Source == nil {
		return nil, fmt.Errorf("tracker: Config.Source is required")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultInterval
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	l := cfg.Log
	if l == nil {
		var err error
		if l, err = NewLog(LogOptions{}); err != nil {
			return nil, err
		}
	}
	t := &Tracker{
		cfg:      cfg,
		log:      l,
		bus:      NewBus(),
		seen:     make(map[string]stamp),
		removals: make(map[string]*removalRecord),
	}
	t.declareMetrics()
	return t, nil
}

// declareMetrics declares the tracker's families in its own registry;
// the server hosting the tracker includes it.
func (t *Tracker) declareMetrics() {
	r := obs.NewRegistry()
	t.metrics = r
	t.rescans = r.Counter("trustd_tracker_rescans_total", "Source rescans, including polls that found no changes.")
	t.reloads = r.Counter("trustd_tracker_reloads_total", "Rescans that ingested changes and installed a new database.")
	t.events = r.Counter("trustd_tracker_events_emitted_total", "Classified change events appended to the event log.")
	t.lastReload = r.Gauge("trustd_tracker_last_reload_seconds", "Duration of the most recent reload.")
	t.reload = r.Counter("trustd_tracker_reload_seconds_total", "Cumulative time spent reloading the database.")
	r.CounterFunc("trustd_tracker_dirs_digested_total", "Snapshot directories read to hash the tree for sidecar refreshes.",
		func() float64 { return float64(t.digested.Load()) })
	src, ok := t.cfg.Source.(interface{ SourceStats() SourceStats })
	if !ok {
		return
	}
	r.GaugeFunc("trustd_tracker_inotify", "1 while an inotify dirty set drives scans, 0 while every scan stat-walks the tree.",
		func() float64 { return map[bool]float64{true: 1}[src.SourceStats().Inotify] })
	r.GaugeFunc("trustd_tracker_inotify_watches", "Directories carrying an inotify watch.",
		func() float64 { return float64(src.SourceStats().Watches) })
	r.CounterFunc("trustd_tracker_inotify_overflows_total", "Inotify queue overflows, each answered with one full walk.",
		func() float64 { return float64(src.SourceStats().Overflows) })
	r.CounterFunc("trustd_tracker_dirs_statted_total", "Snapshot directories stat-walked by scans.",
		func() float64 { return float64(src.SourceStats().DirsStatted) })
}

// Metrics returns the tracker's metric registry.
func (t *Tracker) Metrics() *obs.Registry { return t.metrics }

// Log exposes the event log for replay.
func (t *Tracker) Log() *Log { return t.log }

// Subscribe attaches a live event listener (see Bus.Subscribe).
func (t *Tracker) Subscribe(buffer int) (<-chan Event, func()) {
	return t.bus.Subscribe(buffer)
}

// Replay delegates to the event log — with Subscribe and LastSeq it makes
// *Tracker satisfy service.EventFeed.
func (t *Tracker) Replay(f Filter) []Event { return t.log.Replay(f) }

// LastSeq returns the newest event sequence number.
func (t *Tracker) LastSeq() uint64 { return t.log.LastSeq() }

// Epoch counts completed ingests (initial Rescan included): a local
// generation clock for the database this tracker produces. Note it lags by
// one inside an OnReload hook, which fires before the reload's bookkeeping
// closes — cluster origins therefore keep their own publish epoch and use
// this only as a coarse progress signal.
func (t *Tracker) Epoch() uint64 { return uint64(t.reloads.Value()) }

// Database returns the most recently ingested database (nil before the
// first successful Rescan). The returned database is immutable: every
// reload builds a fresh one.
func (t *Tracker) Database() *store.Database {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.db
}

// DatabaseHash returns archive.HashDatabase of the current database when
// the last reload learned it for free (see Config.OnReloadHash), and
// reports whether it did.
func (t *Tracker) DatabaseHash() ([archive.HashLen]byte, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dbHash, t.dbHash != [archive.HashLen]byte{}
}

// Lag reports, per provider, how far behind the wall clock the provider's
// newest ingested snapshot is — the freshness gauge the serving layer
// exports.
func (t *Tracker) Lag() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]time.Duration)
	if t.db == nil {
		return out
	}
	now := t.cfg.Now()
	for _, p := range t.db.Providers() {
		if latest := t.db.History(p).Latest(); latest != nil {
			out[p] = now.Sub(latest.Date)
		}
	}
	return out
}

// RemovalRow is one root's live responsiveness record.
type RemovalRow struct {
	Fingerprint   string         `json:"fingerprint"`
	Label         string         `json:"label,omitempty"`
	FirstProvider string         `json:"first_provider"`
	FirstDate     time.Time      `json:"first_date"`
	LagDays       map[string]int `json:"lag_days"`
}

// Responsiveness returns the removal ledger: for every root any store has
// removed, each store's lag in days behind the first remover — the paper's
// Table 4 deltas recomputed continuously from the event stream.
func (t *Tracker) Responsiveness() []RemovalRow {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]RemovalRow, 0, len(t.removals))
	for fp, rec := range t.removals {
		row := RemovalRow{
			Fingerprint:   fp,
			Label:         rec.label,
			FirstProvider: rec.firstProvider,
			FirstDate:     rec.firstDate,
			LagDays:       make(map[string]int, len(rec.perProvider)),
		}
		for prov, date := range rec.perProvider {
			row.LagDays[prov] = lagDays(rec.firstDate, date)
		}
		out = append(out, row)
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].FirstDate.Equal(out[j].FirstDate) {
			return out[i].FirstDate.Before(out[j].FirstDate)
		}
		return out[i].Fingerprint < out[j].Fingerprint
	})
	return out
}

func lagDays(first, then time.Time) int {
	return int(then.Sub(first).Hours() / 24)
}

// Run rescans the source until ctx is cancelled: every Interval, and at
// once whenever a Notifier source reports a change. Scan or ingest errors
// are logged and retried next tick (a half-written tree settles by
// itself); only ctx cancellation ends the loop.
func (t *Tracker) Run(ctx context.Context) error {
	ticker := time.NewTicker(t.cfg.Interval)
	defer ticker.Stop()
	notifier, _ := t.cfg.Source.(Notifier)
	var wake <-chan struct{}
	for {
		if n, err := t.Rescan(); err != nil {
			t.cfg.Logger.Warn("rescan failed; will retry", "err", err)
		} else if n > 0 {
			t.cfg.Logger.Info("ingested", "snapshots", n, "events", t.log.LastSeq())
		}
		if wake == nil && notifier != nil {
			// Asked after a scan: a source learns how it watches on its first.
			wake = notifier.Notify()
		}
		select {
		case <-ctx.Done():
			return nil
		case <-ticker.C:
		case <-wake:
		}
	}
}

// ingest pairs a changed snapshot with the snapshot to diff it against.
type ingest struct {
	snap *store.Snapshot
	prev *store.Snapshot
}

// Rescan performs one scan/ingest cycle and returns how many new or
// modified snapshots it processed. The first call ingests the whole tree,
// replaying each provider's history into the event log chronologically —
// which is exactly how the paper's post-hoc responsiveness tables become a
// live ledger. Subsequent calls reload incrementally: only changed
// directories are re-parsed; every unchanged snapshot is shared with the
// previous generation (store.Snapshot.ShareClone), so a single-provider
// update costs one snapshot's parse no matter how large the tree is.
func (t *Tracker) Rescan() (int, error) {
	t.rescanMu.Lock()
	defer t.rescanMu.Unlock()
	start := time.Now()
	t.rescans.Inc()
	ctx, trace := t.cfg.Tracer.Start(context.Background(), "tracker.rescan")
	defer trace.End()

	_, scanSpan := obs.StartSpan(ctx, "tracker.scan")
	dirs, err := t.cfg.Source.Scan()
	scanSpan.End()
	if err != nil {
		trace.SetAttr("error", err.Error())
		return 0, err
	}
	trace.SetAttr("dirs", strconv.Itoa(len(dirs)))

	present := make(map[string]bool, len(dirs))
	for _, d := range dirs {
		present[d.Key()] = true
	}

	t.mu.Lock()
	var changed []SnapshotDir
	for _, d := range dirs {
		if st, ok := t.seen[d.Key()]; !ok || st.differs(d) {
			changed = append(changed, d)
		}
	}
	vanished := false
	for key := range t.seen {
		if !present[key] {
			vanished = true
			break
		}
	}
	initial := t.db == nil
	oldDB := t.db
	t.mu.Unlock()

	if len(changed) == 0 && !vanished && !initial {
		// An unremarkable poll — most of a tracker's life. Discarding keeps
		// the trace ring holding only rescans that actually did work.
		trace.Discard()
		return 0, nil
	}
	if len(dirs) == 0 {
		err := fmt.Errorf("tracker: %s holds no snapshot directories", t.cfg.Source.Root())
		trace.SetAttr("error", err.Error())
		return 0, err
	}
	trace.SetAttr("changed", strconv.Itoa(len(changed)))

	var newDB *store.Database
	var dbHash [archive.HashLen]byte
	lctx, loadSpan := obs.StartSpan(ctx, "tracker.load")
	if initial {
		// Cold start: the catalog takes the fast path through a fresh
		// sidecar archive when one exists.
		loadSpan.SetAttr("mode", "full")
		var info *catalog.TreeInfo
		newDB, info, err = catalog.LoadTreeInfoCtx(lctx, t.cfg.Source.Root(), t.cfg.Catalog)
		if err == nil {
			t.digest, dbHash = info.Digest, info.DatabaseHash
		}
	} else {
		loadSpan.SetAttr("mode", "splice")
		newDB, dbHash, err = t.spliceReload(lctx, dirs, changed, oldDB)
	}
	if t.digest != nil {
		t.digested.Store(int64(t.digest.Hashed()))
	}
	loadSpan.End()
	if err != nil {
		trace.SetAttr("error", err.Error())
		return 0, err
	}

	t.mu.Lock()
	defer t.mu.Unlock()

	for key := range t.seen {
		if !present[key] {
			delete(t.seen, key)
		}
	}

	ingests := make([]ingest, 0, len(changed))
	for _, d := range changed {
		snap := snapshotByVersion(newDB, d.Provider, d.Version)
		if snap == nil {
			// The directory vanished between scan and reload; next scan
			// reconciles.
			continue
		}
		var prev *store.Snapshot
		if _, wasSeen := t.seen[d.Key()]; wasSeen && oldDB != nil {
			// Modified in place: diff against what we served before.
			prev = snapshotByVersion(oldDB, d.Provider, d.Version)
		} else {
			prev = predecessorOf(newDB.History(d.Provider), snap)
		}
		ingests = append(ingests, ingest{snap: snap, prev: prev})
		t.seen[d.Key()] = stamp{mod: d.ModTime, size: d.Size}
	}
	// Chronological emission across providers keeps the removal ledger's
	// "first remover" truthful during history replay.
	sort.Slice(ingests, func(i, j int) bool {
		a, b := ingests[i].snap, ingests[j].snap
		if !a.Date.Equal(b.Date) {
			return a.Date.Before(b.Date)
		}
		return a.Key() < b.Key()
	})

	t.db, t.dbHash = newDB, dbHash
	_, swapSpan := obs.StartSpan(ctx, "tracker.swap")
	switch {
	case t.cfg.OnReloadHash != nil:
		t.cfg.OnReloadHash(newDB, dbHash)
	case t.cfg.OnReload != nil:
		t.cfg.OnReload(newDB)
	}
	swapSpan.End()

	_, classifySpan := obs.StartSpan(ctx, "tracker.classify")
	defer classifySpan.End()
	var emitted int
	observed := t.cfg.Now()
	for _, ing := range ingests {
		for _, ev := range t.eventsFor(ing.snap, ing.prev, newDB, observed) {
			stamped, err := t.log.Append(ev)
			if err != nil {
				t.finishReload(start, emitted, trace, classifySpan)
				return len(ingests), err
			}
			t.bus.Publish(stamped)
			emitted++
		}
	}
	t.finishReload(start, emitted, trace, classifySpan)
	return len(ingests), nil
}

// finishReload closes out one change-processing rescan's bookkeeping:
// reload counters, durations, and the event count on the trace.
func (t *Tracker) finishReload(start time.Time, emitted int, trace, classifySpan *obs.Span) {
	elapsed := time.Since(start)
	t.reloads.Inc()
	t.events.Add(float64(emitted))
	t.lastReload.Set(elapsed.Seconds())
	t.reload.Add(elapsed.Seconds())
	classifySpan.SetAttr("events", strconv.Itoa(emitted))
	trace.SetAttr("events", strconv.Itoa(emitted))
}

// spliceReload builds the next database generation by re-parsing only the
// changed snapshot directories and sharing every other snapshot with the
// previous generation. Sharing goes through ShareClone so the new
// generation's interner attachment and bitset memos never touch snapshots
// the old generation is still serving. It returns the generation's
// database hash when the sidecar refresh yielded it (zero otherwise).
// Callers hold rescanMu.
func (t *Tracker) spliceReload(ctx context.Context, dirs, changed []SnapshotDir, oldDB *store.Database) (*store.Database, [archive.HashLen]byte, error) {
	var dbHash [archive.HashLen]byte
	if t.digest == nil {
		t.digest = catalog.NewTreeDigest(t.cfg.Source.Root())
	}
	changedKeys := make(map[string]bool, len(changed))
	for _, d := range changed {
		changedKeys[d.Key()] = true
	}
	newDB := store.NewDatabase()
	for _, d := range dirs {
		var snap *store.Snapshot
		if !changedKeys[d.Key()] && oldDB != nil {
			if old := snapshotByVersion(oldDB, d.Provider, d.Version); old != nil {
				snap = old.ShareClone()
			}
		}
		if snap == nil {
			// Digest first: the sidecar's tree hash must never describe
			// newer content than this parse (see catalog.TreeDigest).
			t.digest.Reread(d.Provider, d.Version)
			s, _, err := catalog.LoadVersionDirCtx(ctx, t.cfg.Source.Root(), d.Provider, d.Version, t.cfg.Catalog)
			if err != nil {
				return nil, dbHash, fmt.Errorf("tracker: %s: %w", d.Key(), err)
			}
			snap = s
		}
		if err := newDB.AddSnapshot(snap); err != nil {
			return nil, dbHash, err
		}
	}
	// Keep the next cold start fast: recompile the sidecar from the spliced
	// database (best-effort; no-op under ArchiveOff). Only the changed
	// directories are hashed again.
	dbHash, err := catalog.RefreshArchiveDigestCtx(ctx, t.cfg.Source.Root(), newDB, t.digest, t.cfg.Catalog)
	if err != nil {
		t.cfg.Logger.Warn("sidecar archive refresh failed", "err", err)
	}
	return newDB, dbHash, nil
}

// eventsFor builds the classified event batch for one new snapshot.
// Callers hold t.mu.
func (t *Tracker) eventsFor(snap, prev *store.Snapshot, db *store.Database, observed time.Time) []Event {
	base := Event{
		Provider:   snap.Provider,
		Version:    snap.Version,
		Date:       snap.Date,
		ObservedAt: observed,
	}
	if prev != nil {
		base.PrevVersion = prev.Version
	}

	marker := base
	marker.Type = SnapshotIngested
	marker.Detail = fmt.Sprintf("%d roots", snap.Len())
	events := []Event{marker}

	if prev == nil {
		// A provider's first snapshot: the whole store "appearing" is an
		// ingest marker, not hundreds of root-added events.
		t.cfg.Classifier.classify(&events[0])
		return events
	}

	d := store.DiffSnapshots(prev, snap)
	events[0].Detail = fmt.Sprintf("%d roots, %s vs %s", snap.Len(), d, prev.Version)

	for _, e := range d.Added {
		ev := base
		ev.Type = RootAdded
		ev.Fingerprint = e.Fingerprint.String()
		ev.Label = e.Label
		events = append(events, ev)
	}
	for _, e := range d.Removed {
		ev := base
		ev.Type = RootRemoved
		ev.Fingerprint = e.Fingerprint.String()
		ev.Label = e.Label
		ev.Holders = holdersOf(db, e.Fingerprint.String(), snap.Date, snap.Provider)
		t.recordRemoval(&ev)
		events = append(events, ev)
	}
	for _, tc := range d.TrustChanges {
		ev := base
		ev.Fingerprint = tc.Fingerprint.String()
		ev.Label = tc.Label
		ev.Purpose = tc.Purpose.String()
		ev.OldLevel = tc.Old.String()
		ev.NewLevel = tc.New.String()
		switch {
		case tc.DistrustAfterSet:
			ev.Type = DistrustAfterSet
			cutoff := tc.DistrustAfter
			ev.DistrustAfter = &cutoff
		case tc.DistrustAfterCleared:
			ev.Type = DistrustAfterCleared
		default:
			ev.Type = TrustChanged
		}
		events = append(events, ev)
	}
	for i := range events {
		t.cfg.Classifier.classify(&events[i])
	}
	return events
}

// recordRemoval updates the responsiveness ledger and stamps the event
// with its lag behind the first remover. Callers hold t.mu.
func (t *Tracker) recordRemoval(ev *Event) {
	rec, ok := t.removals[ev.Fingerprint]
	if !ok {
		rec = &removalRecord{
			label:         ev.Label,
			firstProvider: ev.Provider,
			firstDate:     ev.Date,
			perProvider:   make(map[string]time.Time),
		}
		t.removals[ev.Fingerprint] = rec
	}
	if _, dup := rec.perProvider[ev.Provider]; !dup {
		rec.perProvider[ev.Provider] = ev.Date
	}
	lag := lagDays(rec.firstDate, ev.Date)
	ev.LagDays = &lag
	ev.FirstRemover = rec.firstProvider
}

// holdersOf lists the other providers whose store in force at the event
// date still trusts the root for server auth.
func holdersOf(db *store.Database, fingerprint string, at time.Time, exclude string) []string {
	var holders []string
	for _, p := range db.Providers() {
		if p == exclude {
			continue
		}
		snap := db.History(p).At(at)
		if snap == nil {
			continue
		}
		if e, ok := snap.EntryByFingerprint(fingerprint); ok && e.TrustedFor(store.ServerAuth) {
			holders = append(holders, p)
		}
	}
	return holders
}

// snapshotByVersion finds a provider's snapshot by version label.
func snapshotByVersion(db *store.Database, provider, version string) *store.Snapshot {
	h := db.History(provider)
	if h == nil {
		return nil
	}
	for _, s := range h.Snapshots() {
		if s.Version == version {
			return s
		}
	}
	return nil
}

// predecessorOf returns the snapshot immediately before snap in the
// history's date order, nil for the first.
func predecessorOf(h *store.History, snap *store.Snapshot) *store.Snapshot {
	if h == nil {
		return nil
	}
	var prev *store.Snapshot
	for _, s := range h.Snapshots() {
		if s == snap {
			return prev
		}
		prev = s
	}
	return nil
}
