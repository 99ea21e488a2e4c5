package tracker

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/certdata"
	"repro/internal/pemstore"
	"repro/internal/store"
	"repro/internal/testcerts"
)

func date(y, m, d int) time.Time { return time.Date(y, time.Month(m), d, 0, 0, 0, 0, time.UTC) }

// writeCertdata writes an NSS-style snapshot directory.
func writeCertdata(t *testing.T, root, provider, version string, entries []*store.TrustEntry) {
	t.Helper()
	dir := filepath.Join(root, provider, version)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(filepath.Join(dir, "certdata.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := certdata.Marshal(f, entries); err != nil {
		t.Fatal(err)
	}
}

// writePEM writes a flat PEM-bundle snapshot directory.
func writePEM(t *testing.T, root, provider, version string, entries []*store.TrustEntry) {
	t.Helper()
	dir := filepath.Join(root, provider, version)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(filepath.Join(dir, "tls-ca-bundle.pem"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := pemstore.WriteBundle(f, entries); err != nil {
		t.Fatal(err)
	}
}

// trusted builds server-auth entries over the shared test roots at the
// given indices.
func trusted(t *testing.T, idx ...int) []*store.TrustEntry {
	t.Helper()
	max := 0
	for _, i := range idx {
		if i >= max {
			max = i + 1
		}
	}
	roots := testcerts.Roots(max)
	out := make([]*store.TrustEntry, 0, len(idx))
	for _, i := range idx {
		e, err := store.NewTrustedEntry(roots[i].DER, store.ServerAuth)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, e)
	}
	return out
}

func fpOf(t *testing.T, idx int) string {
	t.Helper()
	return trusted(t, idx)[0].Fingerprint.String()
}

func newTestTracker(t *testing.T, root string, mutate func(*Config)) *Tracker {
	t.Helper()
	cfg := Config{Source: newWatchedSource(t, root, 0)}
	if mutate != nil {
		mutate(&cfg)
	}
	trk, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return trk
}

// seedTree writes the baseline two-provider history: NSS removes root 0 and
// partially distrusts root 1 in its second release, while Debian still
// carries everything.
func seedTree(t *testing.T, root string) {
	writeCertdata(t, root, "NSS", "2020-01-01", trusted(t, 0, 1, 2))
	second := trusted(t, 1, 2)
	second[0].SetDistrustAfter(store.ServerAuth, date(2020, 6, 1))
	writeCertdata(t, root, "NSS", "2020-03-01", second)
	writePEM(t, root, "Debian", "2020-02-01", trusted(t, 0, 1, 2))
}

func TestInitialRescanReplaysHistory(t *testing.T) {
	root := t.TempDir()
	seedTree(t, root)

	var reloads int
	trk := newTestTracker(t, root, func(c *Config) {
		c.OnReload = func(db *store.Database) {
			reloads++
			if db.TotalSnapshots() != 3 {
				t.Errorf("reload db has %d snapshots, want 3", db.TotalSnapshots())
			}
		}
	})
	n, err := trk.Rescan()
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("ingested %d snapshots, want 3", n)
	}
	if reloads != 1 {
		t.Fatalf("OnReload called %d times, want 1", reloads)
	}
	if e := trk.Epoch(); e != 1 {
		t.Fatalf("Epoch after initial rescan = %d, want 1", e)
	}

	all := trk.Log().Replay(Filter{})
	// 3 ingest markers + NSS@2020-03-01's removal + distrust-after-set.
	if len(all) != 5 {
		for _, ev := range all {
			t.Log(ev)
		}
		t.Fatalf("events = %d, want 5", len(all))
	}

	removed := trk.Log().Replay(Filter{Type: RootRemoved})
	if len(removed) != 1 {
		t.Fatalf("removals = %d, want 1", len(removed))
	}
	rm := removed[0]
	if rm.Provider != "NSS" || rm.Fingerprint != fpOf(t, 0) {
		t.Errorf("removal = %+v", rm)
	}
	// Debian's store in force on 2020-03-01 still trusts root 0, so the
	// removal is the paper's high-severity case.
	if len(rm.Holders) != 1 || rm.Holders[0] != "Debian" {
		t.Errorf("holders = %v, want [Debian]", rm.Holders)
	}
	if rm.Severity != SeverityHigh {
		t.Errorf("removal severity = %s, want high", rm.Severity)
	}
	if rm.LagDays == nil || *rm.LagDays != 0 || rm.FirstRemover != "NSS" {
		t.Errorf("first removal lag = %v first=%q", rm.LagDays, rm.FirstRemover)
	}
	if rows := trk.Responsiveness(); len(rows) != 1 {
		t.Errorf("responsiveness rows = %d, want 1", len(rows))
	}

	das := trk.Log().Replay(Filter{Type: DistrustAfterSet})
	if len(das) != 1 {
		t.Fatalf("distrust-after events = %d, want 1", len(das))
	}
	if das[0].Severity != SeverityHigh || das[0].Fingerprint != fpOf(t, 1) {
		t.Errorf("distrust-after event = %+v", das[0])
	}
	if das[0].DistrustAfter == nil || !das[0].DistrustAfter.Equal(date(2020, 6, 1)) {
		t.Errorf("cutoff = %v", das[0].DistrustAfter)
	}

	// Quiescent rescan: no phantom events.
	if n, err := trk.Rescan(); err != nil || n != 0 {
		t.Fatalf("idle rescan = %d, %v", n, err)
	}
	if got := trk.Log().Len(); got != 5 {
		t.Errorf("idle rescan grew the log to %d", got)
	}
}

func TestLiveRemovalLagAndResponsiveness(t *testing.T) {
	root := t.TempDir()
	seedTree(t, root)
	trk := newTestTracker(t, root, nil)
	if _, err := trk.Rescan(); err != nil {
		t.Fatal(err)
	}
	seq := trk.Log().LastSeq()

	// Debian catches up 31 days after NSS: drops root 0 too.
	writePEM(t, root, "Debian", "2020-04-01", trusted(t, 1, 2))
	n, err := trk.Rescan()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("ingested %d snapshots, want 1", n)
	}

	fresh := trk.Log().Replay(Filter{SinceSeq: seq})
	var rm *Event
	for i := range fresh {
		if fresh[i].Type == RootRemoved {
			rm = &fresh[i]
		}
	}
	if rm == nil {
		t.Fatalf("no removal event in %d fresh events", len(fresh))
	}
	if rm.Provider != "Debian" || rm.FirstRemover != "NSS" {
		t.Errorf("removal = %+v", rm)
	}
	if rm.LagDays == nil || *rm.LagDays != 31 {
		t.Errorf("lag = %v, want 31 days behind NSS", rm.LagDays)
	}
	// Nobody still holds root 0 on 2020-04-01, so this laggard removal is
	// medium, not high.
	if rm.Severity != SeverityMedium {
		t.Errorf("severity = %s, want medium (no remaining holders)", rm.Severity)
	}

	rows := trk.Responsiveness()
	if len(rows) != 1 {
		t.Fatalf("responsiveness rows = %d, want 1", len(rows))
	}
	row := rows[0]
	if row.FirstProvider != "NSS" || row.LagDays["NSS"] != 0 || row.LagDays["Debian"] != 31 {
		t.Errorf("responsiveness row = %+v", row)
	}

	lag := trk.Lag()
	if len(lag) != 2 || lag["Debian"] <= 0 || lag["NSS"] <= lag["Debian"] {
		t.Errorf("lag gauges = %v (NSS should trail Debian)", lag)
	}
}

func TestModifiedInPlaceSnapshotDiffsAgainstServedState(t *testing.T) {
	root := t.TempDir()
	writePEM(t, root, "Alpine", "2020-01-01", trusted(t, 0, 1))
	trk := newTestTracker(t, root, nil)
	if _, err := trk.Rescan(); err != nil {
		t.Fatal(err)
	}
	seq := trk.Log().LastSeq()

	// Rewrite the same version directory with one root gone — a mutable
	// "latest" tree. Bump mtime well past the recorded stamp.
	writePEM(t, root, "Alpine", "2020-01-01", trusted(t, 1))
	future := time.Now().Add(2 * time.Second)
	bundle := filepath.Join(root, "Alpine", "2020-01-01", "tls-ca-bundle.pem")
	if err := os.Chtimes(bundle, future, future); err != nil {
		t.Fatal(err)
	}

	if n, err := trk.Rescan(); err != nil || n != 1 {
		t.Fatalf("rescan = %d, %v; want 1 modified snapshot", n, err)
	}
	fresh := trk.Log().Replay(Filter{SinceSeq: seq, Type: RootRemoved})
	if len(fresh) != 1 || fresh[0].Fingerprint != fpOf(t, 0) {
		t.Fatalf("in-place edit produced %d removal events: %+v", len(fresh), fresh)
	}
}

// TestDirSourceSettleWindow: a directory changed within the settle window
// is held back, polled or watched. A new one is not reported until it
// settles, even when copied with old mtimes (cp -p and rsync -t still move
// every change time); one reported before keeps its last settled entry
// while a later change — here a chmod, which moves only a change time —
// settles.
func TestDirSourceSettleWindow(t *testing.T) {
	for _, tc := range []struct {
		name           string
		poll, oldTimes bool
	}{
		{"watched", false, false},
		{"polled", true, false},
		{"watched/old mtimes", false, true},
		{"polled/old mtimes", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			root := t.TempDir()
			writePEM(t, root, "Debian", "2020-01-01", trusted(t, 0))
			dir := filepath.Join(root, "Debian", "2020-01-01")
			bundle := filepath.Join(dir, "tls-ca-bundle.pem")
			if tc.oldTimes {
				old := time.Now().Add(-time.Hour)
				for _, p := range []string{bundle, dir} {
					if err := os.Chtimes(p, old, old); err != nil {
						t.Fatal(err)
					}
				}
			}
			src := newWatchedSource(t, root, time.Minute)
			src.poll = tc.poll
			scan := func() []catalog.VersionDir {
				t.Helper()
				dirs, err := src.Scan()
				if err != nil {
					t.Fatal(err)
				}
				return dirs
			}
			later := func() time.Time { return time.Now().Add(2 * time.Minute) }

			if dirs := scan(); len(dirs) != 0 {
				t.Fatalf("fresh directory reported before settle window: %v", keysOf(dirs))
			}
			src.now = later
			dirs := scan()
			if len(dirs) != 1 || dirs[0].Key() != "Debian/2020-01-01" {
				t.Fatalf("settled scan = %v", keysOf(dirs))
			}
			settled := dirs[0].Stamp

			src.now = time.Now
			if err := os.Chmod(bundle, 0o600); err != nil {
				t.Fatal(err)
			}
			if dirs := scan(); len(dirs) != 1 || dirs[0].Stamp != settled {
				t.Fatalf("scan inside the window of a change = %v, want Debian/2020-01-01 as it settled", keysOf(dirs))
			}
			src.now = later
			if dirs := scan(); len(dirs) != 1 || dirs[0].Stamp == settled {
				t.Fatalf("scan after the change settled = %v, want Debian/2020-01-01 restamped", keysOf(dirs))
			}
		})
	}
}

func TestTrackerEmptyTreeErrors(t *testing.T) {
	trk := newTestTracker(t, t.TempDir(), nil)
	if _, err := trk.Rescan(); err == nil {
		t.Fatal("empty tree should error (nothing to serve)")
	}
}
