package tracker

import (
	"context"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/archive"
	"repro/internal/catalog"
	"repro/internal/store"
)

// TestReloadDigestsOnlyChangedDirs: the initial ingest digests the whole
// tree once; a later one-directory change re-reads that directory alone,
// and the sidecar it recompiles carries exactly the tree hash a cold start
// computes, so the next cold start takes it.
func TestReloadDigestsOnlyChangedDirs(t *testing.T) {
	root := t.TempDir()
	seedTree(t, root)
	var hashes [][archive.HashLen]byte
	var dbs []*store.Database
	trk := newTestTracker(t, root, func(c *Config) {
		c.OnReloadHash = func(db *store.Database, h [archive.HashLen]byte) {
			dbs, hashes = append(dbs, db), append(hashes, h)
		}
	})
	if _, err := trk.Rescan(); err != nil {
		t.Fatal(err)
	}
	if got := metric(trk, "trustd_tracker_dirs_digested_total"); got != 3 {
		t.Fatalf("initial ingest digested %v dirs, want 3", got)
	}
	writePEM(t, root, "Debian", "2020-05-01", trusted(t, 1, 2))
	if n, err := trk.Rescan(); err != nil || n != 1 {
		t.Fatalf("rescan = %d, %v; want 1", n, err)
	}
	if got := metric(trk, "trustd_tracker_dirs_digested_total"); got != 4 {
		t.Fatalf("after one change %v dirs digested in all, want 4", got)
	}
	// A directory rewritten in place is re-parsed, so its digest is read
	// again too.
	writePEM(t, root, "Debian", "2020-02-01", trusted(t, 0, 1))
	if n, err := trk.Rescan(); err != nil || n != 1 {
		t.Fatalf("rescan after rewrite = %d, %v; want 1", n, err)
	}
	if got := metric(trk, "trustd_tracker_dirs_digested_total"); got != 5 {
		t.Fatalf("after the rewrite %v dirs digested in all, want 5", got)
	}

	r, err := archive.Open(filepath.Join(root, catalog.DefaultArchiveName))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	fresh, err := catalog.TreeHash(root)
	if err != nil {
		t.Fatal(err)
	}
	if r.SourceHash() != fresh {
		t.Fatalf("sidecar source hash %x, fresh tree hash %x", r.SourceHash(), fresh)
	}
	if _, info, err := catalog.LoadTreeInfo(root, catalog.Options{}); err != nil || !info.FromArchive {
		t.Fatalf("cold start after the reload: fromArchive=%v err=%v", info != nil && info.FromArchive, err)
	}

	// Every swap carried the database's own hash, known without encoding.
	if len(hashes) != 3 {
		t.Fatalf("OnReloadHash called %d times, want 3", len(hashes))
	}
	for i, db := range dbs {
		want, err := archive.HashDatabase(db)
		if err != nil {
			t.Fatal(err)
		}
		if hashes[i] != want {
			t.Fatalf("swap %d: hash %x, HashDatabase %x", i, hashes[i][:8], want[:8])
		}
	}
	if h, ok := trk.DatabaseHash(); !ok || h != hashes[2] {
		t.Fatalf("DatabaseHash = %x, %v; want the last swap's", h[:8], ok)
	}
}

// TestReloadWithoutSidecarHasNoHash: with sidecars off nothing yields the
// hash for free, so swaps carry zero and the serving layer computes it.
func TestReloadWithoutSidecarHasNoHash(t *testing.T) {
	root := t.TempDir()
	seedTree(t, root)
	var got [archive.HashLen]byte
	called := false
	trk := newTestTracker(t, root, func(c *Config) {
		c.Catalog.Archive = catalog.ArchiveOff
		c.OnReloadHash = func(_ *store.Database, h [archive.HashLen]byte) { got, called = h, true }
	})
	if _, err := trk.Rescan(); err != nil {
		t.Fatal(err)
	}
	if !called || got != ([archive.HashLen]byte{}) {
		t.Fatalf("OnReloadHash called=%v with %x, want zero", called, got[:8])
	}
	if _, ok := trk.DatabaseHash(); ok {
		t.Fatal("DatabaseHash claims a hash with sidecars off")
	}
}

// TestRunWakesOnChange: with inotify, Run ingests a change as it happens
// rather than at the next poll — here the poll interval is an hour.
func TestRunWakesOnChange(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("inotify is linux-only")
	}
	root := t.TempDir()
	seedTree(t, root)
	trk := newTestTracker(t, root, func(c *Config) { c.Interval = time.Hour })
	live, cancel := trk.Subscribe(64)
	defer cancel()
	ctx, stop := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { trk.Run(ctx); close(done) }()
	defer func() { stop(); <-done }()

	waitIngest := func(version string) {
		t.Helper()
		deadline := time.After(10 * time.Second)
		for {
			select {
			case ev := <-live:
				if ev.Type == SnapshotIngested && ev.Version == version {
					return
				}
			case <-deadline:
				t.Fatalf("no ingest of %s within 10s on an hourly poll", version)
			}
		}
	}
	waitIngest("2020-03-01") // the initial ingest, replayed by Run's first rescan
	writePEM(t, root, "Debian", "2020-06-01", trusted(t, 1))
	waitIngest("2020-06-01")
}

// TestArchiveOffDigestsNothing: with sidecars off no tree hash is ever
// taken, so ingesting a new directory reads its files for the parse
// alone, never for a digest.
func TestArchiveOffDigestsNothing(t *testing.T) {
	root := t.TempDir()
	seedTree(t, root)
	trk := newTestTracker(t, root, func(c *Config) { c.Catalog.Archive = catalog.ArchiveOff })
	if _, err := trk.Rescan(); err != nil {
		t.Fatal(err)
	}
	writePEM(t, root, "Debian", "2020-05-01", trusted(t, 1, 2))
	if n, err := trk.Rescan(); err != nil || n != 1 {
		t.Fatalf("rescan = %d, %v; want 1", n, err)
	}
	if got := metric(trk, "trustd_tracker_dirs_digested_total"); got != 0 {
		t.Fatalf("%v directories digested with sidecars off, want 0", got)
	}
}

// TestMetadataOnlyChangeEmitsNothing: a chmod and a touch move a served
// directory's stamp but not its content. The served generation stands
// and no event is logged. With a sidecar the unchanged content digest
// proves it without a parse and is saved under its new stamp; with
// sidecars off the re-parsed snapshot equals the served one by value.
func TestMetadataOnlyChangeEmitsNothing(t *testing.T) {
	for _, tc := range []struct {
		name  string
		mode  catalog.ArchiveMode
		parse int
	}{{"sidecar", catalog.ArchiveAuto, 0}, {"archive-off", catalog.ArchiveOff, 1}} {
		t.Run(tc.name, func(t *testing.T) {
			root := t.TempDir()
			seedTree(t, root)
			tr := quietTracer()
			swaps := 0
			trk := newTestTracker(t, root, func(c *Config) {
				c.Catalog.Archive = tc.mode
				c.Tracer = tr
				c.OnReload = func(*store.Database) { swaps++ }
			})
			if _, err := trk.Rescan(); err != nil {
				t.Fatal(err)
			}
			served, events := trk.Database(), trk.Log().Len()
			digests := filepath.Join(root, catalog.DefaultArchiveName+".digests")
			saved, _ := os.ReadFile(digests)
			file := filepath.Join(root, "NSS", "2020-03-01", "certdata.txt")
			for _, change := range []func() error{
				func() error { return os.Chmod(file, 0o600) },
				func() error { later := time.Now().Add(time.Minute); return os.Chtimes(file, later, later) },
			} {
				if err := change(); err != nil {
					t.Fatal(err)
				}
				if n, err := trk.Rescan(); err != nil || n != 0 {
					t.Fatalf("rescan = (%d, %v), want no re-ingest", n, err)
				}
				if got := parsedSnapshots(tr.Recent(1)[0]); len(got) != tc.parse {
					t.Fatalf("rescan parsed %v, want %d snapshots", got, tc.parse)
				}
				// The reread digest is saved under its new stamp.
				now, _ := os.ReadFile(digests)
				if tc.mode != catalog.ArchiveOff && string(now) == string(saved) {
					t.Fatal("the reread digest's new stamp was not saved")
				}
				saved = now
			}
			if trk.Database() != served || trk.Log().Len() != events || swaps != 1 {
				t.Fatalf("metadata-only changes swapped %d times in all and logged %d events, want 1 and %d",
					swaps, trk.Log().Len(), events)
			}
			if n, err := trk.Rescan(); err != nil || n != 0 {
				t.Fatalf("quiet rescan = (%d, %v), want nothing", n, err)
			}
		})
	}
}
