package tracker

// Change-detection regressions: the tracker keys on catalog's stat stamp
// (change times included), the settle window on the stamp's newest change
// time (it holds back a change, never a served directory), and the cold
// start loads every non-empty directory the scan found.

import (
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/archive"
	"repro/internal/catalog"
	"repro/internal/obs"
)

// TestDateOnlyChangeMovesServedDate: a version directory whose name is no
// date is dated by its own mtime. Moving that mtime alone changes the
// snapshot's date, so the tracker serves the new date, and the sidecar
// refreshed after it carries the new date under its tree hash: a cold
// start from the sidecar agrees with a native parse.
func TestDateOnlyChangeMovesServedDate(t *testing.T) {
	root := t.TempDir()
	writePEM(t, root, "NSS", "v1", trusted(t, 0, 1))
	writePEM(t, root, "Debian", "2020-01-01", trusted(t, 0, 1))
	dir := filepath.Join(root, "NSS", "v1")
	first, moved := date(2019, 3, 1), date(2019, 9, 1)
	if err := os.Chtimes(dir, first, first); err != nil {
		t.Fatal(err)
	}
	trk := newTestTracker(t, root, nil)
	if _, err := trk.Rescan(); err != nil {
		t.Fatal(err)
	}
	servedDate := func() time.Time { return snapshotByVersion(trk.Database(), "NSS", "v1").Date }
	if got := servedDate(); !got.Equal(first) {
		t.Fatalf("served date %s, want %s", got, first)
	}

	if err := os.Chtimes(dir, moved, moved); err != nil {
		t.Fatal(err)
	}
	if n, err := trk.Rescan(); err != nil || n != 1 {
		t.Fatalf("rescan after the date change = (%d, %v), want 1", n, err)
	}
	if got := servedDate(); !got.Equal(moved) {
		t.Fatalf("served date %s after the change, want %s", got, moved)
	}
	// One more change refreshes the sidecar again.
	writePEM(t, root, "Debian", "2020-02-01", trusted(t, 1))
	if n, err := trk.Rescan(); err != nil || n != 1 {
		t.Fatalf("rescan after a new snapshot = (%d, %v), want 1", n, err)
	}

	db, info, err := catalog.LoadTreeInfo(root, catalog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !info.FromArchive {
		t.Fatal("cold start did not take the refreshed sidecar")
	}
	parsed, err := catalog.LoadTree(root, catalog.Options{Archive: catalog.ArchiveOff})
	if err != nil {
		t.Fatal(err)
	}
	if err := archive.Equal(parsed, db); err != nil {
		t.Fatalf("cold start from the sidecar differs from a native parse: %v", err)
	}
	if got := snapshotByVersion(db, "NSS", "v1").Date; !got.Equal(moved) {
		t.Fatalf("sidecar dates NSS/v1 %s, want %s", got, moved)
	}
}

// TestEmptyVersionDirAtStart: an empty version directory holds no
// snapshot yet. The initial ingest skips it, as every later scan does,
// instead of failing on it; its first file gets it ingested.
func TestEmptyVersionDirAtStart(t *testing.T) {
	root := t.TempDir()
	seedTree(t, root)
	if err := os.MkdirAll(filepath.Join(root, "NSS", "2020-05-01"), 0o755); err != nil {
		t.Fatal(err)
	}
	trk := newTestTracker(t, root, nil)
	if n, err := trk.Rescan(); err != nil || n != 3 {
		t.Fatalf("initial rescan = (%d, %v), want the 3 non-empty snapshots", n, err)
	}
	writePEM(t, root, "NSS", "2020-05-01", trusted(t, 2))
	if n, err := trk.Rescan(); err != nil || n != 1 {
		t.Fatalf("rescan after the first file = (%d, %v), want 1", n, err)
	}
}

// TestSettleHoldsChangesNotServedDirs: with a settle window, a tracker
// started on a tree copied a moment ago with old mtimes (tar x, rsync -a)
// loads all of it at once. A later metadata-only change of a served
// directory (chmod, touch, a hard link made by a backup) leaves the
// directory served: it keeps its snapshot and raises no event until the
// change settles, and once settled its unchanged content digest keeps the
// served generation too — no re-ingest, no event, nothing replayed
// against its predecessor.
func TestSettleHoldsChangesNotServedDirs(t *testing.T) {
	for _, mode := range []string{"watched", "polled"} {
		t.Run(mode, func(t *testing.T) {
			root := t.TempDir()
			seedTree(t, root)
			old := time.Now().Add(-time.Hour)
			err := filepath.WalkDir(root, func(p string, _ fs.DirEntry, err error) error {
				if err != nil {
					return err
				}
				return os.Chtimes(p, old, old)
			})
			if err != nil {
				t.Fatal(err)
			}
			src := newWatchedSource(t, root, 10*time.Second)
			src.poll = mode == "polled"
			trk, err := New(Config{Source: src})
			if err != nil {
				t.Fatal(err)
			}
			if n, err := trk.Rescan(); err != nil || n != 3 {
				t.Fatalf("initial rescan inside the settle window = (%d, %v), want all 3 snapshots", n, err)
			}
			served, events := trk.Database(), trk.Log().Len()

			if err := os.Chmod(filepath.Join(root, "NSS", "2020-03-01", "certdata.txt"), 0o600); err != nil {
				t.Fatal(err)
			}
			if n, err := trk.Rescan(); err != nil || n != 0 {
				t.Fatalf("rescan inside the window of a change = (%d, %v), want nothing", n, err)
			}
			if trk.Database() != served || trk.Log().Len() != events {
				t.Fatal("a change inside the settle window replaced the served database or emitted events")
			}

			src.now = func() time.Time { return time.Now().Add(time.Minute) }
			if n, err := trk.Rescan(); err != nil || n != 0 {
				t.Fatalf("rescan after the change settled = (%d, %v), want no re-ingest", n, err)
			}
			if trk.Database() != served || trk.Log().Len() != events {
				t.Fatal("a settled metadata-only change replaced the served database or emitted events")
			}
			if got := trk.Replay(Filter{Type: RootRemoved}); len(got) != 1 {
				t.Fatalf("%d removal events after the change settled, want 1", len(got))
			}
		})
	}
}

// TestHardLinkedCopyOnlyWatchedSeesTheCopy: hard-linking a snapshot's
// files into a new version directory (how trustbench's reload workload
// adds its NSS copy) moves the linked files' change times in the source
// directory too. inotify raises no event there, so a watched tree
// digests the copy alone; a polled one digests the source as well, finds
// its content unchanged and re-parses only the copy.
func TestHardLinkedCopyOnlyWatchedSeesTheCopy(t *testing.T) {
	for _, tc := range []struct {
		mode   string
		digest float64
	}{{"watched", 1}, {"polled", 2}} {
		t.Run(tc.mode, func(t *testing.T) {
			if tc.mode == "watched" && runtime.GOOS != "linux" {
				t.Skip("inotify is linux-only")
			}
			root, staging := t.TempDir(), t.TempDir()
			writeCertdata(t, root, "NSS", "2020-01-01", trusted(t, 0, 1))
			src := newWatchedSource(t, root, 0)
			src.poll = tc.mode == "polled"
			tr := quietTracer()
			trk, err := New(Config{Source: src, Tracer: tr})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := trk.Rescan(); err != nil {
				t.Fatal(err)
			}
			staged := filepath.Join(staging, "copy")
			if err := os.Mkdir(staged, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.Link(filepath.Join(root, "NSS", "2020-01-01", "certdata.txt"), filepath.Join(staged, "certdata.txt")); err != nil {
				t.Skipf("no hard links here: %v", err)
			}
			if err := os.Rename(staged, filepath.Join(root, "NSS", "2020-02-01")); err != nil {
				t.Fatal(err)
			}
			before := metric(trk, "trustd_tracker_dirs_digested_total")
			if n, err := trk.Rescan(); err != nil || n != 1 {
				t.Fatalf("rescan = (%d, %v), want the copy ingested", n, err)
			}
			if got := parsedSnapshots(tr.Recent(1)[0]); len(got) != 1 || got[0] != "NSS/2020-02-01" {
				t.Fatalf("rescan parsed %v, want the copy alone", got)
			}
			if got := metric(trk, "trustd_tracker_dirs_digested_total") - before; got != tc.digest {
				t.Fatalf("rescan digested %v directories, want %v", got, tc.digest)
			}
		})
	}
}

// parsedSnapshots lists the snapshots a splice trace re-parsed.
func parsedSnapshots(rec *obs.TraceRecord) []string {
	var out []string
	for _, sp := range rec.Spans {
		if sp.Name != "catalog.parse" {
			continue
		}
		for _, a := range sp.Attrs {
			if a.Key == "snapshot" {
				out = append(out, a.Value)
			}
		}
	}
	return out
}
