package tracker

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/store"
)

// TestIncrementalReloadSharesUnchangedSnapshots proves the splice path:
// after a single-provider change, the new generation's snapshots for every
// other provider share entry pointers with the old generation — nothing
// unchanged was re-parsed.
func TestIncrementalReloadSharesUnchangedSnapshots(t *testing.T) {
	root := t.TempDir()
	seedTree(t, root)

	trk := newTestTracker(t, root, nil)
	if _, err := trk.Rescan(); err != nil {
		t.Fatal(err)
	}
	gen1 := trk.Database()

	// Only Debian changes.
	writePEM(t, root, "Debian", "2020-08-01", trusted(t, 1, 2))
	if n, err := trk.Rescan(); err != nil || n != 1 {
		t.Fatalf("rescan: n=%d err=%v, want 1 nil", n, err)
	}
	gen2 := trk.Database()
	if gen2 == gen1 {
		t.Fatal("rescan did not produce a new generation")
	}

	for _, version := range []string{"2020-01-01", "2020-03-01"} {
		s1 := snapshotByVersion(gen1, "NSS", version)
		s2 := snapshotByVersion(gen2, "NSS", version)
		if s1 == nil || s2 == nil {
			t.Fatalf("NSS %s missing from a generation", version)
		}
		if s1 == s2 {
			t.Fatalf("NSS %s: snapshot shell shared across generations (interner attachment would race)", version)
		}
		e1, e2 := s1.Entries(), s2.Entries()
		if len(e1) != len(e2) {
			t.Fatalf("NSS %s: entry counts differ", version)
		}
		for i := range e1 {
			if e1[i] != e2[i] {
				t.Errorf("NSS %s entry %d re-parsed: pointers differ across generations", version, i)
			}
		}
	}

	// The changed provider's new snapshot must exist, freshly parsed.
	if snapshotByVersion(gen2, "Debian", "2020-08-01") == nil {
		t.Fatal("changed snapshot missing from new generation")
	}
	// The old generation must not have been mutated by the splice.
	if snapshotByVersion(gen1, "Debian", "2020-08-01") != nil {
		t.Fatal("old generation grew the new snapshot")
	}
}

// TestSameSecondRewriteDetected pins the size+mtime stamp: rewriting a
// snapshot with different content but an identical mtime (forced via
// Chtimes, the same-second-rewrite race) must still trigger a reload
// because the byte size moved.
func TestSameSecondRewriteDetected(t *testing.T) {
	root := t.TempDir()
	writePEM(t, root, "NSS", "2020-01-01", trusted(t, 0, 1, 2))

	trk := newTestTracker(t, root, nil)
	if _, err := trk.Rescan(); err != nil {
		t.Fatal(err)
	}

	dir := filepath.Join(root, "NSS", "2020-01-01")
	bundle := filepath.Join(dir, "tls-ca-bundle.pem")
	fi, err := os.Stat(bundle)
	if err != nil {
		t.Fatal(err)
	}

	// Rewrite with one root fewer, then force the mtime back to the exact
	// original stamp on both the file and its directory.
	writePEM(t, root, "NSS", "2020-01-01", trusted(t, 0, 1))
	for _, p := range []string{bundle, dir} {
		if err := os.Chtimes(p, fi.ModTime(), fi.ModTime()); err != nil {
			t.Fatal(err)
		}
	}

	n, err := trk.Rescan()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("same-mtime rewrite processed %d snapshots, want 1 (size change missed)", n)
	}
	if got := trk.Database().History("NSS").Latest().Len(); got != 2 {
		t.Fatalf("reloaded snapshot has %d roots, want 2", got)
	}

	removals := trk.Replay(Filter{Type: RootRemoved})
	if len(removals) != 1 {
		t.Fatalf("%d removal events, want 1", len(removals))
	}
}

// TestVanishedSnapshotDirPruned: deleting a version directory must shrink
// the next generation and forget the stamp, so the directory reappearing
// later is re-ingested.
func TestVanishedSnapshotDirPruned(t *testing.T) {
	root := t.TempDir()
	seedTree(t, root)

	trk := newTestTracker(t, root, nil)
	if _, err := trk.Rescan(); err != nil {
		t.Fatal(err)
	}
	if trk.Database().TotalSnapshots() != 3 {
		t.Fatalf("initial generation has %d snapshots, want 3", trk.Database().TotalSnapshots())
	}

	if err := os.RemoveAll(filepath.Join(root, "NSS", "2020-03-01")); err != nil {
		t.Fatal(err)
	}
	if _, err := trk.Rescan(); err != nil {
		t.Fatal(err)
	}
	if got := trk.Database().TotalSnapshots(); got != 2 {
		t.Fatalf("after removal generation has %d snapshots, want 2", got)
	}
	if snapshotByVersion(trk.Database(), "NSS", "2020-03-01") != nil {
		t.Fatal("vanished snapshot still served")
	}

	trk.mu.Lock()
	_, stillSeen := trk.seen[dirKey{"NSS", "2020-03-01"}]
	trk.mu.Unlock()
	if stillSeen {
		t.Fatal("vanished directory's stamp not pruned")
	}

	// Reappearing content is ingested again.
	writeCertdata(t, root, "NSS", "2020-03-01", trusted(t, 1, 2))
	if n, err := trk.Rescan(); err != nil || n != 1 {
		t.Fatalf("reappearance rescan: n=%d err=%v, want 1 nil", n, err)
	}
}

// TestIncrementalReloadKeepsOldGenerationQueryable: the previous database
// must stay fully usable (bitset queries included) while and after the new
// generation is spliced — the hot-swap guarantee the service relies on.
func TestIncrementalReloadKeepsOldGenerationQueryable(t *testing.T) {
	root := t.TempDir()
	seedTree(t, root)

	trk := newTestTracker(t, root, nil)
	if _, err := trk.Rescan(); err != nil {
		t.Fatal(err)
	}
	gen1 := trk.Database()
	s1 := snapshotByVersion(gen1, "NSS", "2020-01-01")
	before := s1.TrustedBits(store.ServerAuth, nil).Count()

	writePEM(t, root, "Debian", "2020-09-01", trusted(t, 2))
	if _, err := trk.Rescan(); err != nil {
		t.Fatal(err)
	}

	if after := s1.TrustedBits(store.ServerAuth, nil).Count(); after != before {
		t.Fatalf("old generation's bitset changed across splice: %d → %d", before, after)
	}
	// And the new generation answers over its own interner.
	s2 := snapshotByVersion(trk.Database(), "NSS", "2020-01-01")
	if got := s2.TrustedBits(store.ServerAuth, nil).Count(); got != before {
		t.Fatalf("new generation's bitset count %d, want %d", got, before)
	}
}
