package tracker

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/catalog"
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

// TestSameSecondRewriteDetected: rewriting a snapshot and then forcing
// the original mtime back onto the file and its directory (the
// same-second-rewrite race, forced via Chtimes; cp -p and rsync --inplace
// --times leave the same) must still trigger a reload, and the tracker
// then serves what a cold parse finds. The stat stamp moves with the
// change times the rewrite and the Chtimes set, even for an edit that
// keeps the byte size: CKT_NSS_TRUSTED_DELEGATOR to
// CKT_NSS_MUST_VERIFY_TRUST, both 25 bytes.
func TestSameSecondRewriteDetected(t *testing.T) {
	for _, tc := range []struct {
		name  string
		file  string
		write func(t *testing.T, root, provider, version string, entries []*store.TrustEntry)
		edit  func(t *testing.T, root, path string)
		event Type
	}{
		{"one root fewer", "tls-ca-bundle.pem", writePEM, func(t *testing.T, root, _ string) {
			writePEM(t, root, "NSS", "2020-01-01", trusted(t, 0, 1))
		}, RootRemoved},
		{"same-size trust edit", "certdata.txt", writeCertdata, func(t *testing.T, _, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			from := []byte("CKA_TRUST_SERVER_AUTH CK_TRUST CKT_NSS_TRUSTED_DELEGATOR")
			to := []byte("CKA_TRUST_SERVER_AUTH CK_TRUST CKT_NSS_MUST_VERIFY_TRUST")
			edited := bytes.Replace(data, from, to, 1)
			if bytes.Equal(edited, data) || len(edited) != len(data) {
				t.Fatal("certdata.txt has no server-auth delegator line to edit in place")
			}
			if err := os.WriteFile(path, edited, 0o644); err != nil {
				t.Fatal(err)
			}
		}, TrustChanged},
	} {
		t.Run(tc.name, func(t *testing.T) {
			root := t.TempDir()
			tc.write(t, root, "NSS", "2020-01-01", trusted(t, 0, 1, 2))
			trk := newTestTracker(t, root, nil)
			if _, err := trk.Rescan(); err != nil {
				t.Fatal(err)
			}

			dir := filepath.Join(root, "NSS", "2020-01-01")
			path := filepath.Join(dir, tc.file)
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			tc.edit(t, root, path)
			for _, p := range []string{path, dir} {
				if err := os.Chtimes(p, fi.ModTime(), fi.ModTime()); err != nil {
					t.Fatal(err)
				}
			}

			if n, err := trk.Rescan(); err != nil || n != 1 {
				t.Fatalf("rescan after the rewrite = (%d, %v), want 1 snapshot (stamp change missed)", n, err)
			}
			cold, err := catalog.LoadTree(root, catalog.Options{Archive: catalog.ArchiveOff})
			if err != nil {
				t.Fatal(err)
			}
			served, want := trk.Database().History("NSS").Latest(), cold.History("NSS").Latest()
			if served.Len() != want.Len() || served.TrustedCount(store.ServerAuth) != want.TrustedCount(store.ServerAuth) {
				t.Fatalf("serving %d roots, %d for server auth; a cold parse finds %d, %d",
					served.Len(), served.TrustedCount(store.ServerAuth), want.Len(), want.TrustedCount(store.ServerAuth))
			}
			if got := trk.Replay(Filter{Type: tc.event}); len(got) != 1 {
				t.Fatalf("%d %s events, want 1", len(got), tc.event)
			}
		})
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
