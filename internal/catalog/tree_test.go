package catalog

import (
	"crypto/x509"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/archive"
	"repro/internal/pemstore"
	"repro/internal/store"
)

// TestSidecarRoundTrip: the first LoadTree parses natively and compiles a
// sidecar; the second serves from it; the databases are semantically
// identical.
func TestSidecarRoundTrip(t *testing.T) {
	root := t.TempDir()
	writeAll(t, root, sampleEntries(t))

	db1, info1, err := LoadTreeInfo(root, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if info1.FromArchive {
		t.Fatal("first load claims FromArchive before any sidecar existed")
	}
	if _, err := os.Stat(info1.ArchivePath); err != nil {
		t.Fatalf("compile-on-ingest wrote no sidecar: %v", err)
	}

	db2, info2, err := LoadTreeInfo(root, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !info2.FromArchive {
		t.Fatal("second load did not use the sidecar")
	}
	if info2.TreeHash != info1.TreeHash || info2.ContentHash != info1.ContentHash {
		t.Fatal("hashes drifted between parse and archive loads")
	}
	if err := archive.Equal(db1, db2); err != nil {
		t.Fatalf("archive-loaded database differs: %v", err)
	}
	r, err := archive.Open(info2.ArchivePath)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.Verify(); err != nil {
		t.Fatalf("sidecar fails verify: %v", err)
	}
}

// TestSidecarStaleAfterTreeChange: touching the tree's content invalidates
// the sidecar (source hash mismatch) and the next load re-parses and
// recompiles it.
func TestSidecarStaleAfterTreeChange(t *testing.T) {
	root := t.TempDir()
	writeAll(t, root, sampleEntries(t))
	if _, _, err := LoadTreeInfo(root, Options{}); err != nil {
		t.Fatal(err)
	}

	// Grow the tree: a brand-new provider version.
	entries := sampleEntries(t)
	dir := filepath.Join(root, "NSS", "2022-01-01")
	mk(t, dir)
	writePEMBundle(t, dir, entries[:2])

	db, info, err := LoadTreeInfo(root, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if info.FromArchive {
		t.Fatal("stale sidecar was trusted after the tree changed")
	}
	if db.History("NSS").Len() != 2 {
		t.Fatalf("NSS has %d snapshots, want 2", db.History("NSS").Len())
	}

	// The recompiled sidecar serves the next load.
	_, info2, err := LoadTreeInfo(root, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !info2.FromArchive {
		t.Fatal("sidecar was not recompiled after the stale parse")
	}
}

// TestSidecarCorruptionFallsBackToParse: a damaged sidecar must never
// surface as an error or a partial database — the native parsers take
// over, and the sidecar is repaired.
func TestSidecarCorruptionFallsBackToParse(t *testing.T) {
	root := t.TempDir()
	writeAll(t, root, sampleEntries(t))
	db1, info, err := LoadTreeInfo(root, Options{})
	if err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(info.ArchivePath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(info.ArchivePath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	db2, info2, err := LoadTreeInfo(root, Options{})
	if err != nil {
		t.Fatalf("corrupt sidecar surfaced as an error: %v", err)
	}
	if info2.FromArchive {
		t.Fatal("corrupt sidecar was served")
	}
	if err := archive.Equal(db1, db2); err != nil {
		t.Fatalf("fallback parse differs: %v", err)
	}
	// Repaired: next load is fast again.
	if _, info3, err := LoadTreeInfo(root, Options{}); err != nil || !info3.FromArchive {
		t.Fatalf("sidecar not repaired (fromArchive=%v err=%v)", info3.FromArchive, err)
	}
}

// TestArchiveOff: no sidecar is written or read.
func TestArchiveOff(t *testing.T) {
	root := t.TempDir()
	writeAll(t, root, sampleEntries(t))

	if _, _, err := LoadTreeInfo(root, Options{Archive: ArchiveOff}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, DefaultArchiveName)); !os.IsNotExist(err) {
		t.Fatalf("ArchiveOff wrote a sidecar (stat err: %v)", err)
	}
}

// TestParallelLoadDeterministic: the concurrent tree loader must produce a
// database semantically identical to itself across runs (and hence to a
// sequential load) regardless of goroutine scheduling.
func TestParallelLoadDeterministic(t *testing.T) {
	root := t.TempDir()
	writeAll(t, root, sampleEntries(t))

	var prev [archive.HashLen]byte
	for i := 0; i < 4; i++ {
		db, err := LoadTree(root, Options{Archive: ArchiveOff})
		if err != nil {
			t.Fatal(err)
		}
		h, err := archive.HashDatabase(db)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && h != prev {
			t.Fatalf("run %d produced a different database hash", i)
		}
		prev = h
	}
}

// TestLoadVersionDir: the single-directory loader resolves dates exactly
// like the tree loader, so incremental reloads splice identical snapshots.
func TestLoadVersionDir(t *testing.T) {
	root := t.TempDir()
	writeAll(t, root, sampleEntries(t))

	full, err := LoadTree(root, Options{Archive: ArchiveOff})
	if err != nil {
		t.Fatal(err)
	}
	for _, prov := range full.Providers() {
		for _, want := range full.History(prov).Snapshots() {
			got, _, err := LoadVersionDir(root, prov, want.Version, Options{})
			if err != nil {
				t.Fatalf("%s/%s: %v", prov, want.Version, err)
			}
			if got.Len() != want.Len() || !got.Date.Equal(want.Date) {
				t.Fatalf("%s/%s: LoadVersionDir disagrees with LoadTree (%d/%v vs %d/%v)",
					prov, want.Version, got.Len(), got.Date, want.Len(), want.Date)
			}
		}
	}
}

// TestTreeHashSensitivity: the tree hash must move on any content change
// and stay put across no-op reloads.
func TestTreeHashSensitivity(t *testing.T) {
	root := t.TempDir()
	writeAll(t, root, sampleEntries(t))

	h1, err := TreeHash(root)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := TreeHash(root)
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatal("tree hash not stable across identical reads")
	}

	// Rewrite one file with different content, same length, and restore
	// its mtime: only the bytes changed.
	path := filepath.Join(root, "Debian", "2021-01-01", "tls-ca-bundle.pem")
	fi, err := os.Stat(path)
	if err != nil {
		// Provider layout differs; fall back to any certdata file.
		path = filepath.Join(root, "NSS", "2021-01-01", "certdata.txt")
		if fi, err = os.Stat(path); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x20
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(path, fi.ModTime(), fi.ModTime()); err != nil {
		t.Fatal(err)
	}

	h3, err := TreeHash(root)
	if err != nil {
		t.Fatal(err)
	}
	if h3 == h1 {
		t.Fatal("content-only change did not move the tree hash")
	}
}

// writePEMBundle writes a tls-ca-bundle.pem snapshot into dir (helper for
// tree-growth tests; writeAll covers the full format matrix).
func writePEMBundle(t *testing.T, dir string, entries []*store.TrustEntry) {
	t.Helper()
	f, err := os.Create(filepath.Join(dir, "tls-ca-bundle.pem"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := pemstore.WriteBundle(f, entries); err != nil {
		t.Fatal(err)
	}
}

// TestNativeAndSidecarShareAlike: one tree loaded by the native parsers
// and from its sidecar gives one database hash and the same entry
// sharing: entries interned by value, one certificate per fingerprint.
func TestNativeAndSidecarShareAlike(t *testing.T) {
	root := t.TempDir()
	entries := sampleEntries(t)
	writeAll(t, root, entries)
	// A second NSS release repeating the first: its entries are shared.
	data, err := os.ReadFile(filepath.Join(root, "NSS", "2021-01-01", "certdata.txt"))
	if err != nil {
		t.Fatal(err)
	}
	mk(t, filepath.Join(root, "NSS", "2021-06-01"))
	if err := os.WriteFile(filepath.Join(root, "NSS", "2021-06-01", "certdata.txt"), data, 0o644); err != nil {
		t.Fatal(err)
	}

	type sharing struct{ entries, values, certs, distinct int }
	measure := func(db *store.Database) ([archive.HashLen]byte, sharing) {
		h, err := archive.HashDatabase(db)
		if err != nil {
			t.Fatal(err)
		}
		ptrs, certs := map[*store.TrustEntry]bool{}, map[*x509.Certificate]bool{}
		var sh sharing
		for _, s := range db.AllSnapshots() {
			s.Each(func(e *store.TrustEntry) { sh.entries++; ptrs[e], certs[e.Cert] = true, true })
		}
		sh.values, sh.certs, sh.distinct = len(ptrs), len(certs), len(db.DistinctEntries())
		return h, sh
	}

	native, err := LoadTree(root, Options{Archive: ArchiveOff})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadTreeInfo(root, Options{}); err != nil { // compiles the sidecar
		t.Fatal(err)
	}
	packed, info, err := LoadTreeInfo(root, Options{})
	if err != nil || !info.FromArchive {
		t.Fatalf("sidecar load: fromArchive=%v err=%v", info != nil && info.FromArchive, err)
	}
	hn, sn := measure(native)
	hp, sp := measure(packed)
	if hn != hp {
		t.Fatalf("database hash %x natively, %x from the sidecar", hn[:8], hp[:8])
	}
	if sn != sp {
		t.Fatalf("sharing %+v natively, %+v from the sidecar", sn, sp)
	}
	if sn.certs != len(entries) || sn.distinct != len(entries) || sn.values >= sn.entries-len(entries) {
		t.Fatalf("sharing %+v: want %d certificates and the repeated release's entries shared", sn, len(entries))
	}
}
