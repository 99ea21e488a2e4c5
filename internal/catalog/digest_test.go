package catalog

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/archive"
)

// TestTreeDigestMatchesTreeHash: after each change to the tree, a digest
// cache that rereads only the changed directory hashes to exactly what a
// fresh TreeHash computes, and reads only that directory.
func TestTreeDigestMatchesTreeHash(t *testing.T) {
	root := t.TempDir()
	writeAll(t, root, sampleEntries(t))
	d := NewTreeDigest(root)
	check := func(step string, wantRead int, reread ...string) {
		t.Helper()
		before := d.Hashed()
		if len(reread) == 2 {
			v, err := statVersionDir(root, reread[0], reread[1], true)
			if err != nil {
				t.Fatal(err)
			}
			d.Reread(v)
		}
		got, err := d.Hash()
		if err != nil {
			t.Fatal(err)
		}
		want, err := TreeHash(root)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("%s: cached digest hash %x, fresh TreeHash %x", step, got[:8], want[:8])
		}
		if read := d.Hashed() - before; read != wantRead {
			t.Fatalf("%s: read %d directories, want %d", step, read, wantRead)
		}
	}
	check("cold", 7)
	check("unchanged", 0)

	// A new version directory is read; nothing else is.
	dir := filepath.Join(root, "Debian", "2022-01-01")
	mk(t, dir)
	writePEMBundle(t, dir, sampleEntries(t)[:2])
	check("added", 1)

	// A rewrite is read again once reread.
	writePEMBundle(t, dir, sampleEntries(t)[:1])
	check("rewritten", 1, "Debian", "2022-01-01")

	// A change inside a nested directory (authroot's certs/) counts.
	certs, err := os.ReadDir(filepath.Join(root, "Microsoft", "2021-01-01", "certs"))
	if err != nil || len(certs) == 0 {
		t.Fatalf("authroot certs dir: %v (%d files)", err, len(certs))
	}
	if err := os.Remove(filepath.Join(root, "Microsoft", "2021-01-01", "certs", certs[0].Name())); err != nil {
		t.Fatal(err)
	}
	check("nested", 1, "Microsoft", "2021-01-01")

	// A removed directory is forgotten without reading anything.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	check("removed", 0)
	if _, ok := d.dirs["Debian/2022-01-01"]; ok {
		t.Fatal("removed directory's digest still remembered")
	}
}

// TestTreeDigestKeepsWhatWasParsed: a directory rewritten but never
// reread keeps the digest of the content that was read, so the tree
// hash describes what its holder parsed and differs from a fresh hash of
// the tree — a sidecar written under it reads as stale at the next cold
// start instead of serving the old parse as the new content.
func TestTreeDigestKeepsWhatWasParsed(t *testing.T) {
	root := t.TempDir()
	writeAll(t, root, sampleEntries(t))
	d := NewTreeDigest(root)
	before, err := d.Hash()
	if err != nil {
		t.Fatal(err)
	}
	writePEMBundle(t, filepath.Join(root, "Debian", "2021-01-01"), sampleEntries(t)[:1])
	got, err := d.Hash()
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := TreeHash(root)
	if err != nil {
		t.Fatal(err)
	}
	if got != before || got == fresh {
		t.Fatalf("rewrite never reread: cached %x (before %x), fresh %x", got[:8], before[:8], fresh[:8])
	}
}

// TestTreeInfoDatabaseHash: both load paths report the loaded database's
// HashDatabase value without encoding it again — the parse path from the
// compile that writes the sidecar, the sidecar path from its bytes.
func TestTreeInfoDatabaseHash(t *testing.T) {
	root := t.TempDir()
	writeAll(t, root, sampleEntries(t))
	for _, wantArchive := range []bool{false, true} {
		db, info, err := LoadTreeInfo(root, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if info.FromArchive != wantArchive {
			t.Fatalf("FromArchive = %v, want %v", info.FromArchive, wantArchive)
		}
		want, err := archive.HashDatabase(db)
		if err != nil {
			t.Fatal(err)
		}
		if info.DatabaseHash != want {
			t.Fatalf("fromArchive=%v: DatabaseHash %x, HashDatabase %x", wantArchive, info.DatabaseHash[:8], want[:8])
		}
		if info.Digest == nil || len(info.Digest.dirs) != 7 {
			t.Fatalf("fromArchive=%v: load left no digest cache of the 7 directories", wantArchive)
		}
	}
}

// TestRefreshArchiveDigest: a refresh through a digest cache writes the
// sidecar the next cold start takes, and returns its database hash.
func TestRefreshArchiveDigest(t *testing.T) {
	root := t.TempDir()
	writeAll(t, root, sampleEntries(t))
	db, info, err := LoadTreeInfo(root, Options{})
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(root, "NSS", "2022-01-01")
	mk(t, dir)
	writePEMBundle(t, dir, sampleEntries(t)[:2])
	snap, _, err := LoadVersionDir(root, "NSS", "2022-01-01", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AddSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	before := info.Digest.Hashed()
	dirs, err := ScanTree(root)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RefreshArchiveDigestCtx(context.Background(), root, dirs, db, info.Digest, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if read := info.Digest.Hashed() - before; read != 1 {
		t.Fatalf("refresh read %d directories, want 1", read)
	}
	if want, _ := archive.HashDatabase(db); got != want {
		t.Fatalf("refresh returned %x, HashDatabase %x", got[:8], want[:8])
	}
	db2, info2, err := LoadTreeInfo(root, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !info2.FromArchive {
		t.Fatal("refreshed sidecar not taken by the next load")
	}
	if err := archive.Equal(db, db2); err != nil {
		t.Fatal(err)
	}
}

// ageDigests rewrites the saved digests as if each had been taken age
// after its directory last changed.
func ageDigests(t *testing.T, root string, age time.Duration) {
	t.Helper()
	path := filepath.Join(root, DefaultArchiveName+digestsSuffix)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f digestFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	for key, r := range f.Dirs {
		r.Taken = r.Newest + int64(age)
		f.Dirs[key] = r
	}
	if data, err = json.Marshal(f); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestSavedDigestsSkipRereads: a cold start trusts a saved digest while
// its directory's stat stamp holds, so it proves the sidecar fresh without
// reading the tree; a content edit that restores size and mtime still
// moves the change time, so that directory alone is read again and the
// sidecar is found stale.
func TestSavedDigestsSkipRereads(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("change times are read on linux only")
	}
	root := t.TempDir()
	writeAll(t, root, sampleEntries(t))
	if _, _, err := LoadTreeInfo(root, Options{}); err != nil {
		t.Fatal(err)
	}
	// Digests taken right after a write are inside the racy window: all
	// are read again.
	ageDigests(t, root, 10*time.Millisecond)
	_, info, err := LoadTreeInfo(root, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !info.FromArchive || info.Digest.Hashed() != 7 {
		t.Fatalf("racy load: fromArchive=%v, read %d dirs; want sidecar, 7", info.FromArchive, info.Digest.Hashed())
	}

	ageDigests(t, root, time.Hour)
	_, info, err = LoadTreeInfo(root, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !info.FromArchive || info.Digest.Hashed() != 0 {
		t.Fatalf("aged load: fromArchive=%v, read %d dirs; want sidecar, 0", info.FromArchive, info.Digest.Hashed())
	}
	if fresh, _ := TreeHash(root); info.TreeHash != fresh {
		t.Fatal("tree hash from saved digests differs from a full read")
	}

	// Same length, same mtime, different bytes.
	path := filepath.Join(root, "Debian", "2021-01-01", "tls-ca-bundle.pem")
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
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
	ageDigests(t, root, time.Hour)
	_, info, err = LoadTreeInfo(root, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if info.FromArchive || info.Digest.Hashed() != 1 {
		t.Fatalf("after a hidden edit: fromArchive=%v, read %d dirs; want a re-parse after reading 1", info.FromArchive, info.Digest.Hashed())
	}
}

// TestCorruptDigestFileIgnored: a damaged digest file only costs reading
// the tree.
func TestCorruptDigestFileIgnored(t *testing.T) {
	root := t.TempDir()
	writeAll(t, root, sampleEntries(t))
	if _, _, err := LoadTreeInfo(root, Options{}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(root, DefaultArchiveName+digestsSuffix)
	if err := os.WriteFile(path, []byte(`{"format":1,"dirs":{"NSS/2021-01-01":{"sum":"zz"`), 0o644); err != nil {
		t.Fatal(err)
	}
	_, info, err := LoadTreeInfo(root, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !info.FromArchive || info.Digest.Hashed() != 7 {
		t.Fatalf("fromArchive=%v, read %d dirs; want sidecar after reading all 7", info.FromArchive, info.Digest.Hashed())
	}
}

// TestLoadDirsTrustsTheScan: a load handed a scan's result stat-walks
// nothing again. Saved digests are checked against the scan's stamps, so
// an edit made after the scan goes unseen by that load, which describes
// the tree the scan saw, and is caught by the next scan.
func TestLoadDirsTrustsTheScan(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("change times are read on linux only")
	}
	root := t.TempDir()
	writeAll(t, root, sampleEntries(t))
	if _, _, err := LoadTreeInfo(root, Options{}); err != nil {
		t.Fatal(err)
	}
	ageDigests(t, root, time.Hour)
	dirs, err := ScanTree(root)
	if err != nil {
		t.Fatal(err)
	}

	// Same length, same mtime, different bytes: only the change time moves.
	path := filepath.Join(root, "Debian", "2021-01-01", "tls-ca-bundle.pem")
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
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

	_, info, err := LoadDirsCtx(context.Background(), root, dirs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !info.FromArchive || info.Digest.Hashed() != 0 {
		t.Fatalf("load of the earlier scan: fromArchive=%v, read %d dirs; want sidecar, 0 (no second stat walk)", info.FromArchive, info.Digest.Hashed())
	}
	if dirs, err = ScanTree(root); err != nil {
		t.Fatal(err)
	}
	_, info, err = LoadDirsCtx(context.Background(), root, dirs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if info.FromArchive || info.Digest.Hashed() != 1 {
		t.Fatalf("load of a fresh scan: fromArchive=%v, read %d dirs; want a re-parse after reading 1", info.FromArchive, info.Digest.Hashed())
	}
}

// TestEmptyVersionDirNotHashed: an empty version directory holds no
// snapshot, so it neither fails a load nor moves the tree hash, whether
// the tree is listed (TreeHash) or stat-walked (a load keeping digests).
func TestEmptyVersionDirNotHashed(t *testing.T) {
	root := t.TempDir()
	writeAll(t, root, sampleEntries(t))
	before, err := TreeHash(root)
	if err != nil {
		t.Fatal(err)
	}
	mk(t, filepath.Join(root, "NSS", "2022-01-01"))
	after, err := TreeHash(root)
	if err != nil {
		t.Fatal(err)
	}
	if after != before {
		t.Fatal("an empty version directory moved the tree hash")
	}
	db, err := LoadTree(root, Options{Archive: ArchiveOff})
	if err != nil {
		t.Fatal(err)
	}
	if got := db.TotalSnapshots(); got != 7 {
		t.Fatalf("loaded %d snapshots, want the 7 non-empty ones", got)
	}
	if _, info, err := LoadTreeInfo(root, Options{}); err != nil || info.TreeHash != before {
		t.Fatalf("stat-walked load: %v; its tree hash differs from the listed one", err)
	}
}
