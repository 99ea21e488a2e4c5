package archive_test

// Cold-start benchmarks over a non-TLS corpus: a snapshot tree of CT-log
// get-roots documents plus a TPM-vendor manifest, ingested through format
// detection versus decoded from a compiled rootpack sidecar. The new
// codecs must ride the same compile-on-ingest cache at the same ratio the
// TLS formats do — and the ecosystem kinds must survive the round trip.

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/archive"
	"repro/internal/catalog"
	"repro/internal/ctlog"
	"repro/internal/manifest"
	"repro/internal/store"
	"repro/internal/testcerts"
)

var ctBenchFixture struct {
	once    sync.Once
	root    string
	sidecar string
	snaps   int
	err     error
}

// buildCTBenchFixture lays out four CT logs whose accepted sets only grow
// (accumulation gives the content-addressed pool heavy duplication to
// exploit, like real logs) plus a manifest provider, then compiles the
// sidecar.
func buildCTBenchFixture() {
	f := &ctBenchFixture
	f.root, f.err = os.MkdirTemp("", "rootpack-ctbench-*")
	if f.err != nil {
		return
	}
	entries := testcerts.Entries(72, store.ServerAuth)
	versions := []string{
		"2018-01-01", "2018-07-01", "2019-01-01", "2019-07-01",
		"2020-01-01", "2020-07-01", "2021-01-01", "2021-07-01",
	}
	for vi, version := range versions {
		// Each scrape sees everything the log ever accepted, plus a few
		// newly accepted roots.
		window := entries[:48+vi*3]
		for _, log := range []string{"CT-A", "CT-B", "CT-C", "CT-D"} {
			dir := filepath.Join(f.root, log, version)
			if f.err = os.MkdirAll(dir, 0o755); f.err != nil {
				return
			}
			if f.err = ctlog.WriteDir(dir, window); f.err != nil {
				return
			}
			f.snaps++
		}
	}
	for _, version := range versions[:2] {
		dir := filepath.Join(f.root, "TPM-Vendors", version)
		if f.err = os.MkdirAll(dir, 0o755); f.err != nil {
			return
		}
		if f.err = manifest.WriteDir(dir, manifest.FromEntries("TPM-Vendors", entries[60:])); f.err != nil {
			return
		}
		f.snaps++
	}

	var db *store.Database
	if db, f.err = catalog.LoadTree(f.root, catalog.Options{Archive: catalog.ArchiveOff}); f.err != nil {
		return
	}
	var th [archive.HashLen]byte
	if th, f.err = catalog.TreeHash(f.root); f.err != nil {
		return
	}
	f.sidecar = filepath.Join(f.root, catalog.DefaultArchiveName)
	_, f.err = archive.WriteFile(f.sidecar, db, th)
}

func ctBenchTree(tb testing.TB) (tree, sidecar string, snaps int) {
	tb.Helper()
	ctBenchFixture.once.Do(buildCTBenchFixture)
	if ctBenchFixture.err != nil {
		tb.Fatalf("build CT bench fixture: %v", ctBenchFixture.err)
	}
	return ctBenchFixture.root, ctBenchFixture.sidecar, ctBenchFixture.snaps
}

// BenchmarkColdStartParseCT ingests the CT tree through the get-roots and
// manifest codecs, bypassing any sidecar.
func BenchmarkColdStartParseCT(b *testing.B) {
	tree, _, snaps := ctBenchTree(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db, err := catalog.LoadTree(tree, catalog.Options{Archive: catalog.ArchiveOff})
		if err != nil {
			b.Fatal(err)
		}
		if db.TotalSnapshots() != snaps {
			b.Fatalf("parsed %d snapshots, want %d", db.TotalSnapshots(), snaps)
		}
	}
}

// BenchmarkColdStartArchiveCT decodes the compiled sidecar directly.
func BenchmarkColdStartArchiveCT(b *testing.B) {
	_, sidecar, snaps := ctBenchTree(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db, err := archive.ReadFile(sidecar)
		if err != nil {
			b.Fatal(err)
		}
		if db.TotalSnapshots() != snaps {
			b.Fatalf("decoded %d snapshots, want %d", db.TotalSnapshots(), snaps)
		}
	}
}

// TestColdStartSpeedupCT pins the acceptance ratio for the non-TLS codecs:
// decoding the archive must be at least 10x faster than re-parsing the
// get-roots/manifest tree, and the decoded database — ecosystem kinds
// included — must equal the parsed one.
func TestColdStartSpeedupCT(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison skipped in -short mode")
	}
	tree, sidecar, _ := ctBenchTree(t)

	parsed, err := catalog.LoadTree(tree, catalog.Options{Archive: catalog.ArchiveOff})
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := archive.ReadFile(sidecar)
	if err != nil {
		t.Fatal(err)
	}
	if err := archive.Equal(parsed, decoded); err != nil {
		t.Fatalf("archive round trip lost data: %v", err)
	}
	for prov, want := range map[string]store.Kind{
		"CT-A": store.KindCT, "CT-D": store.KindCT, "TPM-Vendors": store.KindManifest,
	} {
		if got := decoded.History(prov).Latest().Kind.Normalize(); got != want {
			t.Errorf("%s: decoded kind %q, want %q", prov, got, want)
		}
	}

	parse, dec := coldStartMedians(t, tree, sidecar)
	if dec*10 > parse {
		t.Fatalf("CT cold start not >=10x faster: parse=%v decode=%v (%.1fx)",
			parse, dec, float64(parse)/float64(dec))
	}
	t.Logf("CT cold start: parse=%v decode=%v (%.1fx faster)",
		parse, dec, float64(parse)/float64(dec))
}
