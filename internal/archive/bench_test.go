package archive_test

// Cold-start benchmarks: the same on-disk snapshot tree loaded through the
// native format parsers versus decoded from a compiled rootpack sidecar.
// The ratio between the two is the number cmd/rootpack exists for; CI's
// bench-smoke runs both with -benchtime=1x as a regression tripwire.

import (
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/archive"
	"repro/internal/catalog"
	"repro/internal/certdata"
	"repro/internal/pemstore"
	"repro/internal/store"
	"repro/internal/synth"
	"repro/internal/testcerts"
)

var benchFixture struct {
	once    sync.Once
	root    string // snapshot tree
	sidecar string // compiled archive for the same tree
	err     error
}

// buildBenchFixture lays out a moderate multi-provider, multi-version tree
// (a sliding window over shared roots, so the content-addressed pool has
// real duplication to exploit) and compiles its sidecar. Runs once per
// process; the temp dir lives until the process exits.
func buildBenchFixture() {
	f := &benchFixture
	f.root, f.err = os.MkdirTemp("", "rootpack-bench-*")
	if f.err != nil {
		return
	}
	entries := testcerts.Entries(48, store.ServerAuth, store.EmailProtection)
	versions := []string{
		"2019-01-01", "2019-07-01", "2020-01-01", "2020-07-01",
		"2021-01-01", "2021-07-01", "2022-01-01", "2022-07-01",
	}
	for vi, version := range versions {
		// Each release drops one old root and keeps a 40-root window.
		window := entries[vi : vi+40]
		for _, provider := range []string{"Debian", "Ubuntu", "Alpine"} {
			dir := filepath.Join(f.root, provider, version)
			if f.err = os.MkdirAll(dir, 0o755); f.err != nil {
				return
			}
			var out *os.File
			if out, f.err = os.Create(filepath.Join(dir, "tls-ca-bundle.pem")); f.err != nil {
				return
			}
			f.err = pemstore.WriteBundle(out, window)
			out.Close()
			if f.err != nil {
				return
			}
		}
		dir := filepath.Join(f.root, "NSS", version)
		if f.err = os.MkdirAll(dir, 0o755); f.err != nil {
			return
		}
		var out *os.File
		if out, f.err = os.Create(filepath.Join(dir, "certdata.txt")); f.err != nil {
			return
		}
		f.err = certdata.Marshal(out, window)
		out.Close()
		if f.err != nil {
			return
		}
	}

	// Compile the sidecar the archive benchmarks decode.
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

func benchTree(tb testing.TB) (tree, sidecar string) {
	tb.Helper()
	benchFixture.once.Do(buildBenchFixture)
	if benchFixture.err != nil {
		tb.Fatalf("build bench fixture: %v", benchFixture.err)
	}
	return benchFixture.root, benchFixture.sidecar
}

// BenchmarkColdStartParse is the baseline: ingest the tree through the
// native certdata/PEM parsers, bypassing any sidecar.
func BenchmarkColdStartParse(b *testing.B) {
	tree, _ := benchTree(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db, err := catalog.LoadTree(tree, catalog.Options{Archive: catalog.ArchiveOff})
		if err != nil {
			b.Fatal(err)
		}
		if db.TotalSnapshots() != 32 {
			b.Fatalf("parsed %d snapshots, want 32", db.TotalSnapshots())
		}
	}
}

// BenchmarkColdStartArchive decodes the compiled sidecar directly — the
// trustd -archive serving path.
func BenchmarkColdStartArchive(b *testing.B) {
	_, sidecar := benchTree(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db, err := archive.ReadFile(sidecar)
		if err != nil {
			b.Fatal(err)
		}
		if db.TotalSnapshots() != 32 {
			b.Fatalf("decoded %d snapshots, want 32", db.TotalSnapshots())
		}
	}
}

// BenchmarkColdStartSidecar is the honest end-to-end path trustd -tree
// takes on a warm cache: hash the tree, match the sidecar, decode it.
func BenchmarkColdStartSidecar(b *testing.B) {
	tree, _ := benchTree(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, info, err := catalog.LoadTreeInfo(tree, catalog.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if !info.FromArchive {
			b.Fatal("sidecar fast path not taken")
		}
	}
}

// BenchmarkArchiveEncode isolates the compile cost (what ingest adds when
// it writes the sidecar).
func BenchmarkArchiveEncode(b *testing.B) {
	tree, _ := benchTree(b)
	db, err := catalog.LoadTree(tree, catalog.Options{Archive: catalog.ArchiveOff})
	if err != nil {
		b.Fatal(err)
	}
	var src [archive.HashLen]byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := archive.Encode(discard{}, db, src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkArchiveEncodeCorpus encodes the default synthetic corpus (820
// snapshots, 401 distinct roots): the sidecar compile a reload pays and
// the pass archive.HashDatabase makes for an entity tag.
func BenchmarkArchiveEncodeCorpus(b *testing.B) {
	eco, err := synth.Cached("tracing-your-roots")
	if err != nil {
		b.Fatal(err)
	}
	var src [archive.HashLen]byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := archive.Encode(discard{}, eco.DB, src); err != nil {
			b.Fatal(err)
		}
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// TestColdStartSpeedup pins the acceptance ratio: decoding the archive
// must be at least 10x faster than re-parsing the tree. The two paths are
// interleaved and compared by their medians (coldStartMedians) — it
// catches the fast path turning slow, not scheduler noise.
func TestColdStartSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison skipped in -short mode")
	}
	tree, sidecar := benchTree(t)
	parse, dec := coldStartMedians(t, tree, sidecar)
	if dec*10 > parse {
		t.Fatalf("archive cold start not >=10x faster: parse=%v decode=%v (%.1fx)",
			parse, dec, float64(parse)/float64(dec))
	}
	t.Logf("cold start: parse=%v decode=%v (%.1fx faster)",
		parse, dec, float64(parse)/float64(dec))
}

// coldStartRounds is how many interleaved (parse, decode) pairs
// coldStartMedians times.
const coldStartRounds = 7

// coldStartMedians times the native parse of tree and the decode of its
// sidecar in interleaved rounds and returns each path's median, so one
// slow round — a collection, a busy neighbour — cannot swing the ratio
// the way it swings a sum.
func coldStartMedians(t *testing.T, tree, sidecar string) (parse, decode time.Duration) {
	t.Helper()
	var parses, decodes []time.Duration
	for i := 0; i < coldStartRounds; i++ {
		start := time.Now()
		if _, err := catalog.LoadTree(tree, catalog.Options{Archive: catalog.ArchiveOff}); err != nil {
			t.Fatal(err)
		}
		parses = append(parses, time.Since(start))

		start = time.Now()
		if _, err := archive.ReadFile(sidecar); err != nil {
			t.Fatal(err)
		}
		decodes = append(decodes, time.Since(start))
	}
	slices.Sort(parses)
	slices.Sort(decodes)
	return parses[coldStartRounds/2], decodes[coldStartRounds/2]
}
