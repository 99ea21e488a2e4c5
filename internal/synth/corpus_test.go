package synth

import (
	"bytes"
	"crypto/sha256"
	"crypto/x509"
	"encoding/hex"
	"testing"

	"repro/internal/archive"
	"repro/internal/store"
)

// TestCorpusDigests pins trustd's default corpus byte for byte: a SHA-256
// over every minted root DER in universe order, and the archive content
// hash of the whole snapshot database (trustd's ETag). Minting runs on
// several workers and primes are sieved before they are tested, and the
// database hash walks every snapshot in fingerprint order, so a scheduling
// dependence in minting, a different key, or a change in snapshot order
// would each move one of these values.
func TestCorpusDigests(t *testing.T) {
	const (
		seed         = "tracing-your-roots"
		wantRoots    = "8d2a2a2a050099b6bb2da478c59570285894ef8bd57eb373b4f68ec92d9a961e"
		wantDatabase = "44c1e335bdc9af69fc828b16ec15993d3f2fc0306929d9df92c8f626b11630c8"
	)
	eco, err := Generate(seed)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, ca := range eco.Universe.CAs {
		h.Write(ca.Root.DER)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != wantRoots {
		t.Errorf("root DER digest = %s, want %s", got, wantRoots)
	}
	dbHash, err := archive.HashDatabase(eco.DB)
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(dbHash[:]); got != wantDatabase {
		t.Errorf("database hash = %s, want %s", got, wantDatabase)
	}
}

// BenchmarkNewUniverse mints the full CA population. Each call builds its
// own key pool, so every iteration pays key generation as well as signing.
func BenchmarkNewUniverse(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewUniverse("bench-universe"); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCorpusSharesEntries: filing interns entries, so the default
// corpus's 161,875 (snapshot, root) entries are 730 distinct entry
// pointers, one per distinct (fingerprint, label, trust levels, cutoffs)
// value, over 401 certificates, each held as one DER and one parse.
func TestCorpusSharesEntries(t *testing.T) {
	eco, err := Cached("tracing-your-roots")
	if err != nil {
		t.Fatal(err)
	}
	entries := 0
	ptrs := map[*store.TrustEntry]bool{}
	certs := map[*x509.Certificate]bool{}
	ders := map[*byte]bool{}
	for _, s := range eco.DB.AllSnapshots() {
		s.Each(func(e *store.TrustEntry) {
			entries++
			ptrs[e], certs[e.Cert], ders[&e.DER[0]] = true, true, true
		})
	}
	if entries != 161875 || len(ptrs) != 730 || len(certs) != 401 || len(ders) != 401 {
		t.Fatalf("%d entries as %d pointers over %d certificates and %d DERs, want 161875 as 730 over 401 and 401",
			entries, len(ptrs), len(certs), len(ders))
	}
	if n := len(eco.DB.DistinctEntries()); n != 401 {
		t.Fatalf("DistinctEntries = %d, want 401", n)
	}
}

// BenchmarkSpliceCorpus files share clones of every snapshot of the
// default corpus into a new database: what a reload pays, beside its
// parses, for the snapshots it keeps.
func BenchmarkSpliceCorpus(b *testing.B) {
	eco, err := Cached("tracing-your-roots")
	if err != nil {
		b.Fatal(err)
	}
	snaps := eco.DB.AllSnapshots()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db := store.NewDatabase()
		for _, s := range snaps {
			if err := db.AddSnapshot(s.ShareClone()); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkDecodeCorpus decodes the default corpus's archive: a sidecar
// cold start's database load, filing included.
func BenchmarkDecodeCorpus(b *testing.B) {
	eco, err := Cached("tracing-your-roots")
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := archive.Encode(&buf, eco.DB, [archive.HashLen]byte{}); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := archive.NewReader(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := r.Database(); err != nil {
			b.Fatal(err)
		}
	}
}
