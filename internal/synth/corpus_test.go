package synth

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/archive"
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
