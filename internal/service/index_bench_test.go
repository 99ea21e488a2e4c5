package service_test

import (
	"testing"

	"repro/internal/service"
)

// BenchmarkBuildIndex builds the root index over the shared fixture
// ecosystem (820 snapshots) and its fingerprint set, which Size forces:
// one walk of every snapshot's entries, paid once per generation on its
// first root read or health check.
func BenchmarkBuildIndex(b *testing.B) {
	eco, _ := fixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ix := service.BuildIndex(eco.DB); ix.Size() == 0 {
			b.Fatal("empty index")
		}
	}
}

// BenchmarkIndexFirstLookup times a root's first lookup in a generation
// whose fingerprint set is already built: the per-root walk of every
// snapshot (binary-search lookups) that assembles its RootInfo.
func BenchmarkIndexFirstLookup(b *testing.B) {
	eco, _ := fixture(b)
	fp := eco.DB.History("NSS").Latest().Entries()[0].Fingerprint.String()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ix := service.BuildIndex(eco.DB)
		ix.Size()
		b.StartTimer()
		if _, ok := ix.Lookup(fp); !ok {
			b.Fatal("miss for an indexed root")
		}
	}
}
