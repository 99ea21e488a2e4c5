package service_test

import (
	"testing"

	"repro/internal/service"
)

// BenchmarkBuildIndex builds the root index over the shared fixture
// ecosystem (820 snapshots, one walk of every snapshot's entries): the
// cost every install and every reload pays before serving.
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
