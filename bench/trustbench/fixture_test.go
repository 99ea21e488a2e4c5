package trustbench

import (
	"testing"
	"time"

	"repro/internal/synth"
)

// TestColdPoolNeverRepeats: a cold workload pre-renders a request for
// every arrival of a run and no two ask the same verdict, so its cache
// misses do not depend on the cache's capacity.
func TestColdPoolNeverRepeats(t *testing.T) {
	w, _ := WorkloadByName("verify-cold")
	span := time.Second
	size := w.PoolSize(span)
	if arrivals := int(w.Rate * span.Seconds()); size < arrivals {
		t.Fatalf("pool of %d requests for %d arrivals", size, arrivals)
	}
	eco, err := synth.Cached(CorpusSeed)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFixture(w, size, 1, eco.DB, eco.Universe)
	if err != nil {
		t.Fatal(err)
	}
	type draw struct {
		chain *Chain
		at    time.Time
	}
	seen := map[draw]bool{}
	for _, v := range f.Verifies {
		seen[draw{v.Chain, v.At}] = true
	}
	if len(seen) != len(f.Pool) {
		t.Errorf("%d requests ask %d distinct (chain, instant) verdicts", len(f.Pool), len(seen))
	}
}
