package trustbench

import (
	"math"
	"time"
)

// Workload is one traffic mix against one trustd configuration.
type Workload struct {
	Name string
	// Rate is the fixed open-loop arrival rate in requests per second, or
	// 0 for a closed loop (callers that each wait for their reply).
	Rate float64
	// Mix gives each request class's share of the pool in whole parts
	// (45 of every 100, say); the pool holds exactly these proportions.
	Mix map[Class]int
	// Chains is how many distinct certificate chains verify traffic
	// draws from.
	Chains int
	// ColdAt draws each verify's instant uniformly over coldWindow at
	// one-second resolution, so verdicts miss the server's cache. When
	// false, verifies carry the pinned instant pinnedAt.
	ColdAt bool
	// Pool is how many distinct requests are pre-rendered; the run
	// cycles through them in their drawn order. A ColdAt workload ignores
	// it (see PoolSize).
	Pool int
	// BatchLines is the NDJSON line count of one batch request.
	BatchLines int
	// BatchFanout leaves stores, user agent and instant off batch lines,
	// so each line fans out to every provider's latest snapshot.
	BatchFanout bool
	// Reload serves a snapshot tree with -watch and changes the tree
	// during the run.
	Reload bool
}

// PoolSize is how many requests a run that sends for span pre-renders. A
// ColdAt workload renders one per arrival, so no verdict repeats within
// the run and its cache misses do not depend on the cache's capacity.
func (w *Workload) PoolSize(span time.Duration) int {
	if w.ColdAt {
		return int(math.Ceil(w.Rate * span.Seconds()))
	}
	return w.Pool
}

// pinnedAt is the verification instant of warm verify traffic. It falls
// inside NSS's partial-distrust period for the Symantec cohort
// (NSS-261, 2020-06-26 .. NSS-272, 2020-12-12), so every designed
// outcome class shows up in verdicts.
var pinnedAt = time.Date(2020, 9, 1, 0, 0, 0, 0, time.UTC)

// coldWindow bounds verify-cold's instants: two years at one-second
// resolution, so the pool's draws practically never repeat an instant and
// ~100 historical snapshots are in play. It covers NSS's partial-distrust
// period (see pinnedAt).
var coldWindow = [2]time.Time{
	time.Date(2019, 1, 1, 0, 0, 0, 0, time.UTC),
	time.Date(2021, 1, 1, 0, 0, 0, 0, time.UTC),
}

// Workloads are the benchmark's traffic mixes, in BENCHMARK.json order.
// The mixed and verify-cold rates are half the knee each reached in the
// first full run when the benchmark was added (bench/README.md), rounded
// down to 50 rps. Reload has no knee: its post-swap stalls exceed the 100 ms limit at
// any rate, so its rate is set low enough that a stall drains well before
// the next change. Rates are fixed so a parent and a change are measured
// at the same offered load.
var Workloads = []*Workload{
	{
		// The serving profile: reads, warm verifies, small batches and
		// what-ifs. HTTP, JSON, PEM parsing, UA routing and cache glue
		// do the work; the verdict cache absorbs x509.
		Name:       "mixed",
		Rate:       1400,
		Mix:        map[Class]int{ClassRead: 45, ClassVerify: 40, ClassBatch: 5, ClassSimulate: 10},
		Chains:     64,
		Pool:       2000,
		BatchLines: 3,
	},
	{
		// Verifies that miss the verdict cache: Verifier.Verify (x509
		// chain building) does the work mixed never reaches.
		Name:   "verify-cold",
		Rate:   3550,
		Mix:    map[Class]int{ClassVerify: 1},
		Chains: 256,
		ColdAt: true,
	},
	{
		// Bulk callers waiting on 1000-line NDJSON batches fanned out to
		// every provider: the batch pipeline is the layer under test.
		Name:        "batch",
		Mix:         map[Class]int{ClassBatch: 1},
		Chains:      64,
		Pool:        4,
		BatchLines:  1000,
		BatchFanout: true,
	},
	{
		// Reads and pinned-instant verifies while the tree changes every
		// few seconds: tracker, catalog and archive work, paid for with
		// post-swap stalls in serving.
		Name:   "reload",
		Rate:   400,
		Mix:    map[Class]int{ClassRead: 40, ClassVerify: 50, ClassSimulate: 10},
		Chains: 64,
		Pool:   1000,
		Reload: true,
	},
}

// WorkloadByName finds a workload.
func WorkloadByName(name string) (*Workload, bool) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return nil, false
}
