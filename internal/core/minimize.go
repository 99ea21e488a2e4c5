package core

import (
	"sort"

	"repro/internal/certutil"
	"repro/internal/store"
)

// Usage records how often each trust anchor actually terminated a
// verified chain in some observed workload — the input to the
// root-store minimization analysis (Braun et al. found 90% of roots
// unused; Smith et al. sized minimal stores; the paper discusses both as
// attack-surface reduction).
type Usage map[certutil.Fingerprint]int

// MinimizeResult is the outcome of minimizing a store against a workload.
type MinimizeResult struct {
	// Kept are the retained entries, most-used first.
	Kept []*store.TrustEntry
	// Dropped are the entries removed (unused or below the coverage
	// target).
	Dropped []*store.TrustEntry
	// Coverage is the fraction of workload weight the kept set serves.
	Coverage float64
	// TotalWeight is the workload's total observation count.
	TotalWeight int
}

// Minimize selects the smallest set of roots (by greedy weight ranking)
// whose combined usage covers at least targetCoverage (0..1] of the
// workload. Roots with zero observed use are always dropped; ties break
// by fingerprint for determinism.
func (p *Pipeline) Minimize(s *store.Snapshot, usage Usage, targetCoverage float64) MinimizeResult {
	if targetCoverage <= 0 || targetCoverage > 1 {
		targetCoverage = 1
	}
	type weighted struct {
		entry  *store.TrustEntry
		weight int
	}
	var candidates []weighted
	total := 0
	for _, e := range s.Entries() {
		if !e.TrustedFor(p.Purpose) {
			continue
		}
		w := usage[e.Fingerprint]
		total += w
		candidates = append(candidates, weighted{e, w})
	}
	sort.Slice(candidates, func(i, j int) bool {
		if candidates[i].weight != candidates[j].weight {
			return candidates[i].weight > candidates[j].weight
		}
		return candidates[i].entry.Fingerprint.Compare(candidates[j].entry.Fingerprint) < 0
	})

	res := MinimizeResult{TotalWeight: total}
	if total == 0 {
		for _, c := range candidates {
			res.Dropped = append(res.Dropped, c.entry)
		}
		return res
	}
	covered := 0
	for _, c := range candidates {
		if float64(covered)/float64(total) >= targetCoverage || c.weight == 0 {
			res.Dropped = append(res.Dropped, c.entry)
			continue
		}
		res.Kept = append(res.Kept, c.entry)
		covered += c.weight
	}
	res.Coverage = float64(covered) / float64(total)
	return res
}

// UsageFromAnchors builds a Usage map from a stream of chain-terminating
// anchor fingerprints (e.g. collected from verify.Result.Anchor).
func UsageFromAnchors(anchors []certutil.Fingerprint) Usage {
	u := make(Usage)
	for _, fp := range anchors {
		u[fp]++
	}
	return u
}
