package core

import (
	"sort"
	"time"

	"repro/internal/certutil"
)

// RemovedCA is one row of a removed-CA transparency report: a root that
// left a provider's trusted set, with its tenure.
type RemovedCA struct {
	Fingerprint  certutil.Fingerprint
	Label        string
	FirstTrusted time.Time
	LastTrusted  time.Time
	// RemovalSeen is the snapshot date at which the removal became
	// visible.
	RemovalSeen time.Time
}

// RemovedCAReport reconstructs the full removed-CA history of a provider —
// the report the paper found Mozilla's own CCADB "Removed CA Report" to be
// missing 92 entries from. Every root ever purpose-trusted that is absent
// from the latest snapshot appears exactly once.
func (p *Pipeline) RemovedCAReport(provider string, since time.Time) []RemovedCA {
	h := p.DB.History(provider)
	if h == nil || h.Len() == 0 {
		return nil
	}
	latest := h.Latest().TrustedSet(p.Purpose)
	var rows []RemovedCA
	for fp := range h.EverTrusted(p.Purpose) {
		if latest[fp] {
			continue
		}
		last, _, _ := h.TrustedUntil(fp, p.Purpose)
		if last.Before(since) {
			continue
		}
		first, _ := h.FirstTrusted(fp, p.Purpose)
		label := ""
		// Recover the label from the last snapshot that carried the root.
		for _, s := range h.Snapshots() {
			if e, ok := s.Lookup(fp); ok {
				label = e.Label
			}
		}
		rows = append(rows, RemovedCA{
			Fingerprint:  fp,
			Label:        label,
			FirstTrusted: first,
			LastTrusted:  last,
			RemovalSeen:  last, // refined below
		})
	}
	// Refine RemovalSeen: first snapshot after LastTrusted.
	snaps := h.Snapshots()
	for i := range rows {
		for _, s := range snaps {
			if s.Date.After(rows[i].LastTrusted) {
				rows[i].RemovalSeen = s.Date
				break
			}
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if !rows[i].LastTrusted.Equal(rows[j].LastTrusted) {
			return rows[i].LastTrusted.Before(rows[j].LastTrusted)
		}
		return rows[i].Fingerprint.Compare(rows[j].Fingerprint) < 0
	})
	return rows
}

// CompareRemovals checks an external removed-CA catalog (e.g. CCADB's
// report) against the measured history: it returns the removals the
// catalog misses and the catalog entries the history does not corroborate.
// This is the §5.3 exercise in which the authors found Mozilla's report
// missing 92 removals.
func (p *Pipeline) CompareRemovals(provider string, since time.Time, catalog map[certutil.Fingerprint]bool) (missingFromCatalog, unsupportedInCatalog []RemovedCA) {
	measured := p.RemovedCAReport(provider, since)
	measuredSet := map[certutil.Fingerprint]RemovedCA{}
	for _, r := range measured {
		measuredSet[r.Fingerprint] = r
		if !catalog[r.Fingerprint] {
			missingFromCatalog = append(missingFromCatalog, r)
		}
	}
	for fp := range catalog {
		if _, ok := measuredSet[fp]; !ok {
			unsupportedInCatalog = append(unsupportedInCatalog, RemovedCA{Fingerprint: fp})
		}
	}
	sort.Slice(unsupportedInCatalog, func(i, j int) bool {
		return unsupportedInCatalog[i].Fingerprint.Compare(unsupportedInCatalog[j].Fingerprint) < 0
	})
	return missingFromCatalog, unsupportedInCatalog
}
