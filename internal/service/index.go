package service

// This file holds the global root index: a SHA-256-fingerprint →
// (provider, version) inverted index across every snapshot in the database.
// It answers the paper's central question — "who trusts this root, for what,
// and with what caveats?" — in one map lookup instead of scanning 619
// snapshots' entries per query.

import (
	"time"

	"repro/internal/certutil"
	"repro/internal/store"
)

// Presence records one snapshot's view of one root.
type Presence struct {
	Provider string    `json:"provider"`
	Version  string    `json:"version"`
	Date     time.Time `json:"date"`
	// Trust maps purpose name → trust level name for every purpose the
	// snapshot specifies.
	Trust map[string]string `json:"trust,omitempty"`
	// DistrustAfter maps purpose name → partial-distrust cutoff.
	DistrustAfter map[string]time.Time `json:"distrust_after,omitempty"`
}

// RootInfo is everything the index knows about one fingerprint.
type RootInfo struct {
	Fingerprint string     `json:"fingerprint"`
	Label       string     `json:"label,omitempty"`
	Subject     string     `json:"subject,omitempty"`
	NotBefore   time.Time  `json:"not_before"`
	NotAfter    time.Time  `json:"not_after"`
	Presences   []Presence `json:"presences"`
	// Providers is the deduplicated provider list, a quick "who trusts
	// this" summary.
	Providers []string `json:"providers"`
}

// RootIndex is the inverted index. Fingerprints are resolved through the
// database's interner to dense uint32 IDs — the same ID space the
// analysis bitsets use — so the info table is a flat slice instead of a
// 32-byte-keyed map. It is built once at startup and immutable
// afterwards, so concurrent readers need no locking.
type RootIndex struct {
	interner *store.Interner
	infos    []*RootInfo // indexed by interned ID; nil gaps are legal
	roots    int
}

// BuildIndex walks every snapshot of every provider.
func BuildIndex(db *store.Database) *RootIndex {
	in := db.Interner()
	ix := &RootIndex{interner: in, infos: make([]*RootInfo, in.Len())}
	trustMaps := map[uint64]map[string]string{}
	for _, snap := range db.AllSnapshots() {
		for _, e := range snap.Entries() {
			id := int(in.ID(e.Fingerprint))
			for id >= len(ix.infos) {
				ix.infos = append(ix.infos, nil)
			}
			info := ix.infos[id]
			if info == nil {
				info = &RootInfo{
					Fingerprint: e.Fingerprint.String(),
					Label:       e.Label,
					Subject:     certutil.DisplayName(e.Cert),
					NotBefore:   e.Cert.NotBefore,
					NotAfter:    e.Cert.NotAfter,
				}
				ix.infos[id] = info
				ix.roots++
			}
			info.Presences = append(info.Presences, presenceOf(snap, e, trustMaps))
			if n := len(info.Providers); n == 0 || info.Providers[n-1] != snap.Provider {
				info.Providers = append(info.Providers, snap.Provider)
			}
		}
	}
	return ix
}

// presenceOf renders one snapshot's view of one entry. Trust maps are
// shared through trustMaps, keyed by the per-purpose levels: a handful of
// level combinations covers every presence in the corpus, and presences
// are read-only once the index is built.
func presenceOf(snap *store.Snapshot, e *store.TrustEntry, trustMaps map[uint64]map[string]string) Presence {
	p := Presence{Provider: snap.Provider, Version: snap.Version, Date: snap.Date}
	var levels uint64
	for _, purpose := range store.AllPurposes {
		levels = levels<<8 | uint64(e.TrustFor(purpose))
		if cutoff, ok := e.DistrustAfterFor(purpose); ok {
			if p.DistrustAfter == nil {
				p.DistrustAfter = make(map[string]time.Time)
			}
			p.DistrustAfter[purpose.String()] = cutoff
		}
	}
	trust, ok := trustMaps[levels]
	if !ok {
		for _, purpose := range store.AllPurposes {
			if l := e.TrustFor(purpose); l != store.Unspecified {
				if trust == nil {
					trust = make(map[string]string)
				}
				trust[purpose.String()] = l.String()
			}
		}
		trustMaps[levels] = trust
	}
	p.Trust = trust
	return p
}

// Lookup resolves a hex fingerprint (optionally colon-separated).
func (ix *RootIndex) Lookup(hexFP string) (*RootInfo, bool) {
	fp, err := certutil.ParseFingerprint(hexFP)
	if err != nil {
		return nil, false
	}
	id, ok := ix.interner.LookupID(fp)
	if !ok || int(id) >= len(ix.infos) || ix.infos[id] == nil {
		return nil, false
	}
	return ix.infos[id], true
}

// Size returns the number of distinct roots indexed.
func (ix *RootIndex) Size() int { return ix.roots }
