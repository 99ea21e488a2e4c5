package service

// This file holds the global root index: a SHA-256-fingerprint →
// (provider, version) inverted index across every snapshot in the database.
// It answers the paper's central question — "who trusts this root, for what,
// and with what caveats?" — from one walk per root and generation instead
// of scanning every snapshot's entries per query.

import (
	"sync"
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

// RootIndex is the inverted index, built per root on demand. A root's
// RootInfo is assembled on its first lookup in the generation by walking
// the generation's snapshots (binary-search lookups, in AllSnapshots
// order) and kept beside the root's rendered body; roots nobody asks for
// cost nothing. The set of fingerprints the generation holds — what Size
// counts and what a lookup resolves against — is built once, on the first
// lookup or Size call, not when the generation is installed.
// Every lazily built part sits behind its own sync.Once, so concurrent
// readers need no other locking.
type RootIndex struct {
	db *store.Database

	once  sync.Once
	snaps []*store.Snapshot            // db.AllSnapshots(): the per-root walk order
	pos   map[certutil.Fingerprint]int // every root db holds → its slot
	slots []rootSlot                   // one per root of db, so only those are ever memoized
}

// rootSlot holds one root's lazily built RootInfo and its GET
// /v1/roots/{fp} body.
type rootSlot struct {
	fp   certutil.Fingerprint
	once sync.Once
	info *RootInfo
	body renderedBody
}

// BuildIndex returns the root index of db. Nothing is walked until the
// first lookup or Size call.
func BuildIndex(db *store.Database) *RootIndex {
	return &RootIndex{db: db}
}

// load builds the generation's fingerprint set and the per-root slots,
// once.
func (ix *RootIndex) load() {
	ix.once.Do(func() {
		ix.snaps = ix.db.AllSnapshots()
		ix.pos = make(map[certutil.Fingerprint]int)
		var fps []certutil.Fingerprint
		for _, snap := range ix.snaps {
			for _, e := range snap.Entries() {
				if _, ok := ix.pos[e.Fingerprint]; !ok {
					ix.pos[e.Fingerprint] = len(fps)
					fps = append(fps, e.Fingerprint)
				}
			}
		}
		ix.slots = make([]rootSlot, len(fps))
		for i, fp := range fps {
			ix.slots[i].fp = fp
		}
	})
}

// info returns the RootInfo of the root in slot i, building it on first
// use.
func (ix *RootIndex) info(i int) *RootInfo {
	slot := &ix.slots[i]
	slot.once.Do(func() { slot.info = ix.build(slot.fp) })
	return slot.info
}

// build walks every snapshot of every provider for one root.
func (ix *RootIndex) build(fp certutil.Fingerprint) *RootInfo {
	var info *RootInfo
	trustMaps := map[uint64]map[string]string{}
	for _, snap := range ix.snaps {
		e, ok := snap.Lookup(fp)
		if !ok {
			continue
		}
		if info == nil {
			info = &RootInfo{
				Fingerprint: e.Fingerprint.String(),
				Label:       e.Label,
				Subject:     certutil.DisplayName(e.Cert),
				NotBefore:   e.Cert.NotBefore,
				NotAfter:    e.Cert.NotAfter,
			}
		}
		info.Presences = append(info.Presences, presenceOf(snap, e, trustMaps))
		if n := len(info.Providers); n == 0 || info.Providers[n-1] != snap.Provider {
			info.Providers = append(info.Providers, snap.Provider)
		}
	}
	return info
}

// presenceOf renders one snapshot's view of one entry. Trust maps are
// shared through trustMaps, keyed by the per-purpose levels: a handful of
// level combinations covers every presence of a root, and presences are
// read-only once built.
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
	i, ok := ix.find(hexFP)
	if !ok {
		return nil, false
	}
	return ix.info(i), true
}

// find resolves a hex fingerprint to the slot of an indexed root. A miss
// builds nothing for the fingerprint.
func (ix *RootIndex) find(hexFP string) (int, bool) {
	fp, err := certutil.ParseFingerprint(hexFP)
	if err != nil {
		return 0, false
	}
	ix.load()
	i, ok := ix.pos[fp]
	return i, ok
}

// body returns the GET /v1/roots/{fp} body of the root in slot i.
func (ix *RootIndex) body(i int) ([]byte, error) {
	return ix.slots[i].body.get(func() any { return ix.info(i) })
}

// Size returns the number of distinct roots indexed.
func (ix *RootIndex) Size() int {
	ix.load()
	return len(ix.slots)
}
