package store

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/bitset"
	"repro/internal/certutil"
)

// Snapshot is one root store at one point in time: the paper's unit of
// measurement (619 snapshots across ten providers).
type Snapshot struct {
	// Provider names the root-store provider ("NSS", "Debian", ...).
	Provider string
	// Version is the provider's release label ("3.53", "20200601", ...).
	Version string
	// Date approximates the release date (§3.1: treated as coarse).
	Date time.Time
	// Kind tags the snapshot's trust ecosystem (tls | ct | manifest).
	// The zero value means KindTLS; compare via Kind.Normalize().
	Kind Kind

	// entries is kept in ascending fingerprint order (bytewise, which is
	// lowercase-hex order) by Add and Remove, so every walk over it —
	// Entries, diffs, archive encoding, the root index — is already in
	// canonical order without sorting, and Lookup binary-searches it, so
	// a snapshot needs no fingerprint map.
	entries []*TrustEntry

	// bitsMu guards the memoized trusted bitsets and the attached
	// interner. The cache is invalidated by Add/Remove and by attachment
	// to a different interner; entries themselves are immutable once
	// added (by the same convention that shares *x509.Certificate).
	bitsMu      sync.RWMutex
	interner    *Interner
	trustedBits [numPurposes]*bitset.Set
}

// NewSnapshot creates an empty snapshot.
func NewSnapshot(provider, version string, date time.Time) *Snapshot {
	return &Snapshot{
		Provider: provider,
		Version:  version,
		Date:     date,
	}
}

// Add inserts an entry, replacing any previous entry with the same
// fingerprint (matching how stores themselves are keyed by certificate).
func (s *Snapshot) Add(e *TrustEntry) {
	if i, found := s.search(e.Fingerprint); found {
		s.entries[i] = e
	} else {
		s.entries = slices.Insert(s.entries, i, e)
	}
	s.invalidateBits()
}

// Remove deletes the entry with the fingerprint; it reports whether an entry
// was present.
func (s *Snapshot) Remove(fp certutil.Fingerprint) bool {
	i, found := s.search(fp)
	if !found {
		return false
	}
	s.entries = slices.Delete(s.entries, i, i+1)
	s.invalidateBits()
	return true
}

// search finds fp in the fingerprint-ordered entries: its index and true
// when present, else the index it would be inserted at.
func (s *Snapshot) search(fp certutil.Fingerprint) (int, bool) {
	return slices.BinarySearchFunc(s.entries, fp, func(e *TrustEntry, fp certutil.Fingerprint) int {
		return e.Fingerprint.Compare(fp)
	})
}

// Lookup returns the entry with the fingerprint, if present.
func (s *Snapshot) Lookup(fp certutil.Fingerprint) (*TrustEntry, bool) {
	if i, found := s.search(fp); found {
		return s.entries[i], true
	}
	return nil, false
}

// EntryByFingerprint looks up an entry by its SHA-256 fingerprint rendered
// as hex (optionally colon-separated, any case). It is the string-keyed
// companion to Lookup for callers holding wire-format fingerprints — API
// handlers, CLIs — who would otherwise linear-scan Entries().
func (s *Snapshot) EntryByFingerprint(sha256 string) (*TrustEntry, bool) {
	fp, err := certutil.ParseFingerprint(sha256)
	if err != nil {
		return nil, false
	}
	return s.Lookup(fp)
}

// Len returns the number of entries.
func (s *Snapshot) Len() int { return len(s.entries) }

// Entries returns the entries sorted by fingerprint. The returned slice is
// fresh; entries are shared.
func (s *Snapshot) Entries() []*TrustEntry {
	return slices.Clone(s.entries)
}

// TrustedSet returns the fingerprints trusted for the purpose, the set the
// similarity analyses operate on.
func (s *Snapshot) TrustedSet(p Purpose) map[certutil.Fingerprint]bool {
	set := make(map[certutil.Fingerprint]bool)
	for _, e := range s.entries {
		if e.TrustedFor(p) {
			set[e.Fingerprint] = true
		}
	}
	return set
}

// TrustedBits returns the purpose-trusted set as a bitset of IDs drawn
// from in, the hot-path counterpart of TrustedSet. When in is nil the
// snapshot's attached interner is used (snapshots filed in a Database are
// attached to its interner; a bare snapshot self-attaches a private one).
// The result is memoized per purpose against the attached interner and
// safe for any number of concurrent readers; callers must treat the
// returned set as immutable.
func (s *Snapshot) TrustedBits(p Purpose, in *Interner) *bitset.Set {
	s.bitsMu.RLock()
	attached := s.interner
	if (in == nil || in == attached) && attached != nil {
		if b := s.trustedBits[p]; b != nil {
			s.bitsMu.RUnlock()
			return b
		}
	}
	s.bitsMu.RUnlock()

	if in == nil {
		s.bitsMu.Lock()
		if s.interner == nil {
			s.interner = NewInterner()
		}
		in = s.interner
		s.bitsMu.Unlock()
	}

	b := bitset.New(in.Len())
	for _, e := range s.entries {
		if e.TrustedFor(p) {
			b.Add(in.ID(e.Fingerprint))
		}
	}

	s.bitsMu.Lock()
	if in == s.interner {
		if cached := s.trustedBits[p]; cached != nil {
			b = cached // another goroutine won the race; keep one canonical set
		} else {
			s.trustedBits[p] = b
		}
	}
	s.bitsMu.Unlock()
	return b
}

// Interner returns the interner the snapshot's memoized bitsets are keyed
// by — the database's once filed, nil for a bare snapshot that has never
// computed bits.
func (s *Snapshot) Interner() *Interner {
	s.bitsMu.RLock()
	defer s.bitsMu.RUnlock()
	return s.interner
}

// attachInterner pins the snapshot's bitset cache to in (the owning
// database's interner), dropping any bits memoized against another.
func (s *Snapshot) attachInterner(in *Interner) {
	s.bitsMu.Lock()
	if s.interner != in {
		s.interner = in
		s.trustedBits = [numPurposes]*bitset.Set{}
	}
	s.bitsMu.Unlock()
}

// invalidateBits drops the memoized trusted bitsets after a membership
// change.
func (s *Snapshot) invalidateBits() {
	s.bitsMu.Lock()
	s.trustedBits = [numPurposes]*bitset.Set{}
	s.bitsMu.Unlock()
}

// TrustedCount returns the number of entries trusted for the purpose.
func (s *Snapshot) TrustedCount(p Purpose) int {
	n := 0
	for _, e := range s.entries {
		if e.TrustedFor(p) {
			n++
		}
	}
	return n
}

// ExpiredCount returns how many entries trusted for the purpose are expired
// as of the snapshot date (Table 3's "Avg. Expired" metric).
func (s *Snapshot) ExpiredCount(p Purpose) int {
	n := 0
	for _, e := range s.entries {
		if e.TrustedFor(p) && certutil.ExpiredAt(e.Cert, s.Date) {
			n++
		}
	}
	return n
}

// Clone deep-copies the snapshot.
func (s *Snapshot) Clone() *Snapshot { return s.copyWith((*TrustEntry).Clone) }

// ShareClone returns a fresh snapshot shell sharing the receiver's entry
// pointers. Entries are immutable once ingested (the convention that already
// shares *x509.Certificate), so sharing lets an incremental reload splice
// unchanged snapshots into a new database without re-parsing anything —
// while the fresh shell keeps the new database's interner attachment and
// bitset memos from mutating the generation still being served.
func (s *Snapshot) ShareClone() *Snapshot {
	return s.copyWith(func(e *TrustEntry) *TrustEntry { return e })
}

// copyWith builds a new snapshot shell over copyEntry applied to each
// entry. The source is in fingerprint order, so the copy is too.
func (s *Snapshot) copyWith(copyEntry func(*TrustEntry) *TrustEntry) *Snapshot {
	c := NewSnapshot(s.Provider, s.Version, s.Date)
	c.Kind = s.Kind
	c.entries = make([]*TrustEntry, len(s.entries))
	for i, e := range s.entries {
		c.entries[i] = copyEntry(e)
	}
	return c
}

// Key identifies the snapshot in logs and plots.
func (s *Snapshot) Key() string {
	// Plain concatenation: Key is on the per-verdict hot path of the
	// serving layer, where fmt's overhead is measurable.
	return s.Provider + "@" + s.Version + "(" + s.Date.Format("2006-01-02") + ")"
}

// History is a provider's time-ordered sequence of snapshots.
type History struct {
	Provider  string
	snapshots []*Snapshot
}

// NewHistory creates an empty history for a provider.
func NewHistory(provider string) *History { return &History{Provider: provider} }

// Append inserts a snapshot keeping the history date-ordered.
func (h *History) Append(s *Snapshot) error {
	if s.Provider != h.Provider {
		return fmt.Errorf("store: snapshot provider %q does not match history %q", s.Provider, h.Provider)
	}
	h.snapshots = append(h.snapshots, s)
	sort.SliceStable(h.snapshots, func(i, j int) bool {
		return h.snapshots[i].Date.Before(h.snapshots[j].Date)
	})
	return nil
}

// Len returns the number of snapshots.
func (h *History) Len() int { return len(h.snapshots) }

// Snapshots returns the date-ordered snapshots (shared, do not mutate order).
func (h *History) Snapshots() []*Snapshot {
	return append([]*Snapshot(nil), h.snapshots...)
}

// At returns the snapshot in force at the instant: the latest snapshot whose
// date is not after t, or nil when t precedes the history.
func (h *History) At(t time.Time) *Snapshot {
	var cur *Snapshot
	for _, s := range h.snapshots {
		if s.Date.After(t) {
			break
		}
		cur = s
	}
	return cur
}

// Latest returns the most recent snapshot, or nil for an empty history.
func (h *History) Latest() *Snapshot {
	if len(h.snapshots) == 0 {
		return nil
	}
	return h.snapshots[len(h.snapshots)-1]
}

// First returns the earliest snapshot, or nil for an empty history.
func (h *History) First() *Snapshot {
	if len(h.snapshots) == 0 {
		return nil
	}
	return h.snapshots[0]
}

// Range returns snapshots with Date in [from, to] inclusive.
func (h *History) Range(from, to time.Time) []*Snapshot {
	var out []*Snapshot
	for _, s := range h.snapshots {
		if !s.Date.Before(from) && !s.Date.After(to) {
			out = append(out, s)
		}
	}
	return out
}

// EverTrusted returns the union of fingerprints ever trusted for the purpose
// across the history — the basis of the exclusive-roots analysis (Table 6).
func (h *History) EverTrusted(p Purpose) map[certutil.Fingerprint]bool {
	set := make(map[certutil.Fingerprint]bool)
	for _, s := range h.snapshots {
		for _, e := range s.entries {
			if e.TrustedFor(p) {
				set[e.Fingerprint] = true
			}
		}
	}
	return set
}

// TrustedUntil returns, for a fingerprint, the date of the last snapshot that
// still trusted it for the purpose, and whether it is still trusted in the
// latest snapshot. This drives the removal-lag analysis (Table 4).
func (h *History) TrustedUntil(fp certutil.Fingerprint, p Purpose) (last time.Time, stillTrusted bool, everTrusted bool) {
	for _, s := range h.snapshots {
		if e, ok := s.Lookup(fp); ok && e.TrustedFor(p) {
			last = s.Date
			everTrusted = true
			stillTrusted = true
		} else {
			stillTrusted = false
		}
	}
	if !everTrusted {
		return time.Time{}, false, false
	}
	return last, stillTrusted, true
}

// FirstTrusted returns the date of the first snapshot trusting fp for p.
func (h *History) FirstTrusted(fp certutil.Fingerprint, p Purpose) (time.Time, bool) {
	for _, s := range h.snapshots {
		if e, ok := s.Lookup(fp); ok && e.TrustedFor(p) {
			return s.Date, true
		}
	}
	return time.Time{}, false
}

// Database maps providers to histories — the paper's whole dataset.
type Database struct {
	histories map[string]*History
	interner  *Interner
}

// NewDatabase creates an empty database.
func NewDatabase() *Database {
	return &Database{histories: make(map[string]*History), interner: NewInterner()}
}

// Interner returns the database's fingerprint interner. Every snapshot
// filed via AddSnapshot shares it, so their TrustedBits are
// ID-compatible.
func (db *Database) Interner() *Interner { return db.interner }

// AddSnapshot files a snapshot under its provider, creating the history on
// first use.
func (db *Database) AddSnapshot(s *Snapshot) error {
	h, ok := db.histories[s.Provider]
	if !ok {
		h = NewHistory(s.Provider)
		db.histories[s.Provider] = h
	}
	if err := h.Append(s); err != nil {
		return err
	}
	s.attachInterner(db.interner)
	return nil
}

// History returns the provider's history, or nil if absent.
func (db *Database) History(provider string) *History { return db.histories[provider] }

// Providers returns the provider names, sorted.
func (db *Database) Providers() []string {
	out := make([]string, 0, len(db.histories))
	for p := range db.histories {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// TotalSnapshots counts snapshots across all providers (the paper's 619).
func (db *Database) TotalSnapshots() int {
	n := 0
	for _, h := range db.histories {
		n += h.Len()
	}
	return n
}

// AllSnapshots returns every snapshot, ordered by provider then date.
func (db *Database) AllSnapshots() []*Snapshot {
	var out []*Snapshot
	for _, p := range db.Providers() {
		out = append(out, db.histories[p].Snapshots()...)
	}
	return out
}

// UniqueRoots counts distinct fingerprints ever trusted for the purpose by
// the provider (Table 2's "# Uniq" column counts distinct certificates).
func (db *Database) UniqueRoots(provider string, p Purpose) int {
	h := db.History(provider)
	if h == nil {
		return 0
	}
	return len(h.EverTrusted(p))
}
