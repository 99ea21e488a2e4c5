package store_test

// TrustEntry keeps its per-purpose levels in a fixed array. These
// properties hold it to the map-backed model it replaced, kept here as the
// reference: the same random sequence of SetTrust / SetDistrustAfter calls
// must read back the same through TrustFor, TrustedFor, String, Clone and
// core.SplitByPurpose.

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/core"
	"repro/internal/store"
	"repro/internal/testcerts"
)

// mapEntry is the reference: trust levels in a map keyed by purpose, as
// TrustEntry held them before, with the same partial-distrust map.
type mapEntry struct {
	fp            string
	label         string
	short         string
	trust         map[store.Purpose]store.TrustLevel
	distrustAfter map[store.Purpose]time.Time
}

func (m *mapEntry) trustFor(p store.Purpose) store.TrustLevel { return m.trust[p] }

func (m *mapEntry) clone() *mapEntry {
	c := *m
	c.trust = map[store.Purpose]store.TrustLevel{}
	for p, l := range m.trust {
		c.trust[p] = l
	}
	c.distrustAfter = map[store.Purpose]time.Time{}
	for p, at := range m.distrustAfter {
		c.distrustAfter[p] = at
	}
	return &c
}

// string is TrustEntry.String as the map-backed model rendered it.
func (m *mapEntry) string() string {
	var trusts []string
	for _, p := range store.AllPurposes {
		if l, ok := m.trust[p]; ok && l != store.Unspecified {
			s := fmt.Sprintf("%s=%s", p, l)
			if t, ok := m.distrustAfter[p]; ok {
				s += fmt.Sprintf("(distrust-after %s)", t.Format("2006-01-02"))
			}
			trusts = append(trusts, s)
		}
	}
	return fmt.Sprintf("%s %s [%s]", m.short, m.label, strings.Join(trusts, ", "))
}

// outOfRange is how far past the last purpose the random purposes reach.
const outOfRange = 3

// applyOps drives one entry and its reference through the same calls,
// decoded from ops: purposes run past AllPurposes by outOfRange.
func applyOps(e *store.TrustEntry, m *mapEntry, ops []byte) {
	nPurposes := len(store.AllPurposes) + outOfRange
	for _, op := range ops {
		p := store.Purpose(int(op) % nPurposes)
		switch rest := int(op) / nPurposes; rest % 5 {
		case 4:
			at := time.Date(2015+rest%7, 1, 1, 0, 0, 0, 0, time.UTC)
			e.SetDistrustAfter(p, at)
			m.distrustAfter[p] = at
		default:
			l := store.TrustLevel(rest % 4)
			e.SetTrust(p, l)
			m.trust[p] = l
		}
	}
}

// agree checks e against m on every purpose, in range and out of it.
func agree(e *store.TrustEntry, m *mapEntry) error {
	for p := store.Purpose(0); int(p) < len(store.AllPurposes)+outOfRange; p++ {
		got := e.TrustFor(p)
		if int(p) >= len(store.AllPurposes) {
			// The one deliberate difference: the map kept a level set for
			// a purpose that does not exist and handed it back here; the
			// array has no slot for it. Nothing else reads such a level.
			if got != store.Unspecified || e.TrustedFor(p) {
				return fmt.Errorf("%s: out-of-range purpose reads %s", p, got)
			}
			continue
		}
		if want := m.trustFor(p); got != want {
			return fmt.Errorf("%s: TrustFor %s, reference %s", p, got, want)
		}
		if got, want := e.TrustedFor(p), m.trustFor(p) == store.Trusted; got != want {
			return fmt.Errorf("%s: TrustedFor %v, reference %v", p, got, want)
		}
		at, ok := e.DistrustAfterFor(p)
		wantAt, wantOK := m.distrustAfter[p]
		if ok != wantOK || !at.Equal(wantAt) {
			return fmt.Errorf("%s: DistrustAfterFor %v %v, reference %v %v", p, at, ok, wantAt, wantOK)
		}
	}
	if got, want := e.String(), m.string(); got != want {
		return fmt.Errorf("String %q, reference %q", got, want)
	}
	return nil
}

// newPair returns a fresh entry over the i-th test root and its reference.
func newPair(t *testing.T, i int) (*store.TrustEntry, *mapEntry) {
	t.Helper()
	e, err := store.NewEntry(testcerts.Roots(i + 1)[i].DER)
	if err != nil {
		t.Fatal(err)
	}
	return e, &mapEntry{
		fp:            e.Fingerprint.String(),
		label:         e.Label,
		short:         e.Fingerprint.Short(),
		trust:         map[store.Purpose]store.TrustLevel{},
		distrustAfter: map[store.Purpose]time.Time{},
	}
}

// TestTrustArrayMatchesMap: for random call sequences, the array-backed
// entry and the map reference read back the same levels, strings and
// cutoffs, and so do their clones, which stay independent of the
// original.
func TestTrustArrayMatchesMap(t *testing.T) {
	prop := func(ops, more []byte) bool {
		e, m := newPair(t, 0)
		applyOps(e, m, ops)
		if err := agree(e, m); err != nil {
			t.Log(err)
			return false
		}
		ce, cm := e.Clone(), m.clone()
		applyOps(ce, cm, more)
		if err := agree(ce, cm); err != nil {
			t.Logf("clone: %v", err)
			return false
		}
		if err := agree(e, m); err != nil {
			t.Logf("original after its clone changed: %v", err)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestSplitByPurposeMatchesMap: SplitByPurpose over random snapshots keeps,
// per purpose, exactly the entries the reference trusts for it, each
// restricted to that purpose's level and cutoff.
func TestSplitByPurposeMatchesMap(t *testing.T) {
	const roots = 8
	prop := func(ops [roots][]byte) bool {
		snap := store.NewSnapshot("NSS", "prop", date(2020, 1, 1))
		refs := map[string]*mapEntry{}
		for i := 0; i < roots; i++ {
			e, m := newPair(t, i)
			applyOps(e, m, ops[i])
			snap.Add(e)
			refs[m.fp] = m
		}
		split := core.SplitByPurpose(snap)
		for _, p := range store.AllPurposes {
			var want []string
			for fp, m := range refs {
				if m.trustFor(p) == store.Trusted {
					want = append(want, fp)
				}
			}
			got := split[p]
			if got.Len() != len(want) {
				t.Logf("%s: split holds %d entries, reference trusts %d", p, got.Len(), len(want))
				return false
			}
			for _, e := range got.Entries() {
				m := refs[e.Fingerprint.String()]
				r := &mapEntry{
					fp: m.fp, label: m.label, short: m.short,
					trust:         map[store.Purpose]store.TrustLevel{p: store.Trusted},
					distrustAfter: map[store.Purpose]time.Time{},
				}
				if at, ok := m.distrustAfter[p]; ok {
					r.distrustAfter[p] = at
				}
				if m.trustFor(p) != store.Trusted {
					t.Logf("%s: split holds %s, which the reference does not trust", p, m.short)
					return false
				}
				if err := agree(e, r); err != nil {
					t.Logf("%s split, %s: %v", p, m.short, err)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestOutOfRangePurposeNeverPanics: every accessor accepts any purpose
// value.
func TestOutOfRangePurposeNeverPanics(t *testing.T) {
	e, _ := newPair(t, 0)
	for p := 0; p < 256; p++ {
		e.SetTrust(store.Purpose(p), store.Trusted)
		_ = e.TrustFor(store.Purpose(p))
		_ = e.TrustedFor(store.Purpose(p))
	}
	if got := e.String(); !strings.Contains(got, "time-stamping=trusted") {
		t.Fatalf("String %q lost an in-range level", got)
	}
}
