package store_test

import (
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/certutil"
	"repro/internal/store"
)

// The snapshot keeps its entries in fingerprint order instead of sorting
// on every read. The properties below hold it to the behaviour of the
// unsorted slice it replaced: refSortEntries and refDiffSnapshots are the
// previous implementations, kept verbatim as the reference.

// refSortEntries orders entries by hex fingerprint, as Entries and
// DiffSnapshots did before the sorted invariant.
func refSortEntries(entries []*store.TrustEntry) {
	sort.Slice(entries, func(i, j int) bool {
		return strings.Compare(entries[i].Fingerprint.String(), entries[j].Fingerprint.String()) < 0
	})
}

// refDiffSnapshots is DiffSnapshots before the merge walk: map lookups in
// both directions, then three sorts.
func refDiffSnapshots(old, new *store.Snapshot) store.Diff {
	var d store.Diff
	for _, e := range new.Entries() {
		prev, ok := old.Lookup(e.Fingerprint)
		if !ok {
			d.Added = append(d.Added, e)
			continue
		}
		for _, p := range store.AllPurposes {
			oldLevel, newLevel := prev.TrustFor(p), e.TrustFor(p)
			oldDA, hadDA := prev.DistrustAfterFor(p)
			newDA, hasDA := e.DistrustAfterFor(p)
			daSet := hasDA && (!hadDA || !oldDA.Equal(newDA))
			daCleared := hadDA && !hasDA
			if oldLevel != newLevel || daSet || daCleared {
				tc := store.TrustChange{
					Fingerprint: e.Fingerprint,
					Label:       e.Label,
					Purpose:     p,
					Old:         oldLevel,
					New:         newLevel,
				}
				if daSet {
					tc.DistrustAfterSet = true
					tc.DistrustAfter = newDA
				}
				tc.DistrustAfterCleared = daCleared
				d.TrustChanges = append(d.TrustChanges, tc)
			}
		}
	}
	for _, e := range old.Entries() {
		if _, ok := new.Lookup(e.Fingerprint); !ok {
			d.Removed = append(d.Removed, e)
		}
	}
	refSortEntries(d.Added)
	refSortEntries(d.Removed)
	sort.Slice(d.TrustChanges, func(i, j int) bool {
		a, b := d.TrustChanges[i], d.TrustChanges[j]
		if c := strings.Compare(a.Fingerprint.String(), b.Fingerprint.String()); c != 0 {
			return c < 0
		}
		return a.Purpose < b.Purpose
	})
	return d
}

// fingerprintUniverse returns n distinct fingerprints. A third share their
// first bytes with a neighbour, so ordering is decided deep in the array
// as well as at its head.
func fingerprintUniverse(rng *rand.Rand, n int) []certutil.Fingerprint {
	fps := make([]certutil.Fingerprint, n)
	seen := map[certutil.Fingerprint]bool{}
	for i := 0; i < n; i++ {
		for {
			rng.Read(fps[i][:])
			if i > 0 && i%3 == 0 {
				copy(fps[i][:1+rng.Intn(31)], fps[i-1][:])
			}
			if !seen[fps[i]] {
				seen[fps[i]] = true
				break
			}
		}
	}
	return fps
}

// randomEntry is a certificate-less entry with random trust: enough for
// membership and diff logic, which never look at the certificate.
func randomEntry(rng *rand.Rand, fp certutil.Fingerprint) *store.TrustEntry {
	e := &store.TrustEntry{Fingerprint: fp, Label: fp.Short()}
	for _, p := range store.AllPurposes {
		if l := store.TrustLevel(rng.Intn(4)); l != store.Unspecified {
			e.SetTrust(p, l)
		}
		if rng.Intn(5) == 0 {
			e.SetDistrustAfter(p, date(2018+rng.Intn(3), 1+rng.Intn(12), 1))
		}
	}
	return e
}

// checkAgainstModel compares a snapshot with the reference model: a
// fingerprint-keyed map whose values, hex-sorted, are what Entries must
// return.
func checkAgainstModel(t *testing.T, s *store.Snapshot, model map[certutil.Fingerprint]*store.TrustEntry, fps []certutil.Fingerprint) {
	t.Helper()
	want := make([]*store.TrustEntry, 0, len(model))
	for _, e := range model {
		want = append(want, e)
	}
	refSortEntries(want)
	if got := s.Entries(); !reflect.DeepEqual(got, want) && !(len(got) == 0 && len(want) == 0) {
		t.Fatalf("Entries() = %v, want %v", got, want)
	}
	if s.Len() != len(model) {
		t.Fatalf("Len() = %d, want %d", s.Len(), len(model))
	}
	for _, fp := range fps {
		got, ok := s.Lookup(fp)
		if want, wantOK := model[fp]; ok != wantOK || got != want {
			t.Fatalf("Lookup(%s) = %v, %v; want %v, %v", fp.Short(), got, ok, want, wantOK)
		}
	}
}

// TestSnapshotStaysSorted applies random Add / replace / Remove sequences
// and checks Entries, Len and Lookup against the model after every step,
// and that Clone and ShareClone copy the order and stay independent.
func TestSnapshotStaysSorted(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		fps := fingerprintUniverse(rng, 8+rng.Intn(56))
		s := store.NewSnapshot("P", "v", date(2020, 1, 1))
		model := map[certutil.Fingerprint]*store.TrustEntry{}
		for step := 0; step < 200; step++ {
			fp := fps[rng.Intn(len(fps))]
			switch op := rng.Intn(10); {
			case op < 6: // add, or replace when present
				e := randomEntry(rng, fp)
				s.Add(e)
				model[fp] = e
			case op < 9:
				_, present := model[fp]
				if got := s.Remove(fp); got != present {
					t.Fatalf("seed %d step %d: Remove = %v, want %v", seed, step, got, present)
				}
				delete(model, fp)
			default:
				checkClones(t, rng, s, model, fps)
			}
			checkAgainstModel(t, s, model, fps)
		}
	}
}

// checkClones copies s both ways, checks each copy against the model, then
// mutates the copies and checks s did not move.
func checkClones(t *testing.T, rng *rand.Rand, s *store.Snapshot, model map[certutil.Fingerprint]*store.TrustEntry, fps []certutil.Fingerprint) {
	t.Helper()
	shared := s.ShareClone()
	checkAgainstModel(t, shared, model, fps)

	deep := s.Clone()
	got, want := deep.Entries(), s.Entries()
	if len(got) != len(want) || deep.Len() != s.Len() {
		t.Fatalf("Clone has %d entries, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] == want[i] || got[i].Fingerprint != want[i].Fingerprint {
			t.Fatalf("Clone entry %d: %p %s, want a copy of %p %s", i, got[i], got[i].Fingerprint.Short(), want[i], want[i].Fingerprint.Short())
		}
		if e, ok := deep.Lookup(got[i].Fingerprint); !ok || e != got[i] {
			t.Fatalf("Clone Lookup(%s) does not return its own entry", got[i].Fingerprint.Short())
		}
	}

	for _, c := range []*store.Snapshot{shared, deep} {
		fp := fps[rng.Intn(len(fps))]
		c.Add(randomEntry(rng, fp))
		c.Remove(fps[rng.Intn(len(fps))])
	}
	checkAgainstModel(t, s, model, fps)
}

// TestDiffSnapshotsMatchesReference diffs random snapshot pairs drawn
// from one fingerprint universe, some entries shared between the two and
// some replaced with different trust, against the reference diff.
func TestDiffSnapshotsMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		fps := fingerprintUniverse(rng, 1+rng.Intn(48))
		a := store.NewSnapshot("A", "old", date(2020, 1, 1))
		b := store.NewSnapshot("B", "new", date(2020, 6, 1))
		for _, fp := range fps {
			inA, inB := rng.Intn(3) > 0, rng.Intn(3) > 0
			e := randomEntry(rng, fp)
			if inA {
				a.Add(e)
			}
			if inB {
				if inA && rng.Intn(2) == 0 {
					e = randomEntry(rng, fp) // retained, trust may change
				}
				b.Add(e)
			}
		}
		for _, pair := range [][2]*store.Snapshot{{a, b}, {b, a}, {a, a}} {
			got, want := store.DiffSnapshots(pair[0], pair[1]), refDiffSnapshots(pair[0], pair[1])
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: DiffSnapshots = %s %v, reference %s %v", seed, got, got.TrustChanges, want, want.TrustChanges)
			}
		}
	}
}

// BenchmarkDiffSnapshots diffs two 400-entry snapshots that share 350
// fingerprints, 50 of them with changed trust.
func BenchmarkDiffSnapshots(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	fps := fingerprintUniverse(rng, 450)
	old := store.NewSnapshot("P", "old", date(2020, 1, 1))
	new := store.NewSnapshot("P", "new", date(2020, 6, 1))
	for i, fp := range fps {
		e := randomEntry(rng, fp)
		if i < 400 {
			old.Add(e)
		}
		if i >= 50 {
			if i < 100 {
				e = randomEntry(rng, fp)
			}
			new.Add(e)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		diffSink = store.DiffSnapshots(old, new)
	}
}

var diffSink store.Diff
