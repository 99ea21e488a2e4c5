package store

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/certutil"
)

// TestAddSnapshotInternsEntries: filing swaps each entry for the one
// canonical entry of its value, and entries of one fingerprint share one
// DER and one parsed certificate even when their values differ.
func TestAddSnapshotInternsEntries(t *testing.T) {
	rs := roots(t, 2)
	db := NewDatabase()
	var snaps []*Snapshot
	for i, label := range []string{"a", "a", "b"} {
		s := NewSnapshot("NSS", fmt.Sprint(i), date(2020, 1, 1+i))
		e := entry(t, rs[0], ServerAuth) // a fresh parse and DER copy each time
		e.Label = label
		s.Add(e)
		s.Add(entry(t, rs[1], ServerAuth))
		if err := db.AddSnapshot(s); err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, s)
	}
	first := func(s *Snapshot) *TrustEntry { e, _ := s.Lookup(certutil.SHA256Fingerprint(rs[0].DER)); return e }
	a0, a1, b := first(snaps[0]), first(snaps[1]), first(snaps[2])
	if a0 != a1 {
		t.Fatal("equal entries of two snapshots are not one pointer")
	}
	if b == a0 || b.Label != "b" {
		t.Fatal("a relabelled entry was merged with its namesake")
	}
	if b.Cert != a0.Cert || &b.DER[0] != &a0.DER[0] {
		t.Fatal("entries of one fingerprint do not share their DER and certificate")
	}
	if n := distinctValues(db); n != 3 {
		t.Fatalf("%d distinct values, want 3", n)
	}
}

// TestFiledEntriesImmutable: SetTrust and SetDistrustAfter panic on a
// filed entry, even one that lost to an equal canonical entry; Clone
// yields an unfiled copy; the flag costs no size.
func TestFiledEntriesImmutable(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) == 8 && unsafe.Sizeof(TrustEntry{}) != 96 {
		t.Fatalf("TrustEntry is %d bytes, want 96", unsafe.Sizeof(TrustEntry{}))
	}
	rs := roots(t, 1)
	db := NewDatabase()
	kept, dropped := entry(t, rs[0], ServerAuth), entry(t, rs[0], ServerAuth)
	for i, e := range []*TrustEntry{kept, dropped} {
		s := NewSnapshot("NSS", fmt.Sprint(i), date(2020, 1, 1+i))
		s.Add(e)
		if err := db.AddSnapshot(s); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range []*TrustEntry{kept, dropped} {
		for name, mutate := range map[string]func(){
			"SetTrust":         func() { e.SetTrust(CodeSigning, Trusted) },
			"SetDistrustAfter": func() { e.SetDistrustAfter(ServerAuth, date(2021, 1, 1)) },
		} {
			func() {
				defer func() {
					if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), name) {
						t.Errorf("%s on a filed entry: recovered %v, want a panic", name, r)
					}
				}()
				mutate()
			}()
		}
	}
	c := kept.Clone()
	c.SetTrust(CodeSigning, Trusted) // must not panic
	if kept.TrustedFor(CodeSigning) {
		t.Fatal("changing a clone changed the filed entry")
	}
}

// TestSpliceSharesCanonicalEntries: a database filing ShareClones of
// another database's snapshots keeps their canonical entries as they are,
// and a differently parsed entry of a known fingerprint meets the shared
// certificate without the shared entry being written.
func TestSpliceSharesCanonicalEntries(t *testing.T) {
	rs := roots(t, 3)
	old := NewDatabase()
	for i := 0; i < 3; i++ {
		s := NewSnapshot("NSS", fmt.Sprint(i), date(2020, 1, 1+i))
		for _, r := range rs[:2] {
			s.Add(entry(t, r, ServerAuth))
		}
		if err := old.AddSnapshot(s); err != nil {
			t.Fatal(err)
		}
	}
	oldEntries := old.History("NSS").Latest().Entries()

	next := NewDatabase()
	// A re-parsed snapshot filed first: its root-0 entry differs in value
	// and becomes canonical before the shared ones arrive.
	fresh := NewSnapshot("NSS", "3", date(2020, 1, 4))
	relabeled := entry(t, rs[0], ServerAuth)
	relabeled.Label = "renamed"
	fresh.Add(relabeled)
	fresh.Add(entry(t, rs[2], ServerAuth))
	if err := next.AddSnapshot(fresh); err != nil {
		t.Fatal(err)
	}
	for _, s := range old.AllSnapshots() {
		if err := next.AddSnapshot(s.ShareClone()); err != nil {
			t.Fatal(err)
		}
	}
	if got := old.History("NSS").Latest().Entries(); got[0] != oldEntries[0] || got[1] != oldEntries[1] {
		t.Fatal("filing a share clone changed the served snapshot")
	}
	certOf := map[string]*TrustEntry{}
	for _, s := range next.AllSnapshots() {
		for _, e := range s.Entries() {
			if prev, ok := certOf[e.Fingerprint.String()]; ok && prev.Cert != e.Cert {
				t.Fatalf("%s: entries of one fingerprint hold two certificates", s.Key())
			}
			certOf[e.Fingerprint.String()] = e
		}
	}
	for _, e := range oldEntries {
		if e.Cert == nil || len(e.DER) == 0 {
			t.Fatal("a shared entry lost its certificate")
		}
	}
	if n := distinctValues(next); n != 4 {
		t.Fatalf("%d distinct values, want 4", n)
	}
	if got := next.DistinctEntries(); len(got) != 3 {
		t.Fatalf("%d distinct certificates, want 3", len(got))
	}
}

// TestConcurrentSplices files share clones of one served database into
// several new databases on several goroutines at once, each the way a
// reload splices a generation: filing reads the shared entries and never
// writes them (run under -race in CI).
func TestConcurrentSplices(t *testing.T) {
	rs := roots(t, 6)
	base := NewDatabase()
	for i := 0; i < 4; i++ {
		s := NewSnapshot("NSS", fmt.Sprint(i), date(2020, 1, 1+i))
		for _, r := range rs[:4] {
			s.Add(entry(t, r, ServerAuth))
		}
		if err := base.AddSnapshot(s); err != nil {
			t.Fatal(err)
		}
	}
	want := len(base.DistinctEntries())
	const goroutines = 8
	fresh := make([]*Snapshot, goroutines)
	for g := range fresh {
		fresh[g] = NewSnapshot("Debian", fmt.Sprint(g), date(2020, 2, 1))
		e := entry(t, rs[g%len(rs)], EmailProtection)
		e.Label = fmt.Sprint("copy ", g)
		fresh[g].Add(e)
	}
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			db := NewDatabase()
			if err := db.AddSnapshot(fresh[g]); err != nil {
				errs <- err
				return
			}
			for _, s := range base.AllSnapshots() {
				if err := db.AddSnapshot(s.ShareClone()); err != nil {
					errs <- err
					return
				}
			}
			n, extra := len(db.DistinctEntries()), 0
			if g%len(rs) >= 4 {
				extra = 1
			}
			if n != want+extra {
				errs <- fmt.Errorf("goroutine %d: %d distinct certificates, want %d", g, n, want+extra)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// distinctValues counts the canonical entries db's table holds.
func distinctValues(db *Database) int {
	n := 0
	for _, r := range db.entries.certs {
		n += len(r.values)
	}
	return n
}
