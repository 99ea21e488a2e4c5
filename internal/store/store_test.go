package store

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/certgen"
)

var (
	testPool  = certgen.NewKeyPool("store-test")
	testRoots []*certgen.Root
	rootsOnce sync.Once
)

// roots returns n distinct test root certificates, minted once per process.
func roots(t testing.TB, n int) []*certgen.Root {
	t.Helper()
	rootsOnce.Do(func() {
		for i := 0; i < 24; i++ {
			spec := certgen.RootSpec{
				Name:      fmt.Sprintf("Store Test Root %02d", i),
				Org:       "Store Test",
				Country:   "US",
				Key:       certgen.ECDSA256,
				Sig:       certgen.ECDSAWithSHA256,
				NotBefore: time.Date(2004, 1, 1, 0, 0, 0, 0, time.UTC),
				NotAfter:  time.Date(2034, 1, 1, 0, 0, 0, 0, time.UTC),
				KeyIndex:  i,
			}
			r, err := certgen.NewRoot(testPool, spec)
			if err != nil {
				panic(err)
			}
			testRoots = append(testRoots, r)
		}
	})
	if n > len(testRoots) {
		t.Fatalf("test asked for %d roots, only %d prepared", n, len(testRoots))
	}
	return testRoots[:n]
}

func entry(t testing.TB, r *certgen.Root, purposes ...Purpose) *TrustEntry {
	t.Helper()
	e, err := NewTrustedEntry(r.DER, purposes...)
	if err != nil {
		t.Fatalf("NewTrustedEntry: %v", err)
	}
	return e
}

func date(y, m, d int) time.Time { return time.Date(y, time.Month(m), d, 0, 0, 0, 0, time.UTC) }

func TestPurposeStringRoundTrip(t *testing.T) {
	for _, p := range AllPurposes {
		got, err := ParsePurpose(p.String())
		if err != nil {
			t.Fatalf("ParsePurpose(%q): %v", p.String(), err)
		}
		if got != p {
			t.Errorf("purpose round trip: %v != %v", got, p)
		}
	}
	if _, err := ParsePurpose("bogus"); err == nil {
		t.Error("bogus purpose should not parse")
	}
}

func TestTrustLevelStringRoundTrip(t *testing.T) {
	for _, l := range []TrustLevel{Unspecified, Trusted, MustVerify, Distrusted} {
		got, err := ParseTrustLevel(l.String())
		if err != nil {
			t.Fatalf("ParseTrustLevel(%q): %v", l.String(), err)
		}
		if got != l {
			t.Errorf("level round trip: %v != %v", got, l)
		}
	}
	if _, err := ParseTrustLevel("nope"); err == nil {
		t.Error("bogus level should not parse")
	}
}

func TestNewEntryRejectsGarbage(t *testing.T) {
	if _, err := NewEntry([]byte{0x30, 0x01, 0x02}); err == nil {
		t.Error("garbage DER should not parse")
	}
}

func TestEntryTrustAccessors(t *testing.T) {
	r := roots(t, 1)[0]
	e := entry(t, r, ServerAuth)
	if !e.TrustedFor(ServerAuth) {
		t.Error("entry should be trusted for server auth")
	}
	if e.TrustedFor(EmailProtection) {
		t.Error("entry should not be trusted for email")
	}
	if e.TrustFor(EmailProtection) != Unspecified {
		t.Error("email trust should be unspecified")
	}
	e.SetTrust(EmailProtection, Distrusted)
	if e.TrustFor(EmailProtection) != Distrusted {
		t.Error("SetTrust did not take")
	}
	da := date(2020, 9, 1)
	e.SetDistrustAfter(ServerAuth, da)
	got, ok := e.DistrustAfterFor(ServerAuth)
	if !ok || !got.Equal(da) {
		t.Error("DistrustAfter round trip failed")
	}
	// Partial distrust keeps the anchor trusted.
	if !e.TrustedFor(ServerAuth) {
		t.Error("partial distrust must not clear anchor trust")
	}
}

func TestEntryCloneIsDeep(t *testing.T) {
	r := roots(t, 1)[0]
	e := entry(t, r, ServerAuth)
	e.SetDistrustAfter(ServerAuth, date(2020, 1, 1))
	c := e.Clone()
	c.SetTrust(ServerAuth, Distrusted)
	c.SetDistrustAfter(ServerAuth, date(2021, 1, 1))
	if e.TrustFor(ServerAuth) != Trusted {
		t.Error("mutating clone changed original trust")
	}
	if got, _ := e.DistrustAfterFor(ServerAuth); !got.Equal(date(2020, 1, 1)) {
		t.Error("mutating clone changed original distrust-after")
	}
	if c.Fingerprint != e.Fingerprint {
		t.Error("clone must keep fingerprint")
	}
}

func TestEntryString(t *testing.T) {
	r := roots(t, 1)[0]
	e := entry(t, r, ServerAuth)
	s := e.String()
	if s == "" || len(s) < 10 {
		t.Errorf("entry string too short: %q", s)
	}
}

func TestSnapshotAddLookupRemove(t *testing.T) {
	rs := roots(t, 3)
	s := NewSnapshot("NSS", "3.50", date(2020, 1, 1))
	for _, r := range rs {
		s.Add(entry(t, r, ServerAuth))
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	fp := entry(t, rs[1], ServerAuth).Fingerprint
	if _, ok := s.Lookup(fp); !ok {
		t.Fatal("Lookup missed an added entry")
	}
	if !s.Remove(fp) {
		t.Fatal("Remove reported missing entry")
	}
	if s.Remove(fp) {
		t.Fatal("second Remove should report absent")
	}
	if s.Len() != 2 {
		t.Fatalf("Len after remove = %d, want 2", s.Len())
	}
}

func TestSnapshotEntryByFingerprint(t *testing.T) {
	rs := roots(t, 2)
	s := NewSnapshot("NSS", "3.50", date(2020, 1, 1))
	e := entry(t, rs[0], ServerAuth)
	s.Add(e)

	hex := e.Fingerprint.String()
	got, ok := s.EntryByFingerprint(hex)
	if !ok || got != e {
		t.Fatalf("EntryByFingerprint(%q) = %v, %v", hex, got, ok)
	}
	// Colon-separated and upper-case renderings resolve too.
	withColons := hex[:2] + ":" + hex[2:4] + ":" + hex[4:]
	if _, ok := s.EntryByFingerprint(withColons); !ok {
		t.Error("colon-separated fingerprint not accepted")
	}
	// Absent and malformed inputs miss without panicking.
	if _, ok := s.EntryByFingerprint(entry(t, rs[1], ServerAuth).Fingerprint.String()); ok {
		t.Error("absent fingerprint reported present")
	}
	if _, ok := s.EntryByFingerprint("not-hex"); ok {
		t.Error("malformed fingerprint reported present")
	}
}

func TestSnapshotAddReplaces(t *testing.T) {
	r := roots(t, 1)[0]
	s := NewSnapshot("NSS", "3.50", date(2020, 1, 1))
	s.Add(entry(t, r, ServerAuth))
	e2 := entry(t, r, ServerAuth, EmailProtection)
	s.Add(e2)
	if s.Len() != 1 {
		t.Fatalf("duplicate add should replace, Len = %d", s.Len())
	}
	got, _ := s.Lookup(e2.Fingerprint)
	if !got.TrustedFor(EmailProtection) {
		t.Error("replacement entry not stored")
	}
}

func TestSnapshotTrustedSetAndCounts(t *testing.T) {
	rs := roots(t, 4)
	s := NewSnapshot("NSS", "3.50", date(2020, 1, 1))
	s.Add(entry(t, rs[0], ServerAuth))
	s.Add(entry(t, rs[1], ServerAuth, EmailProtection))
	s.Add(entry(t, rs[2], EmailProtection))
	distrusted := entry(t, rs[3])
	distrusted.SetTrust(ServerAuth, Distrusted)
	s.Add(distrusted)

	if got := s.TrustedCount(ServerAuth); got != 2 {
		t.Errorf("TrustedCount(ServerAuth) = %d, want 2", got)
	}
	if got := s.TrustedCount(EmailProtection); got != 2 {
		t.Errorf("TrustedCount(Email) = %d, want 2", got)
	}
	set := s.TrustedSet(ServerAuth)
	if len(set) != 2 {
		t.Errorf("TrustedSet size = %d, want 2", len(set))
	}
	if set[distrusted.Fingerprint] {
		t.Error("distrusted entry must not be in trusted set")
	}
}

func TestSnapshotExpiredCount(t *testing.T) {
	rs := roots(t, 2)
	// Snapshot dated after the roots' NotAfter.
	s := NewSnapshot("Microsoft", "v1", date(2035, 1, 1))
	s.Add(entry(t, rs[0], ServerAuth))
	s.Add(entry(t, rs[1], ServerAuth))
	if got := s.ExpiredCount(ServerAuth); got != 2 {
		t.Errorf("ExpiredCount = %d, want 2 (roots expire 2034)", got)
	}
	s2 := NewSnapshot("Microsoft", "v1", date(2020, 1, 1))
	s2.Add(entry(t, rs[0], ServerAuth))
	if got := s2.ExpiredCount(ServerAuth); got != 0 {
		t.Errorf("ExpiredCount = %d, want 0", got)
	}
}

func TestSnapshotEntriesSorted(t *testing.T) {
	rs := roots(t, 5)
	s := NewSnapshot("NSS", "x", date(2020, 1, 1))
	for _, r := range rs {
		s.Add(entry(t, r, ServerAuth))
	}
	es := s.Entries()
	for i := 1; i < len(es); i++ {
		if es[i-1].Fingerprint.String() >= es[i].Fingerprint.String() {
			t.Fatal("Entries not sorted by fingerprint")
		}
	}
}

func TestSnapshotCloneIndependent(t *testing.T) {
	r := roots(t, 1)[0]
	s := NewSnapshot("NSS", "x", date(2020, 1, 1))
	e := entry(t, r, ServerAuth)
	s.Add(e)
	c := s.Clone()
	ce, _ := c.Lookup(e.Fingerprint)
	ce.SetTrust(ServerAuth, Distrusted)
	oe, _ := s.Lookup(e.Fingerprint)
	if oe.TrustFor(ServerAuth) != Trusted {
		t.Error("clone shares trust maps with original")
	}
}

func TestHistoryOrderingAndAt(t *testing.T) {
	h := NewHistory("NSS")
	r := roots(t, 1)[0]
	for _, d := range []time.Time{date(2020, 6, 1), date(2019, 1, 1), date(2021, 3, 1)} {
		s := NewSnapshot("NSS", d.Format("2006-01"), d)
		s.Add(entry(t, r, ServerAuth))
		if err := h.Append(s); err != nil {
			t.Fatal(err)
		}
	}
	snaps := h.Snapshots()
	if !snaps[0].Date.Equal(date(2019, 1, 1)) || !snaps[2].Date.Equal(date(2021, 3, 1)) {
		t.Error("history not date-ordered")
	}
	if got := h.At(date(2020, 12, 1)); got == nil || !got.Date.Equal(date(2020, 6, 1)) {
		t.Errorf("At(2020-12) = %v", got)
	}
	if got := h.At(date(2018, 1, 1)); got != nil {
		t.Error("At before history should be nil")
	}
	if h.First() == nil || !h.First().Date.Equal(date(2019, 1, 1)) {
		t.Error("First wrong")
	}
	if h.Latest() == nil || !h.Latest().Date.Equal(date(2021, 3, 1)) {
		t.Error("Latest wrong")
	}
	if got := len(h.Range(date(2019, 6, 1), date(2020, 12, 31))); got != 1 {
		t.Errorf("Range count = %d, want 1", got)
	}
}

func TestHistoryRejectsWrongProvider(t *testing.T) {
	h := NewHistory("NSS")
	s := NewSnapshot("Apple", "x", date(2020, 1, 1))
	if err := h.Append(s); err == nil {
		t.Error("appending foreign provider should fail")
	}
}

func TestHistoryTrustedUntil(t *testing.T) {
	rs := roots(t, 2)
	h := NewHistory("NSS")
	stay, gone := rs[0], rs[1]
	// 2019: both trusted. 2020: only stay.
	s1 := NewSnapshot("NSS", "a", date(2019, 1, 1))
	s1.Add(entry(t, stay, ServerAuth))
	s1.Add(entry(t, gone, ServerAuth))
	s2 := NewSnapshot("NSS", "b", date(2020, 1, 1))
	s2.Add(entry(t, stay, ServerAuth))
	if err := h.Append(s1); err != nil {
		t.Fatal(err)
	}
	if err := h.Append(s2); err != nil {
		t.Fatal(err)
	}

	goneFP := entry(t, gone, ServerAuth).Fingerprint
	last, still, ever := h.TrustedUntil(goneFP, ServerAuth)
	if !ever || still || !last.Equal(date(2019, 1, 1)) {
		t.Errorf("TrustedUntil(gone) = %v still=%v ever=%v", last, still, ever)
	}
	stayFP := entry(t, stay, ServerAuth).Fingerprint
	last, still, ever = h.TrustedUntil(stayFP, ServerAuth)
	if !ever || !still || !last.Equal(date(2020, 1, 1)) {
		t.Errorf("TrustedUntil(stay) = %v still=%v ever=%v", last, still, ever)
	}
	if _, _, ever := h.TrustedUntil(entry(t, roots(t, 3)[2], ServerAuth).Fingerprint, ServerAuth); ever {
		t.Error("never-trusted fingerprint reported as ever trusted")
	}
	first, ok := h.FirstTrusted(goneFP, ServerAuth)
	if !ok || !first.Equal(date(2019, 1, 1)) {
		t.Errorf("FirstTrusted = %v, %v", first, ok)
	}
}

func TestHistoryEverTrusted(t *testing.T) {
	rs := roots(t, 2)
	h := NewHistory("NSS")
	s1 := NewSnapshot("NSS", "a", date(2019, 1, 1))
	s1.Add(entry(t, rs[0], ServerAuth))
	s2 := NewSnapshot("NSS", "b", date(2020, 1, 1))
	s2.Add(entry(t, rs[1], ServerAuth))
	_ = h.Append(s1)
	_ = h.Append(s2)
	if got := len(h.EverTrusted(ServerAuth)); got != 2 {
		t.Errorf("EverTrusted = %d, want 2", got)
	}
	if got := len(h.EverTrusted(EmailProtection)); got != 0 {
		t.Errorf("EverTrusted(email) = %d, want 0", got)
	}
}

func TestDatabase(t *testing.T) {
	r := roots(t, 1)[0]
	db := NewDatabase()
	for _, prov := range []string{"NSS", "Apple"} {
		s := NewSnapshot(prov, "x", date(2020, 1, 1))
		s.Add(entry(t, r, ServerAuth))
		if err := db.AddSnapshot(s); err != nil {
			t.Fatal(err)
		}
	}
	if got := db.TotalSnapshots(); got != 2 {
		t.Errorf("TotalSnapshots = %d", got)
	}
	provs := db.Providers()
	if len(provs) != 2 || provs[0] != "Apple" || provs[1] != "NSS" {
		t.Errorf("Providers = %v", provs)
	}
	if db.History("NSS") == nil || db.History("Missing") != nil {
		t.Error("History lookup wrong")
	}
	if got := db.UniqueRoots("NSS", ServerAuth); got != 1 {
		t.Errorf("UniqueRoots = %d", got)
	}
	if got := db.UniqueRoots("Missing", ServerAuth); got != 0 {
		t.Errorf("UniqueRoots missing = %d", got)
	}
	if got := len(db.AllSnapshots()); got != 2 {
		t.Errorf("AllSnapshots = %d", got)
	}
}

func TestDiffSnapshots(t *testing.T) {
	rs := roots(t, 3)
	old := NewSnapshot("NSS", "a", date(2020, 1, 1))
	old.Add(entry(t, rs[0], ServerAuth))
	old.Add(entry(t, rs[1], ServerAuth))
	nw := NewSnapshot("NSS", "b", date(2020, 6, 1))
	nw.Add(entry(t, rs[1], ServerAuth))
	nw.Add(entry(t, rs[2], ServerAuth))

	d := DiffSnapshots(old, nw)
	if len(d.Added) != 1 || len(d.Removed) != 1 || len(d.TrustChanges) != 0 {
		t.Fatalf("diff = %s", d)
	}
	if d.Empty() {
		t.Error("diff should not be empty")
	}
	same := DiffSnapshots(old, old.Clone())
	if !same.Empty() {
		t.Errorf("self-diff should be empty, got %s", same)
	}
}

func TestDiffDetectsPartialDistrust(t *testing.T) {
	r := roots(t, 1)[0]
	old := NewSnapshot("NSS", "52", date(2020, 5, 1))
	old.Add(entry(t, r, ServerAuth))
	nw := NewSnapshot("NSS", "53", date(2020, 6, 1))
	e := entry(t, r, ServerAuth)
	e.SetDistrustAfter(ServerAuth, date(2020, 9, 1))
	nw.Add(e)

	d := DiffSnapshots(old, nw)
	if len(d.TrustChanges) != 1 {
		t.Fatalf("expected 1 trust change, got %d", len(d.TrustChanges))
	}
	tc := d.TrustChanges[0]
	if !tc.DistrustAfterSet || !tc.DistrustAfter.Equal(date(2020, 9, 1)) {
		t.Errorf("trust change = %s", tc)
	}
	if tc.Old != Trusted || tc.New != Trusted {
		t.Error("partial distrust should keep level Trusted on both sides")
	}
}

func TestSetDiff(t *testing.T) {
	rs := roots(t, 3)
	a := NewSnapshot("NSS", "a", date(2020, 1, 1))
	a.Add(entry(t, rs[0], ServerAuth))
	a.Add(entry(t, rs[1], ServerAuth))
	b := NewSnapshot("Debian", "b", date(2020, 1, 1))
	b.Add(entry(t, rs[1], ServerAuth))
	b.Add(entry(t, rs[2], ServerAuth))

	onlyA, onlyB, both := SetDiff(a, b, ServerAuth)
	if len(onlyA) != 1 || len(onlyB) != 1 || len(both) != 1 {
		t.Fatalf("SetDiff = %d/%d/%d", len(onlyA), len(onlyB), len(both))
	}
}

// TestDatabaseDistinctEntries checks the distinct-certificate walk: one
// entry per fingerprint, sorted, the first met in AllSnapshots order,
// including entries added after their snapshot was filed (not yet
// interned), and Each visiting a snapshot's entries in order.
func TestDatabaseDistinctEntries(t *testing.T) {
	rs := roots(t, 6)
	db := NewDatabase()
	a := NewSnapshot("Alpha", "1", date(2020, 1, 1))
	b := NewSnapshot("Beta", "1", date(2020, 1, 1))
	firstOf := map[int]*TrustEntry{}
	for i := 0; i < 4; i++ {
		e := entry(t, rs[i], ServerAuth)
		firstOf[i] = e // Alpha sorts first, so its entries are met first
		a.Add(e)
		b.Add(entry(t, rs[i+1], EmailProtection))
	}
	for _, s := range []*Snapshot{a, b} {
		if err := db.AddSnapshot(s); err != nil {
			t.Fatal(err)
		}
	}
	late := entry(t, rs[5], ServerAuth)
	b.Add(late) // after filing: its fingerprint is not interned yet
	firstOf[5] = late

	got := db.DistinctEntries()
	if len(got) != 6 {
		t.Fatalf("%d distinct entries, want 6", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1].Fingerprint.Compare(got[i].Fingerprint) >= 0 {
			t.Fatalf("entries not strictly sorted at %d", i)
		}
	}
	for i, want := range firstOf {
		found := false
		for _, g := range got {
			if g.Fingerprint == want.Fingerprint {
				found = g == want
			}
		}
		if !found {
			t.Errorf("root %d: distinct entry is not the first met", i)
		}
	}

	var walked []*TrustEntry
	b.Each(func(e *TrustEntry) { walked = append(walked, e) })
	if want := b.Entries(); len(walked) != len(want) {
		t.Fatalf("Each visited %d entries, want %d", len(walked), len(want))
	} else {
		for i := range want {
			if walked[i] != want[i] {
				t.Fatalf("Each order differs at %d", i)
			}
		}
	}
}
