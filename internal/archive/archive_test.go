package archive

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/store"
	"repro/internal/testcerts"
)

// randomDatabase builds a database with randomized providers, snapshot
// dates, labels, trust levels and distrust-after dates over the shared
// test roots — the generator behind the round-trip property test.
func randomDatabase(t testing.TB, rng *rand.Rand) *store.Database {
	t.Helper()
	roots := testcerts.Roots(12)
	db := store.NewDatabase()
	providers := []string{"NSS", "Microsoft", "Ápple µ", "debian-sid"}
	nProv := 1 + rng.Intn(len(providers))
	for pi := 0; pi < nProv; pi++ {
		nSnap := 1 + rng.Intn(3)
		for si := 0; si < nSnap; si++ {
			var date time.Time
			if rng.Intn(8) > 0 { // leave some snapshots with the zero date
				date = time.Date(2010+rng.Intn(12), time.Month(1+rng.Intn(12)), 1+rng.Intn(28),
					rng.Intn(24), rng.Intn(60), rng.Intn(60), rng.Intn(1e9), time.UTC)
			}
			snap := store.NewSnapshot(providers[pi], fmt.Sprintf("v%d.%d", si, rng.Intn(100)), date)
			switch rng.Intn(5) {
			case 0:
				snap.Kind = store.KindCT
			case 1:
				snap.Kind = store.KindManifest
			case 2:
				snap.Kind = store.KindTLS // explicit tls, equal to the zero value
			}
			nEnt := 1 + rng.Intn(len(roots))
			perm := rng.Perm(len(roots))
			for _, ri := range perm[:nEnt] {
				e, err := store.NewEntry(roots[ri].DER)
				if err != nil {
					t.Fatal(err)
				}
				switch rng.Intn(4) {
				case 0:
					e.Label = ""
				case 1:
					e.Label = "ünïcode läbel ✓"
				}
				for _, p := range store.AllPurposes {
					// Includes explicit Unspecified map entries, which must
					// round-trip as semantically absent.
					if lvl := store.TrustLevel(rng.Intn(4)); rng.Intn(3) > 0 {
						e.SetTrust(p, lvl)
					}
					if rng.Intn(5) == 0 {
						e.SetDistrustAfter(p, time.Date(2019, 4, rng.Intn(28)+1, 0, 0, 0, 0, time.UTC))
					}
				}
				snap.Add(e)
			}
			if err := db.AddSnapshot(snap); err != nil {
				t.Fatal(err)
			}
		}
	}
	return db
}

func encodeToBytes(t testing.TB, db *store.Database) ([]byte, [HashLen]byte) {
	t.Helper()
	var buf bytes.Buffer
	h, err := Encode(&buf, db, [HashLen]byte{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), h
}

func decodeBytes(data []byte) (*store.Database, error) {
	r, err := NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		return nil, err
	}
	return r.Database()
}

func TestRoundTripProperty(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := randomDatabase(t, rng)
		data, hash := encodeToBytes(t, db)

		got, err := decodeBytes(data)
		if err != nil {
			t.Fatalf("seed %d: decode: %v", seed, err)
		}
		if err := Equal(db, got); err != nil {
			t.Fatalf("seed %d: round-trip not lossless: %v", seed, err)
		}
		// Decoded database re-encodes to the identical bytes (canonical
		// form), and the content hash is a pure function of semantics.
		var buf2 bytes.Buffer
		hash2, err := Encode(&buf2, got, [HashLen]byte{1, 2, 3})
		if err != nil {
			t.Fatalf("seed %d: re-encode: %v", seed, err)
		}
		if hash2 != hash || !bytes.Equal(buf2.Bytes(), data) {
			t.Fatalf("seed %d: re-encode is not byte-identical", seed)
		}
	}
}

func TestDeterministicEncoding(t *testing.T) {
	// Two databases built with the same content in different insertion
	// orders must hash identically.
	build := func(reverse bool) *store.Database {
		db := store.NewDatabase()
		entries := testcerts.Entries(5, store.ServerAuth, store.EmailProtection)
		order := []string{"NSS", "Debian"}
		if reverse {
			order = []string{"Debian", "NSS"}
		}
		for _, prov := range order {
			snap := store.NewSnapshot(prov, "v1", time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC))
			es := entries
			if reverse {
				es = append([]*store.TrustEntry(nil), entries...)
				for i, j := 0, len(es)-1; i < j; i, j = i+1, j-1 {
					es[i], es[j] = es[j], es[i]
				}
			}
			for _, e := range es {
				snap.Add(e.Clone())
			}
			if err := db.AddSnapshot(snap); err != nil {
				t.Fatal(err)
			}
		}
		// Exercise the interner in a different order so the archive cannot
		// accidentally depend on runtime ID assignment.
		if reverse {
			db.Interner().ID(entries[3].Fingerprint)
		}
		return db
	}
	h1, err := HashDatabase(build(false))
	if err != nil {
		t.Fatal(err)
	}
	h2, err := HashDatabase(build(true))
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatalf("semantically equal databases hash differently: %x vs %x", h1[:8], h2[:8])
	}
}

func TestWriteFileOpenVerify(t *testing.T) {
	db := randomDatabase(t, rand.New(rand.NewSource(42)))
	path := filepath.Join(t.TempDir(), "corpus.rootpack")
	src := [HashLen]byte{9, 9, 9}
	hash, err := WriteFile(path, db, src)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.SourceHash() != src {
		t.Errorf("source hash %x, want %x", r.SourceHash(), src)
	}
	if r.ContentHash() != hash {
		t.Errorf("content hash %x, want %x", r.ContentHash(), hash)
	}
	if err := r.Verify(); err != nil {
		t.Fatalf("verify: %v", err)
	}
	got, err := r.Database()
	if err != nil {
		t.Fatal(err)
	}
	if err := Equal(db, got); err != nil {
		t.Fatal(err)
	}

	st, err := r.Stats()
	if err != nil {
		t.Fatal(err)
	}
	wantSections := 3
	for _, snap := range db.AllSnapshots() {
		if snap.Kind.Normalize() != store.KindTLS {
			wantSections = 4
			break
		}
	}
	if st.UniqueCerts == 0 || st.Snapshots != db.TotalSnapshots() || len(st.Sections) != wantSections {
		t.Errorf("stats = %+v", st)
	}
	if st.TotalEntries < st.UniqueCerts || st.DedupRatio() < 1 {
		t.Errorf("dedup ratio %f (entries %d, uniq %d)", st.DedupRatio(), st.TotalEntries, st.UniqueCerts)
	}

	// One flipped byte mid-file: Open or Verify refuses it as corrupt.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	mr, err := Open(path)
	if err == nil {
		err = mr.Verify()
		mr.Close()
	}
	if !IsCorrupt(err) {
		t.Errorf("flipped byte: Open/Verify error %v, want corrupt", err)
	}
}

// TestInternerAlignment proves the promise the fingerprint table makes:
// IDs in a rootpack-loaded database match table order, so bitsets are
// ID-compatible with the archive.
func TestInternerAlignment(t *testing.T) {
	db := randomDatabase(t, rand.New(rand.NewSource(7)))
	data, _ := encodeToBytes(t, db)
	r, err := NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Database()
	if err != nil {
		t.Fatal(err)
	}
	in := got.Interner()
	for id := 0; id < in.Len(); id++ {
		fp, ok := in.FingerprintOf(uint32(id))
		if !ok {
			t.Fatalf("no fingerprint for id %d", id)
		}
		if back := in.ID(fp); back != uint32(id) {
			t.Fatalf("id %d round-trips to %d", id, back)
		}
		if id > 0 {
			prev, _ := in.FingerprintOf(uint32(id - 1))
			if prev.Compare(fp) >= 0 {
				t.Fatalf("interner ids not in fingerprint order at %d", id)
			}
		}
	}
}

// TestCorruptedSectionsNeverPartiallyLoad flips a byte inside every
// section and in the footer: each mutation must be detected as corruption
// — never a silent partial load.
func TestCorruptedSectionsNeverPartiallyLoad(t *testing.T) {
	db := randomDatabase(t, rand.New(rand.NewSource(3)))
	data, _ := encodeToBytes(t, db)
	r, err := NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	clean, err := r.Database()
	if err != nil {
		t.Fatal(err)
	}

	for _, m := range r.sections {
		for _, at := range []int64{m.offset, m.offset + m.length/2, m.offset + m.length - 1} {
			mut := append([]byte(nil), data...)
			mut[at] ^= 0x40
			got, err := decodeBytes(mut)
			if err == nil {
				// A flipped byte must not yield a different database; the
				// only legal non-error outcome is... none: checksums make
				// any payload change detectable.
				t.Errorf("%s: flip at %d: decode succeeded (entries=%d, clean=%d)",
					sectionName(m.id), at, got.TotalSnapshots(), clean.TotalSnapshots())
				continue
			}
			if !IsCorrupt(err) {
				t.Errorf("%s: flip at %d: error not marked corrupt: %v", sectionName(m.id), at, err)
			}
		}
	}

	// Truncations at every interesting boundary.
	for _, n := range []int{0, 3, len(magic) + 4, len(data) / 2, len(data) - 1} {
		if _, err := decodeBytes(data[:n]); err == nil {
			t.Errorf("truncation to %d bytes decoded successfully", n)
		}
	}

	// Header magic and trailer mutations.
	for _, at := range []int{0, len(data) - 1, len(data) - trailerLen} {
		mut := append([]byte(nil), data...)
		mut[at] ^= 0xFF
		if _, err := decodeBytes(mut); err == nil {
			t.Errorf("flip at %d (header/trailer) decoded successfully", at)
		}
	}
}

func TestEqualDetectsDifferences(t *testing.T) {
	// base files three entries, after change edits them: filed entries
	// are immutable.
	base := func(change func([]*store.TrustEntry)) *store.Database {
		db := store.NewDatabase()
		snap := store.NewSnapshot("NSS", "v1", time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC))
		entries := testcerts.Entries(3, store.ServerAuth)
		change(entries)
		for _, e := range entries {
			snap.Add(e)
		}
		if err := db.AddSnapshot(snap); err != nil {
			t.Fatal(err)
		}
		return db
	}
	same := func([]*store.TrustEntry) {}
	a := base(same)
	if err := Equal(a, base(same)); err != nil {
		t.Fatalf("identical databases unequal: %v", err)
	}

	b := base(func(es []*store.TrustEntry) { es[0].SetTrust(store.CodeSigning, store.Trusted) })
	if Equal(a, b) == nil {
		t.Error("trust-level difference not detected")
	}

	c := base(func(es []*store.TrustEntry) {
		es[1].SetDistrustAfter(store.ServerAuth, time.Date(2021, 5, 1, 0, 0, 0, 0, time.UTC))
	})
	if Equal(a, c) == nil {
		t.Error("distrust-after difference not detected")
	}

	d := base(func(es []*store.TrustEntry) { es[2].Label = "renamed" })
	if Equal(a, d) == nil {
		t.Error("label difference not detected")
	}
}
