package archive

// The rootpack writer: compiles a store.Database into the deterministic
// archive layout described in the package comment.

import (
	"crypto/sha256"
	"encoding"
	"fmt"
	"hash"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/certutil"
	"repro/internal/store"
)

// trustPlanes are the per-purpose trust levels each snapshot serializes a
// bitset for, in wire order. Unspecified is the implicit complement
// (member of the snapshot, in no plane).
var trustPlanes = []store.TrustLevel{store.Trusted, store.MustVerify, store.Distrusted}

// Encode writes db as a rootpack to w and returns the archive's content
// hash. sourceHash identifies the source the database was compiled from
// (catalog.TreeHash for on-disk trees; zero when unknown) and is stored in
// the footer for staleness checks. Encoding is deterministic: semantically
// equal databases yield byte-identical archives.
func Encode(w io.Writer, db *store.Database, sourceHash [HashLen]byte) ([HashLen]byte, error) {
	hs, err := encodeHashes(w, db, sourceHash)
	return hs.Content, err
}

// Hashes are the two identities one encoding pass yields.
type Hashes struct {
	// Content is the archive's content hash, recorded in its footer; it
	// covers the source hash.
	Content [HashLen]byte
	// Database is the content hash the same database encodes to under a
	// zero source hash — HashDatabase's value, the serving layer's entity
	// tag — so a caller that compiles a sidecar learns the tag for free.
	Database [HashLen]byte
}

// encodeHashes is Encode returning both of the archive's hashes. The
// source hash is the last thing the content hash covers, so the database
// hash is a fork of the same SHA-256 state rather than a second encode.
func encodeHashes(w io.Writer, db *store.Database, sourceHash [HashLen]byte) (Hashes, error) {
	var hs Hashes
	pool, err := buildPool(db)
	if err != nil {
		return hs, err
	}

	sections := []struct {
		id   uint32
		data []byte
	}{
		{sectionCertPool, encodePool(pool)},
		{sectionFingerprints, encodeFingerprints(pool)},
		{sectionSnapshots, encodeSnapshots(db, pool)},
	}
	if kinds := encodeKinds(db); kinds != nil {
		sections = append(sections, struct {
			id   uint32
			data []byte
		}{sectionKinds, kinds})
	}

	h := sha256.New()
	tee := &countingTee{w: w, h: h}

	var hdr enc
	hdr.buf = append(hdr.buf, magic...)
	hdr.u32(formatVersion)
	if _, err := tee.Write(hdr.buf); err != nil {
		return hs, err
	}

	var table enc
	table.u32(uint32(len(sections)))
	for _, s := range sections {
		sum := sha256.Sum256(s.data)
		table.u32(s.id)
		table.u64(uint64(tee.n))
		table.u64(uint64(len(s.data)))
		table.buf = append(table.buf, sum[:]...)
		if _, err := tee.Write(s.data); err != nil {
			return hs, err
		}
	}
	footerLen := len(table.buf) + HashLen + HashLen + 8 + 4
	if _, err := tee.Write(table.buf); err != nil {
		return hs, err
	}
	if hs.Database, err = forkSum(h, [HashLen]byte{}); err != nil {
		return hs, err
	}
	if _, err := tee.Write(sourceHash[:]); err != nil {
		return hs, err
	}
	h.Sum(hs.Content[:0])

	var trailer enc
	trailer.buf = append(trailer.buf, hs.Content[:]...)
	trailer.u64(uint64(footerLen))
	trailer.buf = append(trailer.buf, trailerMagic...)
	if _, err := w.Write(trailer.buf); err != nil {
		return hs, err
	}
	return hs, nil
}

// forkSum returns the digest h would produce after also absorbing tail,
// leaving h itself untouched.
func forkSum(h hash.Hash, tail [HashLen]byte) ([HashLen]byte, error) {
	var out [HashLen]byte
	state, err := h.(encoding.BinaryMarshaler).MarshalBinary()
	if err != nil {
		return out, err
	}
	fork := sha256.New()
	if err := fork.(encoding.BinaryUnmarshaler).UnmarshalBinary(state); err != nil {
		return out, err
	}
	fork.Write(tail[:])
	fork.Sum(out[:0])
	return out, nil
}

// WriteFile encodes db to path atomically (temp file + rename in the same
// directory) and returns the content hash.
func WriteFile(path string, db *store.Database, sourceHash [HashLen]byte) ([HashLen]byte, error) {
	hs, err := writeFile(path, db, sourceHash)
	return hs.Content, err
}

func writeFile(path string, db *store.Database, sourceHash [HashLen]byte) (Hashes, error) {
	dir, base := filepath.Split(path)
	tmp, err := os.CreateTemp(dir, base+".tmp-*")
	if err != nil {
		return Hashes{}, fmt.Errorf("archive: %w", err)
	}
	defer os.Remove(tmp.Name())
	hs, err := encodeHashes(tmp, db, sourceHash)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return Hashes{}, fmt.Errorf("archive: write %s: %w", path, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return Hashes{}, fmt.Errorf("archive: %w", err)
	}
	return hs, nil
}

// HashDatabase returns the content hash db would encode to — the
// deterministic identity the serving layer uses as its ETag and the
// catalog compares sidecars by, computed without materializing the
// archive anywhere.
func HashDatabase(db *store.Database) ([HashLen]byte, error) {
	return Encode(io.Discard, db, [HashLen]byte{})
}

// poolEntry is one distinct certificate in pool (= interner ID) order.
type poolEntry struct {
	fp  certutil.Fingerprint
	der []byte
}

// buildPool collects the deduped, fingerprint-sorted cert universe. A
// certificate's pool index is its ID in the snapshot section.
func buildPool(db *store.Database) ([]poolEntry, error) {
	byFP := make(map[certutil.Fingerprint][]byte)
	for _, snap := range db.AllSnapshots() {
		for _, e := range snap.Entries() {
			if _, ok := byFP[e.Fingerprint]; ok {
				continue
			}
			if got := certutil.SHA256Fingerprint(e.DER); got != e.Fingerprint {
				return nil, fmt.Errorf("archive: entry %s in %s has DER hashing to %s",
					e.Fingerprint.Short(), snap.Key(), got.Short())
			}
			byFP[e.Fingerprint] = e.DER
		}
	}
	pool := make([]poolEntry, 0, len(byFP))
	for fp, der := range byFP {
		pool = append(pool, poolEntry{fp: fp, der: der})
	}
	sort.Slice(pool, func(i, j int) bool { return pool[i].fp.Compare(pool[j].fp) < 0 })
	return pool, nil
}

func encodePool(pool []poolEntry) []byte {
	var e enc
	e.uvarint(uint64(len(pool)))
	for _, p := range pool {
		e.blob(p.der)
	}
	return e.buf
}

func encodeFingerprints(pool []poolEntry) []byte {
	var e enc
	e.uvarint(uint64(len(pool)))
	for _, p := range pool {
		e.buf = append(e.buf, p.fp[:]...)
	}
	return e.buf
}

func encodeSnapshots(db *store.Database, pool []poolEntry) []byte {
	var e enc
	sc := newSnapshotScratch(len(pool))
	providers := db.Providers()
	e.uvarint(uint64(len(providers)))
	for _, name := range providers {
		snaps := db.History(name).Snapshots()
		e.str(name)
		e.uvarint(uint64(len(snaps)))
		for _, snap := range snaps {
			encodeSnapshot(&e, snap, pool, sc)
		}
	}
	return e.buf
}

// snapshotScratch is the per-snapshot working set encodeSnapshot reuses
// from one snapshot to the next: the membership plane, one plane per
// (purpose, trust level) in wire order, and each purpose's cutoffs.
type snapshotScratch struct {
	member  []uint64
	planes  [][]uint64 // purpose-major: planes[pi*len(trustPlanes)+li]
	cutoffs [][]cutoff // by purpose index
}

// cutoff is one partial-distrust date of the member with pool ID id.
type cutoff struct {
	id uint32
	at time.Time
}

func newSnapshotScratch(poolLen int) *snapshotScratch {
	n := (poolLen + 63) / 64
	sc := &snapshotScratch{
		member:  make([]uint64, n),
		planes:  make([][]uint64, len(store.AllPurposes)*len(trustPlanes)),
		cutoffs: make([][]cutoff, len(store.AllPurposes)),
	}
	for i := range sc.planes {
		sc.planes[i] = make([]uint64, n)
	}
	return sc
}

func encodeSnapshot(e *enc, snap *store.Snapshot, pool []poolEntry, sc *snapshotScratch) {
	e.str(snap.Version)
	e.instant(snap.Date)

	clear(sc.member)
	for _, plane := range sc.planes {
		clear(plane)
	}
	for pi := range sc.cutoffs {
		sc.cutoffs[pi] = sc.cutoffs[pi][:0]
	}

	// Snapshots keep their entries in fingerprint order and the pool is
	// in that same order, so one merge walk assigns every entry its pool
	// ID, ascending — labels, plane bits and cutoffs all line up by
	// construction. The pool holds every entry's fingerprint.
	entries := snap.Entries()
	id := 0
	for _, en := range entries {
		for pool[id].fp != en.Fingerprint {
			id++
		}
		word, bit := id/64, uint64(1)<<(id%64)
		sc.member[word] |= bit
		for pi, p := range store.AllPurposes {
			level := en.TrustFor(p)
			for li, l := range trustPlanes {
				if level == l {
					sc.planes[pi*len(trustPlanes)+li][word] |= bit
				}
			}
			if at, ok := en.DistrustAfterFor(p); ok {
				sc.cutoffs[pi] = append(sc.cutoffs[pi], cutoff{id: uint32(id), at: at})
			}
		}
	}

	e.words(trimWords(sc.member))
	e.uvarint(uint64(len(entries)))
	for _, en := range entries {
		e.str(en.Label)
	}
	for _, plane := range sc.planes {
		e.words(trimWords(plane))
	}
	for _, cs := range sc.cutoffs {
		e.uvarint(uint64(len(cs)))
		for _, c := range cs {
			e.uvarint(uint64(c.id))
			e.instant(c.at)
		}
	}
}

// trimWords drops trailing zero words: the canonical wire form of a plane
// (bitset.Words's).
func trimWords(ws []uint64) []uint64 {
	n := len(ws)
	for n > 0 && ws[n-1] == 0 {
		n--
	}
	return ws[:n]
}

// encodeKinds serializes the per-snapshot ecosystem kinds, mirroring the
// snapshot section's (sorted provider, date-ordered snapshot) walk. It
// returns nil when every snapshot is KindTLS: the section is omitted
// entirely so pure-TLS databases keep producing the exact archives (and
// content hashes) they did before kinds existed.
func encodeKinds(db *store.Database) []byte {
	any := false
	for _, snap := range db.AllSnapshots() {
		if snap.Kind.Normalize() != store.KindTLS {
			any = true
			break
		}
	}
	if !any {
		return nil
	}
	var e enc
	providers := db.Providers()
	e.uvarint(uint64(len(providers)))
	for _, name := range providers {
		snaps := db.History(name).Snapshots()
		e.str(name)
		e.uvarint(uint64(len(snaps)))
		for _, snap := range snaps {
			e.str(string(snap.Kind.Normalize()))
		}
	}
	return e.buf
}

// countingTee forwards writes to w, feeds the running content hash, and
// tracks the byte offset for the section table.
type countingTee struct {
	w io.Writer
	h hash.Hash
	n int64
}

func (t *countingTee) Write(p []byte) (int, error) {
	t.h.Write(p)
	n, err := t.w.Write(p)
	t.n += int64(n)
	return n, err
}
