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

	"repro/internal/bitset"
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
	pool, ids, err := buildPool(db)
	if err != nil {
		return hs, err
	}

	sections := []struct {
		id   uint32
		data []byte
	}{
		{sectionCertPool, encodePool(pool)},
		{sectionFingerprints, encodeFingerprints(pool)},
		{sectionSnapshots, encodeSnapshots(db, ids)},
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

// buildPool collects the deduped, fingerprint-sorted cert universe and the
// fingerprint → dense ID map the snapshot section indexes by.
func buildPool(db *store.Database) ([]poolEntry, map[certutil.Fingerprint]uint32, error) {
	byFP := make(map[certutil.Fingerprint][]byte)
	for _, snap := range db.AllSnapshots() {
		for _, e := range snap.Entries() {
			if _, ok := byFP[e.Fingerprint]; ok {
				continue
			}
			if got := certutil.SHA256Fingerprint(e.DER); got != e.Fingerprint {
				return nil, nil, fmt.Errorf("archive: entry %s in %s has DER hashing to %s",
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
	ids := make(map[certutil.Fingerprint]uint32, len(pool))
	for i, p := range pool {
		ids[p.fp] = uint32(i)
	}
	return pool, ids, nil
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

func encodeSnapshots(db *store.Database, ids map[certutil.Fingerprint]uint32) []byte {
	var e enc
	providers := db.Providers()
	e.uvarint(uint64(len(providers)))
	for _, name := range providers {
		snaps := db.History(name).Snapshots()
		e.str(name)
		e.uvarint(uint64(len(snaps)))
		for _, snap := range snaps {
			encodeSnapshot(&e, snap, ids)
		}
	}
	return e.buf
}

func encodeSnapshot(e *enc, snap *store.Snapshot, ids map[certutil.Fingerprint]uint32) {
	e.str(snap.Version)
	e.instant(snap.Date)

	// Snapshots keep their entries in fingerprint order and the pool
	// assigns IDs in that same order, so iterating entries is iterating
	// ascending IDs — labels and bitset members line up by construction.
	entries := snap.Entries()
	member := bitset.New(len(ids))
	for _, en := range entries {
		member.Add(ids[en.Fingerprint])
	}
	e.words(member.Words())
	e.uvarint(uint64(len(entries)))
	for _, en := range entries {
		e.str(en.Label)
	}

	for _, p := range store.AllPurposes {
		for _, level := range trustPlanes {
			plane := bitset.New(len(ids))
			for _, en := range entries {
				if en.TrustFor(p) == level {
					plane.Add(ids[en.Fingerprint])
				}
			}
			e.words(plane.Words())
		}
	}

	for _, p := range store.AllPurposes {
		var n uint64
		for _, en := range entries {
			if _, ok := en.DistrustAfterFor(p); ok {
				n++
			}
		}
		e.uvarint(n)
		for _, en := range entries {
			if cutoff, ok := en.DistrustAfterFor(p); ok {
				e.uvarint(uint64(ids[en.Fingerprint]))
				e.instant(cutoff)
			}
		}
	}
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
