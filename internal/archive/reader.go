package archive

// The rootpack reader. Open is lazy — it reads only the trailer and
// footer; sections are fetched and checksum-verified on first use, and
// Database materializes a fully equivalent store.Database without touching
// any native parser.

import (
	"bytes"
	"crypto/sha256"
	"crypto/x509"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"

	"repro/internal/bitset"
	"repro/internal/certutil"
	"repro/internal/store"
)

// trailerLen is the fixed tail every archive ends with: footer length
// (u64) + trailer magic.
const trailerLen = 8 + 4

type sectionMeta struct {
	id     uint32
	offset int64
	length int64
	sum    [HashLen]byte
}

// Reader is an open archive. It is safe for concurrent use once opened
// (reads are stateless ReadAt calls).
type Reader struct {
	r      io.ReaderAt
	size   int64
	closer io.Closer

	version     uint32
	sections    []sectionMeta
	sourceHash  [HashLen]byte
	contentHash [HashLen]byte
}

// Open opens the archive file and verifies its footer. Section payloads
// are not read until requested.
func Open(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("archive: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("archive: %w", err)
	}
	r, err := NewReader(f, fi.Size())
	if err != nil {
		f.Close()
		return nil, err
	}
	r.closer = f
	return r, nil
}

// NewReader opens an archive from any random-access byte source.
func NewReader(ra io.ReaderAt, size int64) (*Reader, error) {
	r := &Reader{r: ra, size: size}
	if err := r.readFooter(); err != nil {
		return nil, err
	}
	return r, nil
}

// Close releases the underlying file (no-op for NewReader sources).
func (r *Reader) Close() error {
	if r.closer != nil {
		return r.closer.Close()
	}
	return nil
}

// SourceHash returns the hash of the source tree the archive was compiled
// from (zero when the builder did not record one).
func (r *Reader) SourceHash() [HashLen]byte { return r.sourceHash }

// ContentHash returns the archive's own content hash from the footer.
func (r *Reader) ContentHash() [HashLen]byte { return r.contentHash }

// Version returns the archive's format version.
func (r *Reader) Version() uint32 { return r.version }

func (r *Reader) readFooter() error {
	if r.size < int64(len(magic))+4+trailerLen {
		return corruptf("file too small (%d bytes)", r.size)
	}
	tail := make([]byte, trailerLen)
	if _, err := r.r.ReadAt(tail, r.size-trailerLen); err != nil {
		return fmt.Errorf("archive: read trailer: %w", err)
	}
	if string(tail[8:]) != trailerMagic {
		return corruptf("bad trailer magic %q", tail[8:])
	}
	footerLen := int64(binary.LittleEndian.Uint64(tail[:8]))
	if footerLen < trailerLen || footerLen > r.size-int64(len(magic))-4 {
		return corruptf("implausible footer length %d", footerLen)
	}

	head := make([]byte, len(magic)+4)
	if _, err := r.r.ReadAt(head, 0); err != nil {
		return fmt.Errorf("archive: read header: %w", err)
	}
	if string(head[:len(magic)]) != magic {
		return corruptf("bad magic %q", head[:len(magic)])
	}
	r.version = binary.LittleEndian.Uint32(head[len(magic):])
	if r.version != formatVersion {
		return corruptf("unsupported format version %d (want %d)", r.version, formatVersion)
	}

	foot := make([]byte, footerLen-trailerLen)
	footStart := r.size - footerLen
	if _, err := r.r.ReadAt(foot, footStart); err != nil {
		return fmt.Errorf("archive: read footer: %w", err)
	}
	d := &dec{buf: foot}
	n := int(d.u32())
	if d.err == nil && n*(4+8+8+HashLen) > d.remaining() {
		return corruptf("section count %d exceeds footer size", n)
	}
	for i := 0; i < n && d.err == nil; i++ {
		var m sectionMeta
		m.id = d.u32()
		m.offset = int64(d.u64())
		m.length = int64(d.u64())
		copy(m.sum[:], d.take(HashLen))
		if d.err != nil {
			break
		}
		if m.offset < int64(len(magic)+4) || m.length < 0 || m.offset+m.length > footStart {
			return corruptf("%s extends outside file (offset %d, length %d)", sectionName(m.id), m.offset, m.length)
		}
		r.sections = append(r.sections, m)
	}
	copy(r.sourceHash[:], d.take(HashLen))
	copy(r.contentHash[:], d.take(HashLen))
	if d.err != nil {
		return d.err
	}
	if d.remaining() != 0 {
		return corruptf("%d trailing bytes in footer", d.remaining())
	}
	for _, want := range []uint32{sectionCertPool, sectionFingerprints, sectionSnapshots} {
		if _, err := r.section(want); err != nil {
			return err
		}
	}
	return nil
}

func (r *Reader) section(id uint32) (sectionMeta, error) {
	for _, m := range r.sections {
		if m.id == id {
			return m, nil
		}
	}
	return sectionMeta{}, corruptf("missing %s section", sectionName(id))
}

// loadSection reads and checksum-verifies one section's payload.
func (r *Reader) loadSection(id uint32) ([]byte, error) {
	m, err := r.section(id)
	if err != nil {
		return nil, err
	}
	data := make([]byte, m.length)
	if _, err := r.r.ReadAt(data, m.offset); err != nil {
		return nil, fmt.Errorf("archive: read %s: %w", sectionName(id), err)
	}
	if sum := sha256.Sum256(data); sum != m.sum {
		return nil, corruptf("%s checksum mismatch", sectionName(id))
	}
	return data, nil
}

// pool is the decoded cert universe: DER, parsed certificate and
// fingerprint per dense ID.
type pool struct {
	ders  [][]byte
	certs []*x509.Certificate
	fps   []certutil.Fingerprint
	bytes int64
}

func (r *Reader) loadPool() (*pool, error) {
	poolData, err := r.loadSection(sectionCertPool)
	if err != nil {
		return nil, err
	}
	fpData, err := r.loadSection(sectionFingerprints)
	if err != nil {
		return nil, err
	}

	fd := &dec{buf: fpData}
	nfp := fd.count(HashLen)
	fps := make([]certutil.Fingerprint, nfp)
	for i := range fps {
		copy(fps[i][:], fd.take(HashLen))
	}
	if fd.err != nil {
		return nil, fd.err
	}
	if fd.remaining() != 0 {
		return nil, corruptf("%d trailing bytes in fingerprint table", fd.remaining())
	}

	pd := &dec{buf: poolData}
	n := pd.count(1)
	if pd.err != nil {
		return nil, pd.err
	}
	if n != nfp {
		return nil, corruptf("cert pool holds %d certs but fingerprint table %d", n, nfp)
	}
	p := &pool{
		ders:  make([][]byte, n),
		certs: make([]*x509.Certificate, n),
		fps:   fps,
		bytes: int64(len(poolData)),
	}
	var prev certutil.Fingerprint
	for i := 0; i < n; i++ {
		der := pd.blob()
		if pd.err != nil {
			return nil, pd.err
		}
		// The fingerprint table is the ground truth the content address
		// promises: recomputing each digest verifies every DER byte.
		if got := certutil.SHA256Fingerprint(der); got != fps[i] {
			return nil, corruptf("cert %d hashes to %s, table says %s", i, got.Short(), fps[i].Short())
		}
		if i > 0 && prev.Compare(fps[i]) >= 0 {
			return nil, corruptf("cert pool not sorted at index %d", i)
		}
		prev = fps[i]
		cert, err := x509.ParseCertificate(der)
		if err != nil {
			return nil, corruptf("cert %d (%s): %v", i, fps[i].Short(), err)
		}
		p.ders[i] = der
		p.certs[i] = cert
	}
	if pd.remaining() != 0 {
		return nil, corruptf("%d trailing bytes in cert pool", pd.remaining())
	}
	return p, nil
}

// Database materializes the archived database: every snapshot, entry,
// trust level, label and distrust-after date, with each distinct
// certificate parsed once and shared. The database's interner is
// pre-populated in fingerprint-table order, so IDs match the archive's.
func (r *Reader) Database() (*store.Database, error) {
	db, _, err := r.decode()
	return db, err
}

// Stats decodes the archive's inventory: section sizes, dedup ratio,
// per-provider counts.
func (r *Reader) Stats() (*Stats, error) {
	_, st, err := r.decode()
	return st, err
}

func (r *Reader) decode() (*store.Database, *Stats, error) {
	p, err := r.loadPool()
	if err != nil {
		return nil, nil, err
	}
	snapData, err := r.loadSection(sectionSnapshots)
	if err != nil {
		return nil, nil, err
	}
	kinds, err := r.loadKinds()
	if err != nil {
		return nil, nil, err
	}

	st := &Stats{
		FormatVersion: r.version,
		FileSize:      r.size,
		UniqueCerts:   len(p.ders),
		PoolBytes:     p.bytes,
		SourceHash:    hex.EncodeToString(r.sourceHash[:]),
		ContentHash:   hex.EncodeToString(r.contentHash[:]),
	}
	for _, m := range r.sections {
		st.Sections = append(st.Sections, SectionInfo{
			ID:     m.id,
			Name:   sectionName(m.id),
			Offset: m.offset,
			Length: m.length,
			SHA256: hex.EncodeToString(m.sum[:]),
		})
	}
	sort.Slice(st.Sections, func(i, j int) bool { return st.Sections[i].ID < st.Sections[j].ID })

	db := store.NewDatabase()
	in := db.Interner()
	for _, fp := range p.fps {
		in.ID(fp)
	}

	d := &dec{buf: snapData}
	nProv := d.count(1)
	if kinds != nil && len(kinds) != nProv {
		return nil, nil, corruptf("kinds section lists %d providers, snapshot section has %d", len(kinds), nProv)
	}
	var prevName string
	for pi := 0; pi < nProv && d.err == nil; pi++ {
		name := d.str()
		if pi > 0 && name <= prevName {
			d.fail(corruptf("providers not sorted at %q", name))
			break
		}
		prevName = name
		nSnap := d.count(1)
		ps := ProviderStats{Name: name, Snapshots: nSnap}
		provKinds := kinds[name]
		if kinds != nil && len(provKinds) != nSnap {
			return nil, nil, corruptf("kinds section lists %d snapshots for %q, snapshot section has %d", len(provKinds), name, nSnap)
		}
		for si := 0; si < nSnap && d.err == nil; si++ {
			snap, entries := decodeSnapshot(d, name, p)
			if d.err != nil {
				break
			}
			if provKinds != nil {
				snap.Kind = provKinds[si]
			}
			ps.Entries += entries
			st.TotalEntries += entries
			st.Snapshots++
			if err := db.AddSnapshot(snap); err != nil {
				return nil, nil, fmt.Errorf("archive: %w", err)
			}
		}
		st.Providers = append(st.Providers, ps)
	}
	if d.err != nil {
		return nil, nil, d.err
	}
	if d.remaining() != 0 {
		return nil, nil, corruptf("%d trailing bytes in snapshot section", d.remaining())
	}
	return db, st, nil
}

// loadKinds decodes the optional kinds section into provider → per-snapshot
// kinds. A nil map (section absent — every archive written before the
// section existed) means all snapshots default to KindTLS.
func (r *Reader) loadKinds() (map[string][]store.Kind, error) {
	if _, err := r.section(sectionKinds); err != nil {
		return nil, nil // optional: absent is the all-TLS legacy layout
	}
	data, err := r.loadSection(sectionKinds)
	if err != nil {
		return nil, err
	}
	d := &dec{buf: data}
	nProv := d.count(1)
	kinds := make(map[string][]store.Kind, nProv)
	for pi := 0; pi < nProv && d.err == nil; pi++ {
		name := d.str()
		nSnap := d.count(1)
		ks := make([]store.Kind, 0, nSnap)
		for si := 0; si < nSnap && d.err == nil; si++ {
			k, err := store.ParseKind(d.str())
			if d.err == nil && err != nil {
				d.fail(corruptf("kinds section: %v", err))
			}
			ks = append(ks, k)
		}
		if _, dup := kinds[name]; dup {
			d.fail(corruptf("kinds section repeats provider %q", name))
		}
		kinds[name] = ks
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.remaining() != 0 {
		return nil, corruptf("%d trailing bytes in kinds section", d.remaining())
	}
	return kinds, nil
}

func decodeSnapshot(d *dec, provider string, p *pool) (*store.Snapshot, int) {
	version := d.str()
	date := d.instant()
	member := bitset.FromWords(d.words())
	nLabels := d.count(1)
	if d.err != nil {
		return nil, 0
	}
	ids := member.IDs()
	if len(ids) != nLabels {
		d.fail(corruptf("%s@%s: %d members but %d labels", provider, version, len(ids), nLabels))
		return nil, 0
	}

	snap := store.NewSnapshot(provider, version, date)
	entries := make([]*store.TrustEntry, len(ids))
	for i, id := range ids {
		if int(id) >= len(p.ders) {
			d.fail(corruptf("%s@%s: member id %d outside cert pool", provider, version, id))
			return nil, 0
		}
		entries[i] = &store.TrustEntry{
			DER:         p.ders[id],
			Cert:        p.certs[id],
			Fingerprint: p.fps[id],
			Label:       d.str(),
		}
	}

	// ids ascend (bitset order), so a member's entry is found by binary
	// search over them.
	for _, purpose := range store.AllPurposes {
		for _, level := range trustPlanes {
			plane := bitset.FromWords(d.words())
			if d.err != nil {
				return nil, 0
			}
			for _, id := range plane.IDs() {
				i, ok := slices.BinarySearch(ids, id)
				if !ok {
					d.fail(corruptf("%s@%s: %s/%s plane id %d is not a member", provider, version, purpose, level, id))
					return nil, 0
				}
				entries[i].SetTrust(purpose, level)
			}
		}
	}

	for _, purpose := range store.AllPurposes {
		n := d.count(1)
		for j := 0; j < n && d.err == nil; j++ {
			id := uint32(d.uvarint())
			cutoff := d.instant()
			i, ok := slices.BinarySearch(ids, id)
			if !ok {
				d.fail(corruptf("%s@%s: distrust-after id %d is not a member", provider, version, id))
				return nil, 0
			}
			entries[i].SetDistrustAfter(purpose, cutoff)
		}
	}
	if d.err != nil {
		return nil, 0
	}
	for _, e := range entries {
		snap.Add(e)
	}
	return snap, len(entries)
}

// ReadFile opens path and materializes its database in one call — the
// cold-start entry point cmd/trustd's -archive flag uses.
func ReadFile(path string) (*store.Database, error) {
	r, err := Open(path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	return r.Database()
}

// VerifyContentHash recomputes the whole-archive content hash from the
// underlying bytes and demands it match the footer's recorded hash. This
// is the cheap damage check a replica runs on a freshly downloaded blob
// before decoding it: any flipped or missing byte anywhere in the file —
// including a truncation that still leaves a parseable footer — moves the
// hash. It does not prove canonical encoding; Verify does.
func (r *Reader) VerifyContentHash() error {
	// Whole-content hash: everything before the content hash field itself.
	hashed := r.size - trailerLen - HashLen
	h := sha256.New()
	if _, err := io.Copy(h, io.NewSectionReader(r.r, 0, hashed)); err != nil {
		return fmt.Errorf("archive: verify: %w", err)
	}
	var got [HashLen]byte
	h.Sum(got[:0])
	if got != r.contentHash {
		return corruptf("content hash mismatch: file hashes to %x, footer says %x", got[:8], r.contentHash[:8])
	}
	return nil
}

// DatabaseHash returns the content hash the archive's database encodes to
// under a zero source hash — HashDatabase's value — from the file's bytes
// alone: the same stream with the footer's source hash zeroed. It checks
// the recorded content hash on the way, so a damaged file yields an error,
// never a wrong hash. The two agree whenever the archive is canonically
// encoded, as every archive this package writes is (Verify proves it for
// any other).
func (r *Reader) DatabaseHash() ([HashLen]byte, error) {
	var out [HashLen]byte
	prefix := r.size - trailerLen - 2*HashLen // everything before the source hash
	h := sha256.New()
	if _, err := io.Copy(h, io.NewSectionReader(r.r, 0, prefix)); err != nil {
		return out, fmt.Errorf("archive: database hash: %w", err)
	}
	out, err := forkSum(h, [HashLen]byte{})
	if err != nil {
		return out, err
	}
	h.Write(r.sourceHash[:])
	var content [HashLen]byte
	h.Sum(content[:0])
	if content != r.contentHash {
		return [HashLen]byte{}, corruptf("content hash mismatch: file hashes to %x, footer says %x", content[:8], r.contentHash[:8])
	}
	return out, nil
}

// Verify runs the full integrity audit `rootpack verify` performs:
// recompute the whole-archive content hash, checksum every section, decode
// the database, re-encode it, and demand the bytes round-trip to the same
// content hash — proving the archive is both undamaged and canonical.
func (r *Reader) Verify() error {
	if err := r.VerifyContentHash(); err != nil {
		return err
	}
	db, err := r.Database()
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	reHash, err := Encode(&buf, db, r.sourceHash)
	if err != nil {
		return fmt.Errorf("archive: verify re-encode: %w", err)
	}
	if reHash != r.contentHash {
		return corruptf("round-trip re-encode hashes to %x, archive is %x (non-canonical encoding)", reHash[:8], r.contentHash[:8])
	}
	return nil
}

// Equal reports whether two databases are semantically identical — same
// providers, snapshots (provider, version, date instant, normalized
// ecosystem kind), entries (DER,
// label, per-purpose trust levels and distrust-after instants). It returns
// nil when equal and a description of the first difference otherwise. This
// is the property the archive round-trip tests and `rootpack verify`
// assert.
func Equal(a, b *store.Database) error {
	ap, bp := a.Providers(), b.Providers()
	if len(ap) != len(bp) {
		return fmt.Errorf("provider count %d vs %d", len(ap), len(bp))
	}
	for i := range ap {
		if ap[i] != bp[i] {
			return fmt.Errorf("provider %q vs %q", ap[i], bp[i])
		}
		as, bs := a.History(ap[i]).Snapshots(), b.History(bp[i]).Snapshots()
		if len(as) != len(bs) {
			return fmt.Errorf("%s: %d snapshots vs %d", ap[i], len(as), len(bs))
		}
		for j := range as {
			if err := equalSnapshot(as[j], bs[j]); err != nil {
				return err
			}
		}
	}
	return nil
}

func equalSnapshot(a, b *store.Snapshot) error {
	if a.Provider != b.Provider || a.Version != b.Version || !a.Date.Equal(b.Date) {
		return fmt.Errorf("snapshot %s vs %s", a.Key(), b.Key())
	}
	if a.Kind.Normalize() != b.Kind.Normalize() {
		return fmt.Errorf("%s: kind %s vs %s", a.Key(), a.Kind.Normalize(), b.Kind.Normalize())
	}
	ae, be := a.Entries(), b.Entries()
	if len(ae) != len(be) {
		return fmt.Errorf("%s: %d entries vs %d", a.Key(), len(ae), len(be))
	}
	for i := range ae {
		x, y := ae[i], be[i]
		if x.Fingerprint != y.Fingerprint {
			return fmt.Errorf("%s: entry %d fingerprint %s vs %s", a.Key(), i, x.Fingerprint.Short(), y.Fingerprint.Short())
		}
		if !bytes.Equal(x.DER, y.DER) {
			return fmt.Errorf("%s: entry %s DER differs", a.Key(), x.Fingerprint.Short())
		}
		if x.Label != y.Label {
			return fmt.Errorf("%s: entry %s label %q vs %q", a.Key(), x.Fingerprint.Short(), x.Label, y.Label)
		}
		for _, p := range store.AllPurposes {
			if x.TrustFor(p) != y.TrustFor(p) {
				return fmt.Errorf("%s: entry %s %s trust %s vs %s", a.Key(), x.Fingerprint.Short(), p, x.TrustFor(p), y.TrustFor(p))
			}
			xc, xok := x.DistrustAfterFor(p)
			yc, yok := y.DistrustAfterFor(p)
			if xok != yok || (xok && !xc.Equal(yc)) {
				return fmt.Errorf("%s: entry %s %s distrust-after %v/%v vs %v/%v", a.Key(), x.Fingerprint.Short(), p, xc, xok, yc, yok)
			}
		}
	}
	return nil
}
