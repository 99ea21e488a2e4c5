// Package archive implements the rootpack format: a deterministic,
// content-addressed binary snapshot archive that compiles a whole
// store.Database into one file a reader can reopen in milliseconds.
//
// The paper's pipeline ingests hundreds of snapshots from slow native
// formats (certdata.txt PKCS#11 text, authroot.stl ASN.1, JKS keystores,
// PEM bundles). Every process start and every watch-triggered reload used
// to re-run those parsers over the full tree. A rootpack turns that parse
// problem into an I/O problem by exploiting the paper's own dedup insight:
// most roots are shared across stores, so the certificate universe is far
// smaller than the sum of snapshots. The format therefore stores each
// distinct DER exactly once and lets every snapshot reference it by a
// dense ID.
//
// # Layout
//
//	header   magic "RPK1" + format version (u32 LE)
//	section  1: cert pool      — deduped DER blobs, sorted by SHA-256
//	section  2: fingerprints   — the 32-byte SHA-256 of pool entry i at
//	                             offset 32*i; table order IS the interner
//	                             ID order the reader reconstructs
//	section  3: snapshots      — per provider (sorted), per snapshot (date
//	                             order): version, date, membership bitset,
//	                             labels, per-(purpose, level) trust-matrix
//	                             bitsets, sparse distrust-after dates
//	section  4: kinds (optional) — per-snapshot ecosystem kind, present
//	                             only when some snapshot is non-TLS; see
//	                             sectionKinds
//	footer   section table (id, offset, length, SHA-256 each), the source
//	         tree hash, the whole-archive content hash, footer length,
//	         trailer magic "1KPR"
//
// All integers are little-endian; counts and string/blob lengths are
// unsigned varints; bitsets are serialized as their packed 64-bit words
// (internal/bitset.Words). IDs in the snapshot section index the cert
// pool, which is exactly the interner ID space of the reconstructed
// database: the reader pre-interns the fingerprint table in order, so
// bitsets computed over a rootpack-loaded database are ID-compatible with
// the table.
//
// # Determinism and integrity
//
// Encoding is a pure function of the database's semantic content (sorted
// providers, date-ordered histories, fingerprint-sorted entries, trust
// levels, distrust-after instants, labels): semantically equal databases
// produce byte-identical archives, which makes the footer's content hash a
// usable cache key (catalog sidecars, HTTP ETags). Every section carries
// its own SHA-256; the reader refuses to materialize anything from a
// section whose checksum fails — a stale or torn archive is detected,
// never trusted, and never partially loaded.
//
// The reader is lazy: Open reads only the fixed-size trailer and footer
// (microseconds on any archive), and sections are fetched and verified on
// first use. Database parses each distinct certificate once and shares the
// *x509.Certificate and DER across every snapshot that references it.
package archive

import "fmt"

// Format constants. Bump formatVersion on any wire change; readers reject
// versions they do not understand rather than guessing.
const (
	magic         = "RPK1"
	trailerMagic  = "1KPR"
	formatVersion = 1

	sectionCertPool     = 1
	sectionFingerprints = 2
	sectionSnapshots    = 3
	// sectionKinds carries each snapshot's ecosystem kind (tls | ct |
	// manifest), parallel to the snapshot section's (provider, snapshot)
	// order. It is OPTIONAL on both sides: the writer emits it only when
	// some snapshot has a non-TLS kind — so a pure-TLS database encodes to
	// the exact bytes it always has (same content hash, same ETag) — and a
	// reader that meets an archive without it defaults every snapshot to
	// KindTLS. Readers tolerate section IDs they do not know, which is what
	// lets archives written before this section existed keep loading.
	sectionKinds = 4
)

// HashLen is the byte length of every checksum and content hash in the
// format (SHA-256).
const HashLen = 32

// sectionName renders a section ID for inspect output and errors.
func sectionName(id uint32) string {
	switch id {
	case sectionCertPool:
		return "cert-pool"
	case sectionFingerprints:
		return "fingerprints"
	case sectionSnapshots:
		return "snapshots"
	case sectionKinds:
		return "kinds"
	}
	return fmt.Sprintf("section-%d", id)
}

// SectionInfo describes one section for Stats and `rootpack inspect`.
type SectionInfo struct {
	ID     uint32 `json:"id"`
	Name   string `json:"name"`
	Offset int64  `json:"offset"`
	Length int64  `json:"length"`
	SHA256 string `json:"sha256"`
}

// ProviderStats is one provider's row in Stats.
type ProviderStats struct {
	Name      string `json:"name"`
	Snapshots int    `json:"snapshots"`
	Entries   int    `json:"entries"`
}

// Stats summarizes an archive: what `rootpack inspect` prints.
type Stats struct {
	FormatVersion uint32          `json:"format_version"`
	FileSize      int64           `json:"file_size"`
	Sections      []SectionInfo   `json:"sections"`
	UniqueCerts   int             `json:"unique_certs"`
	PoolBytes     int64           `json:"pool_bytes"`
	TotalEntries  int             `json:"total_entries"`
	Snapshots     int             `json:"snapshots"`
	Providers     []ProviderStats `json:"providers"`
	SourceHash    string          `json:"source_hash"`
	ContentHash   string          `json:"content_hash"`
}

// DedupRatio is total trust entries per distinct certificate — the factor
// by which content addressing shrinks the cert payload.
func (s *Stats) DedupRatio() float64 {
	if s.UniqueCerts == 0 {
		return 0
	}
	return float64(s.TotalEntries) / float64(s.UniqueCerts)
}

// corruptError marks integrity failures (bad magic, checksum mismatch,
// malformed section) as opposed to I/O errors.
type corruptError struct{ msg string }

func (e *corruptError) Error() string { return "archive: corrupt: " + e.msg }

func corruptf(format string, args ...any) error {
	return &corruptError{msg: fmt.Sprintf(format, args...)}
}

// IsCorrupt reports whether err marks a damaged or inconsistent archive
// (as opposed to an I/O failure). Callers use it to fall back to native
// parsing instead of surfacing a broken sidecar as a hard error.
func IsCorrupt(err error) bool {
	for err != nil {
		if _, ok := err.(*corruptError); ok {
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}
