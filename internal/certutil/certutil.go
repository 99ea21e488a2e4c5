// Package certutil provides certificate inspection helpers shared by every
// root-store codec and analysis stage: stable fingerprints, signature and
// key-strength classification, distinguished-name rendering, and validity
// arithmetic.
//
// The package deliberately works on parsed *x509.Certificate values plus raw
// DER so that stores holding certificates the standard library cannot fully
// validate (MD5-signed roots, ancient encodings) can still be fingerprinted
// and classified.
package certutil

import (
	"bytes"
	"crypto/ecdsa"
	"crypto/ed25519"
	"crypto/md5"
	"crypto/rsa"
	"crypto/sha1"
	"crypto/sha256"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"time"
)

// Fingerprint is the SHA-256 digest of a certificate's DER encoding. It is
// the canonical identity of a trust anchor throughout this codebase, matching
// the paper's use of certificate hashes to track roots across stores.
type Fingerprint [sha256.Size]byte

// SHA256Fingerprint computes the canonical fingerprint of raw DER bytes.
func SHA256Fingerprint(der []byte) Fingerprint {
	return sha256.Sum256(der)
}

// String renders the fingerprint as lowercase hex.
func (f Fingerprint) String() string { return hex.EncodeToString(f[:]) }

// Compare orders fingerprints bytewise, returning -1, 0 or +1. Byte order
// is lowercase-hex order, so sorting by Compare sorts by String without
// encoding anything.
func (f Fingerprint) Compare(g Fingerprint) int { return bytes.Compare(f[:], g[:]) }

// Short returns the first eight hex characters, the abbreviation style used
// in the paper's Appendix B tables (e.g. "beb00b30...").
func (f Fingerprint) Short() string { return hex.EncodeToString(f[:4]) }

// ParseFingerprint decodes a lowercase/uppercase hex fingerprint. It accepts
// optional colon separators as emitted by OpenSSL.
func ParseFingerprint(s string) (Fingerprint, error) {
	var f Fingerprint
	s = strings.ReplaceAll(strings.TrimSpace(s), ":", "")
	b, err := hex.DecodeString(s)
	if err != nil {
		return f, fmt.Errorf("certutil: invalid fingerprint %q: %w", s, err)
	}
	if len(b) != sha256.Size {
		return f, fmt.Errorf("certutil: fingerprint must be %d bytes, got %d", sha256.Size, len(b))
	}
	copy(f[:], b)
	return f, nil
}

// SHA1Hex returns the hex SHA-1 digest of DER bytes. Microsoft's
// authroot.stl identifies trust anchors by SHA-1 hash, so the codec needs it
// even though SHA-1 is obsolete for signatures.
func SHA1Hex(der []byte) string {
	sum := sha1.Sum(der)
	return hex.EncodeToString(sum[:])
}

// SHA1Sum returns the raw SHA-1 digest of DER bytes.
func SHA1Sum(der []byte) [sha1.Size]byte { return sha1.Sum(der) }

// MD5Hex returns the hex MD5 digest of DER bytes; NSS trust objects carry MD5
// hashes of the certificate for legacy identification.
func MD5Hex(der []byte) string {
	sum := md5.Sum(der)
	return hex.EncodeToString(sum[:])
}

// KeyClass summarizes the public-key algorithm and strength of a certificate
// in the categories the paper's hygiene analysis uses (Table 3 tracks the
// purge of 1024-bit RSA roots).
type KeyClass struct {
	Algorithm string // "RSA", "ECDSA", "Ed25519", "DSA", "Unknown"
	Bits      int    // modulus size for RSA, curve size for ECDSA
}

// String renders e.g. "RSA-1024" or "ECDSA-256".
func (k KeyClass) String() string {
	if k.Bits == 0 {
		return k.Algorithm
	}
	return fmt.Sprintf("%s-%d", k.Algorithm, k.Bits)
}

// WeakRSA reports whether the key is RSA with a modulus of 1024 bits or
// fewer, the class of roots whose removal dates Table 3 reports.
func (k KeyClass) WeakRSA() bool { return k.Algorithm == "RSA" && k.Bits > 0 && k.Bits <= 1024 }

// ClassifyKey inspects a certificate's public key.
func ClassifyKey(cert *x509.Certificate) KeyClass {
	switch pub := cert.PublicKey.(type) {
	case *rsa.PublicKey:
		return KeyClass{Algorithm: "RSA", Bits: pub.N.BitLen()}
	case *ecdsa.PublicKey:
		return KeyClass{Algorithm: "ECDSA", Bits: pub.Curve.Params().BitSize}
	case ed25519.PublicKey:
		return KeyClass{Algorithm: "Ed25519", Bits: 256}
	default:
		switch cert.PublicKeyAlgorithm {
		case x509.DSA:
			return KeyClass{Algorithm: "DSA"}
		default:
			return KeyClass{Algorithm: "Unknown"}
		}
	}
}

// SignatureDigest identifies the hash family of a certificate signature in
// the buckets the hygiene analysis cares about.
type SignatureDigest int

// Digest families ordered from weakest to strongest.
const (
	DigestUnknown SignatureDigest = iota
	DigestMD2
	DigestMD5
	DigestSHA1
	DigestSHA256
	DigestSHA384
	DigestSHA512
)

var digestNames = map[SignatureDigest]string{
	DigestUnknown: "unknown",
	DigestMD2:     "MD2",
	DigestMD5:     "MD5",
	DigestSHA1:    "SHA-1",
	DigestSHA256:  "SHA-256",
	DigestSHA384:  "SHA-384",
	DigestSHA512:  "SHA-512",
}

// String returns the conventional name of the digest family.
func (d SignatureDigest) String() string {
	if s, ok := digestNames[d]; ok {
		return s
	}
	return "unknown"
}

// Weak reports whether the digest is MD2, MD5 or unknown — families that the
// root programs purged (Table 3 tracks MD5 removal dates). SHA-1 is reported
// separately because programs retired it on a different schedule.
func (d SignatureDigest) Weak() bool { return d == DigestMD2 || d == DigestMD5 }

// ClassifySignature maps an x509 signature algorithm to its digest family.
func ClassifySignature(alg x509.SignatureAlgorithm) SignatureDigest {
	switch alg {
	case x509.MD2WithRSA:
		return DigestMD2
	case x509.MD5WithRSA:
		return DigestMD5
	case x509.SHA1WithRSA, x509.DSAWithSHA1, x509.ECDSAWithSHA1:
		return DigestSHA1
	case x509.SHA256WithRSA, x509.DSAWithSHA256, x509.ECDSAWithSHA256, x509.SHA256WithRSAPSS:
		return DigestSHA256
	case x509.SHA384WithRSA, x509.ECDSAWithSHA384, x509.SHA384WithRSAPSS:
		return DigestSHA384
	case x509.SHA512WithRSA, x509.ECDSAWithSHA512, x509.SHA512WithRSAPSS:
		return DigestSHA512
	default:
		return DigestUnknown
	}
}

// ExpiredAt reports whether the certificate's validity window has closed at
// the given instant.
func ExpiredAt(cert *x509.Certificate, at time.Time) bool {
	return at.After(cert.NotAfter)
}

// ValidAt reports whether the instant falls inside the validity window.
func ValidAt(cert *x509.Certificate, at time.Time) bool {
	return !at.Before(cert.NotBefore) && !at.After(cert.NotAfter)
}

// SubjectString renders a pkix.Name deterministically: RDNs in a fixed
// attribute order with sorted multi-valued attributes, so store diffs are
// stable across parse/serialize round trips.
func SubjectString(name pkix.Name) string {
	var parts []string
	add := func(label string, values []string) {
		vals := append([]string(nil), values...)
		sort.Strings(vals)
		for _, v := range vals {
			parts = append(parts, label+"="+v)
		}
	}
	add("C", name.Country)
	add("ST", name.Province)
	add("L", name.Locality)
	add("O", name.Organization)
	add("OU", name.OrganizationalUnit)
	if name.CommonName != "" {
		parts = append(parts, "CN="+name.CommonName)
	}
	if name.SerialNumber != "" {
		parts = append(parts, "SN="+name.SerialNumber)
	}
	return strings.Join(parts, ", ")
}

// DisplayName returns the friendliest short label for a certificate: the
// subject CN if present, otherwise the first organization, otherwise the
// full subject string.
func DisplayName(cert *x509.Certificate) string {
	if cert.Subject.CommonName != "" {
		return cert.Subject.CommonName
	}
	if len(cert.Subject.Organization) > 0 {
		return cert.Subject.Organization[0]
	}
	return SubjectString(cert.Subject)
}

// IsSelfIssued reports whether subject and issuer match byte-for-byte on the
// raw DER, the standard test for a root candidate.
func IsSelfIssued(cert *x509.Certificate) bool {
	return string(cert.RawSubject) == string(cert.RawIssuer)
}

// ValidityYears returns the length of the validity window in fractional
// years (365.25-day years).
func ValidityYears(cert *x509.Certificate) float64 {
	return cert.NotAfter.Sub(cert.NotBefore).Hours() / (24 * 365.25)
}

// Summary is a compact single-line description used by CLI tools and logs.
func Summary(cert *x509.Certificate) string {
	return fmt.Sprintf("%s [%s, %s, %s..%s]",
		DisplayName(cert),
		ClassifyKey(cert),
		ClassifySignature(cert.SignatureAlgorithm),
		cert.NotBefore.Format("2006-01-02"),
		cert.NotAfter.Format("2006-01-02"))
}
