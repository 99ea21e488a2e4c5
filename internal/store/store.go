// Package store defines the unified trust-anchor model every root-store
// codec parses into and every analysis stage consumes: trust entries with
// per-purpose trust levels and partial-distrust dates, dated snapshots,
// per-provider histories, and a multi-provider database.
//
// The model mirrors the paper's data design (§3.1): a *snapshot* is one root
// store at one point in time; each snapshot is a collection of *trust
// entries* pairing a certificate with any additional trust or distrust
// constraints (as NSS and Microsoft provide). Formats that cannot express
// constraints (PEM bundles, JKS, node_root_certs.h) simply produce entries
// whose every purpose is plainly Trusted — which is exactly the fidelity
// loss §6 of the paper investigates.
package store

import (
	"crypto/x509"
	"fmt"
	"strings"
	"time"

	"repro/internal/certutil"
)

// Purpose is a trust purpose a root can be trusted for. The paper considers
// the three NSS purposes plus timestamping (which NSS never supported but
// NuGet infamously assumed, §7).
type Purpose uint8

// Trust purposes.
const (
	ServerAuth Purpose = iota
	EmailProtection
	CodeSigning
	TimeStamping
	numPurposes
)

// AllPurposes lists every purpose in stable order.
var AllPurposes = []Purpose{ServerAuth, EmailProtection, CodeSigning, TimeStamping}

var purposeNames = [...]string{"server-auth", "email-protection", "code-signing", "time-stamping"}

// String returns the kebab-case purpose name.
func (p Purpose) String() string {
	if int(p) < len(purposeNames) {
		return purposeNames[p]
	}
	return fmt.Sprintf("purpose(%d)", uint8(p))
}

// ParsePurpose is the inverse of String.
func ParsePurpose(s string) (Purpose, error) {
	for i, n := range purposeNames {
		if n == s {
			return Purpose(i), nil
		}
	}
	return 0, fmt.Errorf("store: unknown purpose %q", s)
}

// TrustLevel is the trust a store assigns a root for one purpose, matching
// NSS's three levels (trusted delegator, must verify, not trusted).
type TrustLevel uint8

// Trust levels. The zero value Unspecified means the store says nothing for
// the purpose, which formats without trust metadata produce for non-TLS
// purposes.
const (
	Unspecified TrustLevel = iota
	Trusted
	MustVerify
	Distrusted
)

var levelNames = [...]string{"unspecified", "trusted", "must-verify", "distrusted"}

// String returns the kebab-case level name.
func (l TrustLevel) String() string {
	if int(l) < len(levelNames) {
		return levelNames[l]
	}
	return fmt.Sprintf("level(%d)", uint8(l))
}

// ParseTrustLevel is the inverse of String.
func ParseTrustLevel(s string) (TrustLevel, error) {
	for i, n := range levelNames {
		if n == s {
			return TrustLevel(i), nil
		}
	}
	return 0, fmt.Errorf("store: unknown trust level %q", s)
}

// TrustEntry pairs a root certificate with the store's trust decisions.
type TrustEntry struct {
	// DER is the certificate's raw encoding; Cert the parsed form.
	DER  []byte
	Cert *x509.Certificate
	// Fingerprint is the SHA-256 of DER, the entry's identity.
	Fingerprint certutil.Fingerprint
	// Label is the store's human-readable name for the root (CKA_LABEL,
	// JKS alias, file name); may be empty.
	Label string
	// Trust holds the per-purpose trust level. Missing keys mean
	// Unspecified.
	Trust map[Purpose]TrustLevel
	// DistrustAfter holds NSS-style partial distrust: certificates issued
	// by this root after the date are not trusted for the purpose, while
	// earlier issuance remains trusted (CKA_NSS_SERVER_DISTRUST_AFTER).
	DistrustAfter map[Purpose]time.Time
}

// NewEntry parses DER and returns an entry with no trust decisions attached.
func NewEntry(der []byte) (*TrustEntry, error) {
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		return nil, fmt.Errorf("store: parse certificate: %w", err)
	}
	return &TrustEntry{
		DER:         append([]byte(nil), der...),
		Cert:        cert,
		Fingerprint: certutil.SHA256Fingerprint(der),
		Label:       certutil.DisplayName(cert),
		Trust:       make(map[Purpose]TrustLevel),
	}, nil
}

// NewTrustedEntry parses DER and marks it Trusted for the given purposes —
// the semantics of a bare certificate list like a PEM bundle.
func NewTrustedEntry(der []byte, purposes ...Purpose) (*TrustEntry, error) {
	e, err := NewEntry(der)
	if err != nil {
		return nil, err
	}
	for _, p := range purposes {
		e.Trust[p] = Trusted
	}
	return e, nil
}

// TrustFor returns the trust level for a purpose (Unspecified if absent).
func (e *TrustEntry) TrustFor(p Purpose) TrustLevel { return e.Trust[p] }

// SetTrust records a trust level for a purpose.
func (e *TrustEntry) SetTrust(p Purpose, l TrustLevel) {
	if e.Trust == nil {
		e.Trust = make(map[Purpose]TrustLevel)
	}
	e.Trust[p] = l
}

// SetDistrustAfter records a partial-distrust date for a purpose.
func (e *TrustEntry) SetDistrustAfter(p Purpose, t time.Time) {
	if e.DistrustAfter == nil {
		e.DistrustAfter = make(map[Purpose]time.Time)
	}
	e.DistrustAfter[p] = t
}

// DistrustAfterFor returns the partial-distrust date for a purpose, if any.
func (e *TrustEntry) DistrustAfterFor(p Purpose) (time.Time, bool) {
	t, ok := e.DistrustAfter[p]
	return t, ok
}

// TrustedFor reports whether the entry is a full trust anchor for the
// purpose. Partial distrust does not negate anchor status — the root stays
// in the store and older issuance is still accepted.
func (e *TrustEntry) TrustedFor(p Purpose) bool { return e.Trust[p] == Trusted }

// Clone deep-copies the entry (the parsed certificate is shared; it is
// immutable by convention).
func (e *TrustEntry) Clone() *TrustEntry {
	c := &TrustEntry{
		DER:         append([]byte(nil), e.DER...),
		Cert:        e.Cert,
		Fingerprint: e.Fingerprint,
		Label:       e.Label,
		Trust:       make(map[Purpose]TrustLevel, len(e.Trust)),
	}
	for p, l := range e.Trust {
		c.Trust[p] = l
	}
	if len(e.DistrustAfter) > 0 {
		c.DistrustAfter = make(map[Purpose]time.Time, len(e.DistrustAfter))
		for p, t := range e.DistrustAfter {
			c.DistrustAfter[p] = t
		}
	}
	return c
}

// String summarizes the entry for logs.
func (e *TrustEntry) String() string {
	var trusts []string
	for _, p := range AllPurposes {
		if l, ok := e.Trust[p]; ok && l != Unspecified {
			s := fmt.Sprintf("%s=%s", p, l)
			if t, ok := e.DistrustAfter[p]; ok {
				s += fmt.Sprintf("(distrust-after %s)", t.Format("2006-01-02"))
			}
			trusts = append(trusts, s)
		}
	}
	return fmt.Sprintf("%s %s [%s]", e.Fingerprint.Short(), e.Label, strings.Join(trusts, ", "))
}
