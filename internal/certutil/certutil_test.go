package certutil

import (
	"crypto/x509"
	"crypto/x509/pkix"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestFingerprintString(t *testing.T) {
	der := []byte("not-really-der-but-bytes")
	f := SHA256Fingerprint(der)
	if len(f.String()) != 64 {
		t.Fatalf("fingerprint hex length = %d, want 64", len(f.String()))
	}
	if len(f.Short()) != 8 {
		t.Fatalf("short fingerprint length = %d, want 8", len(f.Short()))
	}
	if !strings.HasPrefix(f.String(), f.Short()) {
		t.Fatalf("Short %q is not a prefix of String %q", f.Short(), f.String())
	}
}

func TestParseFingerprintRoundTrip(t *testing.T) {
	f := SHA256Fingerprint([]byte("abc"))
	got, err := ParseFingerprint(f.String())
	if err != nil {
		t.Fatalf("ParseFingerprint: %v", err)
	}
	if got != f {
		t.Fatalf("round trip mismatch: %v != %v", got, f)
	}
}

func TestParseFingerprintColons(t *testing.T) {
	f := SHA256Fingerprint([]byte("abc"))
	s := f.String()
	var withColons strings.Builder
	for i := 0; i < len(s); i += 2 {
		if i > 0 {
			withColons.WriteByte(':')
		}
		withColons.WriteString(s[i : i+2])
	}
	got, err := ParseFingerprint(withColons.String())
	if err != nil {
		t.Fatalf("ParseFingerprint with colons: %v", err)
	}
	if got != f {
		t.Fatal("colon-separated fingerprint did not round trip")
	}
}

func TestParseFingerprintErrors(t *testing.T) {
	cases := []string{"", "zz", "abcd", strings.Repeat("0", 63), strings.Repeat("0", 66)}
	for _, c := range cases {
		if _, err := ParseFingerprint(c); err == nil {
			t.Errorf("ParseFingerprint(%q) = nil error, want failure", c)
		}
	}
}

func TestFingerprintPropertyRoundTrip(t *testing.T) {
	prop := func(data []byte) bool {
		f := SHA256Fingerprint(data)
		back, err := ParseFingerprint(f.String())
		return err == nil && back == f
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// TestFingerprintCompareIsHexOrder pins the property the sorted snapshot
// relies on: bytewise order equals lowercase-hex string order.
func TestFingerprintCompareIsHexOrder(t *testing.T) {
	prop := func(a, b []byte) bool {
		fa, fb := SHA256Fingerprint(a), SHA256Fingerprint(b)
		return fa.Compare(fb) == strings.Compare(fa.String(), fb.String()) && fa.Compare(fa) == 0
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFingerprintUniqueness(t *testing.T) {
	prop := func(a, b []byte) bool {
		if string(a) == string(b) {
			return true
		}
		return SHA256Fingerprint(a) != SHA256Fingerprint(b)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDigestHexLengths(t *testing.T) {
	der := []byte{1, 2, 3}
	if got := len(SHA1Hex(der)); got != 40 {
		t.Errorf("SHA1Hex length = %d, want 40", got)
	}
	if got := len(MD5Hex(der)); got != 32 {
		t.Errorf("MD5Hex length = %d, want 32", got)
	}
}

func TestKeyClassString(t *testing.T) {
	cases := []struct {
		in   KeyClass
		want string
	}{
		{KeyClass{"RSA", 2048}, "RSA-2048"},
		{KeyClass{"ECDSA", 256}, "ECDSA-256"},
		{KeyClass{"DSA", 0}, "DSA"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("KeyClass%v.String() = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestWeakRSA(t *testing.T) {
	cases := []struct {
		in   KeyClass
		want bool
	}{
		{KeyClass{"RSA", 1024}, true},
		{KeyClass{"RSA", 512}, true},
		{KeyClass{"RSA", 2048}, false},
		{KeyClass{"ECDSA", 256}, false},
		{KeyClass{"RSA", 0}, false},
	}
	for _, c := range cases {
		if got := c.in.WeakRSA(); got != c.want {
			t.Errorf("WeakRSA(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestClassifySignature(t *testing.T) {
	cases := []struct {
		in   x509.SignatureAlgorithm
		want SignatureDigest
	}{
		{x509.MD2WithRSA, DigestMD2},
		{x509.MD5WithRSA, DigestMD5},
		{x509.SHA1WithRSA, DigestSHA1},
		{x509.ECDSAWithSHA1, DigestSHA1},
		{x509.SHA256WithRSA, DigestSHA256},
		{x509.ECDSAWithSHA256, DigestSHA256},
		{x509.SHA384WithRSA, DigestSHA384},
		{x509.SHA512WithRSA, DigestSHA512},
		{x509.UnknownSignatureAlgorithm, DigestUnknown},
	}
	for _, c := range cases {
		if got := ClassifySignature(c.in); got != c.want {
			t.Errorf("ClassifySignature(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestSignatureDigestWeak(t *testing.T) {
	if !DigestMD5.Weak() || !DigestMD2.Weak() {
		t.Error("MD2/MD5 should be weak")
	}
	if DigestSHA1.Weak() || DigestSHA256.Weak() {
		t.Error("SHA-1/SHA-256 should not be in the MD5-weak bucket")
	}
}

func TestSignatureDigestString(t *testing.T) {
	if DigestMD5.String() != "MD5" || DigestSHA256.String() != "SHA-256" {
		t.Errorf("unexpected digest names: %s %s", DigestMD5, DigestSHA256)
	}
	if SignatureDigest(99).String() != "unknown" {
		t.Error("out-of-range digest should render as unknown")
	}
}

func TestExpiryHelpers(t *testing.T) {
	nb := time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC)
	na := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	cert := &x509.Certificate{NotBefore: nb, NotAfter: na}
	if ExpiredAt(cert, nb.AddDate(1, 0, 0)) {
		t.Error("cert should not be expired mid-window")
	}
	if !ExpiredAt(cert, na.AddDate(0, 0, 1)) {
		t.Error("cert should be expired after NotAfter")
	}
	if !ValidAt(cert, nb) || !ValidAt(cert, na) {
		t.Error("window endpoints should be valid")
	}
	if ValidAt(cert, nb.AddDate(0, 0, -1)) {
		t.Error("before NotBefore should be invalid")
	}
	years := ValidityYears(cert)
	if years < 4.9 || years > 5.1 {
		t.Errorf("ValidityYears = %f, want ~5", years)
	}
}

func TestSubjectStringDeterministic(t *testing.T) {
	n := pkix.Name{
		Country:      []string{"US"},
		Organization: []string{"Zeta", "Alpha"},
		CommonName:   "Example Root CA",
	}
	got := SubjectString(n)
	want := "C=US, O=Alpha, O=Zeta, CN=Example Root CA"
	if got != want {
		t.Errorf("SubjectString = %q, want %q", got, want)
	}
	// Multi-valued attributes must sort regardless of input order.
	n2 := n
	n2.Organization = []string{"Alpha", "Zeta"}
	if SubjectString(n2) != got {
		t.Error("SubjectString not order-independent for multi-valued attributes")
	}
}

func TestDisplayName(t *testing.T) {
	cn := &x509.Certificate{Subject: pkix.Name{CommonName: "My Root", Organization: []string{"Org"}}}
	if DisplayName(cn) != "My Root" {
		t.Errorf("DisplayName CN = %q", DisplayName(cn))
	}
	orgOnly := &x509.Certificate{Subject: pkix.Name{Organization: []string{"Org Inc"}}}
	if DisplayName(orgOnly) != "Org Inc" {
		t.Errorf("DisplayName org = %q", DisplayName(orgOnly))
	}
	empty := &x509.Certificate{}
	if DisplayName(empty) != "" {
		t.Errorf("DisplayName empty = %q", DisplayName(empty))
	}
}

func TestIsSelfIssued(t *testing.T) {
	same := &x509.Certificate{RawSubject: []byte{1, 2}, RawIssuer: []byte{1, 2}}
	diff := &x509.Certificate{RawSubject: []byte{1, 2}, RawIssuer: []byte{3}}
	if !IsSelfIssued(same) {
		t.Error("identical subject/issuer should be self-issued")
	}
	if IsSelfIssued(diff) {
		t.Error("different subject/issuer should not be self-issued")
	}
}
