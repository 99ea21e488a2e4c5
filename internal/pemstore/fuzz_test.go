package pemstore

import (
	"bytes"
	"testing"

	"repro/internal/store"
	"repro/internal/testcerts"
)

// FuzzParseBundle drives arbitrary bytes through the PEM bundle parser.
// The invariants: never panic, and an accepted bundle re-emits
// (BundleBytes) and re-parses to the same certificates in the same order
// with the same trust.
func FuzzParseBundle(f *testing.F) {
	bundle, err := BundleBytes(testcerts.Entries(3, store.ServerAuth))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(bundle)
	f.Add(append([]byte("-----BEGIN PUBLIC KEY-----\nAAAA\n-----END PUBLIC KEY-----\n"), bundle...))
	f.Add(append(append([]byte(nil), bundle...), "\nthis is not pem\n"...))
	f.Add([]byte("-----BEGIN CERTIFICATE-----\nAAAA\n-----END CERTIFICATE-----\n"))
	f.Add([]byte(""))

	f.Fuzz(func(t *testing.T, data []byte) {
		entries, err := ParseBundle(bytes.NewReader(data), store.ServerAuth)
		if err != nil {
			return
		}
		out, err := BundleBytes(entries)
		if err != nil {
			t.Fatalf("BundleBytes of an accepted bundle failed: %v", err)
		}
		back, err := ParseBundle(bytes.NewReader(out), store.ServerAuth)
		if err != nil {
			t.Fatalf("ParseBundle of the re-emitted bundle failed: %v\n%s", err, out)
		}
		if len(back) != len(entries) {
			t.Fatalf("round trip changed the entry count: %d, want %d", len(back), len(entries))
		}
		for i, e := range back {
			if e.Fingerprint != entries[i].Fingerprint || e.TrustFor(store.ServerAuth) != store.Trusted {
				t.Fatalf("entry %d: %v after the round trip, want %v", i, e, entries[i])
			}
		}
	})
}
