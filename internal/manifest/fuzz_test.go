package manifest

import (
	"bytes"
	"encoding/pem"
	"testing"

	"repro/internal/store"
	"repro/internal/testcerts"
)

// FuzzManifestParse drives arbitrary bytes through the manifest parser,
// which reads documents fetched over the network. The invariants: never
// panic, and an accepted document re-emits in canonical form and
// re-parses to a bundle that emits the same bytes again.
func FuzzManifestParse(f *testing.F) {
	root := testcerts.Roots(1)[0]
	certBlock := "    cert: |\n" + indent(string(pem.EncodeToMemory(&pem.Block{Type: "CERTIFICATE", Bytes: root.DER})), 6) + "\n"
	f.Add([]byte("version: 1\nvendor: \"Acme Trusted Platform\"\n\nroots:\n  - name: Acme EK Root CA\n" +
		"    url: https://acme.example/ek-root.crt\n    source: vendor-website\n" +
		"    evidence: \"Listed in Acme's EK root registry.\"\n    purposes: [server-auth, code-signing]\n" +
		certBlock + "  # file-referenced sibling\n  - name: Acme EK Root CA G2\n    cert_file: g2.pem\n"))
	f.Add([]byte("version: 1\nvendor: V\nroots:\n  - name: A\n" + certBlock + "  - name: A\n    cert_file: b.pem\n"))
	f.Add([]byte("version: 1\nvendor: V\nroots:\n  - name: A\n    cert: |\n"))
	f.Add([]byte("version: two\nvendor: V\nroots:\n   - name: A\n"))
	f.Add([]byte(""))
	canonical, err := Marshal(FromEntries("Acme Trusted Platform", testcerts.Entries(3, store.ServerAuth, store.EmailProtection)))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(canonical)

	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := Parse(data)
		if err != nil {
			return
		}
		first, err := Marshal(b)
		if err != nil {
			t.Fatalf("Marshal of an accepted document failed: %v", err)
		}
		back, err := Parse(first)
		if err != nil {
			t.Fatalf("Parse of the canonical form failed: %v\n%s", err, first)
		}
		if len(back.Roots) != len(b.Roots) || back.Version != b.Version || back.Vendor != b.Vendor {
			t.Fatalf("round trip changed the bundle: %+v, want %+v", back, b)
		}
		second, err := Marshal(back)
		if err != nil {
			t.Fatalf("re-Marshal failed: %v", err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("parse → marshal → parse → marshal not byte-identical:\n--- first ---\n%s\n--- second ---\n%s", first, second)
		}
	})
}
