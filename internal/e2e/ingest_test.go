package e2e

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/applestore"
	"repro/internal/authroot"
	"repro/internal/catalog"
	"repro/internal/certdata"
	"repro/internal/ctlog"
	"repro/internal/jks"
	"repro/internal/manifest"
	"repro/internal/nodecerts"
	"repro/internal/paperdata"
	"repro/internal/pemstore"
	"repro/internal/store"
	"repro/internal/synth"
)

// writeNative mirrors cmd/synthgen's per-provider format choice.
func writeNative(t *testing.T, dir, provider string, s *store.Snapshot) {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	entries := s.Entries()
	switch s.Kind.Normalize() {
	case store.KindCT:
		if err := ctlog.WriteDir(dir, entries); err != nil {
			t.Fatal(err)
		}
		return
	case store.KindManifest:
		if err := manifest.WriteDir(dir, manifest.FromEntries(provider, entries)); err != nil {
			t.Fatal(err)
		}
		return
	}
	switch provider {
	case paperdata.NSS:
		f, err := os.Create(filepath.Join(dir, "certdata.txt"))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if err := certdata.Marshal(f, entries); err != nil {
			t.Fatal(err)
		}
	case paperdata.Microsoft:
		if err := authroot.WriteBundle(dir, entries, 1, s.Date); err != nil {
			t.Fatal(err)
		}
	case paperdata.Apple:
		if err := applestore.WriteDir(dir, entries); err != nil {
			t.Fatal(err)
		}
	case paperdata.Java:
		data, err := jks.Marshal(jks.FromEntries(entries, s.Date), "changeit")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "cacerts.jks"), data, 0o644); err != nil {
			t.Fatal(err)
		}
	case paperdata.NodeJS:
		f, err := os.Create(filepath.Join(dir, "node_root_certs.h"))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if err := nodecerts.Marshal(f, entries); err != nil {
			t.Fatal(err)
		}
	default:
		f, err := os.Create(filepath.Join(dir, "tls-ca-bundle.pem"))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if err := pemstore.WriteBundle(f, entries, store.ServerAuth); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSynthgenIngestRoundTrip is the full scraper loop: write every
// provider's latest snapshot in its native format (what cmd/synthgen
// -ecosystems does), auto-detect and ingest the tree with the catalog, and
// verify the rebuilt database agrees with the in-memory corpus on TLS
// membership and ecosystem kind.
func TestSynthgenIngestRoundTrip(t *testing.T) {
	eco, err := synth.CachedWithEcosystems("e2e")
	if err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	for _, prov := range eco.DB.Providers() {
		snap := eco.DB.History(prov).Latest()
		dir := filepath.Join(root, prov, snap.Date.Format("2006-01-02"))
		writeNative(t, dir, prov, snap)
	}

	db, err := catalog.LoadTree(root, catalog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(db.Providers()), len(eco.DB.Providers()); got != want {
		t.Fatalf("ingested %d providers, want %d", got, want)
	}
	for _, prov := range eco.DB.Providers() {
		want := eco.DB.History(prov).Latest()
		got := db.History(prov).Latest()
		if got == nil {
			t.Fatalf("%s: no ingested snapshot", prov)
		}
		if got.Kind.Normalize() != want.Kind.Normalize() {
			t.Errorf("%s: ingested kind %q, want %q", prov, got.Kind.Normalize(), want.Kind.Normalize())
		}
		if !got.Date.Equal(want.Date) {
			t.Errorf("%s: date %s, want %s", prov, got.Date.Format("2006-01-02"), want.Date.Format("2006-01-02"))
		}
		wantSet := want.TrustedSet(store.ServerAuth)
		gotSet := got.TrustedSet(store.ServerAuth)
		if len(gotSet) != len(wantSet) {
			t.Errorf("%s: %d TLS roots ingested, want %d", prov, len(gotSet), len(wantSet))
			continue
		}
		for fp := range wantSet {
			if !gotSet[fp] {
				t.Errorf("%s: root %s lost in the disk round trip", prov, fp.Short())
			}
		}
	}

	// NSS's partial-distrust metadata must survive the loop end to end.
	nssWant := eco.DB.History(paperdata.NSS).Latest()
	nssGot := db.History(paperdata.NSS).Latest()
	for _, e := range nssWant.Entries() {
		cutoff, ok := e.DistrustAfterFor(store.ServerAuth)
		if !ok {
			continue
		}
		ge, found := nssGot.Lookup(e.Fingerprint)
		if !found {
			t.Errorf("annotated root %s missing after ingest", e.Label)
			continue
		}
		gc, gok := ge.DistrustAfterFor(store.ServerAuth)
		if !gok || !gc.Equal(cutoff) {
			t.Errorf("%s: distrust-after %v/%v after ingest, want %v", e.Label, gc, gok, cutoff)
		}
	}
}
