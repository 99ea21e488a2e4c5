package verify

// The differential oracle for the shared path: one chain build against a
// pool of every certificate, judged per snapshot, must give exactly the
// verdict each snapshot's own Verifier gives — outcome, anchor, label and
// error text — over the synthetic corpus, generated chains and instants on
// both sides of the Symantec cutoff. Two metamorphic properties pin the
// set semantics the shared path relies on.

import (
	"crypto/x509"
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/certgen"
	"repro/internal/certutil"
	"repro/internal/store"
	"repro/internal/synth"
	"repro/internal/testcerts"
)

// sharedVerdict is the serving path's verdict for snap: judged from the
// shared build when it can decide, else snap's own verifier. shared
// reports which.
func sharedVerdict(c *Chains, v *Verifier, snap *store.Snapshot, req Request) (res Result, shared bool) {
	if c != nil {
		if res, ok := c.Judge(snap, req.Purpose); ok {
			return res, true
		}
	}
	return v.Verify(req), false
}

// sameResult reports how got differs from want, or "" when it does not:
// outcome, anchor, anchor label and error text.
func sameResult(got, want Result) string {
	if got.Outcome != want.Outcome {
		return fmt.Sprintf("outcome %v, want %v", got.Outcome, want.Outcome)
	}
	if (got.Anchor == nil) != (want.Anchor == nil) {
		return fmt.Sprintf("anchor %v, want %v", got.Anchor, want.Anchor)
	}
	if got.Anchor != nil && (got.Anchor.Fingerprint != want.Anchor.Fingerprint || got.Anchor.Label != want.Anchor.Label) {
		return fmt.Sprintf("anchor %s %q, want %s %q", got.Anchor.Fingerprint.Short(), got.Anchor.Label,
			want.Anchor.Fingerprint.Short(), want.Anchor.Label)
	}
	if errText(got.Err) != errText(want.Err) {
		return fmt.Sprintf("error %q, want %q", errText(got.Err), errText(want.Err))
	}
	return ""
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// distinctOf returns one entry per distinct certificate of snaps, sorted
// by fingerprint: what NewPool takes.
func distinctOf(snaps ...*store.Snapshot) []*store.TrustEntry {
	seen := map[certutil.Fingerprint]bool{}
	var out []*store.TrustEntry
	for _, s := range snaps {
		s.Each(func(e *store.TrustEntry) {
			if !seen[e.Fingerprint] {
				seen[e.Fingerprint] = true
				out = append(out, e)
			}
		})
	}
	slices.SortFunc(out, func(a, b *store.TrustEntry) int { return a.Fingerprint.Compare(b.Fingerprint) })
	return out
}

func mustParse(t testing.TB, der []byte, err error) *x509.Certificate {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	c, err := x509.ParseCertificate(der)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// oracleCase is one generated chain.
type oracleCase struct {
	name  string
	leaf  *x509.Certificate
	inter []*x509.Certificate
	dns   string
}

// corpusCases mints the oracle's chains over the corpus: leaf-only chains
// under a spread of CAs (issued before and after the corpus's Symantec
// cutoff, 2019-09-01),
// cross-signed chains, chains whose cross certificate has expired, a
// hostname mismatch, and leaves that are themselves corpus roots.
func corpusCases(t testing.TB, eco *synth.Ecosystem) []oracleCase {
	t.Helper()
	// A spread of the universe plus every CA NSS partially distrusts
	// (the Symantec cohort), whose late leaves fall after the cutoff.
	var cas []*synth.CA
	for i, ca := range eco.Universe.CAs {
		if i%9 == 0 {
			cas = append(cas, ca)
		}
	}
	eco.DB.History("NSS").At(ts(2020, 9, 15)).Each(func(e *store.TrustEntry) {
		if _, partial := e.DistrustAfterFor(store.ServerAuth); partial {
			if ca := eco.Universe.Lookup(e.Label); ca != nil && !slices.Contains(cas, ca) {
				cas = append(cas, ca)
			}
		}
	})
	leaf := func(ca *synth.CA, cn string, nb, na time.Time) *x509.Certificate {
		der, _, err := ca.Root.IssueLeaf(testcerts.Pool(), certgen.LeafSpec{CommonName: cn, DNSNames: []string{cn}, NotBefore: nb, NotAfter: na})
		return mustParse(t, der, err)
	}
	var cases []oracleCase
	for i, ca := range cas {
		early := leaf(ca, fmt.Sprintf("early-%d.oracle.test", i), ts(2015, 1, 1), ts(2024, 1, 1))
		late := leaf(ca, fmt.Sprintf("late-%d.oracle.test", i), ts(2018, 6, 1), ts(2021, 6, 1))
		post := leaf(ca, fmt.Sprintf("post-%d.oracle.test", i), ts(2019, 11, 1), ts(2022, 6, 1))
		cases = append(cases,
			oracleCase{name: "leaf-early/" + ca.Name, leaf: early},
			oracleCase{name: "leaf-late/" + ca.Name, leaf: late},
			oracleCase{name: "leaf-post-cutoff/" + ca.Name, leaf: post},
			oracleCase{name: "hostname/" + ca.Name, leaf: early, dns: "other.oracle.test"})
		if i%3 != 0 {
			continue
		}
		issuer := cas[(i+len(cas)/2)%len(cas)]
		der, err := certgen.CrossSign(ca.Root, issuer.Root, ts(2014, 1, 1), ts(2030, 1, 1))
		cross := mustParse(t, der, err)
		der, err = certgen.CrossSign(ca.Root, issuer.Root, ts(2014, 1, 1), ts(2017, 1, 1))
		stale := mustParse(t, der, err)
		cases = append(cases,
			oracleCase{name: "cross/" + ca.Name, leaf: late, inter: []*x509.Certificate{cross}},
			oracleCase{name: "cross-expired/" + ca.Name, leaf: late, inter: []*x509.Certificate{stale}},
			oracleCase{name: "root-as-leaf/" + ca.Name, leaf: ca.Root.Cert})
	}
	return cases
}

// oracleInstants straddle the corpus's Symantec partial-distrust cutoff
// (2019-09-01) and cover its span.
var oracleInstants = []time.Time{ts(2014, 6, 1), ts(2016, 9, 1), ts(2018, 3, 1), ts(2019, 6, 1), ts(2020, 11, 15), ts(2023, 1, 1)}

// TestSharedPathMatchesPerStore is the differential oracle over the
// corpus: every (chain, instant, provider) verdict of the shared path
// equals the per-snapshot Verifier's, and the shared build decides most
// of them.
func TestSharedPathMatchesPerStore(t *testing.T) {
	eco, err := synth.Cached("tracing-your-roots")
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(eco.DB.DistinctEntries())
	verifiers := map[*store.Snapshot]*Verifier{}
	verifier := func(s *store.Snapshot) *Verifier {
		if verifiers[s] == nil {
			verifiers[s] = New(s)
		}
		return verifiers[s]
	}
	cases := corpusCases(t, eco)
	var judged, fallback, declined, diffs int
	outcomes := map[Outcome]int{}
	for _, c := range cases {
		for _, at := range oracleInstants {
			req := Request{Leaf: c.leaf, Intermediates: c.inter, Purpose: store.ServerAuth, DNSName: c.dns, At: at}
			req.InterPool = PoolIntermediates(c.inter)
			chains := pool.Build(req)
			if chains == nil {
				declined++
			}
			for _, p := range eco.DB.Providers() {
				snap := eco.DB.History(p).At(at)
				if snap == nil {
					continue
				}
				want := verifier(snap).Verify(req)
				got, shared := sharedVerdict(chains, verifier(snap), snap, req)
				if shared {
					judged++
				} else {
					fallback++
				}
				outcomes[want.Outcome]++
				if d := sameResult(got, want); d != "" {
					diffs++
					t.Errorf("%s at %s in %s: %s", c.name, at.Format("2006-01-02"), snap.Key(), d)
				}
			}
		}
	}
	t.Logf("%d cases × %d instants: %d verdicts judged from shared builds, %d per store (%d builds declined), outcomes %v",
		len(cases), len(oracleInstants), judged, fallback, declined, outcomes)
	if diffs > 0 {
		t.Fatalf("%d verdicts differ", diffs)
	}
	if judged < fallback {
		t.Errorf("shared builds decided %d verdicts against %d per store: the shared path is mostly bypassed", judged, fallback)
	}
	for _, o := range []Outcome{OK, NoAnchor, AnchorNotTrusted, AnchorPartialDistrust, Expired} {
		if outcomes[o] == 0 {
			t.Errorf("no %v verdict among the oracle's cases", o)
		}
	}
}

// TestSharedPathDeclinesRootLeaf covers x509's short cut for a leaf that
// is itself in the roots pool: the shared build declines.
func TestSharedPathDeclinesRootLeaf(t *testing.T) {
	entries := testcerts.Entries(3, store.ServerAuth)
	pool := NewPool(distinctOf(snapWith(t, entries...)))
	if c := pool.Build(Request{Leaf: entries[1].Cert, At: ts(2020, 1, 1)}); c != nil {
		t.Fatal("a leaf in the pool must be verified per store")
	}
}

// TestSharedPathSignatureBudget pins the budget fallback: a pool with more
// certificates under the leaf's issuer name than x509's 100 signature
// checks declines the shared build, one at the budget does not, and both
// give per-store verdicts either way.
func TestSharedPathSignatureBudget(t *testing.T) {
	var roots []*store.TrustEntry
	var issuer *certgen.Root
	for i := 0; i <= maxSignatureChecks; i++ {
		r, err := certgen.NewRoot(testcerts.Pool(), certgen.RootSpec{
			Name: "Crowded Root", Org: "Budget Fixtures", Key: certgen.ECDSA256, Sig: certgen.ECDSAWithSHA256,
			NotBefore: ts(2010, 1, 1), NotAfter: ts(2035, 1, 1), KeyIndex: i,
		})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			issuer = r
		}
		e, err := store.NewTrustedEntry(r.DER, store.ServerAuth)
		if err != nil {
			t.Fatal(err)
		}
		roots = append(roots, e)
	}
	der, _, err := issuer.IssueLeaf(testcerts.Pool(), certgen.LeafSpec{CommonName: "crowded.example.test", NotBefore: ts(2019, 1, 1), NotAfter: ts(2022, 1, 1)})
	leaf := mustParse(t, der, err)
	req := Request{Leaf: leaf, Purpose: store.ServerAuth, At: ts(2020, 1, 1)}
	small := snapWith(t, roots[:3]...)
	other := snapWith(t, roots[3:6]...)

	for _, n := range []int{maxSignatureChecks, maxSignatureChecks + 1} {
		all := snapWith(t, roots[:n]...)
		chains := NewPool(distinctOf(all)).Build(req)
		if (chains == nil) != (n > maxSignatureChecks) {
			t.Fatalf("%d same-name roots: shared build declined = %v", n, chains == nil)
		}
		for _, snap := range []*store.Snapshot{small, other, all} {
			v := New(snap)
			got, _ := sharedVerdict(chains, v, snap, req)
			if d := sameResult(got, v.Verify(req)); d != "" {
				t.Errorf("%d same-name roots, %d-root store: %s", n, snap.Len(), d)
			}
		}
	}
}

// TestSharedPathKeepsCandidateOrder pins the candidate order: two roots
// with one name and one key (a re-issued root) both anchor the leaf, and
// the anchor a store reports is the first in fingerprint order — the one
// its own pool offers first — on the shared path too.
func TestSharedPathKeepsCandidateOrder(t *testing.T) {
	var twins []*store.TrustEntry
	var issuer *certgen.Root
	for _, nb := range []time.Time{ts(2010, 1, 1), ts(2012, 1, 1)} {
		r, err := certgen.NewRoot(testcerts.Pool(), certgen.RootSpec{
			Name: "Reissued Root", Org: "Order Fixtures", Key: certgen.ECDSA256, Sig: certgen.ECDSAWithSHA256,
			NotBefore: nb, NotAfter: ts(2035, 1, 1),
		})
		if err != nil {
			t.Fatal(err)
		}
		issuer = r
		e, err := store.NewTrustedEntry(r.DER, store.ServerAuth)
		if err != nil {
			t.Fatal(err)
		}
		twins = append(twins, e)
	}
	der, _, err := issuer.IssueLeaf(testcerts.Pool(), certgen.LeafSpec{CommonName: "twin.example.test", NotBefore: ts(2019, 1, 1), NotAfter: ts(2022, 1, 1)})
	leaf := mustParse(t, der, err)
	req := Request{Leaf: leaf, Purpose: store.ServerAuth, At: ts(2020, 1, 1)}
	both := snapWith(t, twins...)
	chains := NewPool(distinctOf(both)).Build(req)
	if chains == nil || chains.Len() != 2 {
		t.Fatalf("want two shared chains, got %v", chains)
	}
	first := twins[0]
	if twins[1].Fingerprint.Compare(first.Fingerprint) < 0 {
		first = twins[1]
	}
	for _, snap := range []*store.Snapshot{both, snapWith(t, twins[0]), snapWith(t, twins[1])} {
		v := New(snap)
		want := v.Verify(req)
		got, shared := sharedVerdict(chains, v, snap, req)
		if !shared {
			t.Errorf("%d-root store: not judged from the shared build", snap.Len())
		}
		if d := sameResult(got, want); d != "" {
			t.Errorf("%d-root store: %s", snap.Len(), d)
		}
	}
	if res := New(both).Verify(req); res.Anchor == nil || res.Anchor.Fingerprint != first.Fingerprint {
		t.Errorf("per-store anchor is not the first twin in fingerprint order")
	}
}

// TestAddingUntrustedRootNeverGrantsOK is the first metamorphic property:
// adding a root the store does not trust for the purpose — the chain's
// own issuer included — never turns a verdict ok, on either path.
func TestAddingUntrustedRootNeverGrantsOK(t *testing.T) {
	roots := testcerts.Roots(4)
	stranger := leafUnder(t, roots[3], "stranger.example.test", ts(2019, 1, 1), ts(2021, 1, 1))
	base := snapWith(t, testcerts.Entries(3, store.ServerAuth)...)
	req := Request{Leaf: stranger, Purpose: store.ServerAuth, At: ts(2020, 1, 1)}
	if res := New(base).Verify(req); res.Outcome == OK {
		t.Fatalf("fixture: stranger leaf already ok: %v", res.Outcome)
	}
	for _, level := range []store.TrustLevel{store.Unspecified, store.MustVerify, store.Distrusted} {
		for _, r := range roots {
			added := base.ShareClone()
			e, err := store.NewEntry(r.DER)
			if err != nil {
				t.Fatal(err)
			}
			e.SetTrust(store.ServerAuth, level)
			e.SetTrust(store.EmailProtection, store.Trusted)
			if _, held := added.Lookup(e.Fingerprint); held {
				continue
			}
			added.Add(e)
			chains := NewPool(distinctOf(added)).Build(req)
			got, _ := sharedVerdict(chains, New(added), added, req)
			if got.Outcome == OK {
				t.Errorf("adding %s at %v turned the verdict ok", r.Spec.Name, level)
			}
			if d := sameResult(got, New(added).Verify(req)); d != "" {
				t.Errorf("adding %s at %v: %s", r.Spec.Name, level, d)
			}
		}
	}
}

// TestRemovingOffChainRootKeepsVerdict is the second metamorphic
// property, over the corpus: for every verdict decided from a shared
// build, removing any root of the store that ends no returned chain
// leaves the verdict unchanged — on the shared path and per store.
func TestRemovingOffChainRootKeepsVerdict(t *testing.T) {
	eco, err := synth.Cached("tracing-your-roots")
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(eco.DB.DistinctEntries())
	cases := corpusCases(t, eco)
	checked := 0
	for ci, c := range cases {
		if ci%8 != 0 || c.dns != "" {
			continue // an eighth of the cases keeps the test quick
		}
		at := ts(2020, 11, 15)
		req := Request{Leaf: c.leaf, Intermediates: c.inter, Purpose: store.ServerAuth, At: at}
		chains := pool.Build(req)
		if chains == nil || chains.err != nil {
			continue
		}
		for _, p := range eco.DB.Providers() {
			snap := eco.DB.History(p).At(at)
			if snap == nil {
				continue
			}
			before, ok := chains.Judge(snap, req.Purpose)
			if !ok {
				continue
			}
			// Remove every tenth off-chain root, one at a time.
			n := 0
			snap.Each(func(e *store.TrustEntry) {
				if slices.Contains(chains.roots, e.Fingerprint) {
					return
				}
				if n++; n%10 != 0 {
					return
				}
				removed := snap.ShareClone()
				removed.Remove(e.Fingerprint)
				got, _ := sharedVerdict(chains, New(removed), removed, req)
				if d := sameResult(got, before); d != "" {
					t.Errorf("%s in %s without %s: %s", c.name, snap.Key(), e.Fingerprint.Short(), d)
				}
				if d := sameResult(New(removed).Verify(req), before); d != "" {
					t.Errorf("%s in %s without %s, per store: %s", c.name, snap.Key(), e.Fingerprint.Short(), d)
				}
				checked++
			})
		}
	}
	if checked == 0 {
		t.Fatal("no removal checked")
	}
	t.Logf("%d removals checked", checked)
}
