package verify

// The differential oracle for the serving path: one chain build against a
// pool of every certificate, judged per snapshot — and, where it cannot
// decide, Pool.Verify's build against one snapshot's candidates — must
// give exactly the verdict each snapshot's own Verifier gives — outcome,
// anchor, label and error text — over the synthetic corpus, generated
// chains and instants on both sides of the Symantec cutoff. Three
// metamorphic properties pin the set and cutoff semantics both paths rely
// on.

import (
	"crypto/x509"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/certgen"
	"repro/internal/certutil"
	"repro/internal/store"
	"repro/internal/synth"
	"repro/internal/testcerts"
)

// sharedVerdict is the serving path's verdict for snap: judged from the
// shared build c when it can decide, else the pool's build against snap
// alone. shared reports which.
func sharedVerdict(pool *Pool, c *Chains, snap *store.Snapshot, req Request) (res Result, shared bool) {
	if c != nil {
		if res, ok := c.Judge(snap, req.Purpose); ok {
			return res, true
		}
	}
	return pool.Verify(snap, req), false
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
// corpus: every (chain, instant, provider) verdict of the serving path,
// and of Pool.Verify alone, equals the per-snapshot Verifier's — on the
// snapshot each provider serves at the instant and on its latest, with
// and without a DNS name, and at the snapshot's own date when no instant
// is given — and the shared build decides most of them.
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
	instants := append([]time.Time{{}}, oracleInstants...)
	var verdicts, judged, fallback, declined, diffs int
	outcomes := map[Outcome]int{}
	check := func(what string, got, want Result) {
		if d := sameResult(got, want); d != "" {
			diffs++
			t.Errorf("%s: %s", what, d)
		}
	}
	for _, c := range cases {
		for _, dns := range dnsVariants(c) {
			for _, at := range instants {
				req := Request{Leaf: c.leaf, Intermediates: c.inter, Purpose: store.ServerAuth, DNSName: dns, At: at}
				req.InterPool = PoolIntermediates(c.inter)
				var chains *Chains
				if !at.IsZero() {
					if chains = pool.Build(req); chains == nil {
						declined++
					}
				}
				for _, p := range eco.DB.Providers() {
					h := eco.DB.History(p)
					snaps := []*store.Snapshot{h.Latest()}
					if s := h.At(at); s != nil && s != h.Latest() {
						snaps = append(snaps, s)
					}
					for _, snap := range snaps {
						what := fmt.Sprintf("%s dns %q at %s in %s", c.name, dns, at.Format("2006-01-02"), snap.Key())
						want := verifier(snap).Verify(req)
						got, shared := sharedVerdict(pool, chains, snap, req)
						if shared {
							judged++
						} else {
							fallback++
						}
						verdicts++
						outcomes[want.Outcome]++
						check(what, got, want)
						check(what+", Pool.Verify", pool.Verify(snap, req), want)
					}
				}
			}
		}
	}
	t.Logf("%d cases, %d verdicts: %d judged from shared builds, %d per store (%d builds declined), outcomes %v",
		len(cases), verdicts, judged, fallback, declined, outcomes)
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

// dnsVariants returns the DNS names a case is verified with: none, and
// the case's own (a mismatch) or else the leaf's first name.
func dnsVariants(c oracleCase) []string {
	switch {
	case c.dns != "":
		return []string{"", c.dns}
	case len(c.leaf.DNSNames) > 0:
		return []string{"", c.leaf.DNSNames[0]}
	}
	return []string{""}
}

// TestSharedPathDeclinesRootLeaf covers x509's short cut for a leaf that
// is itself in the roots pool: the shared build declines, and Pool.Verify
// takes the short cut too — for a held cross certificate, whose issuer's
// root would otherwise anchor it, as for a self-signed root.
func TestSharedPathDeclinesRootLeaf(t *testing.T) {
	entries := testcerts.Entries(3, store.ServerAuth)
	pool := NewPool(distinctOf(snapWith(t, entries...)))
	if c := pool.Build(Request{Leaf: entries[1].Cert, At: ts(2020, 1, 1)}); c != nil {
		t.Fatal("a leaf in the pool must be verified per store")
	}

	roots := testcerts.Roots(2)
	der, err := certgen.CrossSign(roots[0], roots[1], ts(2014, 1, 1), ts(2030, 1, 1))
	cross := mustParse(t, der, err)
	held, err := store.NewTrustedEntry(der, store.ServerAuth)
	if err != nil {
		t.Fatal(err)
	}
	issuer, err := store.NewEntry(roots[1].DER)
	if err != nil {
		t.Fatal(err)
	}
	issuer.SetTrust(store.ServerAuth, store.Distrusted)
	snap := snapWith(t, held, issuer)
	req := Request{Leaf: cross, Purpose: store.ServerAuth, At: ts(2020, 1, 1)}
	want := New(snap).Verify(req)
	if want.Outcome != OK || want.Anchor.Fingerprint != held.Fingerprint {
		t.Fatalf("fixture: held cross certificate verifies %v at %v", want.Outcome, want.Anchor)
	}
	if d := sameResult(NewPool(distinctOf(snap)).Verify(snap, req), want); d != "" {
		t.Errorf("held cross certificate, Pool.Verify: %s", d)
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
		pool := NewPool(distinctOf(all))
		chains := pool.Build(req)
		if (chains == nil) != (n > maxSignatureChecks) {
			t.Fatalf("%d same-name roots: shared build declined = %v", n, chains == nil)
		}
		for _, snap := range []*store.Snapshot{small, other, all} {
			want := New(snap).Verify(req)
			got, _ := sharedVerdict(pool, chains, snap, req)
			if d := sameResult(got, want); d != "" {
				t.Errorf("%d same-name roots, %d-root store: %s", n, snap.Len(), d)
			}
			if d := sameResult(pool.Verify(snap, req), want); d != "" {
				t.Errorf("%d same-name roots, %d-root store, Pool.Verify: %s", n, snap.Len(), d)
			}
		}
	}
}

// TestSharedPathKeepsCandidateOrder pins the candidate order: two roots
// with one name and one key (a re-issued root) both anchor the leaf, and
// the anchor a store reports is the first in fingerprint order — the one
// its own pool offers first — on the shared path and Pool.Verify too.
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
	pool := NewPool(distinctOf(both))
	chains := pool.Build(req)
	if chains == nil || chains.Len() != 2 {
		t.Fatalf("want two shared chains, got %v", chains)
	}
	first := twins[0]
	if twins[1].Fingerprint.Compare(first.Fingerprint) < 0 {
		first = twins[1]
	}
	for _, snap := range []*store.Snapshot{both, snapWith(t, twins[0]), snapWith(t, twins[1])} {
		want := New(snap).Verify(req)
		got, shared := sharedVerdict(pool, chains, snap, req)
		if !shared {
			t.Errorf("%d-root store: not judged from the shared build", snap.Len())
		}
		if d := sameResult(got, want); d != "" {
			t.Errorf("%d-root store: %s", snap.Len(), d)
		}
		if d := sameResult(pool.Verify(snap, req), want); d != "" {
			t.Errorf("%d-root store, Pool.Verify: %s", snap.Len(), d)
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
			pool := NewPool(distinctOf(added))
			want := New(added).Verify(req)
			got, _ := sharedVerdict(pool, pool.Build(req), added, req)
			direct := pool.Verify(added, req)
			if got.Outcome == OK || direct.Outcome == OK {
				t.Errorf("adding %s at %v turned the verdict ok", r.Spec.Name, level)
			}
			if d := sameResult(got, want); d != "" {
				t.Errorf("adding %s at %v: %s", r.Spec.Name, level, d)
			}
			if d := sameResult(direct, want); d != "" {
				t.Errorf("adding %s at %v, Pool.Verify: %s", r.Spec.Name, level, d)
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
				got, _ := sharedVerdict(pool, chains, removed, req)
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

// TestCutoffShiftIsMonotone is the third metamorphic property, over the
// corpus's Symantec cohort: moving every server-auth distrust-after
// cutoff of a store later never turns an ok verdict into another outcome,
// and moving them earlier never grants ok — per store and on the serving
// path, which also agree with each other on the shifted store.
func TestCutoffShiftIsMonotone(t *testing.T) {
	eco, err := synth.Cached("tracing-your-roots")
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(eco.DB.DistinctEntries())
	cohort := map[string]bool{}
	eco.DB.History("NSS").At(ts(2020, 9, 15)).Each(func(e *store.TrustEntry) {
		if _, partial := e.DistrustAfterFor(store.ServerAuth); partial {
			if ca := eco.Universe.Lookup(e.Label); ca != nil {
				cohort[ca.Name] = true
			}
		}
	})
	const day = 24 * time.Hour
	shifts := []time.Duration{-10 * 365 * day, -365 * day, -day, day, 365 * day, 10 * 365 * day}
	var checked, revoked, granted int
	for _, c := range corpusCases(t, eco) {
		if _, ca, _ := strings.Cut(c.name, "/"); !cohort[ca] || c.dns != "" {
			continue
		}
		for _, at := range oracleInstants {
			req := Request{Leaf: c.leaf, Intermediates: c.inter, Purpose: store.ServerAuth, At: at}
			chains := pool.Build(req)
			for _, p := range eco.DB.Providers() {
				snap := eco.DB.History(p).At(at)
				if snap == nil || !hasCutoff(snap) {
					continue
				}
				before := New(snap).Verify(req)
				for _, d := range shifts {
					shifted := shiftCutoffs(snap, d)
					after := New(shifted).Verify(req)
					served, _ := sharedVerdict(pool, chains, shifted, req)
					what := fmt.Sprintf("%s at %s in %s, cutoffs %+dd", c.name, at.Format("2006-01-02"), snap.Key(), d/day)
					if diff := sameResult(served, after); diff != "" {
						t.Errorf("%s: serving path: %s", what, diff)
					}
					switch {
					case d > 0 && before.Outcome == OK && after.Outcome != OK:
						t.Errorf("%s: a later cutoff turned ok into %v", what, after.Outcome)
					case d < 0 && before.Outcome != OK && after.Outcome == OK:
						t.Errorf("%s: an earlier cutoff turned %v into ok", what, before.Outcome)
					case d > 0 && before.Outcome != OK && after.Outcome == OK:
						granted++
					case d < 0 && before.Outcome == OK && after.Outcome != OK:
						revoked++
					}
					checked++
				}
			}
		}
	}
	t.Logf("%d shifted verdicts: %d granted by a later cutoff, %d revoked by an earlier one", checked, granted, revoked)
	if granted == 0 || revoked == 0 {
		t.Fatalf("no shift changed a verdict (%d granted, %d revoked): the property is untested", granted, revoked)
	}
}

// hasCutoff reports whether snap holds a server-auth distrust-after cutoff.
func hasCutoff(snap *store.Snapshot) bool {
	found := false
	snap.Each(func(e *store.TrustEntry) {
		_, partial := e.DistrustAfterFor(store.ServerAuth)
		found = found || partial
	})
	return found
}

// shiftCutoffs returns a copy of snap with every server-auth
// distrust-after cutoff moved by d. Filed entries are immutable, so each
// shifted entry is a fresh clone.
func shiftCutoffs(snap *store.Snapshot, d time.Duration) *store.Snapshot {
	out := snap.ShareClone()
	snap.Each(func(e *store.TrustEntry) {
		if cutoff, partial := e.DistrustAfterFor(store.ServerAuth); partial {
			fresh := e.Clone()
			fresh.SetDistrustAfter(store.ServerAuth, cutoff.Add(d))
			out.Add(fresh)
		}
	})
	return out
}
