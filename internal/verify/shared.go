package verify

// Verify once per chain, judge per store. Root stores differ only in which
// anchors they hold and how they trust them; the signatures on a chain are
// the same for every store. A Pool holds every distinct certificate of a
// database in one x509 pool, so a chain is built once (Pool.Build) and
// each snapshot then judges the returned chains by looking their roots up
// in itself (Chains.Judge).
//
// Why that equals a per-snapshot build: both pools add certificates in
// fingerprint order, so for any issuer name the candidates a snapshot's
// pool offers are an in-order subsequence of the shared pool's. x509's
// depth-first search then visits the same intermediates in the same order,
// and the chains a snapshot's own build returns are exactly the shared
// chains whose root the snapshot holds, in the same relative order — so
// judge picks the same anchor. Three cases break the equivalence and are
// left to the per-snapshot Verifier:
//
//   - the leaf is itself in the pool: x509 then returns the leaf alone
//     as a chain instead of searching (Build returns nil);
//   - the search could pass x509's budget of signature checks, which the
//     bigger pool reaches first (Build returns nil);
//   - no shared chain ends at a root of the snapshot: the snapshot's own
//     build fails, with an error text only that build produces (Judge
//     reports false).

import (
	"bytes"
	"crypto/x509"
	"slices"

	"repro/internal/certutil"
	"repro/internal/store"
)

// maxSignatureChecks is crypto/x509's budget of signature checks for one
// chain search (maxChainSignatureChecks there); a search that passes it
// fails.
const maxSignatureChecks = 100

// Pool is one x509 pool over a set of distinct certificates — a serving
// generation's whole database — that chains are built against once and
// judged per snapshot. It is immutable and safe for concurrent use.
type Pool struct {
	roots *x509.CertPool
	// fps are the pooled certificates' fingerprints, sorted: a leaf found
	// here is in the pool.
	fps []certutil.Fingerprint
	// bySubject counts pooled certificates per raw subject: the root
	// candidates x509 offers a certificate with that issuer.
	bySubject map[string]int
}

// NewPool builds the shared pool over entries, which must be distinct and
// sorted by fingerprint (store.Database.DistinctEntries): that order is
// what keeps the candidate order of every snapshot's own pool.
func NewPool(entries []*store.TrustEntry) *Pool {
	p := &Pool{
		roots:     x509.NewCertPool(),
		fps:       make([]certutil.Fingerprint, len(entries)),
		bySubject: make(map[string]int),
	}
	for i, e := range entries {
		p.roots.AddCert(e.Cert)
		p.fps[i] = e.Fingerprint
		p.bySubject[string(e.Cert.RawSubject)]++
	}
	return p
}

// Len returns the number of certificates in the pool.
func (p *Pool) Len() int { return len(p.fps) }

// Chains is one shared chain build: what x509 returned for a (chain,
// instant, DNS name) against the pool, ready to be judged per snapshot.
type Chains struct {
	leaf *x509.Certificate
	// roots holds each returned chain's root fingerprint, in x509's order.
	roots []certutil.Fingerprint
	// err is a failure before chain building — leaf validity or hostname
	// — which every snapshot's own build would report identically.
	err error
}

// Build runs one x509 chain build for req against the pool; req.Purpose is
// not used (Judge takes it) and req.At must be set, as the pool has no
// snapshot date to default to. It returns nil when the shared build cannot
// stand in for per-snapshot builds: the leaf is in the pool, or the
// search could pass the signature-check budget.
func (p *Pool) Build(req Request) *Chains {
	if _, in := slices.BinarySearchFunc(p.fps, certutil.SHA256Fingerprint(req.Leaf.Raw), certutil.Fingerprint.Compare); in {
		return nil
	}
	if !p.withinBudget(req.Leaf, req.Intermediates) {
		return nil
	}
	c := &Chains{leaf: req.Leaf}
	chains, err := req.Leaf.Verify(x509.VerifyOptions{
		Roots:         p.roots,
		Intermediates: req.interPool(),
		DNSName:       req.DNSName,
		CurrentTime:   req.At,
		KeyUsages:     anyUsage,
	})
	switch {
	case err == nil:
		c.roots = rootsOf(make([]certutil.Fingerprint, 0, len(chains)), chains)
	case leafStage(err, req.Leaf):
		c.err = err
	}
	// Any other failure came from the search itself: no chain reached the
	// pool, so no snapshot is reached and every Judge reports false.
	return c
}

// Len returns the number of chains the build returned.
func (c *Chains) Len() int { return len(c.roots) }

// Judge returns snap's verdict on the shared build for purpose p — what
// snap's own Verifier returns for the same request — and false when the
// build cannot decide it because no returned chain ends at a root snap
// holds; the caller then verifies against snap alone.
func (c *Chains) Judge(snap *store.Snapshot, p store.Purpose) (Result, bool) {
	if c.err != nil {
		return failed(c.err), true
	}
	return judge(snap, c.roots, c.leaf, p)
}

// leafStage reports whether err is one of the checks x509 runs on the leaf
// before it consults any pool — validity window, critical extensions,
// hostname — and so the same against every snapshot. Errors from the
// search name a candidate certificate, never the leaf.
func leafStage(err error, leaf *x509.Certificate) bool {
	switch e := err.(type) {
	case x509.CertificateInvalidError:
		return e.Cert == leaf
	case x509.HostnameError:
		return e.Certificate == leaf
	}
	return false
}

// withinBudget reports whether x509's search for leaf's chains surely
// stays within the signature-check budget. It walks a superset of the
// search tree — every pooled certificate or intermediate whose subject
// matches a node's issuer is a candidate, and every intermediate candidate
// not yet on the path is expanded as if its signature verified — counting
// one check per candidate, and gives up as soon as the count passes the
// budget, so the walk itself is bounded too.
func (p *Pool) withinBudget(leaf *x509.Certificate, inters []*x509.Certificate) bool {
	checks := 0
	path := make([]*x509.Certificate, 0, 8)
	var walk func(c *x509.Certificate) bool
	walk = func(c *x509.Certificate) bool {
		checks += p.bySubject[string(c.RawIssuer)]
		path = append(path, c)
		defer func() { path = path[:len(path)-1] }()
		for _, in := range inters {
			if checks > maxSignatureChecks {
				return false
			}
			if !bytes.Equal(in.RawSubject, c.RawIssuer) || slices.Contains(path, in) {
				continue
			}
			checks++
			if !walk(in) {
				return false
			}
		}
		return checks <= maxSignatureChecks
	}
	return walk(leaf)
}
