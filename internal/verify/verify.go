// Package verify performs purpose- and time-aware certificate chain
// verification against a root-store snapshot. It is the client-side
// substrate that turns the paper's root-store comparisons into observable
// authentication outcomes: the same chain can verify under NSS semantics
// (which honour server-distrust-after partial distrust) and fail — or
// wrongly succeed — under a derivative's flattened on-or-off copy, which is
// exactly the Symantec failure mode §6.2 documents.
package verify

import (
	"crypto/x509"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/certutil"
	"repro/internal/store"
)

// Outcome is the result of verifying a chain.
type Outcome int

// Verification outcomes.
const (
	// OK: the chain verifies to a trusted root for the purpose.
	OK Outcome = iota
	// NoAnchor: no chain to any root in the store.
	NoAnchor
	// AnchorNotTrusted: chain reaches a root present in the store but not
	// trusted for the requested purpose (or explicitly distrusted).
	AnchorNotTrusted
	// AnchorPartialDistrust: chain reaches a trusted root whose partial
	// distrust cutoff precedes the leaf's issuance date.
	AnchorPartialDistrust
	// Expired: the leaf is outside its validity window at the
	// verification time.
	Expired
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case OK:
		return "ok"
	case NoAnchor:
		return "no-anchor"
	case AnchorNotTrusted:
		return "anchor-not-trusted"
	case AnchorPartialDistrust:
		return "anchor-partial-distrust"
	case Expired:
		return "expired"
	default:
		return fmt.Sprintf("outcome(%d)", int(o))
	}
}

// Result carries the outcome plus diagnostics.
type Result struct {
	Outcome Outcome
	// Anchor is the trust entry the chain terminated at, when one was
	// found.
	Anchor *store.TrustEntry
	// Err is the underlying x509 error for NoAnchor/Expired.
	Err error
}

// Verifier verifies chains against one snapshot. It is safe for concurrent
// use: pools are built lazily under a lock and immutable once published.
type Verifier struct {
	snapshot *store.Snapshot

	mu sync.RWMutex
	// pools per purpose, built lazily.
	pools map[store.Purpose]*x509.CertPool
	// all holds every certificate in the store regardless of trust, used
	// by Verify to distinguish "no chain" from "chain to untrusted anchor".
	all *x509.CertPool
}

// New creates a verifier over a snapshot.
func New(s *store.Snapshot) *Verifier {
	return &Verifier{snapshot: s, pools: make(map[store.Purpose]*x509.CertPool)}
}

// Pool returns the x509.CertPool of roots trusted for the purpose — what a
// TLS client would install as tls.Config.RootCAs.
func (v *Verifier) Pool(p store.Purpose) *x509.CertPool {
	v.mu.RLock()
	pool, ok := v.pools[p]
	v.mu.RUnlock()
	if ok {
		return pool
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if pool, ok := v.pools[p]; ok {
		return pool
	}
	pool = x509.NewCertPool()
	for _, e := range v.snapshot.Entries() {
		if e.TrustedFor(p) {
			pool.AddCert(e.Cert)
		}
	}
	v.pools[p] = pool
	return pool
}

// allPool returns the pool of every certificate in the store, building it
// once. Verify is called per request in serving contexts, so rebuilding this
// pool per call would dominate the hot path.
func (v *Verifier) allPool() *x509.CertPool {
	v.mu.RLock()
	pool := v.all
	v.mu.RUnlock()
	if pool != nil {
		return pool
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.all == nil {
		pool := x509.NewCertPool()
		for _, e := range v.snapshot.Entries() {
			pool.AddCert(e.Cert)
		}
		v.all = pool
	}
	return v.all
}

// Request describes one verification.
type Request struct {
	// Leaf is the end-entity certificate.
	Leaf *x509.Certificate
	// Intermediates are any additional chain certificates.
	Intermediates []*x509.Certificate
	// InterPool, when non-nil, is a caller-built pool holding exactly the
	// Intermediates certificates. Callers verifying one chain against many
	// snapshots (the service's verify core) build it once and
	// reuse it across every Verify call, instead of paying a pool rebuild
	// per (chain, store) pair.
	InterPool *x509.CertPool
	// Purpose is the trust purpose to verify for.
	Purpose store.Purpose
	// DNSName, when set, is matched against the leaf.
	DNSName string
	// At is the verification time (defaults to the snapshot date).
	At time.Time
}

// PoolIntermediates builds the reusable intermediates pool for a chain —
// the value batch callers place in Request.InterPool. A chain with no
// intermediates returns an empty (non-nil) pool so Verify still skips the
// per-call rebuild.
func PoolIntermediates(intermediates []*x509.Certificate) *x509.CertPool {
	pool := x509.NewCertPool()
	for _, c := range intermediates {
		pool.AddCert(c)
	}
	return pool
}

// Verify checks a chain against the snapshot, honouring trust purposes and
// partial-distrust cutoffs.
func (v *Verifier) Verify(req Request) Result {
	at := req.At
	if at.IsZero() {
		at = v.snapshot.Date
	}

	// Chain against every certificate in the store — including ones not
	// trusted for the purpose — so we can distinguish "no chain at all"
	// from "chain to an untrusted anchor".
	chains, err := req.Leaf.Verify(x509.VerifyOptions{
		Roots:         v.allPool(),
		Intermediates: req.interPool(),
		DNSName:       req.DNSName,
		CurrentTime:   at,
		KeyUsages:     anyUsage,
	})
	if err != nil {
		return failed(err)
	}
	var buf [4]certutil.Fingerprint
	res, _ := judge(v.snapshot, rootsOf(buf[:0], chains), req.Leaf, req.Purpose)
	return res
}

// interPool returns the request's intermediates pool: the caller-built
// InterPool, else one built from Intermediates.
func (req *Request) interPool() *x509.CertPool {
	if req.InterPool != nil {
		return req.InterPool
	}
	return PoolIntermediates(req.Intermediates)
}

// rootsOf appends the root fingerprint of each chain to dst, in order.
func rootsOf(dst []certutil.Fingerprint, chains [][]*x509.Certificate) []certutil.Fingerprint {
	for _, chain := range chains {
		dst = append(dst, certutil.SHA256Fingerprint(chain[len(chain)-1].Raw))
	}
	return dst
}

// anyUsage is the key-usage set every build passes: x509 then returns its
// candidate chains without usage or policy filtering, so trust purposes
// are decided by the store alone.
var anyUsage = []x509.ExtKeyUsage{x509.ExtKeyUsageAny}

// failed maps a failed x509 build to its result: Expired when x509
// reports a certificate outside its validity window (the leaf, or the
// last candidate its chain search tried), NoAnchor otherwise.
func failed(err error) Result {
	var invalid x509.CertificateInvalidError
	if errors.As(err, &invalid) && invalid.Reason == x509.Expired {
		return Result{Outcome: Expired, Err: err}
	}
	return Result{Outcome: NoAnchor, Err: err}
}

// judge is the trust evaluation behind every verdict, per-snapshot or
// shared. roots holds the root fingerprint of each chain x509 returned,
// in x509's order. A chain whose root snap does not hold is skipped; of
// the rest, the first ending at an anchor trusted for the purpose and not
// partially distrusted for the leaf is accepted, else the most
// informative failure is kept. reached reports whether any chain ended at
// a root snap holds.
func judge(snap *store.Snapshot, roots []certutil.Fingerprint, leaf *x509.Certificate, p store.Purpose) (res Result, reached bool) {
	best := Result{Outcome: NoAnchor}
	for _, fp := range roots {
		entry, ok := snap.Lookup(fp)
		if !ok {
			continue
		}
		reached = true
		switch entry.TrustFor(p) {
		case store.Trusted:
			if cutoff, has := entry.DistrustAfterFor(p); has && leaf.NotBefore.After(cutoff) {
				best = better(best, Result{Outcome: AnchorPartialDistrust, Anchor: entry})
				continue
			}
			return Result{Outcome: OK, Anchor: entry}, true
		default:
			best = better(best, Result{Outcome: AnchorNotTrusted, Anchor: entry})
		}
	}
	return best, reached
}

// better keeps the most informative failure: partial distrust beats
// not-trusted beats no-anchor.
func better(a, b Result) Result {
	rank := func(o Outcome) int {
		switch o {
		case AnchorPartialDistrust:
			return 2
		case AnchorNotTrusted:
			return 1
		default:
			return 0
		}
	}
	if rank(b.Outcome) > rank(a.Outcome) {
		return b
	}
	return a
}
