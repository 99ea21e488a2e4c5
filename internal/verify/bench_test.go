package verify

// Allocation benchmarks for the verification hot path. The batch pipeline
// calls Verify once per (chain, store) pair, so every per-call allocation
// here is multiplied by the batch size; BenchmarkVerify pins the cost of
// the default path against the caller-built-pool path the batch uses
// (Request.InterPool), with ReportAllocs so a pool-rebuild regression is
// visible as an allocs/op jump in CI's bench-smoke.

import (
	"crypto/x509"
	"testing"
	"time"

	"repro/internal/certgen"
	"repro/internal/store"
	"repro/internal/testcerts"
)

// benchChain builds a store of n trusted roots plus a leaf chaining through
// a cross-signed intermediate — the realistic shape (leaf + 1 intermediate)
// that makes the per-call intermediates pool rebuild measurable.
func benchChain(b *testing.B, n int) (*Verifier, Request) {
	b.Helper()
	roots := testcerts.Roots(n + 1)
	snap := store.NewSnapshot("Bench", "v1", time.Date(2020, 6, 1, 0, 0, 0, 0, time.UTC))
	for i := 0; i < n; i++ {
		e, err := store.NewTrustedEntry(roots[i].DER, store.ServerAuth)
		if err != nil {
			b.Fatal(err)
		}
		snap.Add(e)
	}

	// Leaf under roots[n] (not in the store), bridged into the store via a
	// cross-cert signed by roots[0].
	leafDER, _, err := roots[n].IssueLeaf(testcerts.Pool(), certgen.LeafSpec{
		CommonName: "bench.example.test",
		DNSNames:   []string{"bench.example.test"},
		NotBefore:  time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC),
		NotAfter:   time.Date(2021, 1, 1, 0, 0, 0, 0, time.UTC),
	})
	if err != nil {
		b.Fatal(err)
	}
	leaf, err := x509.ParseCertificate(leafDER)
	if err != nil {
		b.Fatal(err)
	}
	xDER, err := certgen.CrossSign(roots[n], roots[0], time.Date(2019, 1, 1, 0, 0, 0, 0, time.UTC), time.Date(2028, 1, 1, 0, 0, 0, 0, time.UTC))
	if err != nil {
		b.Fatal(err)
	}
	xcert, err := x509.ParseCertificate(xDER)
	if err != nil {
		b.Fatal(err)
	}

	v := New(snap)
	req := Request{
		Leaf:          leaf,
		Intermediates: []*x509.Certificate{xcert},
		Purpose:       store.ServerAuth,
		At:            time.Date(2020, 6, 1, 0, 0, 0, 0, time.UTC),
	}
	// Prime the lazy pools so the benchmark measures Verify, not pool
	// construction.
	if res := v.Verify(req); res.Outcome != OK {
		b.Fatalf("fixture chain does not verify: %v (%v)", res.Outcome, res.Err)
	}
	return v, req
}

// BenchmarkVerify measures the default path: the intermediates pool is
// rebuilt inside every call.
func BenchmarkVerify(b *testing.B) {
	v, req := benchChain(b, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := v.Verify(req); res.Outcome != OK {
			b.Fatalf("outcome %v", res.Outcome)
		}
	}
}

// BenchmarkVerifyPrebuiltPool measures the batch path: one intermediates
// pool built up front and shared across every call — what the service's
// verify core does per chain.
func BenchmarkVerifyPrebuiltPool(b *testing.B) {
	v, req := benchChain(b, 16)
	req.InterPool = PoolIntermediates(req.Intermediates)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := v.Verify(req); res.Outcome != OK {
			b.Fatalf("outcome %v", res.Outcome)
		}
	}
}
