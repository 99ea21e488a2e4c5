package service_test

// The cold verify path: a request's verdict-cache misses at one instant
// build the chain once against the generation's shared pool and are
// judged per store. BenchmarkVerifyColdFanout prices a cold verify against
// every store; TestColdVerifySharedBuild counts the builds it makes.

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/service"
)

// coldBody renders a /v1/verify body for chain_der at the instant at,
// against stores (every provider when empty).
func coldBody(tb testing.TB, ders []string, stores []string, at time.Time) []byte {
	tb.Helper()
	body := map[string]any{"chain_der": ders, "at": at.Format(time.RFC3339)}
	if len(stores) > 0 {
		body["stores"] = stores
	}
	raw, err := json.Marshal(body)
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// serveVerify posts one /v1/verify body and returns the status, with the
// response body thrown away.
func serveVerify(srv *service.Server, body []byte) int {
	req := httptest.NewRequest(http.MethodPost, "/v1/verify", bytes.NewReader(body))
	rec := &statusWriter{discardWriter: discardWriter{h: http.Header{}}, code: http.StatusOK}
	srv.Handler().ServeHTTP(rec, req)
	return rec.code
}

// statusWriter is a discardWriter that keeps the status code.
type statusWriter struct {
	discardWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) { w.code = code }

// BenchmarkVerifyColdFanout measures one cold /v1/verify against every
// store at one instant: each iteration names a fresh instant (one second
// apart, as trustbench's verify-cold draws them), so every verdict misses
// the cache and x509 does the work. The snapshots resolved stay the same,
// so their verifiers and the shared pool are warm, as in steady serving.
func BenchmarkVerifyColdFanout(b *testing.B) {
	eco, _ := fixture(b)
	srv := service.New(eco.DB, service.Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	chains := benchChains(b, eco, 8)
	ders := make([][]string, len(chains))
	for i, c := range chains {
		ders[i] = derChain(b, c)
	}
	base := ts(2020, 9, 1)
	bodies := func(i int) []byte {
		return coldBody(b, ders[i%len(ders)], nil, base.Add(time.Duration(i)*time.Second))
	}
	if code := serveVerify(srv, bodies(b.N+1)); code != http.StatusOK {
		b.Fatalf("warm-up verify: status %d", code)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		body := bodies(i)
		b.StartTimer()
		if code := serveVerify(srv, body); code != http.StatusOK {
			b.Fatalf("verify: status %d", code)
		}
	}
}

// TestColdVerifySharedBuild counts chain builds: a three-store miss at one
// instant makes exactly one shared build (every store holds the chain's
// root, so none falls back to its own build), and a warm repeat makes
// none.
func TestColdVerifySharedBuild(t *testing.T) {
	eco, _ := fixture(t)
	srv := service.New(eco.DB, service.Config{})
	chain, _ := symantecChain(t, eco)
	body := coldBody(t, derChain(t, chain), []string{"NSS", "Debian", "Microsoft"}, ts(2020, 11, 15))
	builds := func() (shared, perStore float64) {
		return metric(srv, "trustd_verify_chain_builds_total", "shared"),
			metric(srv, "trustd_verify_chain_builds_total", "per_store")
	}

	if code := serveVerify(srv, body); code != http.StatusOK {
		t.Fatalf("cold verify: status %d", code)
	}
	if shared, perStore := builds(); shared != 1 || perStore != 0 {
		t.Fatalf("cold three-store verify: %v shared and %v per-store builds, want 1 and 0", shared, perStore)
	}
	if code := serveVerify(srv, body); code != http.StatusOK {
		t.Fatalf("warm verify: status %d", code)
	}
	if shared, perStore := builds(); shared != 1 || perStore != 0 {
		t.Fatalf("after a warm repeat: %v shared and %v per-store builds, want 1 and 0", shared, perStore)
	}
	if hits := metric(srv, "trustd_cache_events_total", "verdict", "hit"); hits != 3 {
		t.Errorf("warm repeat: %v verdict-cache hits, want 3", hits)
	}
}
