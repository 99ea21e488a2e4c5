package service_test

// The cold verify path: a request's verdict-cache misses at one instant
// build the chain once against the generation's shared pool and are
// judged per store; a lone store builds against its own candidates drawn
// from that pool. BenchmarkVerifyColdFanout prices a cold verify against
// every store; TestColdVerifySharedBuild counts the builds it makes, and
// TestColdVerifyHeapFlat pins that no store keeps a pool of its own.

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/verify"
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
// so the shared pool is warm, as in steady serving.
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
// none. A single-store miss, and a root verified as its own leaf, make one
// per-store build each, and the latter's verdict is the Verifier's.
func TestColdVerifySharedBuild(t *testing.T) {
	eco, _ := fixture(t)
	srv := service.New(eco.DB, service.Config{})
	chain, _ := symantecChain(t, eco)
	body := coldBody(t, derChain(t, chain), []string{"NSS", "Debian", "Microsoft"}, ts(2020, 11, 15))
	builds := func() (shared, perStore float64) {
		return metric(srv, "trustd_verify_chain_builds_total", "shared"),
			metric(srv, "trustd_verify_chain_builds_total", "per_store")
	}
	// coldOne verifies der, leaf first, against NSS alone at a fresh
	// instant and returns the verdict and the builds it made.
	coldOne := func(ders []string, at time.Time) (verdict map[string]any, shared, perStore float64) {
		t.Helper()
		shared0, perStore0 := builds()
		code, out := postVerify(t, srv, map[string]any{"chain_der": ders, "stores": []string{"NSS"}, "at": at.Format(time.RFC3339)})
		verdicts, _ := out["verdicts"].([]any)
		if code != http.StatusOK || len(verdicts) != 1 {
			t.Fatalf("cold NSS verify: status %d, body %v", code, out)
		}
		shared, perStore = builds()
		return verdicts[0].(map[string]any), shared - shared0, perStore - perStore0
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

	if _, shared, perStore := coldOne(derChain(t, chain), ts(2020, 11, 16)); shared != 0 || perStore != 1 {
		t.Errorf("cold single-store verify: %v shared and %v per-store builds, want 0 and 1", shared, perStore)
	}

	at := ts(2020, 11, 17)
	snap := eco.DB.History("NSS").At(at)
	root := snap.Entries()[0]
	got, shared, perStore := coldOne([]string{base64.StdEncoding.EncodeToString(root.DER)}, at)
	if shared != 0 || perStore != 1 {
		t.Errorf("cold root-as-leaf verify: %v shared and %v per-store builds, want 0 and 1", shared, perStore)
	}
	res := verify.New(snap).Verify(verify.Request{Leaf: root.Cert, Purpose: store.ServerAuth, At: at})
	want := map[string]any{"outcome": res.Outcome.String()}
	if res.Anchor != nil {
		want["anchor"], want["anchor_label"] = res.Anchor.Fingerprint.String(), res.Anchor.Label
	}
	if res.Err != nil {
		want["error"] = res.Err.Error()
	}
	for _, k := range []string{"outcome", "anchor", "anchor_label", "error"} {
		if got[k] != want[k] {
			t.Errorf("root-as-leaf verdict %s = %v, Verifier says %v", k, got[k], want[k])
		}
	}
}

// TestColdVerifyHeapFlat pins that a cold verify keeps no per-store state:
// one single-store cold /v1/verify against every snapshot that 2019–2021
// resolves (the verify-cold window) grows the live heap by at most 2 MB.
// Cached per-snapshot verifiers, 62 KB of x509 pools each, held 12.5 MB
// over the 212 snapshots of the test corpus.
func TestColdVerifyHeapFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector inflates every allocation")
	}
	const budgetMB = 2
	eco, _ := fixture(t)
	srv := service.New(eco.DB, service.Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	chain, _ := symantecChain(t, eco)
	ders := derChain(t, chain)
	from, to := ts(2019, 1, 1), ts(2022, 1, 1)
	// Warm up: the generation's shared pool and the scratch buffers.
	if code := serveVerify(srv, coldBody(t, ders, []string{"NSS"}, to)); code != http.StatusOK {
		t.Fatalf("warm-up verify: status %d", code)
	}
	before := liveHeap()
	verifies := 0
	for _, p := range eco.DB.Providers() {
		snaps := eco.DB.History(p).Snapshots()
		for i, snap := range snaps {
			if !snap.Date.Before(to) || (i+1 < len(snaps) && !snaps[i+1].Date.After(from)) {
				continue // not in force during the window
			}
			at := snap.Date
			if at.Before(from) {
				at = from
			}
			if code := serveVerify(srv, coldBody(t, ders, []string{p}, at.Add(time.Second))); code != http.StatusOK {
				t.Fatalf("verify %s at %s: status %d", snap.Key(), at, code)
			}
			verifies++
		}
	}
	mb := float64(liveHeap()-before) / (1 << 20)
	runtime.KeepAlive(srv)
	t.Logf("%d single-store cold verifies: %.2f MB live heap growth (budget %d MB)", verifies, mb, budgetMB)
	if builds := metric(srv, "trustd_verify_chain_builds_total", "per_store"); builds != float64(verifies+1) {
		t.Fatalf("%v per-store builds, want %d", builds, verifies+1)
	}
	if mb > budgetMB {
		t.Fatalf("%d single-store cold verifies grew the live heap by %.2f MB, budget %d MB", verifies, mb, budgetMB)
	}
}
