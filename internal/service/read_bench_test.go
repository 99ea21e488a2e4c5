package service_test

// Warm read benchmarks: GET /v1/roots/{fp} and a snapshot list served
// in process from their rendered bodies. TestReadWarmAllocs holds the warm
// root read to its allocation budget.

import (
	"net/http"
	"net/http/httptest"
	"testing"

	trustroots "repro"
	"repro/internal/service"
)

// bodyCounter keeps a response's headers and status and counts its body
// bytes, so the figures are the handler's rather than a recorder's buffer
// growth.
type bodyCounter struct {
	header http.Header
	status int
	n      int
}

func (d *bodyCounter) Header() http.Header  { return d.header }
func (d *bodyCounter) WriteHeader(code int) { d.status = code }
func (d *bodyCounter) Write(p []byte) (int, error) {
	if d.status == 0 {
		d.status = http.StatusOK
	}
	d.n += len(p)
	return len(p), nil
}

// warmRead returns a function serving one GET of path on srv, after a
// first request has rendered its body.
func warmRead(tb testing.TB, srv *service.Server, path string) (serve func(), w *bodyCounter) {
	tb.Helper()
	h := srv.Handler()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	w = &bodyCounter{header: http.Header{}}
	serve = func() {
		clear(w.header)
		w.status, w.n = 0, 0
		h.ServeHTTP(w, req)
	}
	serve()
	if w.status != http.StatusOK || w.n == 0 {
		tb.Fatalf("GET %s: %d with %d body bytes", path, w.status, w.n)
	}
	return serve, w
}

// benchRootPath is the root read of the benchmarks: the first root of
// NSS's latest snapshot.
func benchRootPath(tb testing.TB) string {
	tb.Helper()
	eco, _ := fixture(tb)
	return "/v1/roots/" + eco.DB.History(trustroots.NSS).Latest().Entries()[0].Fingerprint.String()
}

func benchRead(b *testing.B, path string) {
	_, srv := fixture(b)
	serve, w := warmRead(b, srv, path)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		serve()
	}
	b.ReportMetric(float64(w.n), "body_bytes")
}

func BenchmarkReadRoot(b *testing.B) {
	benchRead(b, benchRootPath(b))
}

func BenchmarkReadSnapshots(b *testing.B) {
	benchRead(b, "/v1/providers/"+trustroots.NSS+"/snapshots")
}

// TestReadWarmAllocs is the CI guard on the warm root read: at most 30
// allocations per request, the instrumented mux, trace span and headers
// included (a request re-encoding the body made several hundred).
func TestReadWarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation guard skipped under the race detector, which changes sync.Pool reuse")
	}
	_, srv := fixture(t)
	serve, w := warmRead(t, srv, benchRootPath(t))
	allocs := testing.AllocsPerRun(100, serve)
	t.Logf("warm GET /v1/roots/{fp}: %.1f allocs, %d body bytes", allocs, w.n)
	if allocs > 30 {
		t.Fatalf("warm root read made %.1f allocs, budget 30", allocs)
	}
}
