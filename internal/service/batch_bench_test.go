package service_test

// Performance guards for the batch pipeline (BENCH_7): BenchmarkVerifyBatch
// measures per-verdict cost and allocations on the warm (verdict-cache-hit)
// path, and TestBatchWarmAllocs holds that path to its allocation budget.

import (
	"bytes"
	"encoding/json"
	"encoding/pem"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	trustroots "repro"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/synth"
)

// benchChains mints n distinct leaf chains (distinct CNs, so distinct chain
// hashes) from a CA trusted in the 2020 NSS snapshot.
func benchChains(tb testing.TB, eco *synth.Ecosystem, n int) []string {
	tb.Helper()
	nssSnap := eco.DB.History(trustroots.NSS).At(ts(2020, 9, 15))
	var ca *synth.CA
	for _, e := range nssSnap.Entries() {
		if c := eco.Universe.Lookup(e.Label); c != nil {
			if _, distrusted := e.DistrustAfterFor(store.ServerAuth); !distrusted {
				ca = c
				break
			}
		}
	}
	if ca == nil {
		tb.Fatal("no usable CA in NSS snapshot")
	}
	chains := make([]string, n)
	for i := range chains {
		der, err := trustroots.IssueLeaf(ca, fmt.Sprintf("host-%03d.bench.test", i),
			ts(2020, 1, 1), ts(2022, 1, 1))
		if err != nil {
			tb.Fatal(err)
		}
		var buf bytes.Buffer
		if err := pem.Encode(&buf, &pem.Block{Type: "CERTIFICATE", Bytes: der}); err != nil {
			tb.Fatal(err)
		}
		chains[i] = buf.String()
	}
	return chains
}

// ndjsonBody builds an NDJSON batch cycling the chains across count lines.
// useDER selects the chain_der input form (base64 DER, the bulk-throughput
// format) over chain_pem.
func ndjsonBody(tb testing.TB, chains []string, stores []string, count int, useDER bool) []byte {
	tb.Helper()
	var buf bytes.Buffer
	for i := 0; i < count; i++ {
		line := map[string]any{
			"at": "2020-11-15",
		}
		if len(stores) > 0 {
			line["stores"] = stores
		}
		chain := chains[i%len(chains)]
		if useDER {
			line["chain_der"] = derChain(tb, chain)
		} else {
			line["chain_pem"] = chain
		}
		raw, err := json.Marshal(line)
		if err != nil {
			tb.Fatal(err)
		}
		buf.Write(raw)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// discardWriter is a flushable ResponseWriter that throws the body away, so
// benchmarks measure the pipeline rather than httptest's body accumulation.
type discardWriter struct {
	h     http.Header
	lines int
}

func (d *discardWriter) Header() http.Header { return d.h }
func (d *discardWriter) WriteHeader(int)     {}
func (d *discardWriter) Flush()              {}
func (d *discardWriter) Write(p []byte) (int, error) {
	d.lines += bytes.Count(p, []byte{'\n'})
	return len(p), nil
}

func runBatch(tb testing.TB, srv *service.Server, body []byte) int {
	tb.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/verify/batch", bytes.NewReader(body))
	dw := &discardWriter{h: http.Header{}}
	srv.Handler().ServeHTTP(dw, req)
	return dw.lines
}

// BenchmarkVerifyBatch measures the warm batch path with chain_der input:
// every line hits the verdict cache across all ten stores, so the reported
// allocs/verdict is the pipeline's own overhead (line decode amortized over
// ten verdicts).
func BenchmarkVerifyBatch(b *testing.B) {
	benchVerifyBatch(b, true)
}

// BenchmarkVerifyBatchPEM is the same measurement over chain_pem lines —
// the convenience format pays a JSON unescape plus a PEM decode per line.
func BenchmarkVerifyBatchPEM(b *testing.B) {
	benchVerifyBatch(b, false)
}

func benchVerifyBatch(b *testing.B, useDER bool) {
	eco, srv := fixture(b)
	var all []string
	for _, p := range eco.DB.Providers() {
		all = append(all, p)
	}
	const lines = 256
	body := ndjsonBody(b, benchChains(b, eco, 8), all, lines, useDER)
	if got := runBatch(b, srv, body); got != lines { // warm the verdict cache
		b.Fatalf("warmup produced %d lines, want %d", got, lines)
	}
	verdictsPerLine := len(all)

	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runBatch(b, srv, body)
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	verdicts := float64(b.N) * lines * float64(verdictsPerLine)
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/verdicts, "allocs/verdict")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/verdicts, "ns/verdict")
}

// TestBatchWarmAllocs is the CI guard on the batch fast path: a warm
// chain_der batch fanned out to every store must stay at or below 0.25
// allocations per verdict. Allocation counts, unlike wall time, do not
// move with the runner's load.
func TestBatchWarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation guard skipped under the race detector, which changes sync.Pool reuse")
	}
	eco, srv := fixture(t)
	const lines = 256
	body := ndjsonBody(t, benchChains(t, eco, 8), eco.DB.Providers(), lines, true)
	if got := runBatch(t, srv, body); got != lines { // warm the verdict cache
		t.Fatalf("warmup batch produced %d lines, want %d", got, lines)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if got := runBatch(t, srv, body); got != lines {
			t.Fatalf("batch produced %d lines, want %d", got, lines)
		}
	})
	perVerdict := allocs / float64(lines*len(eco.DB.Providers()))
	t.Logf("warm chain_der batch: %.3f allocs/verdict", perVerdict)
	if perVerdict > 0.25 {
		t.Fatalf("warm batch allocates %.3f per verdict, want <= 0.25", perVerdict)
	}
}
