package service_test

// Concurrent-load regression: 32 goroutines hammer POST /v1/verify through
// a real HTTP listener. Run under -race (CI does) this exercises the
// verdict LRU, the worker semaphore, the lazily built shared verify pool
// and the per-store builds drawn from it, all stampeding at once.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/service"
)

func TestVerifyConcurrentLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("load test skipped in -short mode")
	}
	eco, _ := fixture(t)
	// A private server so cache metrics start from zero.
	inner := service.New(eco.DB, service.Config{})
	srv := httptest.NewServer(inner.Handler())
	defer srv.Close()

	chain, _ := symantecChain(t, eco)
	providers := eco.DB.Providers()

	const goroutines = 32
	const perGoroutine = 12
	var failures atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			client := srv.Client()
			for i := 0; i < perGoroutine; i++ {
				// Rotate across single-store, two-store and all-store
				// requests so both caches see mixed keys.
				body := map[string]any{"chain_pem": chain, "at": "2020-11-15"}
				switch (g + i) % 3 {
				case 0:
					body["stores"] = []string{providers[(g+i)%len(providers)]}
				case 1:
					body["stores"] = []string{"NSS", "Debian"}
				case 2:
					// Distinct verdict key (dns_name) over the same
					// snapshots: misses the LRU and builds against the
					// shared pool already built.
					body["dns_name"] = "shop.example.test"
				}
				raw, _ := json.Marshal(body)
				resp, err := client.Post(srv.URL+"/v1/verify", "application/json", bytes.NewReader(raw))
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					failures.Add(1)
					return
				}
				data, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("goroutine %d: status %d: %s", g, resp.StatusCode, data)
					failures.Add(1)
					return
				}
				var out struct {
					Verdicts []struct {
						Outcome string `json:"outcome"`
					} `json:"verdicts"`
				}
				if err := json.Unmarshal(data, &out); err != nil || len(out.Verdicts) == 0 {
					t.Errorf("goroutine %d: bad body %s", g, data)
					failures.Add(1)
					return
				}
				for _, v := range out.Verdicts {
					if v.Outcome == "" {
						t.Errorf("goroutine %d: empty outcome", g)
						failures.Add(1)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if n := failures.Load(); n > 0 {
		t.Fatalf("%d goroutines failed", n)
	}
	// The stampede must have shared work: with 384 requests over ≤ 12
	// distinct (chain, store, purpose, time) keys, nearly everything after
	// the first round is a verdict-cache hit.
	if metric(inner, "trustd_cache_events_total", "verdict", "hit") == 0 {
		t.Error("no verdict cache hits under concurrent load")
	}
	// Single-store misses build against their store's candidates drawn
	// from the generation's shared pool; the two-store and all-store
	// misses build the chain once for all their stores against it.
	if metric(inner, "trustd_verify_chain_builds_total", "per_store") == 0 {
		t.Error("no per-store chain builds under concurrent load")
	}
	if metric(inner, "trustd_verify_chain_builds_total", "shared") == 0 {
		t.Error("no shared chain builds under concurrent load")
	}
}
