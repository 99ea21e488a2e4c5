package service_test

// Hot-swap regression: 32 goroutines hammer the read and verify endpoints
// through a real HTTP listener while the main goroutine swaps the serving
// database back and forth. Run under -race (CI does) this is the proof
// behind the tracker's reload path: no request may ever observe a torn
// generation, error with a 5xx, or flip a verdict for a root trusted in
// both databases.

import (
	"bytes"
	"encoding/json"
	"encoding/pem"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/certgen"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/testcerts"
)

// swapDB builds a two-provider database over the shared test roots at the
// given indices, with fresh snapshots (snapshots bind to one database's
// interner and must not be shared across generations).
func swapDB(t *testing.T, version string, idx ...int) *store.Database {
	t.Helper()
	db := store.NewDatabase()
	for _, provider := range []string{"NSS", "Debian"} {
		snap := store.NewSnapshot(provider, version, ts(2020, 1, 1))
		for _, i := range idx {
			e, err := store.NewTrustedEntry(testcerts.Roots(i + 1)[i].DER, store.ServerAuth)
			if err != nil {
				t.Fatal(err)
			}
			snap.Add(e)
		}
		if err := db.AddSnapshot(snap); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func TestHotSwapUnderQueryStorm(t *testing.T) {
	if testing.Short() {
		t.Skip("swap storm skipped in -short mode")
	}
	// Generation A trusts roots 0..2; generation B drops root 0 and adds
	// root 3. Root 1 is trusted in both, so a chain under it must verify
	// "ok" no matter which generation answers.
	dbA := swapDB(t, "2020-01-01", 0, 1, 2)
	dbB := swapDB(t, "2020-01-01", 1, 2, 3)

	anchor := testcerts.Roots(2)[1]
	leafDER, _, err := anchor.IssueLeaf(testcerts.Pool(), certgen.LeafSpec{
		CommonName: "swap.example.test",
		DNSNames:   []string{"swap.example.test"},
		NotBefore:  ts(2019, 1, 1),
		NotAfter:   ts(2030, 1, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	chain := string(pem.EncodeToMemory(&pem.Block{Type: "CERTIFICATE", Bytes: leafDER}))

	stableFP := fingerprintOf(t, dbA, 1)
	removedFP := fingerprintOf(t, dbA, 0)
	addedFP := fingerprintOf(t, dbB, 3)

	inner := service.New(dbA, service.Config{})
	srv := httptest.NewServer(inner.Handler())
	defer srv.Close()

	const goroutines = 32
	const perGoroutine = 40
	var failures atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	swapDone := make(chan struct{})

	// Swapper: flip generations as fast as the storm runs.
	go func() {
		defer close(swapDone)
		flip := false
		for {
			select {
			case <-stop:
				return
			default:
			}
			if flip {
				inner.Swap(dbA)
			} else {
				inner.Swap(dbB)
			}
			flip = !flip
			time.Sleep(200 * time.Microsecond)
		}
	}()

	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			client := srv.Client()
			for i := 0; i < perGoroutine; i++ {
				var resp *http.Response
				var err error
				switch (g + i) % 4 {
				case 0:
					resp, err = client.Get(srv.URL + "/v1/roots/" + stableFP)
				case 1:
					resp, err = client.Get(srv.URL + "/v1/diff?a=NSS&b=Debian")
				case 2:
					resp, err = client.Get(srv.URL + "/healthz")
				case 3:
					raw, _ := json.Marshal(map[string]any{
						"chain_pem": chain,
						"at":        "2020-06-01",
						"dns_name":  "swap.example.test",
					})
					resp, err = client.Post(srv.URL+"/v1/verify", "application/json", bytes.NewReader(raw))
				}
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					failures.Add(1)
					return
				}
				data, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode >= 500 {
					t.Errorf("goroutine %d: status %d mid-swap: %s", g, resp.StatusCode, data)
					failures.Add(1)
					return
				}
				// The root trusted in both generations must stay found, and
				// its chain must verify ok, whichever database answered.
				if (g+i)%4 == 0 && resp.StatusCode != http.StatusOK {
					t.Errorf("goroutine %d: stable root vanished: %d", g, resp.StatusCode)
					failures.Add(1)
					return
				}
				if (g+i)%4 == 3 {
					var out struct {
						Verdicts []struct {
							Outcome string `json:"outcome"`
						} `json:"verdicts"`
					}
					if err := json.Unmarshal(data, &out); err != nil || len(out.Verdicts) == 0 {
						t.Errorf("goroutine %d: bad verify body %s", g, data)
						failures.Add(1)
						return
					}
					for _, v := range out.Verdicts {
						if v.Outcome != "ok" {
							t.Errorf("goroutine %d: stable chain verdict %q mid-swap", g, v.Outcome)
							failures.Add(1)
							return
						}
					}
				}
			}
		}(g)
	}

	// Wait for the storm to finish, then retire the swapper.
	storm := make(chan struct{})
	go func() { wg.Wait(); close(storm) }()
	select {
	case <-storm:
	case <-time.After(2 * time.Minute):
		t.Fatal("storm deadlocked")
	}
	close(stop)
	<-swapDone

	if failures.Load() > 0 {
		t.Fatalf("%d requests failed during hot swaps", failures.Load())
	}

	// Settle on generation B and check the swap actually took effect.
	inner.Swap(dbB)
	if resp, err := srv.Client().Get(srv.URL + "/v1/roots/" + removedFP); err != nil || resp.StatusCode != http.StatusNotFound {
		t.Errorf("removed root still served after swap: %v %v", resp.StatusCode, err)
	} else {
		resp.Body.Close()
	}
	if resp, err := srv.Client().Get(srv.URL + "/v1/roots/" + addedFP); err != nil || resp.StatusCode != http.StatusOK {
		t.Errorf("added root not served after swap: %v %v", resp.StatusCode, err)
	} else {
		resp.Body.Close()
	}
	if n := metric(inner, "trustd_reloads_total"); n < 2 {
		t.Errorf("reloads_total = %v, want the storm's swaps counted", n)
	}
}

// fingerprintOf resolves the shared test root at idx to its hex fingerprint
// via the database's own entries (keeps the test honest about identity).
func fingerprintOf(t *testing.T, db *store.Database, idx int) string {
	t.Helper()
	e, err := store.NewTrustedEntry(testcerts.Roots(idx + 1)[idx].DER, store.ServerAuth)
	if err != nil {
		t.Fatal(err)
	}
	for _, snap := range db.AllSnapshots() {
		if got, ok := snap.Lookup(e.Fingerprint); ok {
			return got.Fingerprint.String()
		}
	}
	return e.Fingerprint.String()
}
