package service_test

// End-to-end tests of the what-if simulation API: the Symantec-style
// distrust-after scenario against the synthetic ecosystem, sweep caching
// and conditional GETs, generation pinning under hot swaps, and the
// body-cap parity POST /v1/simulate must keep with POST /v1/verify.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	trustroots "repro"
	"repro/internal/certutil"
	"repro/internal/service"
	"repro/internal/simulate"
	"repro/internal/store"
	"repro/internal/testcerts"
)

// postSimulate posts a simulate request and decodes the response.
func postSimulate(t testing.TB, srv *service.Server, body map[string]any) (*http.Response, map[string]any) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/simulate", bytes.NewReader(raw))
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	res := rec.Result()
	var out map[string]any
	data, _ := io.ReadAll(res.Body)
	if len(data) > 0 {
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatalf("POST /v1/simulate: decode %q: %v", data, err)
		}
	}
	return res, out
}

// symantecFingerprint finds an NSS root carrying a server-auth
// distrust-after annotation — the synthetic Symantec cohort.
func symantecFingerprint(t testing.TB) string {
	t.Helper()
	eco, _ := fixture(t)
	snap := eco.DB.History(trustroots.NSS).At(ts(2020, 9, 15))
	for _, e := range snap.Entries() {
		if _, ok := e.DistrustAfterFor(store.ServerAuth); ok {
			return e.Fingerprint.String()
		}
	}
	t.Fatal("no partially distrusted root in NSS snapshot")
	return ""
}

func TestSimulateSymantecScenario(t *testing.T) {
	eco, srv := fixture(t)
	fp := symantecFingerprint(t)

	res, out := postSimulate(t, srv, map[string]any{
		"kind":         "distrust-after",
		"fingerprints": []string{fp},
	})
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %v", res.StatusCode, out)
	}
	if res.Header.Get("X-Rootpack-Hash") == "" {
		t.Error("response not stamped with generation hash")
	}
	if out["kind"] != "distrust-after" || out["provider"] != trustroots.NSS {
		t.Errorf("kind/provider = %v/%v", out["kind"], out["provider"])
	}

	// The API answer must agree with an engine run over the same database
	// — the service adds transport, not arithmetic.
	parsed, err := certutil.ParseFingerprint(fp)
	if err != nil {
		t.Fatal(err)
	}
	want, err := simulate.New(eco.DB, simulate.Options{}).Simulate(simulate.Event{
		Kind:         simulate.KindDistrustAfter,
		Fingerprints: []certutil.Fingerprint{parsed},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := out["impact_fraction"].(float64); got != want.ImpactFraction {
		t.Errorf("impact = %v, engine says %v", got, want.ImpactFraction)
	}
	if got := out["trusted_fraction"].(float64); got != want.TrustedFraction {
		t.Errorf("trusted = %v, engine says %v", got, want.TrustedFraction)
	}
	if want.ImpactFraction <= 0 {
		t.Error("Symantec scenario should impact the NSS family share")
	}

	// §6.2's finding, live: every synthetic derivative ships a flattened
	// format, so none can honor the cutoff — each one either ignores it
	// (full trust), overblocks (dropped the root) or never carried it.
	risks, _ := out["mismatch_risks"].([]any)
	if len(risks) == 0 {
		t.Fatal("distrust-after event produced no mismatch risks")
	}
	for _, raw := range risks {
		row := raw.(map[string]any)
		if row["supports_distrust_after"] == true {
			t.Errorf("derivative %v claims distrust-after support; synth derivatives are flattened", row["derivative"])
		}
		switch row["risk"] {
		case simulate.MismatchIgnored, simulate.MismatchRemoved, simulate.MismatchNotTrusted:
		default:
			t.Errorf("derivative %v has unexpected risk %v", row["derivative"], row["risk"])
		}
	}
}

func TestSimulateErrorsOverHTTP(t *testing.T) {
	_, srv := fixture(t)
	fp := symantecFingerprint(t)
	cases := []struct {
		name string
		body map[string]any
		want int
	}{
		{"unknown provider", map[string]any{"kind": "removal", "store": "Netscape", "fingerprints": []string{fp}}, http.StatusNotFound},
		{"owner matches nothing", map[string]any{"kind": "ca-removal", "owner": "Honest Achmed"}, http.StatusNotFound},
		{"unknown kind", map[string]any{"kind": "merger"}, http.StatusBadRequest},
		{"malformed fingerprint", map[string]any{"kind": "removal", "fingerprints": []string{"zz"}}, http.StatusBadRequest},
		{"missing fingerprints", map[string]any{"kind": "removal"}, http.StatusBadRequest},
		{"bad date", map[string]any{"kind": "removal", "fingerprints": []string{fp}, "date": "soon"}, http.StatusBadRequest},
		{"bad purpose", map[string]any{"kind": "removal", "fingerprints": []string{fp}, "purpose": "tea-making"}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		if res, out := postSimulate(t, srv, tc.body); res.StatusCode != tc.want {
			t.Errorf("%s: status = %d, want %d (%v)", tc.name, res.StatusCode, tc.want, out)
		}
	}

	// A valid event followed by trailing data is malformed, not ignored.
	raw, _ := json.Marshal(map[string]any{"kind": "removal", "fingerprints": []string{fp}})
	req := httptest.NewRequest(http.MethodPost, "/v1/simulate", strings.NewReader(string(raw)+" garbage"))
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("trailing data: status = %d, want 400: %s", rec.Code, rec.Body.String())
	}
}

func TestSimulateSweepCachingAndETag(t *testing.T) {
	// Private server: the fixture's sweep counters are shared with other
	// tests, and this test asserts exact build counts.
	eco, _ := fixture(t)
	srv := service.New(eco.DB, service.Config{})

	var resp struct {
		Pairs int `json:"pairs"`
		Roots int `json:"roots"`
		Top   []struct {
			Fingerprint string  `json:"fingerprint"`
			Store       string  `json:"store"`
			Impact      float64 `json:"impact"`
		} `json:"top"`
	}
	res := get(t, srv, "/v1/simulate/sweep", &resp)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", res.StatusCode)
	}
	etag := res.Header.Get("ETag")
	if etag == "" {
		t.Fatal("sweep response has no ETag")
	}
	if resp.Pairs == 0 || len(resp.Top) == 0 || len(resp.Top) > 20 {
		t.Fatalf("pairs=%d top=%d, want non-empty top capped at 20", resp.Pairs, len(resp.Top))
	}
	for i := 1; i < len(resp.Top); i++ {
		if resp.Top[i].Impact > resp.Top[i-1].Impact {
			t.Fatal("top entries not ranked by impact")
		}
	}

	var small struct {
		Top []json.RawMessage `json:"top"`
	}
	if res := get(t, srv, "/v1/simulate/sweep?n=3", &small); res.StatusCode != http.StatusOK || len(small.Top) != 3 {
		t.Fatalf("?n=3: status %d, top %d", res.StatusCode, len(small.Top))
	}
	if res := get(t, srv, "/v1/simulate/sweep?n=bogus", nil); res.StatusCode != http.StatusBadRequest {
		t.Errorf("?n=bogus: status %d, want 400", res.StatusCode)
	}

	// The ranking is computed once per generation however many times it
	// is served.
	if builds := metric(srv, "trustd_simulate_sweep_builds_total"); builds != 1 {
		t.Errorf("sweep builds = %v after 2 full responses, want 1", builds)
	}

	// A conditional request against the same generation costs a 304.
	req := httptest.NewRequest(http.MethodGet, "/v1/simulate/sweep", nil)
	req.Header.Set("If-None-Match", etag)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusNotModified {
		t.Fatalf("conditional status = %d, want 304", rec.Code)
	}

	// Swapping in a different database invalidates the tag and triggers
	// exactly one rebuild. (Re-installing the same content keeps the same
	// hash — a conditional GET would still 304, correctly.)
	other := store.NewDatabase()
	snap := store.NewSnapshot(trustroots.NSS, "tiny", time.Date(2021, 1, 1, 0, 0, 0, 0, time.UTC))
	e, err := store.NewTrustedEntry(testcerts.Roots(1)[0].DER, store.ServerAuth)
	if err != nil {
		t.Fatal(err)
	}
	snap.Add(e)
	if err := other.AddSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	srv.Swap(other)
	rec = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req) // same If-None-Match, new generation
	if rec.Code != http.StatusOK {
		t.Fatalf("post-swap conditional status = %d, want 200", rec.Code)
	}
	if builds := metric(srv, "trustd_simulate_sweep_builds_total"); builds != 2 {
		t.Errorf("sweep builds = %v after swap, want 2", builds)
	}
}

// TestSimulateHotSwapPinning proves no generation mixing: under a swap
// storm between a database that carries a root and one that never saw it,
// every response's generation header must agree with its outcome —
// impact for the generation that has the root, 404 for the one that
// does not.
func TestSimulateHotSwapPinning(t *testing.T) {
	roots := testcerts.Roots(2)
	day := time.Date(2021, 1, 1, 0, 0, 0, 0, time.UTC)
	mkdb := func(idx ...int) *store.Database {
		db := store.NewDatabase()
		snap := store.NewSnapshot(trustroots.NSS, "1", day)
		for _, i := range idx {
			e, err := store.NewTrustedEntry(roots[i].DER, store.ServerAuth)
			if err != nil {
				t.Fatal(err)
			}
			snap.Add(e)
		}
		if err := db.AddSnapshot(snap); err != nil {
			t.Fatal(err)
		}
		return db
	}
	withRoot, withoutRoot := mkdb(0, 1), mkdb(1)
	target := certutil.SHA256Fingerprint(roots[0].DER).String()

	srv := service.New(withRoot, service.Config{})
	var hashWith, hashWithout string
	{
		res, _ := postSimulate(t, srv, map[string]any{"kind": "removal", "fingerprints": []string{target}})
		hashWith = res.Header.Get("X-Rootpack-Hash")
	}
	srv.Swap(withoutRoot)
	{
		res, _ := postSimulate(t, srv, map[string]any{"kind": "removal", "fingerprints": []string{target}})
		hashWithout = res.Header.Get("X-Rootpack-Hash")
	}
	if hashWith == "" || hashWithout == "" || hashWith == hashWithout {
		t.Fatalf("generations not distinguishable: %q vs %q", hashWith, hashWithout)
	}

	stop := make(chan struct{})
	var swapper sync.WaitGroup
	swapper.Add(1)
	go func() {
		defer swapper.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				srv.Swap(withRoot)
			} else {
				srv.Swap(withoutRoot)
			}
		}
	}()

	body, _ := json.Marshal(map[string]any{"kind": "removal", "fingerprints": []string{target}})
	var workers sync.WaitGroup
	for g := 0; g < 8; g++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			for i := 0; i < 50; i++ {
				req := httptest.NewRequest(http.MethodPost, "/v1/simulate", bytes.NewReader(body))
				rec := httptest.NewRecorder()
				srv.Handler().ServeHTTP(rec, req)
				hash := rec.Header().Get("X-Rootpack-Hash")
				switch hash {
				case hashWith:
					if rec.Code != http.StatusOK {
						t.Errorf("generation %s answered %d, want 200", hash[:8], rec.Code)
						return
					}
				case hashWithout:
					if rec.Code != http.StatusNotFound {
						t.Errorf("generation %s answered %d, want 404", hash[:8], rec.Code)
						return
					}
				default:
					t.Errorf("response stamped with unknown generation %q", hash)
					return
				}
			}
		}()
	}
	workers.Wait()
	close(stop)
	swapper.Wait()
}

// TestSimulateBodyCapParity pins the satellite requirement: POST
// /v1/simulate refuses oversized bodies with the same 413 and the same
// configured cap as POST /v1/verify.
func TestSimulateBodyCapParity(t *testing.T) {
	roots := testcerts.Roots(1)
	db := store.NewDatabase()
	snap := store.NewSnapshot(trustroots.NSS, "1", time.Date(2021, 1, 1, 0, 0, 0, 0, time.UTC))
	e, err := store.NewTrustedEntry(roots[0].DER, store.ServerAuth)
	if err != nil {
		t.Fatal(err)
	}
	snap.Add(e)
	if err := db.AddSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	srv := service.New(db, service.Config{MaxBodyBytes: 256})

	oversized := `{"pad":"` + strings.Repeat("x", 512) + `"}`
	for _, path := range []string{"/v1/verify", "/v1/simulate"} {
		req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(oversized))
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s oversized: status = %d, want 413", path, rec.Code)
		}
		if !strings.Contains(rec.Body.String(), "256 bytes") {
			t.Errorf("POST %s 413 body does not name the shared cap: %s", path, rec.Body.String())
		}
	}
}

// TestSimulateMetricsExposition posts a removal and a sweep: the removal's
// divergence windows are the engine's, naming the NSS derivatives left
// trusting the root, and the simulate families reach the exposition.
func TestSimulateMetricsExposition(t *testing.T) {
	eco, srv := fixture(t)
	fp := symantecFingerprint(t)
	res, out := postSimulate(t, srv, map[string]any{"kind": "removal", "fingerprints": []string{fp}})
	if res.StatusCode != http.StatusOK {
		t.Fatalf("simulate: %d %v", res.StatusCode, out)
	}
	parsed, err := certutil.ParseFingerprint(fp)
	if err != nil {
		t.Fatal(err)
	}
	want, err := simulate.New(eco.DB, simulate.Options{}).Simulate(simulate.Event{
		Kind:         simulate.KindRemoval,
		Fingerprints: []certutil.Fingerprint{parsed},
	})
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := json.Marshal(want.Divergence)
	var wantRows []any
	if err := json.Unmarshal(raw, &wantRows); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out["divergence"], wantRows) {
		t.Errorf("divergence over HTTP %v, engine says %v", out["divergence"], wantRows)
	}
	if !slices.ContainsFunc(want.Divergence, func(w simulate.DivergenceWindow) bool { return w.Derivative }) {
		t.Errorf("removal from NSS opened no derivative window: %+v", want.Divergence)
	}
	if get(t, srv, "/v1/simulate/sweep", nil).StatusCode != http.StatusOK {
		t.Fatal("sweep failed")
	}
	if n := metric(srv, "trustd_simulate_events_total", "removal"); n < 1 {
		t.Errorf("simulate_events[removal] = %v, want >= 1", n)
	}
	if n := metric(srv, "trustd_simulate_sweeps_total"); n < 1 {
		t.Errorf("simulate_sweeps_total = %v, want >= 1", n)
	}

	req := httptest.NewRequest(http.MethodGet, "/metrics/prometheus", nil)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	text := rec.Body.String()
	for _, family := range []string{
		"trustd_simulate_events_total",
		"trustd_simulate_sweeps_total",
		"trustd_simulate_sweep_builds_total",
		"trustd_simulate_sweep_pairs",
		"trustd_simulate_sweep_build_seconds",
	} {
		if !strings.Contains(text, family) {
			t.Errorf("exposition missing %s", family)
		}
	}
}
