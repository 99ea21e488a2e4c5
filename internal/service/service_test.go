package service_test

// End-to-end tests driving every endpoint of the serving layer through
// httptest against the deterministic synthetic ecosystem — including the
// paper's headline observable: the same PEM chain returning different
// verdicts depending on which client's User-Agent asks.

import (
	"bytes"
	"encoding/json"
	"encoding/pem"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	trustroots "repro"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/synth"
)

var (
	fixtureOnce sync.Once
	fixtureEco  *synth.Ecosystem
	fixtureSrv  *service.Server
	fixtureErr  error
)

// fixture returns the shared ecosystem and server (built once per process).
func fixture(t testing.TB) (*synth.Ecosystem, *service.Server) {
	t.Helper()
	fixtureOnce.Do(func() {
		fixtureEco, fixtureErr = synth.Cached("trustd-test")
		if fixtureErr != nil {
			return
		}
		fixtureSrv = service.New(fixtureEco.DB, service.Config{})
	})
	if fixtureErr != nil {
		t.Fatalf("generate ecosystem: %v", fixtureErr)
	}
	return fixtureEco, fixtureSrv
}

func ts(y, m, d int) time.Time { return time.Date(y, time.Month(m), d, 0, 0, 0, 0, time.UTC) }

// get performs a GET against the handler and decodes the JSON body into out.
// metric reads one series from the server's registry, 0 when absent.
func metric(srv *service.Server, name string, labels ...string) float64 {
	v, _ := srv.Metrics().Value(name, labels...)
	return v
}

func get(t *testing.T, srv *service.Server, path string, out any) *http.Response {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	res := rec.Result()
	if out != nil && res.StatusCode == http.StatusOK {
		if err := json.NewDecoder(res.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: decode: %v", path, err)
		}
	}
	return res
}

// postVerify posts a verify request body and decodes the response.
func postVerify(t *testing.T, srv *service.Server, body map[string]any) (int, map[string]any) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/verify", bytes.NewReader(raw))
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	var out map[string]any
	data, _ := io.ReadAll(rec.Result().Body)
	if len(data) > 0 {
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatalf("POST /v1/verify: decode %q: %v", data, err)
		}
	}
	return rec.Result().StatusCode, out
}

// symantecChain mints a post-cutoff leaf under an NSS partially distrusted
// root and returns it as PEM — the §6.2 fixture chain.
func symantecChain(t testing.TB, eco *synth.Ecosystem) (chainPEM string, cutoff time.Time) {
	t.Helper()
	nssSnap := eco.DB.History(trustroots.NSS).At(ts(2020, 9, 15))
	var anchor *store.TrustEntry
	for _, e := range nssSnap.Entries() {
		if _, ok := e.DistrustAfterFor(store.ServerAuth); ok {
			anchor = e
			break
		}
	}
	if anchor == nil {
		t.Fatal("no partially distrusted root in NSS snapshot")
	}
	ca := eco.Universe.Lookup(anchor.Label)
	if ca == nil {
		t.Fatalf("CA %q not in universe", anchor.Label)
	}
	cutoff, _ = anchor.DistrustAfterFor(store.ServerAuth)
	leafDER, err := trustroots.IssueLeaf(ca, "shop.example.test", cutoff.AddDate(0, 2, 0), cutoff.AddDate(2, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pem.Encode(&buf, &pem.Block{Type: "CERTIFICATE", Bytes: leafDER}); err != nil {
		t.Fatal(err)
	}
	return buf.String(), cutoff
}

const (
	uaFirefox = "Mozilla/5.0 (Macintosh; Intel Mac OS X 10.15; rv:80.0) Gecko/20100101 Firefox/80.0"
	uaSafari  = "Mozilla/5.0 (Macintosh; Intel Mac OS X 10_15_6) AppleWebKit/605.1.15 (KHTML, like Gecko) Version/14.0.1 Safari/605.1.15"
	uaEdge    = "Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/88.0.4324.50 Safari/537.36 Edg/88.0.705.50"
)

func TestProviders(t *testing.T) {
	_, srv := fixture(t)
	var resp struct {
		Providers []struct {
			Name      string `json:"name"`
			Snapshots int    `json:"snapshots"`
		} `json:"providers"`
		TotalSnapshots int `json:"total_snapshots"`
		IndexedRoots   int `json:"indexed_roots"`
	}
	res := get(t, srv, "/v1/providers", &resp)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", res.StatusCode)
	}
	if len(resp.Providers) != 10 {
		t.Fatalf("providers = %d, want 10", len(resp.Providers))
	}
	if resp.TotalSnapshots < 619 {
		t.Errorf("total snapshots = %d, want >= 619", resp.TotalSnapshots)
	}
	if resp.IndexedRoots == 0 {
		t.Error("index is empty")
	}
}

func TestProviderSnapshots(t *testing.T) {
	_, srv := fixture(t)
	var resp struct {
		Provider  string `json:"provider"`
		Snapshots []struct {
			Version string    `json:"version"`
			Date    time.Time `json:"date"`
			Roots   int       `json:"roots"`
		} `json:"snapshots"`
	}
	res := get(t, srv, "/v1/providers/NSS/snapshots", &resp)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", res.StatusCode)
	}
	if len(resp.Snapshots) == 0 {
		t.Fatal("no snapshots")
	}
	for i := 1; i < len(resp.Snapshots); i++ {
		if resp.Snapshots[i].Date.Before(resp.Snapshots[i-1].Date) {
			t.Errorf("snapshots out of order at %d", i)
		}
	}
	if res := get(t, srv, "/v1/providers/NetBSD/snapshots", nil); res.StatusCode != http.StatusNotFound {
		t.Errorf("unknown provider status = %d, want 404", res.StatusCode)
	}
}

func TestRootLookup(t *testing.T) {
	eco, srv := fixture(t)
	entry := eco.DB.History(trustroots.NSS).Latest().Entries()[0]
	var info struct {
		Fingerprint string   `json:"fingerprint"`
		Providers   []string `json:"providers"`
		Presences   []struct {
			Provider string            `json:"provider"`
			Trust    map[string]string `json:"trust"`
		} `json:"presences"`
	}
	res := get(t, srv, "/v1/roots/"+entry.Fingerprint.String(), &info)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", res.StatusCode)
	}
	if info.Fingerprint != entry.Fingerprint.String() {
		t.Errorf("fingerprint = %q", info.Fingerprint)
	}
	if len(info.Presences) == 0 || len(info.Providers) == 0 {
		t.Fatal("no presences for a root in the latest NSS store")
	}

	if res := get(t, srv, "/v1/roots/"+strings.Repeat("0", 64), nil); res.StatusCode != http.StatusNotFound {
		t.Errorf("unknown fingerprint status = %d, want 404", res.StatusCode)
	}
	if res := get(t, srv, "/v1/roots/nothex", nil); res.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed fingerprint status = %d, want 400", res.StatusCode)
	}
}

func TestDiff(t *testing.T) {
	eco, srv := fixture(t)
	snaps := eco.DB.History(trustroots.NSS).Snapshots()
	first, last := snaps[0], snaps[len(snaps)-1]
	var resp struct {
		A            string `json:"a"`
		B            string `json:"b"`
		Added        []any  `json:"added"`
		Removed      []any  `json:"removed"`
		TrustChanges []any  `json:"trust_changes"`
	}
	path := fmt.Sprintf("/v1/diff?a=NSS@%s&b=NSS@%s", first.Version, last.Version)
	res := get(t, srv, path, &resp)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", res.StatusCode)
	}
	if len(resp.Added)+len(resp.Removed)+len(resp.TrustChanges) == 0 {
		t.Error("first→last NSS diff is empty; the history should churn")
	}

	if res := get(t, srv, "/v1/diff?a=NSS", nil); res.StatusCode != http.StatusBadRequest {
		t.Errorf("missing b status = %d, want 400", res.StatusCode)
	}
	if res := get(t, srv, "/v1/diff?a=NSS&b=NetBSD", nil); res.StatusCode != http.StatusNotFound {
		t.Errorf("unknown provider status = %d, want 404", res.StatusCode)
	}
	if res := get(t, srv, "/v1/diff?a=NSS@nope&b=NSS", nil); res.StatusCode != http.StatusNotFound {
		t.Errorf("unknown version status = %d, want 404", res.StatusCode)
	}
}

// TestVerifyUADivergence is the acceptance scenario: one chain, three
// User-Agents, three different verdicts — because Firefox consults NSS
// (partial distrust), Safari the Apple store, and Edge the Microsoft store
// (which kept Symantec trusted through the study window).
func TestVerifyUADivergence(t *testing.T) {
	eco, srv := fixture(t)
	chain, _ := symantecChain(t, eco)
	at := "2020-11-15"

	verdictFor := func(ua string) (outcome, provider string) {
		t.Helper()
		status, resp := postVerify(t, srv, map[string]any{
			"chain_pem": chain, "user_agent": ua, "at": at,
		})
		if status != http.StatusOK {
			t.Fatalf("UA %q: status = %d (%v)", ua, status, resp)
		}
		verdicts := resp["verdicts"].([]any)
		if len(verdicts) != 1 {
			t.Fatalf("UA %q: %d verdicts, want 1", ua, len(verdicts))
		}
		v := verdicts[0].(map[string]any)
		return v["outcome"].(string), v["provider"].(string)
	}

	ffOutcome, ffProv := verdictFor(uaFirefox)
	safOutcome, safProv := verdictFor(uaSafari)
	edgeOutcome, edgeProv := verdictFor(uaEdge)

	if ffProv != "NSS" || safProv != "Apple" || edgeProv != "Microsoft" {
		t.Fatalf("UA routing wrong: firefox→%s safari→%s edge→%s", ffProv, safProv, edgeProv)
	}
	if ffOutcome != "anchor-partial-distrust" {
		t.Errorf("NSS outcome = %q, want anchor-partial-distrust", ffOutcome)
	}
	if edgeOutcome != "ok" {
		t.Errorf("Microsoft outcome = %q, want ok (Symantec stayed trusted)", edgeOutcome)
	}
	if safOutcome == ffOutcome && safOutcome == edgeOutcome {
		t.Errorf("all verdicts agree (%q); stores should disagree", safOutcome)
	}
	t.Logf("one chain, three clients: Firefox=%s Safari=%s Edge=%s", ffOutcome, safOutcome, edgeOutcome)
}

// TestVerifyFlattenedDerivative checks the §6.2 failure through the API:
// NSS rejects the post-cutoff leaf, Debian's flattened copy accepts it.
func TestVerifyFlattenedDerivative(t *testing.T) {
	eco, srv := fixture(t)
	chain, _ := symantecChain(t, eco)
	status, resp := postVerify(t, srv, map[string]any{
		"chain_pem": chain,
		"stores":    []string{"NSS", "Debian"},
		"at":        "2020-11-15",
	})
	if status != http.StatusOK {
		t.Fatalf("status = %d (%v)", status, resp)
	}
	outcomes := map[string]string{}
	for _, raw := range resp["verdicts"].([]any) {
		v := raw.(map[string]any)
		outcomes[v["provider"].(string)] = v["outcome"].(string)
	}
	if outcomes["NSS"] != "anchor-partial-distrust" {
		t.Errorf("NSS = %q, want anchor-partial-distrust", outcomes["NSS"])
	}
	if outcomes["Debian"] != "ok" {
		t.Errorf("Debian = %q, want ok (the flattened copy's dangerous acceptance)", outcomes["Debian"])
	}
}

func TestVerifyAllStoresAndCaching(t *testing.T) {
	eco, srv := fixture(t)
	chain, _ := symantecChain(t, eco)
	body := map[string]any{"chain_pem": chain, "at": "2020-11-15"}

	status, resp := postVerify(t, srv, body)
	if status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	verdicts := resp["verdicts"].([]any)
	if len(verdicts) != len(eco.DB.Providers()) {
		t.Fatalf("verdicts = %d, want one per provider (%d)", len(verdicts), len(eco.DB.Providers()))
	}

	// Repeat: every verdict must come from the LRU now.
	_, resp = postVerify(t, srv, body)
	for _, raw := range resp["verdicts"].([]any) {
		v := raw.(map[string]any)
		if cached, _ := v["cached"].(bool); !cached {
			t.Errorf("store %v verdict not cached on the second call", v["store"])
		}
	}
	if metric(srv, "trustd_cache_events_total", "verdict", "hit") == 0 {
		t.Error("verdict cache hit counter is zero after a repeat request")
	}
}

func TestVerifyBadInputs(t *testing.T) {
	_, srv := fixture(t)
	cases := []struct {
		name string
		body map[string]any
		want int
	}{
		{"empty chain", map[string]any{"chain_pem": ""}, http.StatusBadRequest},
		{"no certificate blocks", map[string]any{"chain_pem": "-----BEGIN PUBLIC KEY-----\nAAAA\n-----END PUBLIC KEY-----\n"}, http.StatusBadRequest},
		{"garbage PEM body", map[string]any{"chain_pem": "-----BEGIN CERTIFICATE-----\nAAAA\n-----END CERTIFICATE-----\n"}, http.StatusBadRequest},
		{"bad purpose", map[string]any{"chain_pem": "x", "purpose": "world-domination"}, http.StatusBadRequest},
		{"bad at", map[string]any{"chain_pem": "x", "at": "yesterday"}, http.StatusBadRequest},
		{"unknown store", map[string]any{"chain_pem": "x", "stores": []string{"NetBSD"}}, http.StatusNotFound},
		{"untraceable UA no stores", map[string]any{"chain_pem": "x", "user_agent": "okhttp/4.9.0"}, http.StatusUnprocessableEntity},
	}
	eco, _ := fixture(t)
	chain, _ := symantecChain(t, eco)
	for _, tc := range cases {
		if tc.body["chain_pem"] == "x" {
			tc.body["chain_pem"] = chain
		}
		status, _ := postVerify(t, srv, tc.body)
		if status != tc.want {
			t.Errorf("%s: status = %d, want %d", tc.name, status, tc.want)
		}
	}

	// Broken JSON, and a valid object followed by trailing data.
	raw, _ := json.Marshal(map[string]any{"chain_pem": chain})
	for name, body := range map[string]string{
		"broken JSON":   "{not json",
		"trailing data": string(raw) + " garbage",
	} {
		req := httptest.NewRequest(http.MethodPost, "/v1/verify", strings.NewReader(body))
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s status = %d, want 400", name, rec.Code)
		}
	}
}

func TestVerifyOversizedBody(t *testing.T) {
	eco, _ := fixture(t)
	small := service.New(eco.DB, service.Config{MaxBodyBytes: 256})
	big := map[string]any{"chain_pem": strings.Repeat("A", 4096)}
	raw, _ := json.Marshal(big)
	req := httptest.NewRequest(http.MethodPost, "/v1/verify", bytes.NewReader(raw))
	rec := httptest.NewRecorder()
	small.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("status = %d, want 413", rec.Code)
	}
}

func TestHealthz(t *testing.T) {
	_, srv := fixture(t)
	var h struct {
		Status    string `json:"status"`
		Snapshots int    `json:"snapshots"`
	}
	res := get(t, srv, "/healthz", &h)
	if res.StatusCode != http.StatusOK || h.Status != "ok" || h.Snapshots == 0 {
		t.Fatalf("healthz = %d %+v", res.StatusCode, h)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	eco, _ := fixture(t)
	srv := service.New(eco.DB, service.Config{})
	chain, _ := symantecChain(t, eco)
	body := map[string]any{"chain_pem": chain, "stores": []string{"NSS"}, "at": "2020-11-15"}
	postVerify(t, srv, body)
	postVerify(t, srv, body) // warm: verdict cache hit

	var m struct {
		Requests      map[string]float64            `json:"trustd_requests_total"`
		Cache         map[string]map[string]float64 `json:"trustd_cache_events_total"`
		VerdictsTotal float64                       `json:"trustd_verdicts_total"`
		Outcomes      map[string]float64            `json:"trustd_verify_outcomes_total"`
	}
	res := get(t, srv, "/metrics", &m)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", res.StatusCode)
	}
	if m.Requests["POST /v1/verify"] != 2 {
		t.Errorf("request counter = %v, want 2", m.Requests["POST /v1/verify"])
	}
	if m.Cache["verdict"]["hit"] == 0 {
		t.Error("verdict cache hits = 0 after a warm request")
	}
	if m.VerdictsTotal != 2 {
		t.Errorf("verdicts_total = %v, want 2", m.VerdictsTotal)
	}
	if m.Outcomes["anchor-partial-distrust"] == 0 {
		t.Error("outcome counter missing anchor-partial-distrust")
	}
}
