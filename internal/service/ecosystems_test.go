package service_test

// The non-TLS ecosystem surface of the serving layer: /v1/providers kind
// tags, the provider_kinds gauge, and verification routed against a CT-log
// store like any other provider.

import (
	"encoding/json"
	"encoding/pem"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	trustroots "repro"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/synth"
)

func ecosystemServer(t *testing.T) (*synth.Ecosystem, *service.Server) {
	t.Helper()
	eco, err := synth.CachedWithEcosystems("trustd-eco-test")
	if err != nil {
		t.Fatal(err)
	}
	return eco, service.New(eco.DB, service.Config{})
}

func TestProvidersKindTags(t *testing.T) {
	_, srv := ecosystemServer(t)
	var resp struct {
		Providers []struct {
			Name string `json:"name"`
			Kind string `json:"kind"`
		} `json:"providers"`
	}
	res := get(t, srv, "/v1/providers", &resp)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", res.StatusCode)
	}
	want := map[string]string{"NSS": "tls", "Debian": "tls"}
	for name, kind := range synth.EcosystemProviders() {
		want[name] = string(kind)
	}
	got := make(map[string]string)
	for _, p := range resp.Providers {
		if p.Kind == "" {
			t.Errorf("%s: empty kind tag", p.Name)
		}
		got[p.Name] = p.Kind
	}
	for name, kind := range want {
		if got[name] != kind {
			t.Errorf("%s: kind %q, want %q", name, got[name], kind)
		}
	}
}

func TestProviderKindsMetrics(t *testing.T) {
	_, srv := ecosystemServer(t)
	if got := metric(srv, "trustd_provider_kinds", "ct"); got != float64(len(synth.CTLogs())) {
		t.Errorf("ct kind count = %v, want %d", got, len(synth.CTLogs()))
	}
	if got := metric(srv, "trustd_provider_kinds", "manifest"); got != 1 {
		t.Errorf("manifest kind count = %v, want 1", got)
	}
	if got := metric(srv, "trustd_provider_kinds", "tls"); got != 10 {
		t.Errorf("tls kind count = %v, want 10", got)
	}

	// The JSON view carries the same map.
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	var tree struct {
		ProviderKinds map[string]int `json:"trustd_provider_kinds"`
	}
	if err := json.NewDecoder(rec.Result().Body).Decode(&tree); err != nil {
		t.Fatalf("decode /metrics: %v", err)
	}
	if tree.ProviderKinds["ct"] != len(synth.CTLogs()) || tree.ProviderKinds["manifest"] != 1 {
		t.Errorf("/metrics provider_kinds = %v", tree.ProviderKinds)
	}

	// And the Prometheus exposition renders one labelled gauge per kind.
	req = httptest.NewRequest(http.MethodGet, "/metrics/prometheus", nil)
	rec = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	body, _ := io.ReadAll(rec.Result().Body)
	for _, line := range []string{
		`trustd_provider_kinds{kind="ct"} 4`,
		`trustd_provider_kinds{kind="manifest"} 1`,
		`trustd_provider_kinds{kind="tls"} 10`,
	} {
		if !strings.Contains(string(body), line) {
			t.Errorf("prometheus exposition missing %q", line)
		}
	}
}

// TestVerifyAgainstCTStore drives /v1/verify with a chain that anchors to
// a root only the CT logs accept (an operator's submission-only cohort):
// every browser store answers no-anchor while the log stores trust it —
// the codec layer is the only place the formats ever differed.
func TestVerifyAgainstCTStore(t *testing.T) {
	eco, srv := ecosystemServer(t)
	log := eco.DB.History("CT-Argon").Latest()
	var ctOnly *store.TrustEntry
	for _, e := range log.Entries() {
		if ca := eco.Universe.Lookup(e.Label); ca != nil && ca.Category == synth.CatCTOnly {
			ctOnly = e
			break
		}
	}
	if ctOnly == nil {
		t.Fatal("no submission-only root in CT-Argon")
	}
	ca := eco.Universe.Lookup(ctOnly.Label)
	if ca == nil {
		t.Fatalf("CA %q not in universe", ctOnly.Label)
	}
	leafDER, err := trustroots.IssueLeaf(ca, "submitter.example.test", ts(2020, 1, 1), ts(2023, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	chain := string(pem.EncodeToMemory(&pem.Block{Type: "CERTIFICATE", Bytes: leafDER}))

	status, out := postVerify(t, srv, map[string]any{
		"chain_pem": chain,
		"stores":    []string{"CT-Argon", "CT-Yeti", "NSS"},
	})
	if status != http.StatusOK {
		t.Fatalf("status = %d: %v", status, out)
	}
	rows, _ := out["verdicts"].([]any)
	outcomes := make(map[string]string)
	for _, r := range rows {
		row, _ := r.(map[string]any)
		prov, _ := row["provider"].(string)
		outcome, _ := row["outcome"].(string)
		outcomes[prov] = outcome
	}
	if outcomes["CT-Argon"] != "ok" {
		t.Errorf("CT-Argon outcome = %q, want ok (all: %v)", outcomes["CT-Argon"], outcomes)
	}
	if outcomes["NSS"] == "ok" {
		t.Errorf("NSS trusts a submission-only root: %v", outcomes)
	}
}
