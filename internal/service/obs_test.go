package service_test

// Observability tests: traceparent propagation through the verify fan-out,
// the /debug/traces view of per-store child spans, and the Prometheus
// exposition's wire cleanliness.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/service"
)

const testTraceparent = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"

// TestVerifyTraceparent drives POST /v1/verify with a W3C traceparent
// header and follows the trace end to end: the response must echo the
// caller's trace ID, and /debug/traces must show the request trace with
// one verify.store child span per store in the fan-out. A verify.store
// span is opened only on a verdict-cache miss, so the test builds its own
// server: on the shared fixture an earlier run (-count>1) or test would
// already have cached both verdicts.
func TestVerifyTraceparent(t *testing.T) {
	eco, _ := fixture(t)
	srv := service.New(eco.DB, service.Config{})
	chain, _ := symantecChain(t, eco)

	raw, _ := json.Marshal(map[string]any{
		"chain_pem": chain,
		"stores":    []string{"NSS", "Microsoft"},
	})
	req := httptest.NewRequest(http.MethodPost, "/v1/verify", bytes.NewReader(raw))
	req.Header.Set("traceparent", testTraceparent)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	res := rec.Result()
	if res.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(res.Body)
		t.Fatalf("verify status = %d: %s", res.StatusCode, body)
	}

	const wantTraceID = "4bf92f3577b34da6a3ce929d0e0e4736"
	if got := res.Header.Get("X-Trace-Id"); got != wantTraceID {
		t.Errorf("X-Trace-Id = %q, want %q", got, wantTraceID)
	}
	hdr := res.Header.Get("Traceparent")
	tp, err := obs.ParseTraceparent(hdr)
	if err != nil {
		t.Fatalf("response Traceparent %q unparseable: %v", hdr, err)
	}
	if tp.TraceID.String() != wantTraceID {
		t.Errorf("response trace id = %s, want %s", tp.TraceID, wantTraceID)
	}
	if tp.SpanID.String() == "00f067aa0ba902b7" {
		t.Error("response span id should be the server's root span, not the caller's span")
	}

	// The trace must be queryable with the per-store fan-out spans.
	dreq := httptest.NewRequest(http.MethodGet, "/debug/traces?n=256", nil)
	drec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(drec, dreq)
	var dump struct {
		Recent []struct {
			TraceID      string `json:"trace_id"`
			Name         string `json:"name"`
			RemoteParent string `json:"remote_parent"`
			Spans        []struct {
				Name     string `json:"name"`
				ParentID string `json:"parent_id"`
				Attrs    []struct {
					Key   string `json:"key"`
					Value string `json:"value"`
				} `json:"attrs"`
			} `json:"spans"`
		} `json:"recent"`
	}
	if err := json.NewDecoder(drec.Result().Body).Decode(&dump); err != nil {
		t.Fatalf("decode /debug/traces: %v", err)
	}
	for _, tr := range dump.Recent {
		if tr.TraceID != wantTraceID {
			continue
		}
		if tr.Name != "POST /v1/verify" {
			t.Errorf("trace name = %q", tr.Name)
		}
		if tr.RemoteParent != "00f067aa0ba902b7" {
			t.Errorf("remote parent = %q, want caller span id", tr.RemoteParent)
		}
		stores := map[string]bool{}
		for _, sp := range tr.Spans {
			if sp.Name != "verify.store" {
				continue
			}
			for _, a := range sp.Attrs {
				if a.Key == "store" {
					stores[a.Value] = true
				}
			}
		}
		if len(stores) != 2 {
			t.Errorf("verify.store spans cover stores %v, want 2 distinct stores", stores)
		}
		return
	}
	t.Fatalf("trace %s not found in /debug/traces recent set", wantTraceID)
}

// TestPrometheusEndpoint scrapes /metrics/prometheus after real traffic
// and holds the exposition to the wire linter plus the presence of the
// headline families.
func TestPrometheusEndpoint(t *testing.T) {
	eco, srv := fixture(t)
	chain, _ := symantecChain(t, eco)
	if code, _ := postVerify(t, srv, map[string]any{"chain_pem": chain, "stores": []string{"NSS"}}); code != http.StatusOK {
		t.Fatalf("seed verify failed: %d", code)
	}
	// A guaranteed 4xx so rejected_total and the 4xx class are nonzero.
	if res := get(t, srv, "/v1/roots/nothex", nil); res.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed fingerprint status = %d", res.StatusCode)
	}

	req := httptest.NewRequest(http.MethodGet, "/metrics/prometheus", nil)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	res := rec.Result()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("scrape status = %d", res.StatusCode)
	}
	if ct := res.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("content type = %q, want text exposition 0.0.4", ct)
	}
	body, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)

	if problems := obs.LintExposition(strings.NewReader(text)); len(problems) != 0 {
		t.Fatalf("exposition lint problems:\n%s", strings.Join(problems, "\n"))
	}
	for _, want := range []string{
		"trustd_requests_total{route=\"POST /v1/verify\"}",
		"trustd_request_duration_seconds_bucket{route=\"POST /v1/verify\",le=\"+Inf\"}",
		"trustd_provider_lag_seconds{provider=\"NSS\"}",
		"trustd_cache_events_total{cache=\"verdict\"",
		"trustd_errors_total",
		"trustd_uptime_seconds",
		"trustd_traces_started_total",
		"trustd_slo_availability_target",
		"trustd_slo_latency_threshold_seconds",
		"trustd_slo_burn_rate{slo=\"availability\",window=\"5m\"}",
		"trustd_slo_burn_rate{slo=\"latency\",window=\"1h\"}",
		"trustd_slo_window_requests{window=\"5m\"}",
		"go_goroutines",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// Every request is traced, so the verify route's histogram must carry
	// at least one exemplar, and its trace ID must resolve to the live
	// trace at /debug/traces?trace_id=<id>.
	exIdx := strings.Index(text, `# {trace_id="`)
	if exIdx < 0 {
		t.Fatal("exposition has no bucket exemplars")
	}
	rest := text[exIdx+len(`# {trace_id="`):]
	traceID := rest[:strings.IndexByte(rest, '"')]
	if len(traceID) != 32 {
		t.Fatalf("exemplar trace id %q not 32 hex chars", traceID)
	}
	dreq := httptest.NewRequest(http.MethodGet, "/debug/traces?trace_id="+traceID, nil)
	drec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(drec, dreq)
	var dump struct {
		Recent []struct {
			TraceID  string `json:"trace_id"`
			BucketLE string `json:"bucket_le"`
		} `json:"recent"`
		Slowest []struct {
			TraceID string `json:"trace_id"`
		} `json:"slowest"`
	}
	if err := json.NewDecoder(drec.Result().Body).Decode(&dump); err != nil {
		t.Fatal(err)
	}
	if len(dump.Recent)+len(dump.Slowest) == 0 {
		t.Fatalf("exemplar trace %s not found in /debug/traces", traceID)
	}
	for _, tr := range dump.Recent {
		if tr.TraceID != traceID {
			t.Errorf("filter leaked trace %s", tr.TraceID)
		}
		if tr.BucketLE == "" {
			t.Error("trace record missing bucket_le")
		}
	}
}

// TestPerRouteLatencyAndErrorCounters exercises satellite metrics: the
// per-route HDR histogram fills, quantiles come out of the /metrics JSON
// summary, and the SLO ring sees the traffic.
func TestPerRouteLatencyAndErrorCounters(t *testing.T) {
	_, srv := fixture(t)
	get(t, srv, "/v1/providers", nil)

	if metric(srv, "trustd_request_duration_seconds", "GET /v1/providers") == 0 {
		t.Error("per-route latency histogram empty after a request")
	}
	if metric(srv, "trustd_requests_total", "GET /v1/providers") == 0 {
		t.Error("route counter empty")
	}
	if metric(srv, "trustd_slo_window_requests", "5m") == 0 {
		t.Error("SLO 5m window saw no requests")
	}

	var raw map[string]any
	get(t, srv, "/metrics", &raw)
	lat, ok := raw["trustd_request_duration_seconds"].(map[string]any)
	if !ok {
		t.Fatalf("trustd_request_duration_seconds missing in /metrics: %T", raw["trustd_request_duration_seconds"])
	}
	route, ok := lat["GET /v1/providers"].(map[string]any)
	if !ok {
		t.Fatalf("trustd_request_duration_seconds has no per-route summary: %v", lat)
	}
	if c, _ := route["count"].(float64); c == 0 {
		t.Errorf("latency summary count = %v", route["count"])
	}
	for _, q := range []string{"p50", "p99", "p999"} {
		if _, ok := route[q].(float64); !ok {
			t.Errorf("latency summary missing %s: %v", q, route)
		}
	}
}

// TestUptimeAndLagComputedAtRead asserts the stale-gauge fix: both gauges
// move (or hold correct values) without any reload happening in between.
func TestUptimeAndLagComputedAtRead(t *testing.T) {
	_, srv := fixture(t)
	if lag := metric(srv, "trustd_provider_lag_seconds", "NSS"); lag <= 0 {
		t.Errorf("NSS lag = %v, want positive (snapshots are historical)", lag)
	}
	if lag, ok := srv.Metrics().Value("trustd_provider_lag_seconds", "NoSuchProvider"); ok {
		t.Errorf("unknown provider lag = %v, want no series", lag)
	}
	var raw map[string]any
	get(t, srv, "/metrics", &raw)
	if _, ok := raw["trustd_uptime_seconds"].(float64); !ok {
		t.Errorf("trustd_uptime_seconds missing or not numeric in /metrics: %v", raw["trustd_uptime_seconds"])
	}
	if _, ok := raw["trustd_provider_lag_seconds"].(map[string]any); !ok {
		t.Errorf("trustd_provider_lag_seconds missing in /metrics")
	}
}

// TestDebugTracesHandlerBounds sanity-checks the ?n= bound.
func TestDebugTracesHandlerBounds(t *testing.T) {
	_, srv := fixture(t)
	for i := 0; i < 3; i++ {
		get(t, srv, "/v1/providers", nil)
	}
	req := httptest.NewRequest(http.MethodGet, "/debug/traces?n=2", nil)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	var dump struct {
		TracesStarted uint64           `json:"traces_started"`
		Recent        []map[string]any `json:"recent"`
	}
	if err := json.NewDecoder(rec.Result().Body).Decode(&dump); err != nil {
		t.Fatal(err)
	}
	if len(dump.Recent) > 2 {
		t.Errorf("recent = %d traces, want ≤ 2", len(dump.Recent))
	}
	if dump.TracesStarted == 0 {
		t.Error("traces_started = 0 after requests")
	}
}

// TestConfigSharedTracer proves Config.Tracer is honoured — cmd/trustd
// relies on this to pool server and tracker traces in one ring.
func TestConfigSharedTracer(t *testing.T) {
	eco, _ := fixture(t)
	tr := obs.NewTracer(obs.Options{SlowThreshold: -1})
	srv := service.New(eco.DB, service.Config{Tracer: tr})
	if srv.Tracer() != tr {
		t.Fatal("server did not adopt the supplied tracer")
	}
	get(t, srv, "/healthz", nil) // healthz is deliberately uninstrumented
	get(t, srv, "/v1/providers", nil)
	if tr.Started() != 1 {
		t.Fatalf("shared tracer started = %d traces, want 1", tr.Started())
	}
}
