package load_test

// End-to-end: the full mixed workload against a real in-process trustd,
// with a generation swap and a live SSE event fired mid-run: zero 5xx,
// zero transport errors, zero mixed-generation verdicts, both generations
// observed, every class exercised within a p99 budget, and the server's
// exposition lint-clean, on the client's bucket layout, with an exemplar
// that resolves to a live trace.

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/load"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/tracker"
)

var _ service.EventFeed = (*stubFeed)(nil)

// p99Budget bounds every class's p99, measured from scheduled arrival.
// Loopback round-trips run well under a millisecond; the budget absorbs
// CI-grade noise, not real regressions.
const p99Budget = 500 * time.Millisecond

func TestMixedWorkloadReloadUnderLoad(t *testing.T) {
	f, err := newFixture()
	if err != nil {
		t.Fatal(err)
	}
	srv := service.New(f.GenA, service.Config{})
	feed := newStubFeed()
	srv.AttachEvents(feed)
	web := httptest.NewServer(srv.Handler())
	defer web.Close()

	opts := load.Options{
		BaseURL:      web.URL,
		RPS:          300,
		Duration:     2 * time.Second,
		Seed:         7,
		WatchStreams: 2,
		MidRun: func() {
			srv.Swap(f.GenB)
			feed.Emit(tracker.Event{Type: tracker.RootAdded, Provider: "Debian", Version: "v2", Date: time.Now()})
		},
	}
	r, err := load.NewRunner(opts, f.Target)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	if got := rep.Total5xx(); got != 0 {
		t.Errorf("5xx responses = %d, want 0 (classes: %+v)", got, rep.Classes)
	}
	if got := rep.TotalTransportErrors(); got != 0 {
		t.Errorf("transport errors = %d, want 0", got)
	}
	if rep.MixedGenerationVerdicts != 0 {
		t.Errorf("mixed-generation verdicts = %d, want 0", rep.MixedGenerationVerdicts)
	}
	if rep.TotalShed() != 0 {
		t.Errorf("shed = %d, want 0 at this load", rep.TotalShed())
	}

	// The swap happened mid-run, so both generations must have answered.
	if rep.Generations[f.HashA] == 0 || rep.Generations[f.HashB] == 0 {
		t.Errorf("generations seen = %v, want traffic from both %.8s and %.8s", rep.Generations, f.HashA, f.HashB)
	}

	for _, class := range []load.Class{load.ClassRead, load.ClassVerify, load.ClassBatch, load.ClassWatch, load.ClassSimulate} {
		cr := rep.Classes[string(class)]
		if cr == nil || cr.Completed == 0 {
			t.Errorf("class %s never completed a request: %+v", class, cr)
			continue
		}
		if cr.Status["2xx"] == 0 {
			t.Errorf("class %s has no 2xx responses: %v", class, cr.Status)
		}
		if cr.P50 <= 0 || cr.P999 < cr.P50 {
			t.Errorf("class %s quantiles broken: p50=%v p999=%v", class, cr.P50, cr.P999)
		}
		if p99 := time.Duration(cr.P99 * float64(time.Second)); p99 > p99Budget {
			t.Errorf("class %s p99 %v exceeds budget %v", class, p99, p99Budget)
		}
	}

	// Both long-lived subscribers (which replay on reconnect) must have
	// seen the live event.
	if rep.WatchEventsReceived < 2 {
		t.Errorf("watch streams received %d events, want ≥ 2", rep.WatchEventsReceived)
	}
	if rep.Watch5xx != 0 {
		t.Errorf("watch streams saw %d 5xx", rep.Watch5xx)
	}
	if rep.Schema != "trustd-loadgen/1" {
		t.Errorf("schema = %q", rep.Schema)
	}
	if len(rep.BucketBoundsSeconds) != 69 {
		t.Errorf("bucket bounds = %d, want 69 shared HDR bounds", len(rep.BucketBoundsSeconds))
	}

	// The server's exposition is lint-clean, its verify-route histogram
	// has the client's bucket layout, and a bucket exemplar resolves to a
	// live trace.
	text := httpBody(t, web.URL+"/metrics/prometheus")
	if problems := obs.LintExposition(strings.NewReader(text)); len(problems) != 0 {
		t.Fatalf("malformed exposition:\n%s", strings.Join(problems, "\n"))
	}
	const family = `trustd_request_duration_seconds_bucket{route="POST /v1/verify",le="`
	var les []string
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, family); ok {
			les = append(les, rest[:strings.IndexByte(rest, '"')])
		}
	}
	if len(les) != len(rep.BucketBoundsSeconds)+1 || les[len(les)-1] != "+Inf" {
		t.Fatalf("server verify buckets %v, client bounds %v", les, rep.BucketBoundsSeconds)
	}
	for i, b := range rep.BucketBoundsSeconds {
		if le, err := strconv.ParseFloat(les[i], 64); err != nil || le != b {
			t.Errorf("bucket %d: server le=%q, client bound %v", i, les[i], b)
		}
	}
	const marker = `# {trace_id="`
	at := strings.Index(text, marker)
	if at < 0 {
		t.Fatal("exposition carries no bucket exemplars")
	}
	traceID, _, _ := strings.Cut(text[at+len(marker):], `"`)
	var dump struct {
		Recent  []json.RawMessage `json:"recent"`
		Slowest []json.RawMessage `json:"slowest"`
	}
	if err := json.Unmarshal([]byte(httpBody(t, web.URL+"/debug/traces?trace_id="+traceID)), &dump); err != nil {
		t.Fatal(err)
	}
	if len(dump.Recent)+len(dump.Slowest) == 0 {
		t.Errorf("exemplar trace %q does not resolve in /debug/traces", traceID)
	}
}

func httpBody(t *testing.T, url string) string {
	t.Helper()
	res, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	b, err := io.ReadAll(res.Body)
	if err != nil || res.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d, err %v", url, res.StatusCode, err)
	}
	return string(b)
}
