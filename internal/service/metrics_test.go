package service_test

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/testcerts"
	"repro/internal/tracker"
)

// oddProvider is a provider directory name holding a tab, a quote and a
// non-ASCII rune: text format 0.0.4 escapes only the quote, so the
// exposition must carry the tab and the rune as is.
const oddProvider = "Tab\there \"Q\" Café"

// exposed is one parsed exposition line.
type exposed struct {
	name   string
	values []string // label values, le included
	labels []string // label names, parallel to values
	value  float64
}

// parseExposed parses sample lines, unescaping label values.
func parseExposed(t *testing.T, text string) []exposed {
	t.Helper()
	var out []exposed
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		var e exposed
		rest := line
		if i := strings.IndexByte(line, '{'); i >= 0 {
			e.name, rest = line[:i], line[i+1:]
			for rest[0] != '}' {
				eq := strings.Index(rest, `="`)
				e.labels = append(e.labels, rest[:eq])
				var v strings.Builder
				j := eq + 2
				for ; rest[j] != '"'; j++ {
					if rest[j] == '\\' {
						j++
						if rest[j] == 'n' {
							v.WriteByte('\n')
							continue
						}
					}
					v.WriteByte(rest[j])
				}
				e.values = append(e.values, v.String())
				rest = strings.TrimPrefix(rest[j+1:], ",")
			}
			rest = rest[1:]
		} else {
			e.name, rest, _ = strings.Cut(line, " ")
		}
		rest, _, _ = strings.Cut(strings.TrimSpace(rest), " # ")
		v, err := strconv.ParseFloat(rest, 64)
		if err != nil {
			t.Fatalf("value in %q: %v", line, err)
		}
		e.value = v
		out = append(out, e)
	}
	return out
}

// checkViewsAgree compares every exposition series with the /metrics JSON
// view: same value, or only presence for gauges that move between two
// reads. Histogram buckets have no JSON counterpart; their _count and
// _sum do.
func checkViewsAgree(t *testing.T, base string, moving func(family string) bool) string {
	t.Helper()
	expo := httpBody(t, base+"/metrics/prometheus")
	if problems := obs.LintExposition(strings.NewReader(expo)); len(problems) != 0 {
		t.Fatalf("exposition lint: %v", problems)
	}
	var view map[string]any
	if err := json.Unmarshal([]byte(httpBody(t, base+"/metrics")), &view); err != nil {
		t.Fatalf("/metrics JSON: %v", err)
	}
	for _, e := range parseExposed(t, expo) {
		name, path, field := e.name, e.values, ""
		for _, suffix := range []string{"_bucket", "_count", "_sum"} {
			if fam, ok := strings.CutSuffix(e.name, suffix); ok && view[fam] != nil && view[e.name] == nil {
				name, field = fam, suffix[1:]
			}
		}
		if field == "bucket" {
			continue
		}
		node := view[name]
		for _, v := range path {
			m, _ := node.(map[string]any)
			node = m[v]
		}
		if field != "" {
			m, _ := node.(map[string]any)
			node = m[field]
		}
		got, ok := node.(float64)
		switch {
		case !ok:
			t.Errorf("%s%v: %v in /metrics JSON, exposition %v", e.name, e.values, node, e.value)
		case !moving(name) && got != e.value:
			t.Errorf("%s%v: JSON %v, exposition %v", e.name, e.values, got, e.value)
		}
	}
	return expo
}

func httpBody(t *testing.T, url string) string {
	t.Helper()
	res, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	b, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestMetricsViewsAgree builds a whole node — a tracker over a tree, an
// origin, the API — drives traffic, and holds /metrics/prometheus and the
// /metrics JSON to the same series and values.
func TestMetricsViewsAgree(t *testing.T) {
	root := t.TempDir()
	writeSnapshotDir(t, root, "NSS", "2020-01-01", 0, 1, 2)
	writeSnapshotDir(t, root, oddProvider, "2020-01-01", 0, 1)
	src := tracker.NewDirSource(root, 0)
	defer src.Close()
	trk, err := tracker.New(tracker.Config{Source: src})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trk.Rescan(); err != nil {
		t.Fatal(err)
	}
	srv := service.New(trk.Database(), service.Config{})
	srv.AttachEvents(trk)
	srv.Metrics().Include(trk.Metrics())
	org := cluster.NewOrigin(cluster.OriginOptions{})
	if _, err := org.Publish(context.Background(), trk.Database(), [32]byte{}); err != nil {
		t.Fatal(err)
	}
	srv.Mount("/cluster/", org.Handler())
	srv.Metrics().Include(org.Metrics())
	web := httptest.NewServer(srv.Handler())
	defer web.Close()

	der := base64.StdEncoding.EncodeToString(testcerts.Roots(1)[0].DER)
	body := fmt.Sprintf(`{"chain_der":[%q],"stores":["NSS"]}`, der)
	for i := 0; i < 2; i++ { // the second verify hits the verdict cache
		res, err := http.Post(web.URL+"/v1/verify", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		res.Body.Close()
	}
	batch := body + "\n{not json\n"
	res, err := http.Post(web.URL+"/v1/verify/batch", "application/x-ndjson", bytes.NewReader([]byte(batch)))
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	for _, path := range []string{"/v1/providers", "/v1/roots/zz", "/v1/events", "/cluster/v1/manifest", "/healthz"} {
		httpBody(t, web.URL+path)
	}

	moving := func(family string) bool {
		return strings.HasPrefix(family, "go_") || family == "trustd_uptime_seconds" || family == "trustd_provider_lag_seconds"
	}
	expo := checkViewsAgree(t, web.URL, moving)
	for _, want := range []string{
		`trustd_request_duration_seconds_bucket{route="POST /v1/verify",le="+Inf"} 2`,
		`trustd_cache_events_total{cache="verdict",result="hit"} 2`,
		`trustd_cache_events_total{cache="verdict",result="miss"} 1`,
		"go_heap_inuse_bytes ",
		`trustd_provider_lag_seconds{provider="Tab` + "\t" + `here \"Q\" Café"} `,
		"trustd_tracker_reloads_total 1",
		"trustd_cluster_publishes_total 1",
		"trustd_batch_rejected_lines_total 1",
		"trustd_last_reload_timestamp_seconds ",
	} {
		if !strings.Contains(expo, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}
