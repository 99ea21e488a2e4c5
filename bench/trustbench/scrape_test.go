package trustbench

import (
	"bytes"
	"math"
	"math/rand/v2"
	"testing"
	"time"

	"repro/internal/obs"
)

// exposition renders route histograms and one counter the way trustd
// exposes them.
func exposition(t *testing.T, routes map[string]*obs.HDRHistogram, hits float64) *Scrape {
	t.Helper()
	fam := obs.MetricFamily{Name: latencyFamily, Type: obs.Histogram}
	for route, h := range routes {
		s := h.Snapshot()
		fam.Samples = append(fam.Samples, obs.HistogramSamplesExemplars(
			[]obs.Label{{Name: "route", Value: route}}, obs.HDRBounds(), s.Counts, s.SumSeconds,
			[]*obs.Exemplar{{TraceID: "4bf92f3577b34da6a3ce929d0e0e4736", Seconds: 5e-5}})...)
	}
	hit := obs.MetricFamily{Name: "trustd_cache_events_total", Type: obs.Counter, Samples: []obs.Sample{{
		Labels: []obs.Label{{Name: "cache", Value: "verdict"}, {Name: "result", Value: "hit"}}, Value: hits,
	}}}
	var buf bytes.Buffer
	if err := obs.WriteExposition(&buf, []obs.MetricFamily{fam, hit}); err != nil {
		t.Fatal(err)
	}
	s, err := ParseScrape(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestRouteDeltaQuantiles scrapes two routes before and after a phase.
// The merged bucket diff must equal, bucket for bucket, a histogram that
// saw only the phase's observations, so its quantiles are the phase's.
func TestRouteDeltaQuantiles(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	draw := func() time.Duration { return time.Duration(rng.ExpFloat64() * float64(2*time.Millisecond)) }
	routes := map[string]*obs.HDRHistogram{"POST /v1/verify": obs.NewHDRHistogram(), "GET /v1/providers": obs.NewHDRHistogram()}
	for _, h := range routes {
		for i := 0; i < 5000; i++ {
			h.Observe(draw() * 10) // before the phase: a much slower regime
		}
	}
	before := exposition(t, routes, 40)
	phase := obs.NewHDRHistogram()
	for _, h := range routes {
		for i := 0; i < 20000; i++ {
			d := draw()
			h.Observe(d)
			phase.Observe(d)
		}
	}
	after := exposition(t, routes, 140)

	got, want := RouteDelta(before, after), phase.Snapshot()
	if got.Count != want.Count {
		t.Fatalf("delta count %d, want %d", got.Count, want.Count)
	}
	for i := range want.Counts {
		if got.Counts[i] != want.Counts[i] {
			t.Fatalf("bucket %d (le %s): delta %d, want %d", i, obs.HDRBucketLabel(i), got.Counts[i], want.Counts[i])
		}
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		if g, w := got.Quantile(q), want.Quantile(q); g != w {
			t.Errorf("q%.3f: delta %.6f s, want %.6f s", q, g, w)
		}
	}
	if math.Abs(got.SumSeconds-want.SumSeconds) > 1e-6*want.SumSeconds {
		t.Errorf("delta sum %.6f s, want %.6f s", got.SumSeconds, want.SumSeconds)
	}
	if d := Delta(before, after, `trustd_cache_events_total{cache="verdict",result="hit"}`); d != 100 {
		t.Errorf("counter delta %v, want 100", d)
	}
}

func TestParseScrapeRejectsForeignBuckets(t *testing.T) {
	in := latencyFamily + `_bucket{route="GET /x",le="0.0003"} 1` + "\n"
	if _, err := ParseScrape(bytes.NewBufferString(in)); err == nil {
		t.Error("ParseScrape accepted a bucket bound outside the shared HDR layout")
	}
}
