package obs

import (
	"math"
	"strings"
	"testing"
)

// promFixture is a family set exercising every rendering feature: label
// escaping, histogram suffixes, sorting, infinities.
func promFixture() []MetricFamily {
	return []MetricFamily{
		{
			Name: "zz_requests_total",
			Help: "Requests by route.\nSecond line \\ backslash.",
			Type: Counter,
			Samples: []Sample{
				{Labels: []Label{{"route", `POST /v1/verify`}}, Value: 7},
				{Labels: []Label{{"route", `GET /v1/diff?a="x"`}}, Value: 2},
			},
		},
		{Name: "aa_up", Help: "Always first after sorting.", Type: Gauge, Samples: []Sample{{Value: 1}}},
		{
			Name:    "mm_latency_seconds",
			Help:    "Request latency.",
			Type:    Histogram,
			Samples: HistogramSamples([]Label{{"route", "GET /x"}}, []float64{0.001, 0.025, 0.1}, []uint64{3, 2, 1, 1}, 0.5),
		},
	}
}

// TestExpositionGolden locks the full rendered form: family order,
// sample order, escaping, histogram cumulation. Any formatting change
// must be deliberate.
func TestExpositionGolden(t *testing.T) {
	const want = `# HELP aa_up Always first after sorting.
# TYPE aa_up gauge
aa_up 1
# HELP mm_latency_seconds Request latency.
# TYPE mm_latency_seconds histogram
mm_latency_seconds_bucket{route="GET /x",le="0.001"} 3
mm_latency_seconds_bucket{route="GET /x",le="0.025"} 5
mm_latency_seconds_bucket{route="GET /x",le="0.1"} 6
mm_latency_seconds_bucket{route="GET /x",le="+Inf"} 7
mm_latency_seconds_count{route="GET /x"} 7
mm_latency_seconds_sum{route="GET /x"} 0.5
# HELP zz_requests_total Requests by route.\nSecond line \\ backslash.
# TYPE zz_requests_total counter
zz_requests_total{route="GET /v1/diff?a=\"x\""} 2
zz_requests_total{route="POST /v1/verify"} 7
`
	var sb strings.Builder
	if err := WriteExposition(&sb, promFixture()); err != nil {
		t.Fatal(err)
	}
	if sb.String() != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", sb.String(), want)
	}
	// Rendering twice is byte-stable (the ordering contract).
	var again strings.Builder
	WriteExposition(&again, promFixture())
	if again.String() != sb.String() {
		t.Error("exposition is not deterministic across renders")
	}
}

func TestLintCleanFixture(t *testing.T) {
	var sb strings.Builder
	WriteExposition(&sb, promFixture())
	if problems := LintExposition(strings.NewReader(sb.String())); len(problems) != 0 {
		t.Fatalf("wire lint problems on clean fixture: %v", problems)
	}
}

func TestLintExpositionCatchesWireProblems(t *testing.T) {
	cases := []struct {
		name string
		text string
		want string
	}{
		{"undeclared sample", "some_metric 1\n", "no TYPE"},
		{"bad value", "# TYPE x gauge\nx notanumber\n", "bad value"},
		{"unknown type", "# TYPE x widget\nx 1\n", "unknown type"},
		{"histogram no inf", "# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_count 2\nh_sum 1\n", "+Inf"},
		{"duplicate type", "# TYPE x gauge\n# TYPE x gauge\nx 1\n", "duplicate TYPE"},
		{"duplicate series", "# TYPE x_total counter\nx_total{a=\"1\"} 1\nx_total{a=\"1\"} 2\n", "duplicate series"},
		{"histogram non-cumulative", "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\n", "cumulative"},
		{"undefined escape", "# TYPE x gauge\nx{a=\"tab\\there\"} 1\n", "undefined escape"},
		{"undefined exemplar escape", "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1 # {trace_id=\"\\u00e9\"} 1\n", "undefined escape"},
	}
	for _, tc := range cases {
		problems := LintExposition(strings.NewReader(tc.text))
		found := false
		for _, p := range problems {
			if strings.Contains(p, tc.want) {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: want problem containing %q, got %v", tc.name, tc.want, problems)
		}
	}
	// Inf and NaN values are legal.
	ok := "# TYPE x gauge\nx +Inf\n"
	if problems := LintExposition(strings.NewReader(ok)); len(problems) != 0 {
		t.Errorf("+Inf value flagged: %v", problems)
	}
}

func TestHistogramSamplesShape(t *testing.T) {
	s := HistogramSamples(nil, []float64{1, 2}, []uint64{1, 0, 4}, 9.5)
	// buckets: le=1 →1, le=2 →1, +Inf →5; then _sum and _count.
	if len(s) != 5 {
		t.Fatalf("samples = %d, want 5", len(s))
	}
	if s[2].Labels[0].Value != "+Inf" || s[2].Value != 5 {
		t.Errorf("+Inf bucket = %+v", s[2])
	}
	if s[3].Suffix != "_sum" || s[3].Value != 9.5 {
		t.Errorf("sum = %+v", s[3])
	}
	if s[4].Suffix != "_count" || s[4].Value != 5 {
		t.Errorf("count = %+v", s[4])
	}
}

func TestFormatValue(t *testing.T) {
	if formatValue(math.Inf(1)) != "+Inf" || formatValue(math.Inf(-1)) != "-Inf" || formatValue(math.NaN()) != "NaN" {
		t.Error("special values misformatted")
	}
	if formatValue(0.001) != "0.001" {
		t.Errorf("0.001 → %s", formatValue(0.001))
	}
}

func TestRuntimeFamiliesLintClean(t *testing.T) {
	r := NewRegistry()
	RegisterRuntime(r)
	fams := r.Families()
	var sb strings.Builder
	if err := WriteExposition(&sb, fams); err != nil {
		t.Fatal(err)
	}
	if problems := LintExposition(strings.NewReader(sb.String())); len(problems) != 0 {
		t.Fatalf("runtime families lint: %v", problems)
	}
	names := map[string]bool{}
	for _, f := range fams {
		names[f.Name] = true
	}
	for _, want := range []string{"go_goroutines", "go_heap_alloc_bytes", "go_gc_pause_seconds_total"} {
		if !names[want] {
			t.Errorf("missing runtime family %s", want)
		}
	}
}

// TestExpositionLabelEscaping holds label values to text format 0.0.4,
// which defines exactly three escapes (\\, \" and \n): a tab and a
// non-ASCII rune are written as is, and LintExposition accepts the result
// but rejects any other escape.
func TestExpositionLabelEscaping(t *testing.T) {
	fam := MetricFamily{Name: "lag_seconds", Help: "Lag.", Type: Gauge, Samples: []Sample{{
		Labels: []Label{{"provider", "Tab\there \"Q\" Café\\\nx"}},
		Value:  3,
	}}}
	var sb strings.Builder
	if err := WriteExposition(&sb, []MetricFamily{fam}); err != nil {
		t.Fatal(err)
	}
	want := "lag_seconds{provider=\"Tab\there \\\"Q\\\" Café\\\\\\nx\"} 3\n"
	if !strings.HasSuffix(sb.String(), want) {
		t.Errorf("exposition:\n%s\nwant line %q", sb.String(), want)
	}
	if problems := LintExposition(strings.NewReader(sb.String())); len(problems) != 0 {
		t.Errorf("lint: %v", problems)
	}
}
