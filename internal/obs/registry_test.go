package obs

import (
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: no panic", what)
		}
	}()
	f()
}

func TestRegistryDeclarePanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "h")
	vec := r.CounterVec("b_total", "h", "x", "y")
	sub := NewRegistry()
	sub.Gauge("a_total", "h")

	mustPanic(t, "duplicate name", func() { r.Gauge("a_total", "h") })
	mustPanic(t, "duplicate across kinds", func() { r.GaugeFunc("b_total", "h", func() float64 { return 0 }) })
	mustPanic(t, "duplicate through Include", func() { r.Include(sub) })
	mustPanic(t, "too few label values", func() { vec.With("1") })
	mustPanic(t, "too many label values", func() { vec.With("1", "2", "3") })
	mustPanic(t, "func emits wrong arity", func() {
		r.Func("c", "h", Gauge, []string{"x"}, func(emit func(float64, ...string)) { emit(1) })
		r.Families()
	})
	mustPanic(t, "invalid metric name", func() { r.Gauge("1bad", "h") })
	mustPanic(t, "missing help", func() { r.Gauge("d", "") })
	mustPanic(t, "counter without _total", func() { r.Counter("x_count_of_things", "h") })
	mustPanic(t, "invalid label name", func() { r.CounterVec("e_total", "h", "le-gal") })
	mustPanic(t, "reserved le label", func() { r.HistogramVec("f_seconds", "h", "le") })
	mustPanic(t, "counter decrease", func() { r.Counter("g_total", "h").Add(-1) })
}

// parseExposition maps each rendered series (`name{labels}` as written) to
// its value.
func parseExposition(t *testing.T, text string) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		if i := strings.Index(line, " # "); i >= 0 {
			line = line[:i]
		}
		sp := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("value in %q: %v", line, err)
		}
		out[line[:sp]] = v
	}
	return out
}

// TestRegistryViewsAgree declares one family of each kind and checks the
// exposition, the JSON view and Value report the same numbers.
func TestRegistryViewsAgree(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "c").Add(3)
	frac := r.Counter("cf_seconds_total", "cf")
	frac.Add(0.25)
	frac.Inc()
	cv := r.CounterVec("cv_total", "cv", "cache", "result")
	cv.With("verdict", "hit").Add(5)
	cv.With("verdict", "miss").Inc()
	g := r.Gauge("g", "g")
	g.Set(2.5)
	g.Add(-1)
	h := r.HistogramVec("h_seconds", "h", "route").With("GET /x")
	h.ObserveTrace(3*time.Millisecond, TraceID{1})
	h.Observe(40 * time.Millisecond)
	r.HistogramVec("idle_seconds", "never observed", "route").With("GET /y")
	r.Func("f", "f", Gauge, []string{"provider"}, func(emit func(float64, ...string)) {
		emit(7, "NSS")
		emit(math.Inf(1), "Apple")
	})
	sub := NewRegistry()
	sub.CounterFunc("s_total", "s", func() float64 { return 11 })
	r.Include(sub)

	var sb strings.Builder
	if err := WriteExposition(&sb, r.Families()); err != nil {
		t.Fatal(err)
	}
	if problems := LintExposition(strings.NewReader(sb.String())); len(problems) != 0 {
		t.Fatalf("lint: %v\n%s", problems, sb.String())
	}
	expo := parseExposition(t, sb.String())
	var view map[string]any
	if err := json.Unmarshal([]byte(r.String()), &view); err != nil {
		t.Fatalf("JSON view: %v\n%s", err, r.String())
	}
	s := h.Snapshot()
	for _, c := range []struct {
		series string
		json   any
		value  float64
		name   string
		labels []string
	}{
		{"c_total", view["c_total"], 3, "c_total", nil},
		{"cf_seconds_total", view["cf_seconds_total"], 1.25, "cf_seconds_total", nil},
		{`cv_total{cache="verdict",result="hit"}`, view["cv_total"].(map[string]any)["verdict"].(map[string]any)["hit"], 5, "cv_total", []string{"verdict", "hit"}},
		{`cv_total{cache="verdict",result="miss"}`, view["cv_total"].(map[string]any)["verdict"].(map[string]any)["miss"], 1, "cv_total", []string{"verdict", "miss"}},
		{"g", view["g"], 1.5, "g", nil},
		{`h_seconds_count{route="GET /x"}`, view["h_seconds"].(map[string]any)["GET /x"].(map[string]any)["count"], 2, "h_seconds", []string{"GET /x"}},
		{`f{provider="NSS"}`, view["f"].(map[string]any)["NSS"], 7, "f", []string{"NSS"}},
		{"s_total", view["s_total"], 11, "s_total", nil},
	} {
		if got := expo[c.series]; got != c.value {
			t.Errorf("exposition %s = %v, want %v", c.series, got, c.value)
		}
		if c.json != c.value {
			t.Errorf("JSON %s = %v, want %v", c.series, c.json, c.value)
		}
		if got, ok := r.Value(c.name, c.labels...); !ok || got != c.value {
			t.Errorf("Value(%s, %v) = %v, %v; want %v", c.name, c.labels, got, ok, c.value)
		}
	}
	hist := view["h_seconds"].(map[string]any)["GET /x"].(map[string]any)
	if hist["sum"] != s.SumSeconds || expo[`h_seconds_sum{route="GET /x"}`] != s.SumSeconds {
		t.Errorf("histogram sum: JSON %v, exposition %v, want %v", hist["sum"], expo[`h_seconds_sum{route="GET /x"}`], s.SumSeconds)
	}
	if hist["p50"] != s.Quantile(0.5) || hist["p999"] != s.Quantile(0.999) {
		t.Errorf("histogram quantiles %v, want p50 %v p999 %v", hist, s.Quantile(0.5), s.Quantile(0.999))
	}
	if expo[`f{provider="Apple"}`] != math.Inf(1) || view["f"].(map[string]any)["Apple"] != "+Inf" {
		t.Errorf("+Inf series: exposition %v, JSON %v", expo[`f{provider="Apple"}`], view["f"].(map[string]any)["Apple"])
	}
	// A histogram series with no observations is in neither view.
	if strings.Contains(sb.String(), "idle_seconds_") || len(view["idle_seconds"].(map[string]any)) != 0 {
		t.Errorf("idle histogram rendered: %v", view["idle_seconds"])
	}
	if _, ok := r.Value("idle_seconds", "GET /y"); ok {
		t.Error("Value found the idle histogram series")
	}
	if _, ok := r.Value("nope"); ok {
		t.Error("Value found an undeclared family")
	}
}

func TestRegistryHotPathAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "h")
	g := r.Gauge("g", "h")
	vec := r.CounterVec("v_total", "h", "outcome")
	vec2 := r.CounterVec("v2_total", "h", "cache", "result")
	h := r.HistogramVec("h_seconds", "h", "route").With("GET /x")
	outcome := strings.Repeat("x", 3) // not a constant: as from a verdict
	vec.With(outcome)
	vec2.With("verdict", "hit")
	trace := TraceID{0xab}
	for name, f := range map[string]func(){
		"Counter.Add":           func() { c.Add(2) },
		"Counter.Inc":           func() { c.Inc() },
		"Gauge.Add":             func() { g.Add(1) },
		"With(existing).Inc":    func() { vec.With(outcome).Inc() },
		"With(existing, 2).Inc": func() { vec2.With("verdict", "hit").Inc() },
		"ObserveTrace":          func() { h.ObserveTrace(5*time.Millisecond, trace) },
	} {
		if n := testing.AllocsPerRun(100, f); n != 0 {
			t.Errorf("%s allocates %v times per call", name, n)
		}
	}
}

// TestRegistryConcurrentWithAndScrape adds label values and counts from
// several goroutines while others render; run it under -race.
func TestRegistryConcurrentWithAndScrape(t *testing.T) {
	r := NewRegistry()
	vec := r.CounterVec("v_total", "h", "k")
	hist := r.HistogramVec("h_seconds", "h", "k")
	const workers, values, per = 4, 32, 50
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					r.Families()
					_ = r.String()
				}
			}
		}()
	}
	var writers sync.WaitGroup
	for w := 0; w < workers; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for v := 0; v < values; v++ {
				k := strconv.Itoa(v)
				for i := 0; i < per; i++ {
					vec.With(k).Inc()
					hist.With(k).ObserveTrace(time.Millisecond, TraceID{byte(w + 1)})
				}
			}
		}()
	}
	writers.Wait()
	close(stop)
	wg.Wait()
	for v := 0; v < values; v++ {
		k := strconv.Itoa(v)
		if got, _ := r.Value("v_total", k); got != workers*per {
			t.Fatalf("v_total{k=%s} = %v, want %d", k, got, workers*per)
		}
		if got, _ := r.Value("h_seconds", k); got != workers*per {
			t.Fatalf("h_seconds{k=%s} count = %v, want %d", k, got, workers*per)
		}
	}
}
