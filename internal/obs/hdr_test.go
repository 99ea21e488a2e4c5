package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHDRBoundsShape(t *testing.T) {
	bounds := HDRBounds()
	if len(bounds) != 1+hdrOctaves*hdrSubBuckets {
		t.Fatalf("len(bounds) = %d, want %d", len(bounds), 1+hdrOctaves*hdrSubBuckets)
	}
	if bounds[0] != hdrMin {
		t.Fatalf("bounds[0] = %v, want %v", bounds[0], hdrMin)
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			t.Fatalf("bounds not strictly increasing at %d: %v <= %v", i, bounds[i], bounds[i-1])
		}
	}
	// Octave ends double: bound at index 1+o*sub+sub-1 is hdrMin*2^(o+1).
	for o := 0; o < hdrOctaves; o++ {
		end := bounds[hdrSubBuckets*(o+1)]
		want := hdrMin * math.Pow(2, float64(o+1))
		if math.Abs(end-want)/want > 1e-12 {
			t.Fatalf("octave %d end = %v, want %v", o, end, want)
		}
	}
	if HDRNumBuckets() != len(bounds)+1 {
		t.Fatalf("HDRNumBuckets() = %d, want %d", HDRNumBuckets(), len(bounds)+1)
	}
	// Relative bucket width stays bounded: (upper-lower)/lower <= 1/hdrSubBuckets
	// for every finite bucket past the first.
	for i := 1; i < len(bounds); i++ {
		rel := (bounds[i] - bounds[i-1]) / bounds[i-1]
		if rel > 1.0/hdrSubBuckets+1e-9 {
			t.Fatalf("bucket %d relative width %v exceeds %v", i, rel, 1.0/hdrSubBuckets)
		}
	}
}

func TestHDRBucketIndex(t *testing.T) {
	bounds := HDRBounds()
	// Every bound maps to its own index; just above maps to the next.
	for i, b := range bounds {
		if got := HDRBucketIndex(b); got != i {
			t.Fatalf("HDRBucketIndex(%v) = %d, want %d", b, got, i)
		}
		if got := HDRBucketIndex(b * (1 + 1e-9)); got != i+1 {
			t.Fatalf("HDRBucketIndex(just above %v) = %d, want %d", b, got, i+1)
		}
	}
	if got := HDRBucketIndex(0); got != 0 {
		t.Fatalf("HDRBucketIndex(0) = %d, want 0", got)
	}
	if got := HDRBucketIndex(1e9); got != len(bounds) {
		t.Fatalf("HDRBucketIndex(huge) = %d, want overflow %d", got, len(bounds))
	}
}

func TestHDRBucketLabels(t *testing.T) {
	bounds := HDRBounds()
	for i, b := range bounds {
		if got, want := HDRBucketLabel(i), formatValue(b); got != want {
			t.Fatalf("HDRBucketLabel(%d) = %q, want %q", i, got, want)
		}
	}
	if got := HDRBucketLabel(len(bounds)); got != "+Inf" {
		t.Fatalf("overflow label = %q, want +Inf", got)
	}
	// Out-of-range indexes clamp rather than panic.
	if got := HDRBucketLabel(-5); got != HDRBucketLabel(0) {
		t.Fatalf("negative index label = %q", got)
	}
	if got := HDRBucketLabelFor(1e9); got != "+Inf" {
		t.Fatalf("HDRBucketLabelFor(huge) = %q, want +Inf", got)
	}
	if got := HDRBucketLabelFor(0.00005); got != formatValue(bounds[0]) {
		t.Fatalf("HDRBucketLabelFor(tiny) = %q, want %q", got, formatValue(bounds[0]))
	}
}

func TestHDRHistogramObserveAndSnapshot(t *testing.T) {
	h := NewHDRHistogram()
	durations := []time.Duration{
		50 * time.Microsecond, // bucket 0
		time.Millisecond,
		10 * time.Millisecond,
		100 * time.Millisecond,
		time.Second,
		time.Minute, // overflow
	}
	for _, d := range durations {
		h.Observe(d)
	}
	s := h.Snapshot()
	if s.Count != uint64(len(durations)) {
		t.Fatalf("Count = %d, want %d", s.Count, len(durations))
	}
	var sum float64
	for _, d := range durations {
		sum += d.Seconds()
	}
	if math.Abs(s.SumSeconds-sum) > 1e-6 {
		t.Fatalf("SumSeconds = %v, want %v", s.SumSeconds, sum)
	}
	if s.Counts[0] != 1 {
		t.Fatalf("bucket 0 count = %d, want 1", s.Counts[0])
	}
	if s.Counts[len(s.Counts)-1] != 1 {
		t.Fatalf("overflow count = %d, want 1", s.Counts[len(s.Counts)-1])
	}
	if h.Snapshot().Count != uint64(len(durations)) {
		t.Fatalf("count = %d", h.Snapshot().Count)
	}
	if m := s.Mean(); math.Abs(m-sum/float64(len(durations))) > 1e-9 {
		t.Fatalf("Mean = %v", m)
	}
}

func TestHDRQuantile(t *testing.T) {
	h := NewHDRHistogram()
	// 1000 observations spread 1ms..1000ms: quantiles should land near
	// the true values with bounded relative error.
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	s := h.Snapshot()
	for _, tc := range []struct{ q, want float64 }{
		{0.50, 0.500},
		{0.90, 0.900},
		{0.99, 0.990},
		{0.999, 0.999},
	} {
		got := s.Quantile(tc.q)
		if rel := math.Abs(got-tc.want) / tc.want; rel > 0.5/hdrSubBuckets {
			t.Errorf("Quantile(%v) = %v, want ~%v (rel err %v)", tc.q, got, tc.want, rel)
		}
	}
	if got := (HDRSnapshot{}).Quantile(0.99); got != 0 {
		t.Fatalf("empty Quantile = %v, want 0", got)
	}
	// All mass in overflow: reports the last finite bound.
	h2 := NewHDRHistogram()
	h2.Observe(time.Hour)
	bounds := HDRBounds()
	if got := h2.Snapshot().Quantile(0.5); got != bounds[len(bounds)-1] {
		t.Fatalf("overflow Quantile = %v, want %v", got, bounds[len(bounds)-1])
	}
	// Out-of-range q clamps.
	if got := s.Quantile(2); got <= 0 {
		t.Fatalf("Quantile(2) = %v", got)
	}
	if got := s.Quantile(-1); got < 0 {
		t.Fatalf("Quantile(-1) = %v", got)
	}
}

func TestHDRExemplars(t *testing.T) {
	h := NewHDRHistogramExemplars()
	trace := TraceID{0xab, 0xcd, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14}
	h.ObserveTrace(5*time.Millisecond, trace)
	h.ObserveTrace(7*time.Millisecond, TraceID{}) // zero trace: counted, no exemplar
	ex := h.Exemplars()
	if ex == nil {
		t.Fatal("Exemplars() = nil for exemplar histogram")
	}
	var found *Exemplar
	for _, e := range ex {
		if e != nil {
			if found != nil {
				t.Fatalf("more than one exemplar captured")
			}
			found = e
		}
	}
	if found == nil {
		t.Fatal("no exemplar captured")
	}
	if found.TraceID != trace.String() {
		t.Fatalf("exemplar trace = %q, want %q", found.TraceID, trace.String())
	}
	if math.Abs(found.Seconds-0.005) > 1e-9 {
		t.Fatalf("exemplar seconds = %v", found.Seconds)
	}
	if h.Snapshot().Count != 2 {
		t.Fatalf("count = %d, want 2", h.Snapshot().Count)
	}
	// Client-side histograms report no exemplars at all.
	if NewHDRHistogram().Exemplars() != nil {
		t.Fatal("plain histogram reported exemplars")
	}
}

func TestHDRHistogramConcurrent(t *testing.T) {
	h := NewHDRHistogramExemplars()
	trace := TraceID{1}
	const goroutines, per = 8, 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.ObserveTrace(time.Duration(g*per+i)*time.Microsecond, trace)
			}
		}(g)
	}
	wg.Wait()
	if got := h.Snapshot().Count; got != goroutines*per {
		t.Fatalf("count = %d, want %d", got, goroutines*per)
	}
}

func TestHDRSamplesRoundTripExposition(t *testing.T) {
	h := NewHDRHistogramExemplars()
	trace := TraceID{0xde, 0xad}
	h.ObserveTrace(300*time.Millisecond, trace)
	h.Observe(2 * time.Millisecond)
	s := h.Snapshot()
	fam := MetricFamily{
		Name: "test_hdr_seconds", Help: "t.", Type: Histogram,
		Samples: HistogramSamplesExemplars([]Label{{"route", "GET /x"}}, HDRBounds(), s.Counts, s.SumSeconds, h.Exemplars()),
	}
	var buf strings.Builder
	if err := WriteExposition(&buf, []MetricFamily{fam}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `# {trace_id="`+trace.String()+`"} 0.3`) {
		t.Fatalf("exposition missing exemplar:\n%s", out)
	}
	if problems := LintExposition(strings.NewReader(out)); len(problems) != 0 {
		t.Fatalf("LintExposition: %v", problems)
	}
}

func BenchmarkHDRObserve(b *testing.B) {
	h := NewHDRHistogram()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(time.Duration(i%1000) * time.Microsecond)
	}
	if h.Snapshot().Count == 0 {
		b.Fatal("no observations")
	}
}

func BenchmarkHDRObserveTraceNoExemplar(b *testing.B) {
	h := NewHDRHistogramExemplars()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.ObserveTrace(time.Duration(i%1000)*time.Microsecond, TraceID{})
	}
}
