package obs

// HDR-style log-linear latency histograms, shared between trustd's
// per-route server metrics and cmd/loadgen's client-side capture. Both
// sides bucket against the exact same bounds (HDRBounds), so a
// loadgen-vs-trustd latency comparison is a per-bucket diff, not an
// approximation across two bucket layouts.
//
// The layout is the classic HDR compromise: within each power-of-two
// octave the bucket widths are linear (hdrSubBuckets per octave), so
// relative error is bounded (~1/hdrSubBuckets) across the whole range
// while the bucket count stays small enough to expose per route. The
// range runs from 100µs to ~13s — below the first bound everything lands
// in bucket 0; above the last bound in the +Inf overflow bucket.
//
// Each bucket optionally carries one exemplar: the trace ID of the most
// recent observation that landed there. A scrape of
// /metrics/prometheus then links a slow bucket straight to its span
// tree in /debug/traces?trace_id=... without any external tracing
// infrastructure.

import (
	"math"
	"runtime"
	"sync/atomic"
	"time"
)

const (
	// hdrMin is the first bucket's upper bound in seconds (100µs).
	hdrMin = 1e-4
	// hdrOctaves is how many power-of-two ranges the layout spans:
	// 100µs × 2^17 ≈ 13.1s.
	hdrOctaves = 17
	// hdrSubBuckets is the linear resolution within one octave.
	hdrSubBuckets = 4
)

// hdrBounds is the shared bucket layout: bounds[0] = hdrMin, then
// hdrSubBuckets linearly spaced bounds per octave up to hdrMin × 2^17.
// The +Inf overflow bucket is implicit (index len(hdrBounds)).
var hdrBounds = func() []float64 {
	bounds := make([]float64, 0, 1+hdrOctaves*hdrSubBuckets)
	bounds = append(bounds, hdrMin)
	lo := hdrMin
	for o := 0; o < hdrOctaves; o++ {
		for k := 1; k <= hdrSubBuckets; k++ {
			bounds = append(bounds, lo*(1+float64(k)/hdrSubBuckets))
		}
		lo *= 2
	}
	return bounds
}()

// hdrLabels pre-renders each bound as its Prometheus le label (plus
// "+Inf" for the overflow bucket), so exposition and the trace board
// never format on a hot path.
var hdrLabels = func() []string {
	labels := make([]string, len(hdrBounds)+1)
	for i, b := range hdrBounds {
		labels[i] = formatValue(b)
	}
	labels[len(hdrBounds)] = "+Inf"
	return labels
}()

// HDRBounds returns a copy of the shared bucket upper bounds in seconds.
// cmd/loadgen publishes these in its report and diffs them against the
// server's exposition to prove both sides bucket identically.
func HDRBounds() []float64 {
	return append([]float64(nil), hdrBounds...)
}

// HDRNumBuckets is the slot count of an HDR histogram: one per bound
// plus the +Inf overflow bucket.
func HDRNumBuckets() int { return len(hdrBounds) + 1 }

// HDRBucketIndex returns the bucket an observation of v seconds lands
// in: the smallest i with v <= hdrBounds[i], or len(hdrBounds) for the
// overflow bucket. Binary search over ~70 bounds — a handful of
// comparisons, no allocation.
func HDRBucketIndex(v float64) int {
	lo, hi := 0, len(hdrBounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if v <= hdrBounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// HDRBucketLabel returns the le label of bucket i ("0.000125" …
// "+Inf"), matching the exposition's rendering exactly.
func HDRBucketLabel(i int) string {
	if i < 0 {
		i = 0
	}
	if i >= len(hdrLabels) {
		i = len(hdrLabels) - 1
	}
	return hdrLabels[i]
}

// HDRBucketLabelFor returns the le label of the bucket v seconds falls
// into — the /debug/traces board uses it to tag each trace with the
// histogram bucket its duration was counted in.
func HDRBucketLabelFor(v float64) string {
	return hdrLabels[HDRBucketIndex(v)]
}

// Exemplar links one recorded observation to its trace.
type Exemplar struct {
	TraceID string  `json:"trace_id"`
	Seconds float64 `json:"seconds"`
	Unix    int64   `json:"unix"`
}

// HDRHistogram is a concurrent log-linear histogram over the shared
// bounds. Observations are two atomic adds (bucket count + sum); no
// locks, no allocation, exemplar capture included.
type HDRHistogram struct {
	counts []atomic.Uint64
	sumNs  atomic.Int64
	// exemplars holds the latest traced observation per bucket; nil
	// when the histogram was built without exemplar capture (client
	// side, where there is no trace to link).
	exemplars []exemplarSlot
}

// exemplarSlot stores one bucket's exemplar in place, so capturing it
// allocates nothing. busy is a try-lock: a writer that finds it held drops
// its exemplar (the one being written is as fresh), so observing never
// waits; a reader waits out the few stores a writer holds it for.
type exemplarSlot struct {
	busy  atomic.Bool
	trace TraceID
	d     time.Duration
	unix  int64
}

func (e *exemplarSlot) store(trace TraceID, d time.Duration) {
	if e.busy.CompareAndSwap(false, true) {
		e.trace, e.d, e.unix = trace, d, time.Now().Unix()
		e.busy.Store(false)
	}
}

// load returns the slot's exemplar, nil when it holds none.
func (e *exemplarSlot) load() *Exemplar {
	for !e.busy.CompareAndSwap(false, true) {
		runtime.Gosched()
	}
	trace, d, unix := e.trace, e.d, e.unix
	e.busy.Store(false)
	if trace.IsZero() {
		return nil
	}
	return &Exemplar{TraceID: trace.String(), Seconds: d.Seconds(), Unix: unix}
}

// NewHDRHistogram builds a histogram without exemplar slots (the
// loadgen client side).
func NewHDRHistogram() *HDRHistogram {
	return &HDRHistogram{counts: make([]atomic.Uint64, HDRNumBuckets())}
}

// NewHDRHistogramExemplars builds a histogram that also captures one
// exemplar per bucket (the server side).
func NewHDRHistogramExemplars() *HDRHistogram {
	h := NewHDRHistogram()
	h.exemplars = make([]exemplarSlot, HDRNumBuckets())
	return h
}

// Observe records one duration.
func (h *HDRHistogram) Observe(d time.Duration) {
	h.counts[HDRBucketIndex(d.Seconds())].Add(1)
	h.sumNs.Add(int64(d))
}

// ObserveTrace records one duration and, when the histogram captures
// exemplars and the trace ID is set, remembers the trace as the
// bucket's exemplar. Last-writer-wins per bucket: the freshest slow
// request is exactly the one worth chasing.
func (h *HDRHistogram) ObserveTrace(d time.Duration, trace TraceID) {
	i := HDRBucketIndex(d.Seconds())
	h.counts[i].Add(1)
	h.sumNs.Add(int64(d))
	if h.exemplars != nil && !trace.IsZero() {
		h.exemplars[i].store(trace, d)
	}
}

// HDRSnapshot is a consistent-enough copy of a histogram's state:
// per-bucket counts (overflow last), total count and sum. Buckets are
// read one atomic load at a time, so a snapshot taken under concurrent
// writes can be off by in-flight observations — fine for exposition and
// quantile reads.
type HDRSnapshot struct {
	Counts     []uint64
	Count      uint64
	SumSeconds float64
}

// Snapshot copies the histogram's current state.
func (h *HDRHistogram) Snapshot() HDRSnapshot {
	s := HDRSnapshot{Counts: make([]uint64, len(h.counts))}
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		s.Count += c
	}
	s.SumSeconds = float64(h.sumNs.Load()) / float64(time.Second)
	return s
}

// Exemplars returns the bucket exemplars (index-parallel to Counts),
// nil entries for buckets without one. Returns nil when the histogram
// does not capture exemplars.
func (h *HDRHistogram) Exemplars() []*Exemplar {
	if h.exemplars == nil {
		return nil
	}
	out := make([]*Exemplar, len(h.exemplars))
	for i := range h.exemplars {
		out[i] = h.exemplars[i].load()
	}
	return out
}

// Quantile estimates the q-quantile (0 < q <= 1) in seconds by linear
// interpolation within the bucket the rank falls into — the same
// estimate Prometheus's histogram_quantile would compute from the
// exposed buckets, so client-side p99s and PromQL p99s agree. Returns 0
// for an empty snapshot; ranks in the overflow bucket report the last
// finite bound (the histogram cannot see past it).
func (s HDRSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var cum float64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		prev := cum
		cum += float64(c)
		if cum < rank {
			continue
		}
		if i >= len(hdrBounds) {
			return hdrBounds[len(hdrBounds)-1]
		}
		lower := 0.0
		if i > 0 {
			lower = hdrBounds[i-1]
		}
		upper := hdrBounds[i]
		frac := (rank - prev) / float64(c)
		if math.IsNaN(frac) || frac < 0 {
			frac = 0
		}
		return lower + (upper-lower)*frac
	}
	return hdrBounds[len(hdrBounds)-1]
}

// Mean returns the average observation in seconds (0 when empty).
func (s HDRSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.SumSeconds / float64(s.Count)
}
