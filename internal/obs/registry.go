package obs

// A Registry is where a subsystem declares its metric families, each
// exactly once: name, help, type and label names. A declaration returns
// the atomic handle the code counts with, and every view renders from the
// declarations:
//
//   - Families feeds WriteExposition (/metrics/prometheus);
//   - String is the JSON view (/metrics, and /debug/vars once the registry
//     is passed to expvar.Publish);
//   - Value reads one series (tests).
//
// JSON rule: the object is keyed by family name. An unlabelled family's
// value is its number; a labelled family nests one object level per label,
// keyed by label value in declaration order. A histogram series renders as
// {"count","sum","p50","p90","p99","p999"} in the family's unit (seconds).
// Non-finite values, which JSON cannot hold, render as the exposition's
// strings "NaN", "+Inf" and "-Inf". Both views show the same series:
// histogram series with no observations are left out of each.

import (
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds declared families plus the registries it includes.
// Declaring is safe at any time; rendering reads a consistent family list.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	includes []*Registry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{families: map[string]*family{}} }

// family is one declaration. collect emits the family's series at render
// time: the children of a vector, or whatever a func collector reports.
type family struct {
	name, help string
	typ        MetricType
	labels     []string
	collect    func(emit func(point))
}

// point is one series at render time: label values parallel to the
// family's labels, and either a value or a histogram snapshot.
type point struct {
	values    []string
	value     float64
	hist      *HDRSnapshot
	exemplars []*Exemplar
}

// declare validates and records a family. Every failure is a programming
// error, so it panics while the subsystem is being built — never on a
// request path.
func (r *Registry) declare(name, help string, typ MetricType, labels []string, collect func(emit func(point))) {
	switch {
	case !metricNameRe.MatchString(name):
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	case help == "":
		panic(fmt.Sprintf("obs: %s has no help text", name))
	case typ == Counter && !strings.HasSuffix(name, "_total"):
		panic(fmt.Sprintf("obs: counter %s must end in _total", name))
	}
	for _, l := range labels {
		if !labelNameRe.MatchString(l) || l == "le" {
			panic(fmt.Sprintf("obs: %s: invalid label name %q", name, l))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.hasLocked(name) {
		panic(fmt.Sprintf("obs: %s declared twice", name))
	}
	r.families[name] = &family{name: name, help: help, typ: typ, labels: labels, collect: collect}
}

// hasLocked reports whether name is declared here or in an included
// registry. r.mu is held.
func (r *Registry) hasLocked(name string) bool {
	if r.families[name] != nil {
		return true
	}
	for _, sub := range r.includes {
		sub.mu.Lock()
		found := sub.hasLocked(name)
		sub.mu.Unlock()
		if found {
			return true
		}
	}
	return false
}

// Include renders sub's families with r's, so a subsystem (tracker,
// cluster origin or replica) declares in its own registry and the server
// that hosts it serves them. A name declared in both panics.
func (r *Registry) Include(sub *Registry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, f := range sub.gather() {
		if r.hasLocked(f.name) {
			panic(fmt.Sprintf("obs: included family %s is already declared", f.name))
		}
	}
	r.includes = append(r.includes, sub)
}

// gather lists every family, included ones too, sorted by name.
func (r *Registry) gather() []*family {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	subs := append([]*Registry(nil), r.includes...)
	r.mu.Unlock()
	for _, sub := range subs {
		fams = append(fams, sub.gather()...)
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

// Counter declares an unlabelled counter.
func (r *Registry) Counter(name, help string) *CounterVar {
	return r.CounterVec(name, help).With()
}

// CounterVec declares a counter family with the given label names.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{declareVec(r, name, help, Counter, labels, func() *CounterVar { return new(CounterVar) },
		func(c *CounterVar, p *point) bool { p.value = c.Value(); return true })}
}

// Gauge declares an unlabelled gauge.
func (r *Registry) Gauge(name, help string) *GaugeVar {
	return declareVec(r, name, help, Gauge, nil, func() *GaugeVar { return new(GaugeVar) },
		func(g *GaugeVar, p *point) bool { p.value = g.Value(); return true }).with(nil)
}

// HistogramVec declares a latency histogram family over the shared HDR
// bounds, capturing one trace exemplar per bucket.
func (r *Registry) HistogramVec(name, help string, labels ...string) *HistogramVec {
	return &HistogramVec{declareVec(r, name, help, Histogram, labels, NewHDRHistogramExemplars,
		func(h *HDRHistogram, p *point) bool {
			s := h.Snapshot()
			p.hist, p.exemplars = &s, h.Exemplars()
			return s.Count > 0
		})}
}

// Func declares a family whose series are computed at render time:
// collect calls emit once per series, with one label value per declared
// label.
func (r *Registry) Func(name, help string, typ MetricType, labels []string, collect func(emit func(v float64, values ...string))) {
	r.declare(name, help, typ, labels, func(emit func(point)) {
		collect(func(v float64, values ...string) {
			if len(values) != len(labels) {
				panic(fmt.Sprintf("obs: %s takes %d label values, got %d", name, len(labels), len(values)))
			}
			emit(point{values: append([]string(nil), values...), value: v})
		})
	})
}

// GaugeFunc declares an unlabelled gauge read at render time.
func (r *Registry) GaugeFunc(name, help string, f func() float64) {
	r.Func(name, help, Gauge, nil, func(emit func(float64, ...string)) { emit(f()) })
}

// CounterFunc declares an unlabelled counter read at render time.
func (r *Registry) CounterFunc(name, help string, f func() float64) {
	r.Func(name, help, Counter, nil, func(emit func(float64, ...string)) { emit(f()) })
}

// Families renders every family for WriteExposition.
func (r *Registry) Families() []MetricFamily {
	fams := r.gather()
	out := make([]MetricFamily, 0, len(fams))
	for _, f := range fams {
		mf := MetricFamily{Name: f.name, Help: f.help, Type: f.typ}
		f.collect(func(p point) {
			labels := make([]Label, len(f.labels))
			for i, name := range f.labels {
				labels[i] = Label{Name: name, Value: p.values[i]}
			}
			if p.hist == nil {
				mf.Samples = append(mf.Samples, Sample{Labels: labels, Value: p.value})
				return
			}
			mf.Samples = append(mf.Samples, HistogramSamplesExemplars(labels, hdrBounds, p.hist.Counts, p.hist.SumSeconds, p.exemplars)...)
		})
		out = append(out, mf)
	}
	return out
}

// String renders the JSON view (see the package rule above). It makes the
// registry an expvar.Var.
func (r *Registry) String() string {
	root := map[string]any{}
	for _, f := range r.gather() {
		if len(f.labels) > 0 {
			root[f.name] = map[string]any{}
		}
		f.collect(func(p point) {
			leaf := jsonValue(p.value)
			if p.hist != nil {
				leaf = map[string]any{
					"count": p.hist.Count,
					"sum":   jsonValue(p.hist.SumSeconds),
					"p50":   jsonValue(p.hist.Quantile(0.50)),
					"p90":   jsonValue(p.hist.Quantile(0.90)),
					"p99":   jsonValue(p.hist.Quantile(0.99)),
					"p999":  jsonValue(p.hist.Quantile(0.999)),
				}
			}
			m, key := root, f.name
			for _, v := range p.values {
				next, ok := m[key].(map[string]any)
				if !ok {
					next = map[string]any{}
					m[key] = next
				}
				m, key = next, v
			}
			m[key] = leaf
		})
	}
	b, err := json.Marshal(root)
	if err != nil { // only maps, strings and finite numbers reach Marshal
		panic(err)
	}
	return string(b)
}

// jsonValue passes finite numbers through and spells the others the way
// the exposition does.
func jsonValue(v float64) any {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return formatValue(v)
	}
	return v
}

// Value reads one series: the value of a counter or gauge, the observation
// count of a histogram. ok is false when the family or series is absent.
func (r *Registry) Value(name string, values ...string) (v float64, ok bool) {
	for _, f := range r.gather() {
		if f.name != name {
			continue
		}
		f.collect(func(p point) {
			if !ok && slices.Equal(p.values, values) {
				ok, v = true, p.value
				if p.hist != nil {
					v = float64(p.hist.Count)
				}
			}
		})
	}
	return v, ok
}

// CounterVar is a monotonically increasing value. Integral increments are
// one atomic add; fractional ones (seconds) a compare-and-swap loop.
type CounterVar struct {
	n    atomic.Uint64 // sum of integral increments
	frac atomic.Uint64 // float64 bits of the sum of the others
}

// Inc adds one.
func (c *CounterVar) Inc() { c.n.Add(1) }

// Add adds v, which must not be negative.
func (c *CounterVar) Add(v float64) {
	if v < 0 {
		panic("obs: counter decreased")
	}
	if u := uint64(v); float64(u) == v {
		c.n.Add(u)
		return
	}
	addFloat(&c.frac, v)
}

// Value returns the counter's total.
func (c *CounterVar) Value() float64 {
	return float64(c.n.Load()) + math.Float64frombits(c.frac.Load())
}

// GaugeVar is a value that goes up and down.
type GaugeVar struct{ bits atomic.Uint64 }

// Set replaces the gauge's value.
func (g *GaugeVar) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add moves the gauge by d.
func (g *GaugeVar) Add(d float64) { addFloat(&g.bits, d) }

// Value returns the gauge's current value.
func (g *GaugeVar) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func addFloat(bits *atomic.Uint64, d float64) {
	for {
		old := bits.Load()
		if bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// CounterVec is a labelled counter family.
type CounterVec struct{ v *vec[CounterVar] }

// With returns the counter for the label values, creating it on first
// use. Later calls with the same values return the same handle without
// locking or allocating.
func (c *CounterVec) With(values ...string) *CounterVar { return c.v.with(values) }

// HistogramVec is a labelled HDR histogram family.
type HistogramVec struct{ v *vec[HDRHistogram] }

// With returns the histogram for the label values, creating it on first
// use; as CounterVec.With.
func (h *HistogramVec) With(values ...string) *HDRHistogram { return h.v.with(values) }

// vec maps label values to handles. Reads go through an immutable map
// behind an atomic pointer; a new label value copies the map under mu.
// Label values are few (routes, outcomes, cache names), so the copy is
// cheap and the hot path never locks.
type vec[T any] struct {
	name     string
	arity    int
	newChild func() *T
	mu       sync.Mutex
	children atomic.Pointer[map[string]*child[T]]
}

type child[T any] struct {
	values []string
	h      *T
}

// declareVec declares a family whose series are a vector's children;
// read fills a point from one handle and reports whether it is shown.
func declareVec[T any](r *Registry, name, help string, typ MetricType, labels []string, newChild func() *T, read func(*T, *point) bool) *vec[T] {
	v := &vec[T]{name: name, arity: len(labels), newChild: newChild}
	v.children.Store(&map[string]*child[T]{})
	r.declare(name, help, typ, labels, func(emit func(point)) {
		for _, c := range *v.children.Load() {
			p := point{values: c.values}
			if read(c.h, &p) {
				emit(p)
			}
		}
	})
	return v
}

func (v *vec[T]) with(values []string) *T {
	if len(values) != v.arity {
		panic(fmt.Sprintf("obs: %s takes %d label values, got %d", v.name, v.arity, len(values)))
	}
	var buf [128]byte
	if c := (*v.children.Load())[string(vecKey(buf[:0], values))]; c != nil {
		return c.h
	}
	return v.add(values)
}

// vecKey joins label values with a byte no UTF-8 text holds.
func vecKey(b []byte, values []string) []byte {
	for i, s := range values {
		if i > 0 {
			b = append(b, 0xff)
		}
		b = append(b, s...)
	}
	return b
}

func (v *vec[T]) add(values []string) *T {
	key := string(vecKey(nil, values))
	v.mu.Lock()
	defer v.mu.Unlock()
	old := *v.children.Load()
	if c := old[key]; c != nil {
		return c.h
	}
	next := maps.Clone(old)
	c := &child[T]{values: append([]string(nil), values...), h: v.newChild()}
	next[key] = c
	v.children.Store(&next)
	return c.h
}

// RegisterRuntime declares the Go runtime's health families on r:
// goroutines, heap and GC totals, read when rendered.
func RegisterRuntime(r *Registry) {
	mem := func(f func(*runtime.MemStats) float64) func() float64 {
		return func() float64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return f(&ms)
		}
	}
	r.GaugeFunc("go_goroutines", "Number of goroutines that currently exist.", func() float64 { return float64(runtime.NumGoroutine()) })
	r.GaugeFunc("go_heap_alloc_bytes", "Bytes of allocated heap objects.", mem(func(ms *runtime.MemStats) float64 { return float64(ms.HeapAlloc) }))
	r.GaugeFunc("go_heap_inuse_bytes", "Bytes in in-use heap spans.", mem(func(ms *runtime.MemStats) float64 { return float64(ms.HeapInuse) }))
	r.GaugeFunc("go_heap_objects", "Number of allocated heap objects.", mem(func(ms *runtime.MemStats) float64 { return float64(ms.HeapObjects) }))
	r.CounterFunc("go_gc_cycles_total", "Completed GC cycles.", mem(func(ms *runtime.MemStats) float64 { return float64(ms.NumGC) }))
	r.CounterFunc("go_gc_pause_seconds_total", "Cumulative GC stop-the-world pause time.", mem(func(ms *runtime.MemStats) float64 { return float64(ms.PauseTotalNs) / 1e9 }))
	r.GaugeFunc("go_next_gc_bytes", "Heap size target of the next GC cycle.", mem(func(ms *runtime.MemStats) float64 { return float64(ms.NextGC) }))
}
