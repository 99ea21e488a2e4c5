package trustbench

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"regexp"
)

// Spec is BENCHMARK.json: the command, the workloads, and the metrics a
// run reports with their regression bounds. The file is read by the CLI
// (to check that a run reports exactly the declared metrics) and by
// compare (for the bounds).
type Spec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []SpecWorkload `json:"workloads"`
	EndToEnd   []SpecMetric   `json:"end_to_end"`
	PerLayer   []SpecMetric   `json:"per_layer"`
}

// SpecWorkload names one workload and why it exists.
type SpecWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// SpecMetric declares one metric. Bound is set for end-to-end metrics
// only: the share of the parent's median by which the metric may worsen.
type SpecMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// Move records which end-to-end metric a per-layer metric should move,
// and on which workload: the prediction a change to that layer is judged
// against.
type Move struct {
	Metric   string
	Workload string
}

// LayerMoves maps every per-layer metric to the end-to-end metric it
// should move. It lives beside the code that measures the layers because
// BENCHMARK.json has no field for it; Validate checks that both agree.
var LayerMoves = map[string]Move{
	"load.p50_ms":                 {"cpu_us_per_op", "mixed"},
	"load.lag_p99_ms":             {"cpu_us_per_op", "mixed"},
	"load.gap_p50_ms":             {"cpu_us_per_op", "mixed"},
	"load.samples":                {"cpu_us_per_op", "mixed"},
	"load.p99_ms":                 {"cpu_us_per_op", "reload"},
	"load.ops_per_s":              {"cpu_us_per_op", "batch"},
	"load.p999_ms":                {"cpu_us_per_op", "reload"},
	"service.server_p50_ms":       {"cpu_us_per_op", "mixed"},
	"service.server_p99_ms":       {"cpu_us_per_op", "verify-cold"},
	"service.server_us_per_op":    {"cpu_us_per_op", "batch"},
	"service.verdict_hit_ratio":   {"cpu_us_per_op", "verify-cold"},
	"service.verifier_builds":     {"cpu_us_per_op", "verify-cold"},
	"service.heap_inuse_mb":       {"rss_mb", "mixed"},
	"service.first_after_swap_ms": {"cpu_us_per_op", "reload"},
	"service.handler_us":          {"cpu_us_per_op", "mixed"},
	"service.glue_us":             {"cpu_us_per_op", "mixed"},
	"service.allocs_per_op":       {"cpu_us_per_op", "batch"},
	"service.index_build_ms":      {"setup_s", "mixed"},
	"useragent.route_us":          {"cpu_us_per_op", "mixed"},
	"verify.parse_us":             {"cpu_us_per_op", "mixed"},
	"verify.chain_p50_us":         {"cpu_us_per_op", "verify-cold"},
	"verify.chain_p99_us":         {"cpu_us_per_op", "verify-cold"},
	"verify.pool_build_ms":        {"cpu_us_per_op", "reload"},
	"store.resolve_us":            {"cpu_us_per_op", "mixed"},
	"store.diff_us":               {"cpu_us_per_op", "mixed"},
	"simulate.event_us":           {"cpu_us_per_op", "mixed"},
	"simulate.engine_build_ms":    {"cpu_us_per_op", "reload"},
	"archive.hash_db_ms":          {"cpu_us_per_op", "reload"},
	"archive.decode_ms":           {"setup_s", "reload"},
	"archive.encode_ms":           {"cpu_us_per_op", "reload"},
	"catalog.tree_hash_ms":        {"setup_s", "reload"},
	"catalog.parse_ms":            {"cpu_us_per_op", "reload"},
	"catalog.refresh_archive_ms":  {"cpu_us_per_op", "reload"},
	"catalog.load_tree_ms":        {"setup_s", "reload"},
	"tracker.initial_rescan_ms":   {"setup_s", "reload"},
	"tracker.rescan_ms":           {"cpu_us_per_op", "reload"},
	"tracker.scan_ms":             {"cpu_us_per_op", "reload"},
	"tracker.load_ms":             {"cpu_us_per_op", "reload"},
	"tracker.swap_ms":             {"rss_mb", "reload"},
	"tracker.classify_ms":         {"cpu_us_per_op", "reload"},
	"tracker.events":              {"cpu_us_per_op", "reload"},
	"reload_s":                    {"cpu_us_per_op", "reload"},
	"obs.trace_overhead_pct":      {"cpu_us_per_op", "mixed"},
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_.\-/]{1,200}$`)
)

// LoadSpec reads and validates a BENCHMARK.json file. Unknown keys are
// rejected: the file has a fixed shape.
func LoadSpec(path string) (*Spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read spec: %w", err)
	}
	if len(raw) > 64<<10 {
		return nil, fmt.Errorf("spec %s: %d bytes, limit is 64 KiB", path, len(raw))
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("decode spec %s: %w", path, err)
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("spec %s: %w", path, err)
	}
	return &s, nil
}

// Validate checks the limits the file must meet and that every per-layer
// metric maps (through LayerMoves) to a declared end-to-end metric and
// workload.
func (s *Spec) Validate() error {
	var errs []error
	bad := func(format string, args ...any) { errs = append(errs, fmt.Errorf(format, args...)) }

	if n := len(s.Command); n < 1 || n > 32 {
		bad("command has %d strings, want 1..32", n)
	}
	if n := len(s.Paths); n < 1 || n > 16 {
		bad("paths has %d entries, want 1..16", n)
	}
	for _, p := range s.Paths {
		if !pathRE.MatchString(p) || p[0] == '/' || bytes.Contains([]byte("/"+p+"/"), []byte("/../")) {
			bad("path %q is not a relative path inside the repo", p)
		}
	}
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		bad("run_seconds %d, want 1..60", s.RunSeconds)
	}
	if n := len(s.Workloads); n < 2 || n > 8 {
		bad("%d workloads, want 2..8", n)
	}
	if n := len(s.EndToEnd); n < 1 || n > 16 {
		bad("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(s.PerLayer); n < 1 || n > 128 {
		bad("%d per-layer metrics, want 1..128", n)
	}

	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			bad("%s name %q does not match %s", kind, n, nameRE)
		}
		if seen[n] {
			bad("name %q used twice", n)
		}
		seen[n] = true
	}
	workloads := map[string]bool{}
	for _, w := range s.Workloads {
		name("workload", w.Name)
		workloads[w.Name] = true
		if w.Why == "" || len(w.Why) > 200 || bytes.ContainsAny([]byte(w.Why), "\r\n") {
			bad("workload %q: why must be one line of 1..200 characters", w.Name)
		}
	}
	e2e := map[string]bool{}
	hasSetup := false
	for _, m := range s.EndToEnd {
		name("metric", m.Name)
		e2e[m.Name] = true
		s.checkMetric(m, bad)
		switch {
		case m.Bound == nil:
			bad("end-to-end metric %q has no bound", m.Name)
		case *m.Bound <= 0 || *m.Bound > 0.25:
			bad("end-to-end metric %q: bound %v, want (0, 0.25]", m.Name, *m.Bound)
		}
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == "lower"
			if !hasSetup {
				bad("setup_s must have unit s and better lower")
			}
		}
	}
	if !hasSetup {
		bad("end-to-end metrics must include setup_s")
	}
	layer := map[string]bool{}
	for _, m := range s.PerLayer {
		layer[m.Name] = true
		name("metric", m.Name)
		s.checkMetric(m, bad)
		if m.Bound != nil {
			bad("per-layer metric %q has a bound; only end-to-end metrics do", m.Name)
		}
		mv, ok := LayerMoves[m.Name]
		switch {
		case !ok:
			bad("per-layer metric %q names no end-to-end metric it should move", m.Name)
		case !e2e[mv.Metric]:
			bad("per-layer metric %q moves %q, which is not an end-to-end metric", m.Name, mv.Metric)
		case !workloads[mv.Workload]:
			bad("per-layer metric %q moves %q on %q, which is not a workload", m.Name, mv.Metric, mv.Workload)
		}
	}
	for n := range LayerMoves {
		if !layer[n] {
			bad("LayerMoves names %q, which is not declared as a per-layer metric", n)
		}
	}
	return errors.Join(errs...)
}

func (s *Spec) checkMetric(m SpecMetric, bad func(string, ...any)) {
	if !unitRE.MatchString(m.Unit) {
		bad("metric %q: unit %q does not match %s", m.Name, m.Unit, unitRE)
	}
	if m.Better != "lower" && m.Better != "higher" {
		bad("metric %q: better %q, want lower or higher", m.Name, m.Better)
	}
}

// Workload returns the declared workload named n.
func (s *Spec) Workload(n string) (SpecWorkload, bool) {
	for _, w := range s.Workloads {
		if w.Name == n {
			return w, true
		}
	}
	return SpecWorkload{}, false
}

// Metrics returns the metrics a run reports: the end-to-end set, or with
// trace the per-layer set.
func (s *Spec) Metrics(trace bool) []SpecMetric {
	if trace {
		return s.PerLayer
	}
	return s.EndToEnd
}
