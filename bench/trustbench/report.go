package trustbench

import (
	"encoding/json"
	"fmt"
	"io"
)

// SummaryMetric is one metric of the summary line.
type SummaryMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Summary is the one-line JSON object a run ends its output with.
type Summary struct {
	Correct   bool                     `json:"correct"`
	Attempted uint64                   `json:"attempted"`
	Failed    uint64                   `json:"failed"`
	Metrics   map[string]SummaryMetric `json:"metrics"`
}

// Summarize builds the summary of one or more results. With more than one
// result each metric is keyed "workload/metric".
func Summarize(results ...*Result) Summary {
	s := Summary{Correct: len(results) > 0, Metrics: map[string]SummaryMetric{}}
	for _, r := range results {
		s.Correct = s.Correct && r.Correct
		s.Attempted += r.Attempted
		s.Failed += r.Failed
		for _, m := range r.Metrics {
			key := m.Name
			if len(results) > 1 {
				key = r.Workload + "/" + m.Name
			}
			s.Metrics[key] = SummaryMetric{Value: m.Value, Unit: m.Unit}
		}
	}
	return s
}

// CheckMetrics verifies that a result reports exactly the metrics spec
// declares for its pass, with the declared units.
func CheckMetrics(spec *Spec, r *Result) error {
	want := spec.Metrics(r.Trace)
	if len(r.Metrics) != len(want) {
		return fmt.Errorf("%s run reports %d metrics, BENCHMARK.json declares %d", r.Workload, len(r.Metrics), len(want))
	}
	got := map[string]Metric{}
	for _, m := range r.Metrics {
		got[m.Name] = m
	}
	for _, w := range want {
		m, ok := got[w.Name]
		switch {
		case !ok:
			return fmt.Errorf("%s run does not report %s", r.Workload, w.Name)
		case m.Unit != w.Unit:
			return fmt.Errorf("%s run reports %s in %s, BENCHMARK.json says %s", r.Workload, w.Name, m.Unit, w.Unit)
		}
	}
	return nil
}

// WriteText prints a result for people: one metric per line, then the
// notes and any errors as comment lines.
func (r *Result) WriteText(w io.Writer) {
	pass := "end-to-end"
	if r.Trace {
		pass = "traced"
	}
	fmt.Fprintf(w, "# %s seed %d, %s pass: %d attempted, %d failed, correct=%t\n", r.Workload, r.Seed, pass, r.Attempted, r.Failed, r.Correct)
	for _, m := range r.Metrics {
		fmt.Fprintf(w, "%-12s %-28s %14.4f %s\n", r.Workload, m.Name, m.Value, m.Unit)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "# %s: %s\n", r.Workload, n)
	}
	for _, e := range r.Errors {
		fmt.Fprintf(w, "# %s ERROR: %s\n", r.Workload, e)
	}
}

// WriteMeta prints the run's machine and build facts as a comment line.
func WriteMeta(w io.Writer, m Meta) error {
	raw, err := json.Marshal(m)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "# meta %s\n", raw)
	return err
}
