package trustbench

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func loadRepoSpec(t *testing.T) *Spec {
	t.Helper()
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root, err := FindRoot(cwd)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := LoadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestRepoSpec checks the checked-in BENCHMARK.json, and that it declares
// exactly the workloads this package defines, in the same order.
func TestRepoSpec(t *testing.T) {
	spec := loadRepoSpec(t)
	if len(spec.Workloads) != len(Workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the package defines %d", len(spec.Workloads), len(Workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != Workloads[i].Name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the package %q", i, w.Name, Workloads[i].Name)
		}
	}
}

func TestSpecValidateRejects(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(s *Spec)
		want   string
	}{
		{"bad workload name", func(s *Spec) { s.Workloads[0].Name = "mixed load" }, "does not match"},
		{"bad metric name", func(s *Spec) { s.EndToEnd[1].Name = "p50/ms" }, "does not match"},
		{"name used twice", func(s *Spec) { s.EndToEnd[1].Name = s.Workloads[0].Name }, "used twice"},
		{"one workload", func(s *Spec) { s.Workloads = s.Workloads[:1] }, "want 2..8"},
		{"nine workloads", func(s *Spec) {
			for i := len(s.Workloads); i < 9; i++ {
				s.Workloads = append(s.Workloads, SpecWorkload{Name: fmt.Sprintf("w%d", i), Why: "padding"})
			}
		}, "want 2..8"},
		{"seventeen end-to-end metrics", func(s *Spec) {
			for i := len(s.EndToEnd); i < 17; i++ {
				b := 0.1
				s.EndToEnd = append(s.EndToEnd, SpecMetric{Name: fmt.Sprintf("m%d", i), Unit: "ms", Better: "lower", Bound: &b})
			}
		}, "want 1..16"},
		{"129 layer metrics", func(s *Spec) {
			for i := len(s.PerLayer); i < 129; i++ {
				s.PerLayer = append(s.PerLayer, SpecMetric{Name: fmt.Sprintf("layer.m%d", i), Unit: "us", Better: "lower"})
			}
		}, "want 1..128"},
		{"bound above 0.25", func(s *Spec) { b := 0.3; s.EndToEnd[0].Bound = &b }, "bound"},
		{"no setup_s", func(s *Spec) { s.EndToEnd = s.EndToEnd[1:] }, "setup_s"},
		{"layer metric moving nothing", func(s *Spec) {
			s.PerLayer = append(s.PerLayer, SpecMetric{Name: "verify.unmapped_us", Unit: "us", Better: "lower"})
		}, "names no end-to-end metric"},
		{"layer metric moving a dropped end-to-end metric", func(s *Spec) {
			for i, m := range s.EndToEnd {
				if m.Name == LayerMoves["verify.chain_p50_us"].Metric {
					s.EndToEnd = append(s.EndToEnd[:i:i], s.EndToEnd[i+1:]...)
					return
				}
			}
		}, "not an end-to-end metric"},
		{"layer metric moving a dropped workload", func(s *Spec) {
			for i, w := range s.Workloads {
				if w.Name == LayerMoves["tracker.rescan_ms"].Workload {
					s.Workloads = append(s.Workloads[:i:i], s.Workloads[i+1:]...)
					return
				}
			}
		}, "not a workload"},
		{"moves entry not declared", func(s *Spec) { s.PerLayer = s.PerLayer[1:] }, "not declared"},
		{"two-line why", func(s *Spec) { s.Workloads[0].Why = "one\ntwo" }, "one line"},
		{"absolute path", func(s *Spec) { s.Paths = []string{"/bench"} }, "relative path"},
		{"path out of the repo", func(s *Spec) { s.Paths = []string{"bench/../../x"} }, "relative path"},
		{"bad unit", func(s *Spec) { s.EndToEnd[0].Unit = "seconds per run" }, "unit"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := loadRepoSpec(t)
			tc.mutate(s)
			err := s.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Validate() = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}
