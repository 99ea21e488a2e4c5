package trustbench

import (
	"context"
	"os"
	"testing"
	"time"
)

// TestSmoke builds trustd from this checkout and runs every workload's
// end-to-end pass for one second against it: every response must pass the
// oracle and the run must report exactly the declared metrics. The first
// run in a checkout also writes the reload workload's snapshot tree, which
// takes about twenty seconds more.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and starts trustd")
	}
	spec := loadRepoSpec(t)
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root, err := FindRoot(cwd)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	bins, err := Build(ctx, root)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range Workloads {
		t.Run(w.Name, func(t *testing.T) {
			res, err := Run(ctx, Config{
				Root: root, Bins: bins, Workload: w, Seed: 1,
				Window: time.Second,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("attempted %d, failed %d: %v", res.Attempted, res.Failed, res.Errors)
			}
			if err := CheckMetrics(spec, res); err != nil {
				t.Error(err)
			}
			for _, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("%s = %v, want a positive reading", m.Name, m.Value)
				}
			}
		})
	}
}
