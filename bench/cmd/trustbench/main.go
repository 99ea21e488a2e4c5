// Command trustbench measures trustd end to end and layer by layer. It
// builds cmd/trustd and cmd/synthgen from the checkout it runs in, drives
// each workload against a separate trustd process on loopback, checks
// every response against an in-process oracle, and prints every metric
// by name with its unit. The last line of output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
//
// One workload, one pass (what BENCHMARK.json's command runs):
//
//	trustbench --workload mixed --seed 1 --seconds 12 --trace 0
//
// Everything — every workload's end-to-end and traced passes, plus the
// knee search of each open-loop workload:
//
//	go -C bench run ./cmd/trustbench -seed 1 -json results.json
//
// Run it from inside a checkout; bench/README.md lists the metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/bench/trustbench"
)

func main() {
	var (
		workload = flag.String("workload", "", "run one workload (default: every workload, both passes, and the knee searches)")
		seed     = flag.Uint64("seed", 1, "seed for the request draws (class, chain, user agent, instant)")
		seconds  = flag.Float64("seconds", 0, "measured window of one run (default: BENCHMARK.json run_seconds, or 30 for a full run)")
		trace    = flag.Int("trace", 0, "1 for the traced pass: per-layer metrics instead of end-to-end ones")
		jsonOut  = flag.String("json", "", "also write the full results, with metadata and notes, to this JSON file")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fail(fmt.Errorf("-trace must be 0 or 1"))
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cwd, err := os.Getwd()
	if err != nil {
		fail(err)
	}
	root, err := trustbench.FindRoot(cwd)
	if err != nil {
		fail(err)
	}
	spec, err := trustbench.LoadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		fail(err)
	}
	bins, err := trustbench.Build(ctx, root)
	if err != nil {
		fail(err)
	}
	base := trustbench.Config{
		Root: root,
		Bins: bins,
		Seed: *seed,
	}

	var results []*trustbench.Result
	if *workload != "" {
		w, ok := trustbench.WorkloadByName(*workload)
		if _, declared := spec.Workload(*workload); !ok || !declared {
			fail(fmt.Errorf("unknown workload %q", *workload))
		}
		cfg := base
		cfg.Workload, cfg.Trace = w, *trace == 1
		cfg.Window = window(*seconds, float64(spec.RunSeconds))
		cfg.Warmup = warmup(w)
		if !cfg.Trace {
			cfg.Starts = setupStarts
		}
		res, err := trustbench.Run(ctx, cfg)
		if err != nil {
			fail(err)
		}
		if err := trustbench.CheckMetrics(spec, res); err != nil {
			fail(err)
		}
		results = append(results, res)
	} else {
		for _, sw := range spec.Workloads {
			w, ok := trustbench.WorkloadByName(sw.Name)
			if !ok {
				fail(fmt.Errorf("BENCHMARK.json workload %q has no definition", sw.Name))
			}
			cfg := base
			cfg.Workload = w
			cfg.Window = window(*seconds, 30)
			cfg.Warmup = warmup(w)
			passes := []trustbench.Config{cfg, cfg}
			passes[0].Starts = setupStarts
			passes[1].Trace = true
			if w.Rate > 0 && !w.Reload {
				passes = append(passes, cfg)
				passes[2].Knee = true
			}
			for _, c := range passes {
				res, err := trustbench.Run(ctx, c)
				if err != nil {
					fail(err)
				}
				if !c.Knee {
					if err := trustbench.CheckMetrics(spec, res); err != nil {
						fail(err)
					}
				}
				res.WriteText(os.Stdout)
				results = append(results, res)
			}
		}
	}

	if len(results) == 1 {
		results[0].WriteText(os.Stdout)
	}
	if err := trustbench.WriteMeta(os.Stdout, results[0].Meta); err != nil {
		fail(err)
	}
	if *jsonOut != "" {
		raw, err := json.MarshalIndent(results, "", "  ")
		if err != nil {
			fail(err)
		}
		if err := os.WriteFile(*jsonOut, append(raw, '\n'), 0o644); err != nil {
			fail(err)
		}
	}
	summary := trustbench.Summarize(results...)
	line, err := json.Marshal(summary)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
	if !summary.Correct {
		os.Exit(1)
	}
}

// setupStarts is how many times an end-to-end pass starts trustd; setup_s
// is the median of their times, steadier on a shared machine than one.
const setupStarts = 3

// window is the measured time: the flag, else the default.
func window(flagSeconds, def float64) time.Duration {
	if flagSeconds <= 0 {
		flagSeconds = def
	}
	return time.Duration(flagSeconds * float64(time.Second))
}

// warmup precedes each window: one second, and for an open loop that
// repeats its pool at least one pass over it, so trustd has served every
// verdict, what-if and read the pool asks for once and its verifier pools
// and caches are filled. A cold workload never repeats a request, so one
// second builds the verifiers it needs.
func warmup(w *trustbench.Workload) time.Duration {
	d := time.Second
	if w.Rate > 0 && !w.ColdAt {
		d = max(d, time.Duration(float64(w.Pool)/w.Rate*float64(time.Second)))
	}
	return d
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "trustbench:", err)
	os.Exit(2)
}
