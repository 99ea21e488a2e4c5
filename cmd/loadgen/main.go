// Command loadgen is trustd's open-loop load generator. It schedules
// arrivals up front at the target RPS (never waiting for completions —
// the coordinated-omission-free discipline), drives a mixed workload of
// reads, UA-weighted verifies, batch verifies, SSE watch connects and
// what-if simulations, and reports latency quantiles from the same HDR
// log-linear buckets trustd itself exports on /metrics/prometheus.
//
//	loadgen -url http://host:8080 -rps 500 -duration 30s \
//	        -mix read=45,verify=35,batch=5,watch=5,simulate=10 \
//	        -chain leaf.pem -stores NSS,Debian -json out.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"time"

	"repro/internal/load"
)

func main() {
	var (
		url         = flag.String("url", "", "trustd base URL (e.g. http://127.0.0.1:8080)")
		rps         = flag.Float64("rps", 100, "target offered request rate")
		duration    = flag.Duration("duration", 10*time.Second, "run length")
		mixSpec     = flag.String("mix", "", "workload mix, e.g. read=45,verify=35,batch=5,watch=5,simulate=10")
		seed        = flag.Uint64("seed", 1, "seed for the class and user-agent draws")
		jsonPath    = flag.String("json", "", "write the run report as JSON to this path (\"-\" for stdout)")
		watch       = flag.Int("watch-streams", 0, "long-lived SSE subscribers alongside the scheduled load")
		maxInFlight = flag.Int("max-inflight", 0, "in-flight cap; arrivals beyond it are shed, not queued")
		chainPath   = flag.String("chain", "", "PEM chain file for verify/batch classes")
		stores      = flag.String("stores", "", "comma-separated snapshot refs for verify/batch")
		readPaths   = flag.String("read", "", "comma-separated GET paths for the read class")
		simBody     = flag.String("simulate-body", "", "JSON body file for the simulate class")
	)
	flag.Parse()
	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))

	if *url == "" {
		fmt.Fprintln(os.Stderr, "loadgen: -url required")
		os.Exit(2)
	}

	opts := load.Options{
		BaseURL:      *url,
		RPS:          *rps,
		Duration:     *duration,
		Seed:         *seed,
		WatchStreams: *watch,
		MaxInFlight:  *maxInFlight,
	}
	if *mixSpec != "" {
		mix, err := load.ParseMix(*mixSpec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
			os.Exit(2)
		}
		opts.Mix = mix
	}

	var target load.Target
	if *readPaths != "" {
		target.ReadPaths = splitList(*readPaths)
	}
	if *stores != "" {
		target.Stores = splitList(*stores)
	}
	if *chainPath != "" {
		pemBytes, err := os.ReadFile(*chainPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: read chain: %v\n", err)
			os.Exit(2)
		}
		target.ChainPEM = string(pemBytes)
	}
	if *simBody != "" {
		raw, err := os.ReadFile(*simBody)
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: read simulate body: %v\n", err)
			os.Exit(2)
		}
		target.SimulateBody = raw
	}
	if opts.Mix == nil {
		// Default mix restricted to the classes this invocation actually
		// configured — verify/batch need a chain, simulate needs a body.
		mix := load.Mix{load.ClassRead: 0.5, load.ClassWatch: 0.05}
		if target.ChainPEM != "" {
			mix[load.ClassVerify] = 0.35
			mix[load.ClassBatch] = 0.05
		}
		if len(target.SimulateBody) > 0 {
			mix[load.ClassSimulate] = 0.10
		}
		opts.Mix = mix
	}

	runner, err := load.NewRunner(opts, target)
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		os.Exit(2)
	}
	logger.Info("loadgen start", "url", *url, "rps", *rps, "duration", *duration)
	rep, err := runner.Run(context.Background())
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		os.Exit(1)
	}
	if err := writeReport(rep, *jsonPath); err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		os.Exit(1)
	}
	printSummary(os.Stderr, rep)
}

func splitList(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			if i > start {
				out = append(out, s[start:i])
			}
			start = i + 1
		}
	}
	return out
}

// writeReport emits the report JSON to path ("-" or "" meaning stdout
// when explicitly requested; "" writes nothing).
func writeReport(rep *load.Report, path string) error {
	if path == "" {
		return nil
	}
	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	raw = append(raw, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(raw)
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

func printSummary(w *os.File, rep *load.Report) {
	fmt.Fprintf(w, "offered %.1f req/s (target %.1f), completed %.1f req/s, 5xx=%d transport=%d shed=%d mixed=%d\n",
		rep.OfferedRPS, rep.TargetRPS, rep.AchievedRPS, rep.Total5xx(), rep.TotalTransportErrors(), rep.TotalShed(), rep.MixedGenerationVerdicts)
	for _, name := range rep.ClassNames() {
		cr := rep.Classes[name]
		fmt.Fprintf(w, "  %-9s issued=%-6d p50=%6.1fms p90=%6.1fms p99=%6.1fms p999=%6.1fms\n",
			name, cr.Issued, cr.P50*1e3, cr.P90*1e3, cr.P99*1e3, cr.P999*1e3)
	}
}
